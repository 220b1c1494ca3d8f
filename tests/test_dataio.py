import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtfl import dataio
from mtfl.container import (BadMagicError, NonFiniteError, TruncationError,
                            VersionError)
from mtfl.dataio import (Dataset, SynthConfig, VideoRecord, read_feature_file,
                         read_manifest, segment_to_snippets, synth_generate,
                         write_feature_file)


class TestFeatureFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        m = np.random.default_rng(0).normal(size=(7, 5)).astype(np.float32)
        p = tmp_path / "a.mtfb"
        write_feature_file(p, m)
        first = p.read_bytes()
        back = read_feature_file(p)
        assert np.array_equal(back.astype(np.float32), m)
        write_feature_file(p, back)
        assert p.read_bytes() == first

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "a.mtfb"
        write_feature_file(p, np.ones((2, 2)))
        p.write_bytes(b"XXXX" + p.read_bytes()[4:])
        with pytest.raises(BadMagicError):
            read_feature_file(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "a.mtfb"
        write_feature_file(p, np.ones((2, 2)))
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(VersionError):
            read_feature_file(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "a.mtfb"
        write_feature_file(p, np.ones((10, 3)))
        raw = p.read_bytes()
        p.write_bytes(raw[:16 + 4 * 9 * 3])  # header says 10 rows, 9 present
        with pytest.raises(TruncationError):
            read_feature_file(p)

    def test_nan_payload_rejected(self, tmp_path):
        p = tmp_path / "a.mtfb"
        with pytest.raises(NonFiniteError):
            write_feature_file(p, np.array([[np.nan, 1.0]]))
        write_feature_file(p, np.ones((1, 2)))
        raw = bytearray(p.read_bytes())
        raw[16:20] = np.float32(np.nan).tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(NonFiniteError):
            read_feature_file(p)


def write_video_files(tmp_path, vid, d=4, n_clips=6):
    rng = np.random.default_rng(hash(vid) % 2**32)
    paths = []
    for scale in ("short", "medium", "long"):
        rel = f"{vid}_{scale}.mtfb"
        write_feature_file(tmp_path / rel, rng.normal(size=(n_clips, d)))
        paths.append(rel)
    return paths


class TestManifest:
    def _manifest(self, tmp_path, lines):
        p = tmp_path / "manifest.csv"
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_empty_intervals(self, tmp_path):
        paths = write_video_files(tmp_path, "v0")
        paths_a = write_video_files(tmp_path, "v1")
        m = self._manifest(tmp_path, [
            f"v0,0,120,{','.join(paths)},",
            f"v1,1,120,{','.join(paths_a)},",
        ])
        ds = read_manifest(m)
        assert ds.videos[0].intervals == []

    def test_two_intervals_parsed(self, tmp_path):
        paths = write_video_files(tmp_path, "v0")
        paths_a = write_video_files(tmp_path, "v1")
        m = self._manifest(tmp_path, [
            f"v0,0,200,{','.join(paths)},",
            f"v1,1,200,{','.join(paths_a)},0:30;90:120",
        ])
        ds = read_manifest(m)
        assert ds.videos[1].intervals == [(0, 30), (90, 120)]

    def test_interval_out_of_range_names_video(self, tmp_path):
        paths = write_video_files(tmp_path, "v0")
        paths_a = write_video_files(tmp_path, "badvid")
        m = self._manifest(tmp_path, [
            f"v0,0,100,{','.join(paths)},",
            f"badvid,1,100,{','.join(paths_a)},50:150",
        ])
        with pytest.raises(ValueError, match="badvid"):
            read_manifest(m)

    def test_malformed_line_reports_line_number(self, tmp_path):
        m = self._manifest(tmp_path, ["v0,0,100,a,b"])
        with pytest.raises(dataio.ManifestError, match=":1:"):
            read_manifest(m)

    @pytest.mark.parametrize("frames", ["0", "-5"])
    def test_n_frames_below_one_names_line(self, tmp_path, frames):
        paths = write_video_files(tmp_path, "v0")
        m = self._manifest(tmp_path, [
            f"v0,0,100,{','.join(paths)},",
            f"v1,1,{frames},{','.join(paths)},",
        ])
        with pytest.raises(dataio.ManifestError, match=f":2: n_frames"):
            read_manifest(m)

    def test_d_mismatch_across_videos(self, tmp_path):
        paths = write_video_files(tmp_path, "v0", d=4)
        paths_a = write_video_files(tmp_path, "v1", d=6)
        m = self._manifest(tmp_path, [
            f"v0,0,100,{','.join(paths)},",
            f"v1,1,100,{','.join(paths_a)},",
        ])
        with pytest.raises(ValueError, match="dimension"):
            read_manifest(m)

    def test_round_trip_fixed_point(self, tmp_path):
        cfg = SynthConfig(n_normal_train=2, n_abnormal_train=2,
                          n_normal_test=1, n_abnormal_test=1, d=4)
        synth_generate(cfg, 3, out_dir=tmp_path)
        path = tmp_path / "test_manifest.csv"
        ds = read_manifest(path, split="test")
        lines = []
        for v in ds.videos:
            lines.append(",".join([
                v.video_id, str(v.label), str(v.n_frames),
                f"features/{v.video_id}_short.mtfb",
                f"features/{v.video_id}_medium.mtfb",
                f"features/{v.video_id}_long.mtfb",
                dataio.format_intervals(v.intervals)]))
        assert path.read_text() == "\n".join(lines) + "\n"


def segment_loop(clips, t):
    """The per-snippet loop `segment_to_snippets` replaced, kept as its
    reference."""
    n = clips.shape[0]
    out = np.empty((t, clips.shape[1]), dtype=clips.dtype)
    for i in range(t):
        lo = i * n // t
        hi = (i + 1) * n // t
        if hi <= lo:
            out[i] = clips[lo]
        else:
            out[i] = clips[lo:hi].mean(axis=0)
    return out


class TestSegmentToSnippets:
    @pytest.mark.parametrize("n,t", [(1, 1), (1, 32), (5, 32), (31, 32),
                                     (32, 32), (33, 32), (100, 7),
                                     (1000, 32), (4001, 70)])
    def test_equals_loop(self, n, t):
        rng = np.random.default_rng(n * 100 + t)
        # float32 values widened to float64, as feature files load
        clips = rng.normal(size=(n, 5)).astype(np.float32).astype(np.float64)
        assert np.array_equal(segment_to_snippets(clips, t),
                              segment_loop(clips, t))

    @given(st.integers(1, 400), st.integers(1, 70), st.integers(1, 40),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_loop_on_random_shapes(self, n, t, d, seed):
        clips = np.random.default_rng(seed).normal(size=(n, d))
        # Bit-equal on float32 values, which is what feature files hold.
        # Other float64 values may round differently in the last bit: the
        # loop's mean and reduceat add a block's rows in different orders.
        widened = clips.astype(np.float32).astype(np.float64)
        assert np.array_equal(segment_to_snippets(widened, t),
                              segment_loop(widened, t))
        assert np.allclose(segment_to_snippets(clips, t),
                           segment_loop(clips, t), rtol=0, atol=1e-12)

    def test_pairwise_means(self):
        clips = np.arange(64, dtype=float).reshape(64, 1)
        out = segment_to_snippets(clips, 32)
        assert np.array_equal(out.ravel(),
                              np.arange(0.5, 64, 2.0))

    def test_identity_when_equal(self):
        clips = np.random.default_rng(0).normal(size=(8, 3))
        assert np.array_equal(segment_to_snippets(clips, 8), clips)

    def test_duplication_when_short(self):
        clips = np.array([[1.0, 2.0]])
        out = segment_to_snippets(clips, 4)
        assert np.array_equal(out, np.tile(clips, (4, 1)))

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_global_mean_preserved_when_divisible(self, t, seed):
        rng = np.random.default_rng(seed)
        n = t * int(rng.integers(1, 5))
        clips = rng.normal(size=(n, 3))
        out = segment_to_snippets(clips, t)
        assert np.allclose(out.mean(axis=0), clips.mean(axis=0), atol=1e-12)


class TestSynthGenerate:
    def test_deterministic(self, tmp_path):
        cfg = SynthConfig(n_normal_train=3, n_abnormal_train=3,
                          n_normal_test=2, n_abnormal_test=2, d=6)
        a_train, a_test = synth_generate(cfg, 11)
        b_train, b_test = synth_generate(cfg, 11)
        for a, b in zip(a_train.videos + a_test.videos,
                        b_train.videos + b_test.videos):
            assert a.video_id == b.video_id
            assert np.array_equal(a.clips_short, b.clips_short)
            assert a.intervals == b.intervals

    def test_written_files_deterministic(self, tmp_path):
        cfg = SynthConfig(n_normal_train=2, n_abnormal_train=2,
                          n_normal_test=1, n_abnormal_test=1, d=4)
        synth_generate(cfg, 5, out_dir=tmp_path / "a")
        synth_generate(cfg, 5, out_dir=tmp_path / "b")
        for rel in sorted(p.relative_to(tmp_path / "a")
                          for p in (tmp_path / "a").rglob("*") if p.is_file()):
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes()

    def test_class_projections_on_signal_direction(self):
        cfg = SynthConfig(n_normal_train=20, n_abnormal_train=20,
                          n_normal_test=5, n_abnormal_test=5, d=8,
                          boost=3.0, noise_scale=1.0)
        seed = 123
        train, test = synth_generate(cfg, seed)
        # recover the generator's unit direction the same way it was drawn
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(cfg.d)
        u /= np.linalg.norm(u)

        normal_proj = np.concatenate([
            v.clips_short @ u for v in train.videos if v.label == 0])
        assert abs(normal_proj.mean()) < 3 * cfg.noise_scale / np.sqrt(
            normal_proj.size)

        # clips fully inside an anomaly interval should project near `boost`
        inside = []
        for v in test.videos:
            if v.label != 1:
                continue
            (start, end), ell = v.intervals[0], 8
            for i in range(v.clips_short.shape[0]):
                if start <= i * ell and (i + 1) * ell <= min(end, v.n_frames):
                    inside.append(v.clips_short[i] @ u)
        inside = np.array(inside)
        assert inside.size > 0
        se = cfg.noise_scale / np.sqrt(inside.size)
        assert abs(inside.mean() - cfg.boost) < 3 * se

    def test_normal_videos_have_no_intervals(self):
        cfg = SynthConfig(n_normal_train=2, n_abnormal_train=2,
                          n_normal_test=2, n_abnormal_test=2, d=4)
        train, test = synth_generate(cfg, 1)
        for v in train.videos + test.videos:
            if v.label == 0:
                assert v.intervals == []
        assert all(v.intervals for v in test.videos if v.label == 1)
        assert all(not v.intervals for v in train.videos if v.label == 1)


class TestDatasetValidation:
    def test_duplicate_ids_rejected(self):
        cfg = SynthConfig(n_normal_train=1, n_abnormal_train=1,
                          n_normal_test=1, n_abnormal_test=1, d=4)
        train, _ = synth_generate(cfg, 2)
        broken = Dataset(videos=train.videos + [train.videos[0]], split="train")
        with pytest.raises(ValueError, match="duplicate"):
            broken.validate()

    def test_single_class_train_rejected(self):
        cfg = SynthConfig(n_normal_train=2, n_abnormal_train=1,
                          n_normal_test=1, n_abnormal_test=1, d=4)
        train, _ = synth_generate(cfg, 2)
        only_normal = Dataset(videos=[v for v in train.videos if v.label == 0],
                              split="train")
        with pytest.raises(ValueError, match="class"):
            only_normal.validate()
