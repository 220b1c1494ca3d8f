import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtfl import dataio
from mtfl.container import (BadMagicError, NonFiniteError, TruncationError,
                            VersionError)
from mtfl.dataio import (Dataset, SynthConfig, VideoEntry, VideoRecord,
                         read_dataset, read_feature_file, read_manifest,
                         segment_to_snippets, synth_generate,
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

    def test_read_returns_float32_as_written(self, tmp_path):
        m = np.random.default_rng(1).normal(size=(7, 5)).astype(np.float32)
        p = tmp_path / "a.mtfb"
        write_feature_file(p, m)
        back = read_feature_file(p)
        assert back.dtype == np.float32
        assert back.tobytes() == m.tobytes()

    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_finite_value_past_float32_range_rejected(self, tmp_path, value):
        """The range is checked before the cast, which would overflow to
        inf: one error naming the file, and no file written."""
        p = tmp_path / "a.mtfb"
        with pytest.raises(NonFiniteError, match=f"^{re.escape(str(p))}: "
                           "a value is outside float32's range"):
            write_feature_file(p, np.array([[value, 0.0]]))
        assert not p.exists()

    def test_float32_extremes_round_trip(self, tmp_path):
        big = np.finfo(np.float32).max
        m = np.array([[big, -big]], dtype=np.float64)
        p = tmp_path / "a.mtfb"
        write_feature_file(p, m)
        assert np.array_equal(read_feature_file(p), m)

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
        assert len(read_manifest(m).videos) == 2  # features not read
        with pytest.raises(dataio.ManifestError,
                           match=f"^{re.escape(str(m))}: feature dimension"):
            read_dataset(m)

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

    def test_manifest_opens_no_feature_file(self, tmp_path):
        """`read_manifest` checks the text alone: it lists the videos of a
        manifest whose feature files are missing or corrupt."""
        write_feature_file(tmp_path / "empty.mtfb", np.zeros((0, 4)))
        (tmp_path / "junk.mtfb").write_bytes(b"not a feature file")
        m = self._manifest(tmp_path, [
            "v0,0,100,missing.mtfb,empty.mtfb,junk.mtfb,",
            "v1,1,100,a.mtfb,b.mtfb,c.mtfb,10:20",
        ])
        ds = read_manifest(m)
        assert [type(v) for v in ds.videos] == [VideoEntry, VideoEntry]
        assert ds.videos[1] == VideoEntry("v1", 1, 100, [(10, 20)])
        with pytest.raises(FileNotFoundError, match="missing.mtfb"):
            read_dataset(m)

    def test_text_rules_come_before_feature_files(self, tmp_path):
        """A line that breaks a text rule is reported before any feature
        file is opened, whichever line it is on."""
        m = self._manifest(tmp_path, [
            "v0,0,100,missing.mtfb,missing.mtfb,missing.mtfb,",
            "v1,2,100,missing.mtfb,missing.mtfb,missing.mtfb,",
        ])
        with pytest.raises(dataio.ManifestError,
                           match=f"^{re.escape(str(m))}:2: v1: label must"):
            read_dataset(m)

    def test_dataset_reads_back_what_synth_wrote(self, tmp_path):
        cfg = SynthConfig(n_normal_train=2, n_abnormal_train=3,
                          n_normal_test=1, n_abnormal_test=1, d=4)
        train, _ = synth_generate(cfg, 3, out_dir=tmp_path)
        ds = read_dataset(tmp_path / "train_manifest.csv")
        assert len(ds.videos) == len(train.videos)
        for a, b in zip(ds.videos, train.videos):
            assert (a.video_id, a.label, a.n_frames, a.intervals) == \
                (b.video_id, b.label, b.n_frames, b.intervals)
            assert all(map(np.array_equal, a.clips, b.clips))

    def test_clips_held_as_float32_and_means_as_float64(self, tmp_path):
        """Clips keep the files' 4 bytes a value in memory, whether made by
        `synth_generate` or read back; snippet means read with `t` are
        float64, the bits of the widened clips' means."""
        cfg = SynthConfig(n_normal_train=2, n_abnormal_train=2,
                          n_normal_test=1, n_abnormal_test=1, d=4)
        train, _ = synth_generate(cfg, 3, out_dir=tmp_path)
        path = tmp_path / "train_manifest.csv"
        for ds in (train, read_dataset(path)):
            assert {c.dtype for v in ds.videos for c in v.clips} == \
                {np.dtype(np.float32)}
        for a, b in zip(read_dataset(path, t=5).videos, train.videos):
            for means, clips in zip(a.clips, b.clips):
                assert means.dtype == np.float64
                widened = segment_to_snippets(clips.astype(np.float64), 5)
                assert means.tobytes() == widened.tobytes()


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


SEGMENT_SHAPES = [(1, 1), (1, 32), (5, 32), (31, 32), (32, 32), (33, 32),
                  (100, 7), (1000, 32), (4001, 70)]


class TestSegmentToSnippets:
    @pytest.mark.parametrize("n,t", SEGMENT_SHAPES)
    def test_equals_loop(self, n, t):
        rng = np.random.default_rng(n * 100 + t)
        # float32 values widened to float64, which sum as float32 clips do
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

    @pytest.mark.parametrize("n,t", SEGMENT_SHAPES)
    def test_float32_clips_sum_as_widened(self, n, t):
        clips = np.random.default_rng(n * 100 + t).normal(size=(n, 5))
        clips = clips.astype(np.float32)
        out = segment_to_snippets(clips, t)
        assert out.dtype == np.float64
        assert out.tobytes() == \
            segment_to_snippets(clips.astype(np.float64), t).tobytes()

    @given(st.integers(1, 400), st.integers(1, 70), st.integers(1, 40),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_float32_clips_sum_as_widened_on_random_shapes(self, n, t, d,
                                                            seed):
        rng = np.random.default_rng(seed)
        clips = (rng.normal(size=(n, d)) * rng.uniform(0.01, 1e4))
        clips = clips.astype(np.float32)
        assert segment_to_snippets(clips, t).tobytes() == \
            segment_to_snippets(clips.astype(np.float64), t).tobytes()

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
            assert all(map(np.array_equal, a.clips, b.clips))
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
                          n_normal_test=5, n_abnormal_test=5, d=8)
        seed = 123
        train, test = synth_generate(cfg, seed)
        # recover the generator's unit direction the same way it was drawn
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(cfg.d)
        u /= np.linalg.norm(u)

        normal_proj = np.concatenate([
            v.clips[0] @ u for v in train.videos if v.label == 0])
        assert abs(normal_proj.mean()) < 3 / np.sqrt(normal_proj.size)

        # clips fully inside an anomaly interval should project near the
        # boost; the noise has unit variance
        inside = []
        for v in test.videos:
            if v.label != 1:
                continue
            (start, end), ell = v.intervals[0], 8
            for i in range(v.clips[0].shape[0]):
                if start <= i * ell and (i + 1) * ell <= min(end, v.n_frames):
                    inside.append(v.clips[0][i] @ u)
        inside = np.array(inside)
        assert inside.size > 0
        se = 1 / np.sqrt(inside.size)
        assert abs(inside.mean() - dataio.ANOMALY_BOOST) < 3 * se

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
        with pytest.raises(ValueError, match="duplicate"):
            Dataset(videos=train.videos + [train.videos[0]], split="train")

    def test_single_class_train_rejected(self):
        cfg = SynthConfig(n_normal_train=2, n_abnormal_train=1,
                          n_normal_test=1, n_abnormal_test=1, d=4)
        train, _ = synth_generate(cfg, 2)
        with pytest.raises(ValueError, match="class"):
            Dataset(videos=[v for v in train.videos if v.label == 0],
                    split="train")


def record(d=4, rows=(3, 3, 3), **changes):
    """A valid abnormal record of 100 frames with `rows` clips of width
    `d` per scale, with `changes` applied."""
    fields = dict(video_id="v", label=1, n_frames=100,
                  clips=tuple(np.zeros((n, d)) for n in rows),
                  intervals=[(10, 20)])
    return VideoRecord(**{**fields, **changes})


def normal(vid, d=4):
    return record(d=d, video_id=vid, label=0, intervals=[])


# Each rule of a record or a dataset, broken: the object to make, and the
# message its construction raises.
BROKEN = {
    **{f"id-{name}": (lambda vid=vid: record(video_id=vid), "not a file name")
       for name, vid in [("empty", ""), ("dot", "."), ("dotdot", ".."),
                         ("parent", "../x"), ("slash", "a/b"),
                         ("backslash", "a\\b"), ("nul", "a\0b")]},
    "n-frames-0": (lambda: record(n_frames=0, intervals=[]),
                   "n_frames must be >= 1, got 0"),
    "n-frames-2**31": (lambda: record(n_frames=2**31),
                       r"n_frames must be < 2\*\*31"),
    "label-2": (lambda: record(label=2), "label must be 0 or 1"),
    "scale-no-rows": (lambda: record(rows=(3, 3, 0)),
                      "long-scale feature file has no rows"),
    "scale-d": (lambda: record(clips=(np.zeros((3, 4)),) * 2
                               + (np.zeros((3, 6)),)),
                "long-scale D=6 differs from short-scale D=4"),
    "interval-outside": (lambda: record(intervals=[(90, 101)]), "outside"),
    "interval-empty": (lambda: record(intervals=[(20, 20)]), "outside"),
    "interval-overlap": (lambda: record(intervals=[(10, 20), (15, 30)]),
                         "overlapping"),
    "normal-with-interval": (lambda: record(label=0),
                             "normal video with anomaly intervals"),
    "dataset-duplicate-ids": (
        lambda: Dataset([record(), normal("v")]), "duplicate video ids"),
    "dataset-d-differs": (
        lambda: Dataset([record(), normal("w", d=6)], split="test"),
        "feature dimension differs"),
    "dataset-train-one-class": (
        lambda: Dataset([record()]), "needs at least one video of each"),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_broken_rule_raises_at_construction(case):
    make, message = BROKEN[case]
    with pytest.raises(ValueError, match=message):
        make()
