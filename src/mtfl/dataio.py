"""Dataset manifests, the binary feature-file format, snippet aggregation,
and a synthetic generator for desk-scale end-to-end runs.

Feature files: magic "MTFB", u32 version, u32 N, u32 D, then N*D raw
little-endian float32 values in row-major order.

Manifest lines: `video_id,label,n_frames,path_short,path_medium,path_long,intervals`
where intervals is `s1:e1;s2:e2;...` (half-open frame ranges) or empty.
`read_manifest` checks a manifest's text and opens no feature file;
`read_dataset` checks the text, then reads each feature file once.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import (NonFiniteError, frame, input_file, open_container,
                        open_output)

MAGIC = b"MTFB"
VERSION = 1
TUBELET_LENGTHS = {"short": 8, "medium": 32, "long": 64}
# Range of the share of an abnormal synthetic video that is anomalous.
ANOMALY_FRACTION = (0.2, 0.5)
# Mean shift of a fully anomalous synthetic clip along the anomaly direction,
# against unit-variance noise.
ANOMALY_BOOST = 3.0


class ManifestError(ValueError):
    """A manifest that breaks a rule; the message names the file."""


@dataclass
class VideoEntry:
    """A video as its manifest line gives it, without its features:
    construction checks every rule of a line's text."""
    video_id: str
    label: int
    n_frames: int
    intervals: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        if (self.video_id in ("", ".", "..")
                or set(self.video_id) & set("/\\\0")):
            raise ValueError(f"video id {self.video_id!r} is not a file name")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        if self.n_frames >= 2**31:  # its score curve would fill many GB
            raise ValueError(f"n_frames must be < 2**31, got {self.n_frames}")
        if self.label not in (0, 1):
            raise ValueError(f"{self.video_id}: label must be 0 or 1")
        prev_end = -1
        for start, end in sorted(self.intervals):
            if not (0 <= start < end <= self.n_frames):
                raise ValueError(
                    f"{self.video_id}: interval [{start},{end}) outside "
                    f"[0,{self.n_frames})")
            if start < prev_end:
                raise ValueError(f"{self.video_id}: overlapping intervals")
            prev_end = end
        if self.label == 0 and self.intervals:
            raise ValueError(f"{self.video_id}: normal video with anomaly intervals")


@dataclass(kw_only=True)
class VideoRecord(VideoEntry):
    """A video with its clip features."""
    clips: tuple[np.ndarray, ...]  # (N_scale, D) each, TUBELET_LENGTHS order

    def __post_init__(self):
        super().__post_init__()
        for scale, clips in zip(TUBELET_LENGTHS, self.clips, strict=True):
            if clips.shape[0] < 1:
                raise ValueError(f"{self.video_id}: {scale}-scale feature "
                                 f"file has no rows")
            if clips.shape[1] != self.dim:
                raise ValueError(
                    f"{self.video_id}: {scale}-scale D={clips.shape[1]} "
                    f"differs from short-scale D={self.dim}")

    @property
    def dim(self) -> int:
        return self.clips[0].shape[1]


@dataclass
class Dataset:
    videos: list[VideoEntry]  # all VideoRecord once features are read
    split: str = "train"

    def __post_init__(self):
        ids = [v.video_id for v in self.videos]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate video ids in dataset")
        dims = {v.dim for v in self.videos if isinstance(v, VideoRecord)}
        if len(dims) > 1:
            raise ValueError(f"feature dimension differs across videos: {sorted(dims)}")
        if self.split == "train":
            labels = {v.label for v in self.videos}
            if labels != {0, 1}:
                raise ValueError("train split needs at least one video of each class")


def write_feature_file(path, matrix: np.ndarray):
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got ndim={matrix.ndim}")
    if not np.all(np.isfinite(matrix)):
        raise NonFiniteError(f"{path}: refusing to write non-finite values")
    # checked before the cast, which would turn such a value into inf
    if np.any(np.abs(matrix) > np.finfo(np.float32).max):
        raise NonFiniteError(f"{path}: a value is outside float32's range")
    n, d = matrix.shape
    with open_output(path, "wb") as f:
        f.write(frame(MAGIC, VERSION))
        f.write(struct.pack("<II", n, d))
        f.write(matrix.astype("<f4").tobytes())


def read_feature_file(path) -> np.ndarray:
    """Read a feature file: its (N, D) float32 values, a read-only view of
    the bytes read, which `segment_to_snippets` sums in float64."""
    r = open_container(path, MAGIC, {VERSION})
    n, d = r.u32(), r.u32()
    values = np.frombuffer(r.take(4 * n * d), dtype="<f4").reshape(n, d)
    r.end()
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(f"{path}: payload contains non-finite values")
    return values


def parse_intervals(text: str) -> list[tuple[int, int]]:
    if not text:
        return []
    out = []
    for part in text.split(";"):
        start, _, end = part.partition(":")
        out.append((int(start), int(end)))
    return out


def format_intervals(intervals) -> str:
    return ";".join(f"{s}:{e}" for s, e in intervals)


def _parse_manifest(path, split):
    """The dataset of VideoEntry records a manifest lists, and each
    video's line number and feature-file paths, as written."""
    path = Path(path)
    try:
        lines = input_file(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as e:
        raise ManifestError(f"{path}: not UTF-8: {e}") from None
    videos, sources = [], []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 7:
            raise ManifestError(
                f"{path}:{lineno}: expected 7 fields, got {len(fields)}")
        vid, label, n_frames, *clip_paths, ivals = fields
        try:
            videos.append(VideoEntry(vid, int(label), int(n_frames),
                                     parse_intervals(ivals)))
        except ValueError as e:
            raise ManifestError(f"{path}:{lineno}: {e}") from None
        sources.append((lineno, clip_paths))
    return _dataset(path, videos, split), sources


def _dataset(path, videos, split) -> Dataset:
    try:
        return Dataset(videos=videos, split=split)
    except ValueError as e:
        raise ManifestError(f"{path}: {e}") from None


def read_manifest(path, split: str = "train") -> Dataset:
    """The videos a manifest lists, as VideoEntry records, from its text
    alone: no feature file is opened. A line that breaks a rule is a
    ManifestError naming `path` and the line."""
    return _parse_manifest(path, split)[0]


def read_dataset(path, split: str = "train", t: int | None = None) -> Dataset:
    """The videos a manifest lists, as VideoRecord records: the manifest's
    text rules first, as `read_manifest` checks them, then each feature
    file, read once, and the rules of the features. With `t`, a video's
    clips become their `t` snippet means once checked, (3, t, D) values,
    which `snippet_tensors` at the same `t` gives back bit for bit."""
    path = Path(path)
    manifest, sources = _parse_manifest(path, split)
    videos = []
    for v, (lineno, clip_paths) in zip(manifest.videos, sources):
        try:
            clips = tuple(read_feature_file(path.parent / p)
                          for p in clip_paths)
            videos.append(VideoRecord(v.video_id, v.label, v.n_frames,
                                      v.intervals, clips=clips))
        except ValueError as e:
            raise ManifestError(f"{path}:{lineno}: {e}") from None
        if t is not None:
            videos[-1].clips = tuple(segment_to_snippets(c, t) for c in clips)
    return _dataset(path, videos, split)


def segment_to_snippets(clips: np.ndarray, t: int) -> np.ndarray:
    """Collapse N clip features to T snippet features by block means.

    Snippet i averages clip rows [floor(i*N/T), floor((i+1)*N/T)); an empty
    block falls back to the single row floor(i*N/T) (N < T duplication).
    """
    n = clips.shape[0]
    if n < 1 or t < 1:
        raise ValueError(f"need N >= 1 and T >= 1, got N={n}, T={t}")
    lo = np.arange(t) * n // t
    hi = np.arange(1, t + 1) * n // t
    # reduceat sums rows [lo[i], lo[i+1]) and returns row lo[i] alone when
    # lo[i+1] == lo[i]: the duplication rule. lo[i+1] is hi[i].
    return (np.add.reduceat(clips, lo, axis=0, dtype=np.float64)
            / np.maximum(hi - lo, 1)[:, None])


def snippet_tensors(videos: list[VideoRecord], t: int) -> np.ndarray:
    """The (3,N,T,D) snippet tensor of `videos`: entry [s, i] is video i at
    timescale s, in TUBELET_LENGTHS order."""
    feats = np.array([[segment_to_snippets(clips, t) for clips in scale]
                      for scale in zip(*(v.clips for v in videos))])
    if not np.all(np.isfinite(feats)):
        raise ValueError("snippet features contain non-finite values")
    return feats


@dataclass(frozen=True)
class SynthConfig:
    n_normal_train: int = 40
    n_abnormal_train: int = 40
    n_normal_test: int = 10
    n_abnormal_test: int = 10
    d: int = 16
    frames_range: tuple[int, int] = (256, 768)

    def __post_init__(self):
        for name in ("n_normal_train", "n_abnormal_train",
                     "n_normal_test", "n_abnormal_test", "d"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        lo, hi = self.frames_range
        if not 1 <= lo <= hi:
            raise ValueError(f"frames_range must satisfy 1 <= lo <= hi, got "
                             f"{self.frames_range}")


def _synth_video(rng, cfg: SynthConfig, direction, video_id, label, with_intervals):
    n_frames = int(rng.integers(cfg.frames_range[0], cfg.frames_range[1] + 1))
    z = np.zeros(n_frames)
    intervals = []
    if label == 1:
        frac = rng.uniform(*ANOMALY_FRACTION)
        length = max(1, int(round(frac * n_frames)))
        start = int(rng.integers(0, n_frames - length + 1))
        z[start:start + length] = 1.0
        intervals = [(start, start + length)]
    clips = []
    for ell in TUBELET_LENGTHS.values():
        # Each clip's anomaly share: an exact 0/1 count over its length.
        starts = np.arange(0, n_frames, ell)
        share = np.add.reduceat(z, starts) / np.diff(starts, append=n_frames)
        feats = rng.standard_normal((starts.size, cfg.d))
        feats += (ANOMALY_BOOST * share)[:, None] * direction
        clips.append(feats.astype(np.float32))
    return VideoRecord(video_id, label, n_frames,
                       intervals if (label == 1 and with_intervals) else [],
                       clips=tuple(clips))


def synth_generate(cfg: SynthConfig, seed: int, out_dir=None):
    """Deterministic synthetic train/test datasets; anomalous clips carry a
    mean shift of ANOMALY_BOOST along one fixed unit direction. Writes
    feature files plus train/test manifests when `out_dir` is given."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(cfg.d)
    direction /= np.linalg.norm(direction)

    splits = {}
    for split, n_norm, n_abn, with_iv in (
            ("train", cfg.n_normal_train, cfg.n_abnormal_train, False),
            ("test", cfg.n_normal_test, cfg.n_abnormal_test, True)):
        videos = []
        for i in range(n_norm):
            videos.append(_synth_video(rng, cfg, direction,
                                       f"{split}_normal_{i:04d}", 0, with_iv))
        for i in range(n_abn):
            videos.append(_synth_video(rng, cfg, direction,
                                       f"{split}_abnormal_{i:04d}", 1, with_iv))
        splits[split] = Dataset(videos=videos, split=split)

    if out_dir is not None:
        out_dir = Path(out_dir)
        (out_dir / "features").mkdir(parents=True, exist_ok=True)
        for split, dataset in splits.items():
            lines = []
            for v in dataset.videos:
                paths = [f"features/{v.video_id}_{scale}.mtfb"
                         for scale in TUBELET_LENGTHS]
                for rel, clips in zip(paths, v.clips):
                    write_feature_file(out_dir / rel, clips)
                lines.append(",".join([
                    v.video_id, str(v.label), str(v.n_frames), *paths,
                    format_intervals(v.intervals)]))
            with open_output(out_dir / f"{split}_manifest.csv") as f:
                f.write("\n".join(lines) + "\n")
    return splits["train"], splits["test"]
