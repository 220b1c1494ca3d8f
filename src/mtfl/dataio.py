"""Dataset manifests, the binary feature-file format, snippet aggregation,
and a synthetic generator for desk-scale end-to-end runs.

Feature files: magic "MTFB", u32 version, u32 N, u32 D, then N*D raw
little-endian float32 values in row-major order.

Manifest lines: `video_id,label,n_frames,path_short,path_medium,path_long,intervals`
where intervals is `s1:e1;s2:e2;...` (half-open frame ranges) or empty.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import NonFiniteError, frame, open_container

MAGIC = b"MTFB"
VERSION = 1
TUBELET_LENGTHS = {"short": 8, "medium": 32, "long": 64}
# Range of the share of an abnormal synthetic video that is anomalous.
ANOMALY_FRACTION = (0.2, 0.5)


class ManifestError(Exception):
    pass


@dataclass
class VideoRecord:
    video_id: str
    label: int
    n_frames: int
    clips_short: np.ndarray
    clips_medium: np.ndarray
    clips_long: np.ndarray
    intervals: list[tuple[int, int]] = field(default_factory=list)

    def validate(self):
        if self.label not in (0, 1):
            raise ValueError(f"{self.video_id}: label must be 0 or 1")
        d = self.clips_short.shape[1]
        for name, clips in (("medium", self.clips_medium), ("long", self.clips_long)):
            if clips.shape[1] != d:
                raise ValueError(
                    f"{self.video_id}: {name}-scale D={clips.shape[1]} differs "
                    f"from short-scale D={d}")
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
        return self

    @property
    def dim(self) -> int:
        return self.clips_short.shape[1]


@dataclass
class Dataset:
    videos: list[VideoRecord]
    split: str = "train"

    def validate(self):
        ids = [v.video_id for v in self.videos]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate video ids in dataset")
        dims = {v.dim for v in self.videos}
        if len(dims) > 1:
            raise ValueError(f"feature dimension differs across videos: {sorted(dims)}")
        if self.split == "train":
            labels = {v.label for v in self.videos}
            if labels != {0, 1}:
                raise ValueError("train split needs at least one video of each class")
        return self


def write_feature_file(path, matrix: np.ndarray):
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got ndim={matrix.ndim}")
    if not np.all(np.isfinite(matrix)):
        raise NonFiniteError(f"{path}: refusing to write non-finite values")
    n, d = matrix.shape
    with open(path, "wb") as f:
        f.write(frame(MAGIC, VERSION))
        f.write(struct.pack("<II", n, d))
        f.write(matrix.astype("<f4").tobytes())


def read_feature_file(path) -> np.ndarray:
    """Read a feature file, widening to float64 for in-memory work."""
    r = open_container(path, MAGIC, VERSION)
    n, d = r.u32(), r.u32()
    values = np.frombuffer(r.take(4 * n * d), dtype="<f4").reshape(n, d)
    r.end()
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(f"{path}: payload contains non-finite values")
    return values.astype(np.float64)


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


def read_manifest(path, split: str = "train") -> Dataset:
    path = Path(path)
    base = path.parent
    videos = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 7:
                raise ManifestError(
                    f"{path}:{lineno}: expected 7 fields, got {len(fields)}")
            vid, label_s, frames_s, p_short, p_med, p_long, ivals = fields
            try:
                label = int(label_s)
                n_frames = int(frames_s)
                if n_frames < 1:
                    raise ValueError(f"n_frames must be >= 1, got {n_frames}")
                intervals = parse_intervals(ivals)
            except ValueError as e:
                raise ManifestError(f"{path}:{lineno}: {e}") from None
            record = VideoRecord(
                video_id=vid,
                label=label,
                n_frames=n_frames,
                clips_short=read_feature_file(base / p_short),
                clips_medium=read_feature_file(base / p_med),
                clips_long=read_feature_file(base / p_long),
                intervals=intervals,
            )
            record.validate()
            videos.append(record)
    return Dataset(videos=videos, split=split).validate()


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
    return np.add.reduceat(clips, lo, axis=0) / np.maximum(hi - lo, 1)[:, None]


def snippet_tensors(videos: list[VideoRecord], t: int):
    """The (N,T,D) snippet tensors of `videos` at the three timescales,
    validated; entry i is video i."""
    from .model import MultiScaleFeatures

    def stack(scale):
        return np.stack([segment_to_snippets(getattr(v, f"clips_{scale}"), t)
                         for v in videos])

    return MultiScaleFeatures(f_s=stack("short"), f_m=stack("medium"),
                              f_l=stack("long")).validate()


@dataclass(frozen=True)
class SynthConfig:
    n_normal_train: int = 40
    n_abnormal_train: int = 40
    n_normal_test: int = 10
    n_abnormal_test: int = 10
    d: int = 16
    frames_range: tuple[int, int] = (256, 768)
    boost: float = 3.0
    noise_scale: float = 1.0

    def __post_init__(self):
        # Chained comparisons are false for NaN, so NaN is rejected too.
        if not 0 < self.boost < math.inf:
            raise ValueError(f"boost must be finite and > 0, got {self.boost}")
        if not 0 <= self.noise_scale < math.inf:
            raise ValueError(f"noise must be finite and >= 0, got "
                             f"{self.noise_scale}")
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
    clips = {}
    for scale, ell in TUBELET_LENGTHS.items():
        n_clips = max(1, -(-n_frames // ell))
        feats = rng.standard_normal((n_clips, cfg.d)) * cfg.noise_scale
        for i in range(n_clips):
            seg = z[i * ell:min((i + 1) * ell, n_frames)]
            if seg.size:
                feats[i] += cfg.boost * seg.mean() * direction
        clips[scale] = feats.astype(np.float32).astype(np.float64)
    return VideoRecord(
        video_id=video_id,
        label=label,
        n_frames=n_frames,
        clips_short=clips["short"],
        clips_medium=clips["medium"],
        clips_long=clips["long"],
        intervals=intervals if (label == 1 and with_intervals) else [],
    )


def synth_generate(cfg: SynthConfig, seed: int, out_dir=None):
    """Deterministic synthetic train/test datasets; anomalous clips carry a
    mean shift of `boost` along one fixed unit direction. Writes feature
    files plus train/test manifests when `out_dir` is given."""
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
        splits[split] = Dataset(videos=videos, split=split).validate()

    if out_dir is not None:
        out_dir = Path(out_dir)
        (out_dir / "features").mkdir(parents=True, exist_ok=True)
        for split, dataset in splits.items():
            lines = []
            for v in dataset.videos:
                paths = {}
                for scale, clips in (("short", v.clips_short),
                                     ("medium", v.clips_medium),
                                     ("long", v.clips_long)):
                    rel = f"features/{v.video_id}_{scale}.mtfb"
                    write_feature_file(out_dir / rel, clips)
                    paths[scale] = rel
                lines.append(",".join([
                    v.video_id, str(v.label), str(v.n_frames),
                    paths["short"], paths["medium"], paths["long"],
                    format_intervals(v.intervals),
                ]))
            (out_dir / f"{split}_manifest.csv").write_text("\n".join(lines) + "\n")
    return splits["train"], splits["test"]
