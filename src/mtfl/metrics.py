"""Frame-level evaluation: snippet-to-frame expansion, exact rank-based
ROC-AUC, step-integrated average precision, and score-curve export."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .dataio import VideoRecord


class DegenerateLabelsError(ValueError):
    """Raised when a metric needs both classes (or a positive) and gets none."""


def expand_to_frames(scores: np.ndarray, n_frames: int) -> np.ndarray:
    """Frame f takes the score of snippet floor(f*T/n_frames)."""
    scores = np.asarray(scores).ravel()
    t = scores.size
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    idx = (np.arange(n_frames) * t) // n_frames
    return scores[idx]


def frame_ground_truth(record: VideoRecord) -> np.ndarray:
    gt = np.zeros(record.n_frames, dtype=np.int64)
    for start, end in record.intervals:
        gt[start:end] = 1
    return gt


def _tie_groups(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each score's tie group, groups numbered in ascending score order,
    and the size of each group: the one sort AUC and AP share.

    Frame scores come in runs of equal values (a snippet's score repeats
    over its frames), so only the first score of each run is sorted."""
    starts = np.flatnonzero(np.r_[True, scores[1:] != scores[:-1]])
    _, run_group = np.unique(scores[starts], return_inverse=True)
    lengths = np.diff(np.append(starts, scores.size))
    group = np.repeat(run_group.ravel(), lengths)
    return group, np.bincount(group)


def _average_ranks(group: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average rank of their group."""
    last = np.cumsum(counts)  # rank of each group's last member
    return (last - (counts - 1) / 2.0)[group]


def _auc_classes(labels: np.ndarray) -> tuple[np.ndarray, int, int]:
    positive = labels == 1
    n_pos = int(positive.sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError(
            f"AUC needs both classes (got {n_pos} positive, {n_neg} negative)")
    return positive, n_pos, n_neg


def _auc(group, counts, positive, n_pos: int, n_neg: int) -> float:
    r_pos = _average_ranks(group, counts)[positive].sum()
    return (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _ap(group, counts, positive, n_pos: int) -> float:
    # One threshold per distinct score, highest first: the ascending tie
    # groups in reverse.
    group_tp = np.bincount(group, weights=positive)[::-1]
    tp = np.cumsum(group_tp)
    seen = np.cumsum(counts[::-1])
    # A running total adds the steps in threshold order, as a sweep would.
    return float(np.cumsum(group_tp / n_pos * (tp / seen))[-1])


def _as_arrays(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    return (np.asarray(scores, dtype=np.float64).ravel(),
            np.asarray(labels).ravel())


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC with average ranks for ties."""
    scores, labels = _as_arrays(scores, labels)
    positive, n_pos, n_neg = _auc_classes(labels)
    return _auc(*_tie_groups(scores), positive, n_pos, n_neg)


def average_precision(scores, labels) -> float:
    """Step-integrated AP; equal scores are processed as one threshold group."""
    scores, labels = _as_arrays(scores, labels)
    positive = labels == 1
    n_pos = int(positive.sum())
    if n_pos == 0:
        raise DegenerateLabelsError("AP needs at least one positive")
    return _ap(*_tie_groups(scores), positive, n_pos)


def _auc_and_ap(scores, labels) -> tuple[float, float]:
    """`roc_auc` and `average_precision` from one sort of the scores."""
    scores, labels = _as_arrays(scores, labels)
    positive, n_pos, n_neg = _auc_classes(labels)
    group, counts = _tie_groups(scores)
    return (_auc(group, counts, positive, n_pos, n_neg),
            _ap(group, counts, positive, n_pos))


@dataclass
class EvalReport:
    auc: float
    ap: float
    n_pos_frames: int
    n_neg_frames: int
    per_video: dict[str, dict] = field(default_factory=dict)

    def summary_lines(self) -> list[str]:
        return [f"AUC={self.auc:.6f}", f"AP={self.ap:.6f}",
                f"positives={self.n_pos_frames}", f"negatives={self.n_neg_frames}"]


def evaluate(videos: list[VideoRecord], frame_scores: dict[str, np.ndarray],
             per_video: bool = False) -> EvalReport:
    """Pool frames across all videos into one AUC/AP; optional per-video stats."""
    all_scores, all_labels = [], []
    details = {}
    for v in videos:
        scores = np.asarray(frame_scores[v.video_id]).ravel()
        if scores.size != v.n_frames:
            raise ValueError(
                f"{v.video_id}: {scores.size} scores for {v.n_frames} frames")
        if not np.all(np.isfinite(scores)):
            raise ValueError(f"{v.video_id}: non-finite frame score")
        gt = frame_ground_truth(v)
        all_scores.append(scores)
        all_labels.append(gt)
        if per_video:
            entry = {"n_frames": v.n_frames, "label": v.label}
            if 0 < gt.sum() < gt.size:
                entry["auc"], entry["ap"] = _auc_and_ap(scores, gt)
            details[v.video_id] = entry
    pooled_labels = np.concatenate(all_labels)
    auc, ap = _auc_and_ap(np.concatenate(all_scores), pooled_labels)
    return EvalReport(
        auc=auc,
        ap=ap,
        n_pos_frames=int(pooled_labels.sum()),
        n_neg_frames=int((pooled_labels == 0).sum()),
        per_video=details,
    )


def export_score_curve(video: VideoRecord, frame_scores: np.ndarray, path):
    """One `frame,score,gt` line per frame, fixed 6-decimal formatting."""
    frame_scores = np.asarray(frame_scores, dtype=np.float64).ravel()
    if frame_scores.size != video.n_frames:
        raise ValueError(
            f"{video.video_id}: {frame_scores.size} scores for "
            f"{video.n_frames} frames")
    gt = frame_ground_truth(video)
    # Each distinct score is formatted once. Distinct by bit pattern, so
    # that 0.0 and -0.0, which compare equal, keep their own text.
    bits, group = np.unique(frame_scores.view(np.uint64), return_inverse=True)
    text = [f"{s:.6f}" for s in bits.view(np.float64).tolist()]
    tails = [f",{t},{g}" for g in (0, 1) for t in text]
    keys = (group.ravel() + gt * len(text)).tolist()
    lines = map(operator.add, map(str, range(video.n_frames)),
                map(tails.__getitem__, keys))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
