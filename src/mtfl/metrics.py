"""Frame-level evaluation: snippet-to-frame expansion, exact rank-based
ROC-AUC, step-integrated average precision, and score-curve export."""

from __future__ import annotations

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


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average rank of their group."""
    _, group, counts = np.unique(scores, return_inverse=True,
                                 return_counts=True)
    last = np.cumsum(counts)  # rank of each group's last member
    return (last - (counts - 1) / 2.0)[group.ravel()]


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC with average ranks for ties."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError(
            f"AUC needs both classes (got {n_pos} positive, {n_neg} negative)")
    ranks = _average_ranks(scores)
    r_pos = ranks[labels == 1].sum()
    return (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def average_precision(scores, labels) -> float:
    """Step-integrated AP; equal scores are processed as one threshold group."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise DegenerateLabelsError("AP needs at least one positive")
    # One threshold per distinct score, highest first.
    _, group = np.unique(-scores, return_inverse=True)
    group = group.ravel()
    group_tp = np.bincount(group, weights=(labels == 1))
    tp = np.cumsum(group_tp)
    seen = np.cumsum(np.bincount(group))
    # A running total adds the steps in threshold order, as a sweep would.
    return float(np.cumsum(group_tp / n_pos * (tp / seen))[-1])


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

    def csv_line(self) -> str:
        return f"{self.auc:.6f},{self.ap:.6f},{self.n_pos_frames},{self.n_neg_frames}"


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
                entry["auc"] = roc_auc(scores, gt)
                entry["ap"] = average_precision(scores, gt)
            details[v.video_id] = entry
    pooled_scores = np.concatenate(all_scores)
    pooled_labels = np.concatenate(all_labels)
    return EvalReport(
        auc=roc_auc(pooled_scores, pooled_labels),
        ap=average_precision(pooled_scores, pooled_labels),
        n_pos_frames=int(pooled_labels.sum()),
        n_neg_frames=int((pooled_labels == 0).sum()),
        per_video=details,
    )


def export_score_curve(video: VideoRecord, frame_scores: np.ndarray, path):
    """One `frame,score,gt` line per frame, fixed 6-decimal formatting."""
    frame_scores = np.asarray(frame_scores).ravel()
    if frame_scores.size != video.n_frames:
        raise ValueError(
            f"{video.video_id}: {frame_scores.size} scores for "
            f"{video.n_frames} frames")
    gt = frame_ground_truth(video)
    lines = [f"{f},{frame_scores[f]:.6f},{gt[f]}" for f in range(video.n_frames)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
