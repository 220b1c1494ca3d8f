"""Frame-level evaluation: snippet-to-frame expansion, exact rank-based
ROC-AUC, step-integrated average precision, and score-curve export."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import VideoEntry


class DegenerateLabelsError(ValueError):
    """Raised when a metric needs both classes and gets one or none."""


def expand_to_frames(scores: np.ndarray, n_frames: int) -> np.ndarray:
    """Frame f takes the score of snippet floor(f*T/n_frames)."""
    scores = np.asarray(scores).ravel()
    t = scores.size
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    idx = (np.arange(n_frames) * t) // n_frames
    return scores[idx]


def frame_ground_truth(record: VideoEntry) -> np.ndarray:
    gt = np.zeros(record.n_frames, dtype=np.int64)
    for start, end in record.intervals:
        gt[start:end] = 1
    return gt


def auc_and_ap(scores, labels) -> tuple[float, float]:
    """Mann-Whitney ROC-AUC, with average ranks for ties, and
    step-integrated AP, where equal scores form one threshold, from one
    sort of the scores. Both need positive and negative labels.

    Frame scores come in runs of equal values (a snippet's score repeats
    over its frames), so both count runs of frames that share one score
    and are all positive or all not, and sort only the runs' scores.
    Counts and rank sums are integers or half-integers below 2**53, exact
    in any order, so the result is the frame-by-frame one to the bit."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    positive = labels == 1
    n_pos, n_neg = int(positive.sum()), int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError(
            f"AUC needs both classes (got {n_pos} positive, {n_neg} negative)")
    starts = np.flatnonzero(np.r_[True, (scores[1:] != scores[:-1])
                                  | (positive[1:] != positive[:-1])])
    lengths = np.diff(np.append(starts, scores.size))
    # Tie groups, numbered in ascending score order: the frames and the
    # positive frames of each.
    _, group = np.unique(scores[starts], return_inverse=True)
    counts = np.bincount(group, weights=lengths)
    group_tp = np.bincount(group, weights=lengths * positive[starts])
    # Each group's average 1-based rank: its last rank less half its ties.
    ranks = np.cumsum(counts) - (counts - 1) / 2.0
    auc = (group_tp @ ranks - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    # One threshold per distinct score, highest first: the ascending tie
    # groups in reverse.
    group_tp = group_tp[::-1]
    tp = np.cumsum(group_tp)
    seen = np.cumsum(counts[::-1])
    # A running total adds the steps in threshold order, as a sweep would.
    return auc, float(np.cumsum(group_tp / n_pos * (tp / seen))[-1])


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


def video_scores(video: VideoEntry, scores) -> np.ndarray:
    """`scores` as a flat array, checked to hold one finite score per frame
    of `video`."""
    scores = np.asarray(scores).ravel()
    if scores.size != video.n_frames:
        raise ValueError(f"{video.video_id}: {scores.size} scores for "
                         f"{video.n_frames} frames")
    if not np.all(np.isfinite(scores)):
        raise ValueError(f"{video.video_id}: non-finite frame score")
    return scores


def evaluate(videos: list[VideoEntry], frame_scores: dict[str, np.ndarray],
             per_video: bool = False) -> EvalReport:
    """Pool frames across all videos into one AUC/AP; optional per-video stats."""
    all_scores, all_labels = [], []
    details = {}
    for v in videos:
        scores = video_scores(v, frame_scores[v.video_id])
        gt = frame_ground_truth(v)
        all_scores.append(scores)
        all_labels.append(gt)
        if per_video:
            entry = {"n_frames": v.n_frames, "label": v.label}
            if 0 < gt.sum() < gt.size:
                entry["auc"], entry["ap"] = auc_and_ap(scores, gt)
            details[v.video_id] = entry
    pooled_labels = np.concatenate(all_labels)
    auc, ap = auc_and_ap(np.concatenate(all_scores), pooled_labels)
    return EvalReport(
        auc=auc,
        ap=ap,
        n_pos_frames=int(pooled_labels.sum()),
        n_neg_frames=int((pooled_labels == 0).sum()),
        per_video=details,
    )


def frame_numbers(n_frames: int) -> tuple[str, list[int]]:
    """The frame column of a curve, "0\\n1\\n...", up to frame
    `n_frames` - 1, and the offset at which each line starts, with the
    text's length last. A shorter curve's column is a prefix of it, so one
    text serves every curve up to `n_frames` frames."""
    text = "".join(f"{f}\n" for f in range(n_frames))
    ends = np.flatnonzero(np.frombuffer(text.encode(), np.uint8) == 10) + 1
    return text, [0, *ends.tolist()]


def export_score_curve(video: VideoEntry, frame_scores: np.ndarray, path,
                       numbers: tuple[str, list[int]]):
    """One `frame,score,gt` line per frame, fixed 6-decimal formatting.
    `numbers` is a `frame_numbers` column at least as long as the video."""
    frame_scores = np.asarray(frame_scores, dtype=np.float64).ravel()
    n = video.n_frames
    if frame_scores.size != n:
        raise ValueError(
            f"{video.video_id}: {frame_scores.size} scores for {n} frames")
    text, offsets = numbers
    gt = frame_ground_truth(video)
    # A run of frames that share score and gt is written with one replace.
    # Scores are compared by bit pattern, so that 0.0 and -0.0, which
    # compare equal, keep their own text.
    bits = frame_scores.view(np.uint64)
    starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1])
                                  | (gt[1:] != gt[:-1])]).tolist()
    runs = zip(starts, starts[1:] + [n], frame_scores[starts].tolist(),
               gt[starts].tolist())
    with open(path, "w") as fh:
        fh.write("".join(
            text[offsets[a]:offsets[b]].replace("\n", f",{s:.6f},{g}\n")
            for a, b, s, g in runs))
