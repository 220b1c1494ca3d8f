"""Frame-level evaluation: snippet-to-frame expansion, exact rank-based
ROC-AUC, step-integrated average precision, and score-curve I/O."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import input_file, open_output
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


def _runs(scores: np.ndarray, intervals) -> tuple[np.ndarray, np.ndarray]:
    """Cut a video's float64 frame scores into runs of one score and one
    label: each run's first frame and its label, the parity of the number of
    interval edges at or before it. A run starts where an interval starts or
    ends or the score's bit pattern changes: 0.0 and -0.0 compare equal, but
    export writes them as different text. AUC and AP are exact in any cut."""
    bits = scores.view(np.uint64)
    edges = np.array(sorted(intervals), dtype=np.int64).ravel()
    cut = np.concatenate(([True], bits[1:] != bits[:-1], [False]))
    cut[edges] = True  # cut[n_frames] starts no run
    first = cut[:-1].nonzero()[0]
    return first, edges.searchsorted(first, side="right") % 2


def _runs_auc_and_ap(scores, lengths, positive, n_pos: int, n_neg: int):
    """Mann-Whitney ROC-AUC, with average ranks for ties, and
    step-integrated AP, where equal scores form one threshold, of frames
    cut into runs in any way: run i is `lengths[i]` frames of score
    `scores[i]`, positive if `positive[i]`. Both need both classes. Only
    the runs' scores are sorted, once (a snippet's score repeats over its
    frames). Counts and rank sums are integers or half-integers below
    2**53, exact in any order, so the result is the frame-by-frame one to
    the bit, whatever the cut."""
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError(
            f"AUC needs both classes (got {n_pos} positive, {n_neg} negative)")
    # Tie groups, numbered in ascending score order: the frames and the
    # positive frames of each.
    _, group = np.unique(scores, return_inverse=True)
    counts = np.bincount(group, weights=lengths)
    group_tp = np.bincount(group, weights=lengths * positive)
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


class CurveError(ValueError):
    """Frame scores that do not fit the video `video_id`."""
    def __init__(self, video_id: str, problem: str):
        super().__init__(f"{video_id}: {problem}")
        self.video_id = video_id


def evaluate(videos: list[VideoEntry], frame_scores,
             per_video: bool = False) -> EvalReport:
    """Pool frames across all videos into one AUC/AP; optional per-video
    stats. `frame_scores` is a dict of frame scores by video id, or yields
    them in the order of `videos`. Each video's scores are checked and cut
    into runs as they arrive; only each run's first frame and score are
    kept."""
    if isinstance(frame_scores, dict):
        frame_scores = [frame_scores[v.video_id] for v in videos]
    starts, values, labels, offsets = [], [], [], [0]
    for v, scores in zip(videos, frame_scores, strict=True):
        scores = np.asarray(scores, dtype=np.float64).ravel()
        if scores.size != v.n_frames:
            raise CurveError(v.video_id, f"{scores.size} scores for "
                             f"{v.n_frames} frames")
        first, label = _runs(scores, v.intervals)
        values.append(scores[first])
        # Each frame has the bits of its run's first frame.
        if not np.isfinite(values[-1]).all():
            raise CurveError(v.video_id, "non-finite frame score")
        starts.append(first + offsets[-1])
        labels.append(label)
        offsets.append(offsets[-1] + v.n_frames)
    total = offsets[-1]
    run_starts = np.concatenate(starts)
    run_scores = np.concatenate(values)
    positive = np.concatenate(labels) == 1
    lengths = np.diff(run_starts, append=total)
    n_pos = int(lengths[positive].sum())
    auc, ap = _runs_auc_and_ap(run_scores, lengths, positive, n_pos,
                               total - n_pos)
    details = {}
    if per_video:
        bounds = np.searchsorted(run_starts, offsets).tolist()
        for v, a, b in zip(videos, bounds, bounds[1:]):
            entry = {"n_frames": v.n_frames, "label": v.label}
            v_pos = sum(end - start for start, end in v.intervals)
            if 0 < v_pos < v.n_frames:
                entry["auc"], entry["ap"] = _runs_auc_and_ap(
                    run_scores[a:b], lengths[a:b], positive[a:b], v_pos,
                    v.n_frames - v_pos)
            details[v.video_id] = entry
    return EvalReport(auc=auc, ap=ap, n_pos_frames=n_pos,
                      n_neg_frames=total - n_pos, per_video=details)


def frame_numbers(n_frames: int) -> str:
    """The frame column of a curve, "0\\n1\\n...", up to frame
    `n_frames` - 1. A shorter curve's column is a prefix of it, so one text
    serves every curve up to `n_frames` frames."""
    return "".join(f"{f}\n" for f in range(n_frames))


# A frame number f has 1 + (the count of these at or below f) digits.
_POWERS_OF_TEN = 10 ** np.arange(1, 19)


def export_score_curve(video: VideoEntry, frame_scores: np.ndarray, path,
                       numbers: str):
    """One `frame,score,gt` line per frame, fixed 6-decimal formatting.
    `numbers` is a `frame_numbers` column at least as long as the video."""
    frame_scores = np.asarray(frame_scores, dtype=np.float64).ravel()
    n = video.n_frames
    if frame_scores.size != n:
        raise ValueError(
            f"{video.video_id}: {frame_scores.size} scores for {n} frames")
    # A run of frames that share score and gt is written with one replace.
    first, label = _runs(frame_scores, video.intervals)
    # Line f of the column starts after lines 0..f-1, each its digits and a
    # newline: at f*(d+1) - (10**d - 10)//9 for a d-digit f.
    f = np.append(first, n)
    d = 1 + _POWERS_OF_TEN.searchsorted(f, side="right")
    at = (f * (d + 1) - (10 ** d - 10) // 9).tolist()
    runs = zip(at, at[1:], frame_scores[first].tolist(), label.tolist())
    with open_output(path) as fh:
        fh.write("".join(numbers[a:b].replace("\n", f",{s:.6f},{g}\n")
                         for a, b, s, g in runs))


# The weights that turn a line's 8 score bytes, "d.dddddd", into the
# integer of its 7 digits; the point's byte weighs nothing.
_SCORE_DIGIT_WEIGHTS = np.array([1e6, 0, 1e5, 1e4, 1e3, 100, 10, 1])


def read_score_curve(path) -> np.ndarray:
    """The score column of a `frame,score,gt` curve file, one value per
    line that is not blank or whitespace-only.

    A file in the layout `export_score_curve` writes, every line
    `<digits>,<d>.<dddddd>,<digit>\\n`, is read from its bytes by a few
    whole-array operations: each score is the integer of its 7 digits
    divided by 1e6, the double nearest the decimal, as `float` reads it.
    Any other file is read by `_read_curve_lines`, which defines the
    format and names the first line it cannot read.
    """
    with open(input_file(path), "rb") as f:
        raw = f.read()
    b = np.frombuffer(raw, np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    n = ends.size
    # Each line holds at least 12 bytes, newline included, with a `,` 11
    # and 2 bytes and a `.` 9 bytes before its newline; those 3n bytes and
    # the n newlines are the only ones that are not digits.
    if not (raw.endswith(b"\n") and np.diff(ends, prepend=-1).min() >= 12
            and np.count_nonzero(b - ord("0") < 10) == b.size - 4 * n
            and np.all(b[ends - 11] == ord(","))
            and np.all(b[ends - 9] == ord("."))
            and np.all(b[ends - 2] == ord(","))):
        return _read_curve_lines(path)
    # Each line's score bytes, gathered as one unaligned 8-byte word.
    words = np.ndarray((b.size - 7,), "<u8", raw, 0, (1,))[ends - 10]
    digits = words.view(np.uint8).reshape(n, 8)
    # Exact: every sum is an integer below 2**53.
    return (digits @ _SCORE_DIGIT_WEIGHTS - ord("0") * 1111111) / 1e6


def _read_curve_lines(path) -> np.ndarray:
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    scores = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            scores.append(float(line.split(",")[1].strip()))
        except (IndexError, ValueError):
            raise ValueError(f"{path}:{lineno}: expected frame,score,gt, "
                             f"got {line[:40]!r}") from None
    return np.array(scores, dtype=np.float64)
