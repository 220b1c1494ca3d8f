"""Weakly-supervised training objective.

Four terms: top-k video-level binary cross-entropy, a paired hinge on
top-k snippet feature magnitudes (abnormal above normal by a margin), and
sparsity / temporal-smoothness penalties on the snippet scores of
abnormal videos. Each term is computed for every video of a (B,T,...)
batch at once and combined across videos by a constant weight matrix, so
the tape does not grow with B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Node

BCE_CLAMP = 1e-7


@dataclass(frozen=True)
class LossWeights:
    lambda_fm: float = 1e-4
    lambda1: float = 8e-5
    lambda2: float = 8e-5
    margin: float = 100.0
    k: int = 3

    def __post_init__(self):
        for name in ("lambda_fm", "lambda1", "lambda2", "margin"):
            if not 0 <= getattr(self, name) < math.inf:  # False for NaN
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass
class LossBreakdown:
    bce: float
    fm: float
    sparsity: float
    smoothness: float
    total: float


def _combine(per_video: Node, weights: np.ndarray) -> Node:
    """Linear combinations of one 1x1 value per video: `weights` (R x B)
    times the (B,1,1) `per_video` values as a column; an Rx1 node."""
    col = dc.reshape(per_video, (per_video.shape[0], 1))
    return dc.matmul(per_video.tape.constant(weights), col)


def video_bce(scores: Node, labels, k: int) -> Node:
    """Batch-mean BCE on the top-k mean score of each video; `scores` is
    (B,T,1)."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.size == 0:
        raise ValueError("empty batch")
    if scores.shape[:-2] != labels.shape:
        raise ValueError("scores/labels length mismatch")
    sigma = dc.topk_mean(scores, k)
    # sigma for an abnormal video, 1 - sigma for a normal one (both exact)
    y = labels.reshape(-1, 1, 1)
    tape = sigma.tape
    p = dc.add(dc.hadamard(sigma, tape.constant(2.0 * y - 1.0)),
               tape.constant(1.0 - y))
    terms = dc.scale(dc.log_clamped(p, BCE_CLAMP, 1 - BCE_CLAMP), -1.0)
    return _combine(terms, np.full((1, labels.size), 1.0 / labels.size))


def feature_magnitude_loss(x: Node, labels, k: int, margin: float) -> Node:
    """Paired hinge on top-k mean row norms of the (B,T,D) features: the
    i-th abnormal video of the batch against the i-th normal one."""
    labels = np.asarray(labels)
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if len(pos) != len(neg) or not len(pos):
        raise ValueError(
            f"paired batch required: {len(pos)} abnormal vs {len(neg)} normal")
    magnitudes = dc.topk_mean(dc.row_norms(x), k)
    # row i picks normal_i minus abnormal_i
    pairs = np.zeros((len(pos), labels.size))
    pairs[np.arange(len(pos)), neg] = 1.0
    pairs[np.arange(len(pos)), pos] = -1.0
    gap = _combine(magnitudes, pairs)
    hinge = dc.relu(dc.add(gap.tape.constant(np.full(gap.shape, margin)), gap))
    return dc.reduce(hinge, mode="mean")


def temporal_regularizers(scores: Node) -> tuple[Node, Node]:
    """(sparsity, smoothness) of each video's score vector (one 1x1 each)."""
    t = scores.shape[-2]
    if t < 2:
        raise ValueError(f"need T >= 2 snippets, got {t}")
    sparsity = dc.reduce(dc.absolute(scores), mode="sum")
    diff = dc.sub(dc.slice_rows(scores, 1, t), dc.slice_rows(scores, 0, t - 1))
    smoothness = dc.reduce(dc.hadamard(diff, diff), mode="sum")
    return sparsity, smoothness


def total_loss(x: Node, scores: Node, labels,
               weights: LossWeights) -> tuple[Node, LossBreakdown]:
    """Compose the full objective over one class-paired batch.

    `x` holds the fused (B,T,D) features and `scores` the (B,T,1) snippet
    scores of the batch, aligned with `labels`. Every term is computed per
    video inside batched ops. Returns the scalar loss node plus the term
    values; the breakdown total is composed with the same float arithmetic
    as the node.
    """
    labels = np.asarray(labels)
    if x.shape[:-2] != labels.shape or scores.shape[:-2] != labels.shape:
        raise ValueError(f"batch of {labels.size} labels does not match "
                         f"features {x.shape} and scores {scores.shape}")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if not n_pos or not n_neg:
        raise ValueError("batch must contain both an abnormal and a normal video")
    if n_pos != n_neg:
        raise ValueError(
            f"batch must pair classes equally: {n_pos} abnormal vs {n_neg} normal")

    bce = video_bce(scores, labels, weights.k)
    fm = feature_magnitude_loss(x, labels, weights.k, weights.margin)
    sp, sm = temporal_regularizers(scores)
    abnormal_mean = (labels == 1).reshape(1, -1) / n_pos
    sparsity = _combine(sp, abnormal_mean)
    smoothness = _combine(sm, abnormal_mean)

    total = dc.add(dc.add(dc.add(bce, dc.scale(fm, weights.lambda_fm)),
                          dc.scale(sparsity, weights.lambda1)),
                   dc.scale(smoothness, weights.lambda2))
    breakdown = LossBreakdown(
        bce=float(bce.value[0, 0]),
        fm=float(fm.value[0, 0]),
        sparsity=float(sparsity.value[0, 0]),
        smoothness=float(smoothness.value[0, 0]),
        total=float(total.value[0, 0]),
    )
    return total, breakdown
