"""Weakly-supervised training objective.

Four terms: top-k video-level binary cross-entropy, a paired hinge on
top-k snippet feature magnitudes (abnormal above normal by a margin), and
sparsity / temporal-smoothness penalties on the snippet scores of
abnormal videos. A batch is n normal videos, then n abnormal ones, paired
by position: the layout of RTFM's reference code. Each term is computed
for every video of a (2n,T,...) batch at once and combined across videos
by a constant weight matrix, so the tape does not grow with n.
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


def video_bce(scores: Node, k: int) -> Node:
    """Batch-mean BCE on the top-k mean score of each video; `scores` is
    (2n,T,1), n normal videos then n abnormal ones."""
    n = scores.shape[0] // 2
    sigma = dc.topk_mean(scores, k)
    # sigma for an abnormal video, 1 - sigma for a normal one (both exact)
    y = np.repeat([0.0, 1.0], n).reshape(-1, 1, 1)
    tape = sigma.tape
    p = dc.add(dc.hadamard(sigma, tape.constant(2.0 * y - 1.0)),
               tape.constant(1.0 - y))
    terms = dc.scale(dc.log_clamped(p, BCE_CLAMP, 1 - BCE_CLAMP), -1.0)
    return _combine(terms, np.full((1, 2 * n), 1.0 / (2 * n)))


def feature_magnitude_loss(x: Node, k: int, margin: float) -> Node:
    """Paired hinge on top-k mean row norms of the (2n,T,D) features: the
    i-th abnormal video of the batch, at n + i, against the i-th normal one."""
    n = x.shape[0] // 2
    magnitudes = dc.topk_mean(dc.row_norms(x), k)
    # row i picks normal_i minus abnormal_i
    gap = _combine(magnitudes, np.eye(n, 2 * n) - np.eye(n, 2 * n, n))
    hinge = dc.relu(dc.add(gap.tape.constant(np.full(gap.shape, margin)), gap))
    return dc.reduce(hinge, mode="mean")


def temporal_regularizers(scores: Node) -> tuple[Node, Node]:
    """(sparsity, smoothness) of each video's score vector (one 1x1 each)."""
    t = scores.shape[-2]
    if t < 2:
        raise ValueError(f"need T >= 2 snippets, got {t}")
    sparsity = dc.reduce(scores, mode="sum")  # sigmoid scores: |s| is s
    # Successive differences s[i+1] - s[i] of each video (Sultani et al.,
    # CVPR 2018), as one constant (T-1)xT matrix per video times its scores.
    steps = np.eye(t - 1, t, 1) - np.eye(t - 1, t)
    diff = dc.matmul(scores.tape.constant(
        np.broadcast_to(steps, scores.shape[:-2] + steps.shape)), scores)
    smoothness = dc.reduce(dc.hadamard(diff, diff), mode="sum")
    return sparsity, smoothness


def total_loss(x: Node, scores: Node,
               weights: LossWeights) -> tuple[Node, LossBreakdown]:
    """Compose the full objective over one batch of n normal videos, then n
    abnormal ones, paired by position.

    `x` holds the fused (2n,T,D) features and `scores` the (2n,T,1) snippet
    scores of the batch. Every term is computed per video inside batched
    ops. Returns the scalar loss node plus the term values; the breakdown
    total is composed with the same float arithmetic as the node.
    """
    n, odd = divmod(x.shape[0], 2)
    if odd or scores.shape[0] != x.shape[0]:
        raise ValueError(f"a batch is n normal then n abnormal videos: got "
                         f"features {x.shape} and scores {scores.shape}")

    bce = video_bce(scores, weights.k)
    fm = feature_magnitude_loss(x, weights.k, weights.margin)
    sp, sm = temporal_regularizers(scores)
    abnormal_mean = np.repeat([0.0, 1.0 / n], n).reshape(1, -1)
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
