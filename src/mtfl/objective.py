"""Weakly-supervised training objective.

Four terms: top-k video-level binary cross-entropy, a paired hinge on
top-k snippet feature magnitudes (abnormal above normal by a margin), and
sparsity / temporal-smoothness penalties on the snippet scores of
abnormal videos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def validate(self):
        for name in ("lambda_fm", "lambda1", "lambda2", "margin"):
            if not 0 <= getattr(self, name) < math.inf:  # False for NaN
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        return self


@dataclass
class LossBreakdown:
    bce: float
    fm: float
    sparsity: float
    smoothness: float
    total: float


def _mean(nodes: list[Node]) -> Node:
    total = nodes[0]
    for n in nodes[1:]:
        total = dc.add(total, n)
    return dc.scale(total, 1.0 / len(nodes))


def video_bce(scores_list: list[Node], labels: list[int], k: int) -> Node:
    """Batch-mean BCE on the top-k mean score of each video."""
    if not scores_list:
        raise ValueError("empty batch")
    if len(scores_list) != len(labels):
        raise ValueError("scores/labels length mismatch")
    terms = []
    for scores, y in zip(scores_list, labels):
        sigma = dc.topk_mean(scores, k)
        if y == 1:
            term = dc.scale(dc.log_clamped(sigma, BCE_CLAMP, 1 - BCE_CLAMP), -1.0)
        else:
            one_minus = dc.sub(sigma.tape.constant([[1.0]]), sigma)
            term = dc.scale(dc.log_clamped(one_minus, BCE_CLAMP, 1 - BCE_CLAMP), -1.0)
        terms.append(term)
    return _mean(terms)


def feature_magnitude_loss(x_pos: list[Node], x_neg: list[Node], k: int,
                           margin: float) -> Node:
    """Paired hinge on top-k mean row norms: abnormal_i vs normal_i."""
    if len(x_pos) != len(x_neg) or not x_pos:
        raise ValueError(
            f"paired batch required: {len(x_pos)} abnormal vs {len(x_neg)} normal")
    terms = []
    for xp, xn in zip(x_pos, x_neg):
        mp = dc.topk_mean(dc.row_norms(xp), k)
        mn = dc.topk_mean(dc.row_norms(xn), k)
        gap = dc.sub(mn, mp)
        hinge = dc.relu(dc.add(gap.tape.constant([[margin]]), gap))
        terms.append(hinge)
    return _mean(terms)


def temporal_regularizers(scores: Node) -> tuple[Node, Node]:
    """(sparsity, smoothness) of one abnormal video's score vector."""
    t = scores.value.shape[0]
    if t < 2:
        raise ValueError(f"need T >= 2 snippets, got {t}")
    sparsity = dc.reduce(dc.absolute(scores), axis="all", mode="sum")
    diff = dc.sub(dc.slice_rows(scores, 1, t), dc.slice_rows(scores, 0, t - 1))
    smoothness = dc.reduce(dc.hadamard(diff, diff), axis="all", mode="sum")
    return sparsity, smoothness


def total_loss(forwards: list[tuple[Node, Node]], labels: list[int],
               weights: LossWeights) -> tuple[Node, LossBreakdown]:
    """Compose the full objective over one class-paired batch.

    `forwards` holds (fused features X, snippet scores) per video, aligned
    with `labels`. Returns the scalar loss node plus the term values; the
    breakdown total is composed with the same float arithmetic as the node.
    """
    weights.validate()
    pos = [i for i, y in enumerate(labels) if y == 1]
    neg = [i for i, y in enumerate(labels) if y == 0]
    if not pos or not neg:
        raise ValueError("batch must contain both an abnormal and a normal video")
    if len(pos) != len(neg):
        raise ValueError(
            f"batch must pair classes equally: {len(pos)} abnormal vs {len(neg)} normal")

    scores_all = [s for _, s in forwards]
    bce = video_bce(scores_all, labels, weights.k)
    fm = feature_magnitude_loss([forwards[i][0] for i in pos],
                                [forwards[i][0] for i in neg],
                                weights.k, weights.margin)
    sp_terms, sm_terms = [], []
    for i in pos:
        sp, sm = temporal_regularizers(forwards[i][1])
        sp_terms.append(sp)
        sm_terms.append(sm)
    sparsity = _mean(sp_terms)
    smoothness = _mean(sm_terms)

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
