"""Dense float arrays with tape-based reverse-mode differentiation.

A value on the tape is a float array of two or more axes. The last two axes
are the matrix (scalars are 1x1); any leading axes are a batch, such as one
matrix per video, and a 2-D value is simply a batch of none. Row-wise ops
(norms, concatenation, the temporal convolution, multi-head `attention`)
act on each matrix of a batch on its own; `topk_mean` and `reduce` give
one value per matrix. `linear` applies a 2-D weight and a 1xE bias to
every row of a batch, and its backward sums their gradients over every
row. `relu_dropout` is a ReLU and inverted dropout by a boolean mask.

Ops record a backward closure per input; `backward` replays the tape in
reverse and returns gradients keyed by leaf name. A central-difference
checker (`finite_diff_check`) validates analytic gradients of any scalar
build.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

SAMPLED_COORDS = 200  # coordinates finite_diff_check samples past 10,000


def as_matrix(value) -> np.ndarray:
    """Coerce to a float array of at least two axes and validate finiteness.

    Floating inputs keep their precision (so the finite-difference checker
    can push extended-precision values through a build); everything else
    widens to float64. A scalar becomes 1x1 and a vector one row.
    """
    a = np.atleast_2d(value)
    a = a.astype(a.dtype if a.dtype.kind == "f" else np.float64, copy=False)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


class Node:
    """One tape entry: a value plus (parent, vector-Jacobian product) pairs."""

    __slots__ = ("value", "parents", "name", "tape", "index", "__weakref__")

    def __init__(self, value, parents, name, tape, index):
        self.value = value
        self.parents = parents
        self.name = name
        self.tape = tape
        self.index = index

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Append-only record of primitive applications, in topological order.

    Every node refers to its tape, so the tape refers to its nodes only
    weakly and keeps just the values of its named leaves: a tape is then
    no reference cycle, and its arrays are freed as soon as the caller
    drops its last node instead of waiting for the cycle collector. A node
    that nothing refers to any more cannot lie upstream of a loss.
    """

    def __init__(self):
        self.nodes: list[weakref.ref] = []
        self.leaves: dict[str, np.ndarray] = {}

    def _record(self, value: np.ndarray, parents=(), name=None) -> Node:
        node = Node(value, tuple(parents), name, self, len(self.nodes))
        self.nodes.append(weakref.ref(node))
        return node

    def leaf(self, value, name: str | None = None) -> Node:
        """A differentiable input. Named leaves appear in backward's result."""
        node = self._record(as_matrix(value), name=name)
        if name is not None:
            if name in self.leaves:
                raise ValueError(f"duplicate leaf name {name!r}")
            self.leaves[name] = node.value
        return node

    def constant(self, value) -> Node:
        """A non-differentiable input (no gradient is ever requested for it)."""
        return self._record(as_matrix(value))


def _tape_of(*nodes: Node) -> Tape:
    tape = nodes[0].tape
    for n in nodes[1:]:
        if n.tape is not tape:
            raise ValueError("operands live on different tapes")
    return tape


def _rows(x: np.ndarray) -> np.ndarray:
    """Every row of every matrix in the batch, stacked into one matrix."""
    return x.reshape(-1, x.shape[-1])


def _unbroadcast(g: np.ndarray) -> np.ndarray:
    """The gradient of a 1xD row that was added to every row of a batch:
    `g` summed over all of its rows."""
    return _rows(g).sum(axis=0, keepdims=True)


def matmul(a: Node, b: Node) -> Node:
    """a @ b over the last two axes; `a` and `b` have the same batch axes."""
    av, bv = a.value, b.value
    if av.shape[-1] != bv.shape[-2] or bv.shape[:-2] != av.shape[:-2]:
        raise ValueError(
            f"matmul dimension mismatch: {av.shape} @ {bv.shape}")
    return _tape_of(a, b)._record(av @ bv, [
        (a, lambda g: g @ np.swapaxes(bv, -1, -2)),
        (b, lambda g: np.swapaxes(av, -1, -2) @ g),
    ])


def add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ValueError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
    return _tape_of(a, b)._record(a.value + b.value, [
        (a, lambda g: g),
        (b, lambda g: g),
    ])


def linear(x: Node, w: Node, b: Node) -> Node:
    """x @ w + b, with the DxE weight `w` and 1xE bias `b` shared by x's
    batch: one GEMM over all rows, forward and backward."""
    xv, wv = x.value, w.value
    if wv.ndim != 2 or b.shape != (1, wv.shape[1]) or xv.shape[-1] != len(wv):
        raise ValueError(f"linear shape mismatch: {xv.shape} @ {wv.shape} "
                         f"+ {b.shape}")
    out = (_rows(xv) @ wv).reshape(xv.shape[:-1] + wv.shape[1:]) + b.value
    return _tape_of(x, w, b)._record(out, [
        (x, lambda g: (_rows(g) @ wv.T).reshape(xv.shape)),
        (w, lambda g: _rows(xv).T @ _rows(g)),
        (b, _unbroadcast),
    ])


def scale(m: Node, c: float) -> Node:
    c = float(c)
    return m.tape._record(m.value * c, [(m, lambda g: g * c)])


def hadamard(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ValueError(
            f"hadamard shape mismatch: {a.value.shape} vs {b.value.shape}")
    av, bv = a.value, b.value
    return _tape_of(a, b)._record(av * bv, [
        (a, lambda g: g * bv),
        (b, lambda g: g * av),
    ])


def sigmoid(m: Node) -> Node:
    # Split by sign for overflow safety.
    x = m.value
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return m.tape._record(out, [(m, lambda g: g * out * (1.0 - out))])


def relu(m: Node) -> Node:
    x = m.value
    return m.tape._record(np.maximum(x, 0.0), [(m, lambda g: g * (x > 0))])


def relu_dropout(m: Node, keep: np.ndarray, scale: float) -> Node:
    """relu, then inverted dropout: zero where the boolean mask `keep` is
    False, times `scale` where it is True."""
    x = m.value
    if keep.shape != x.shape:
        raise ValueError(f"keep mask shape {keep.shape} != {x.shape}")
    out = np.maximum(x, 0.0) * keep * scale
    live = keep & (x > 0)
    return m.tape._record(out, [(m, lambda g: g * live * scale)])


def log_clamped(m: Node, lo: float, hi: float) -> Node:
    """log of the input clamped into [lo, hi]; gradient is zero where clamped."""
    x = m.value
    clamped = np.clip(x, lo, hi)
    inside = (x > lo) & (x < hi)
    return m.tape._record(np.log(clamped),
                          [(m, lambda g: g * inside / clamped)])


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of a plain array."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attention(q: Node, k: Node, v: Node, heads: int) -> Node:
    """Multi-head attention of (...,Tq,W) queries over (...,Tk,W) keys and
    values: each of `heads` slices of W gives softmax(q kᵀ/sqrt(W/heads)) v,
    concatenated back in order. Its backward keeps only the weights P."""
    if (k.shape != v.shape or q.shape[:-2] != k.shape[:-2]
            or q.shape[-1] != k.shape[-1] or q.shape[-1] % heads):
        raise ValueError(f"attention shape mismatch: q {q.shape}, k "
                         f"{k.shape}, v {v.shape}, heads {heads}")
    c = float(1.0 / np.sqrt(q.shape[-1] // heads))

    def split(x):  # (...,T,W) -> a (...,heads,T,W/heads) view
        return np.swapaxes(x.reshape(x.shape[:-1] + (heads, -1)), -3, -2)

    def merge(x):  # the inverse of split, as a new array
        return np.swapaxes(x, -3, -2).reshape(x.shape[:-3] + (x.shape[-2], -1))

    q4, k4, v4 = split(q.value), split(k.value), split(v.value)
    p = _softmax(q4 @ np.swapaxes(k4, -1, -2) * c)
    memo = {}

    def grads(g):
        # dq, dk and dv at once, kept for the cotangent `g` itself only
        if memo.get("g") is not g:
            go = split(g)
            da = go @ np.swapaxes(v4, -1, -2)
            ds = p * (da - (da * p).sum(axis=-1, keepdims=True)) * c
            memo.update(g=g, out=tuple(map(merge, (
                ds @ k4,
                np.swapaxes(np.swapaxes(q4, -1, -2) @ ds, -1, -2),
                np.swapaxes(p, -1, -2) @ go))))
        return memo["out"]

    return _tape_of(q, k, v)._record(merge(p @ v4), [
        (n, lambda g, i=i: grads(g)[i]) for i, n in enumerate((q, k, v))])


def dilated_conv1d_depthwise(m: Node, kernel: Node, bias: Node,
                             dilation: int) -> Node:
    """Per-channel 3-tap temporal convolution with zero ("same") padding,
    along the rows (T) of each ...xTxD matrix.

    kernel is Dx3 (taps at offsets -dilation, 0, +dilation); bias is 1xD.
    """
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    d = m.value.shape[-1]
    if kernel.value.shape != (d, 3):
        raise ValueError(
            f"kernel shape {kernel.value.shape} does not match channels {d}")
    if bias.value.shape != (1, d):
        raise ValueError(f"bias shape {bias.value.shape}, expected (1, {d})")
    x, w, b = m.value, kernel.value, bias.value
    r, t = dilation, x.shape[-2]

    def taps(a):
        # a[t-r] and a[t+r] for each row t: views of `a` with r zero rows
        # added at either end, so a tap past an end reads zero
        p = np.zeros(a.shape[:-2] + (t + 2 * r, d), a.dtype)
        p[..., r:r + t, :] = a
        return p[..., :t, :], p[..., 2 * r:, :]

    # out[t] = w0*x[t-r] + w1*x[t] + w2*x[t+r] + b
    before, after = taps(x)
    out = w[:, 0] * before + w[:, 1] * x + w[:, 2] * after + b

    def vjp_x(g):
        g_before, g_after = taps(g)
        return w[:, 0] * g_after + w[:, 1] * g + w[:, 2] * g_before

    def vjp_w(g):
        return np.stack([_rows(g * tap).sum(axis=0)
                         for tap in (before, x, after)], axis=1)

    return _tape_of(m, kernel, bias)._record(out, [
        (m, vjp_x),
        (kernel, vjp_w),
        (bias, _unbroadcast),
    ])


def concat_cols(nodes: Sequence[Node]) -> Node:
    nodes = list(nodes)
    widths = [n.value.shape[-1] for n in nodes]
    out = np.concatenate([n.value for n in nodes], axis=-1)
    parents = []
    start = 0
    for n, w in zip(nodes, widths):
        j0, j1 = start, start + w
        parents.append((n, lambda g, j0=j0, j1=j1: g[..., j0:j1]))
        start = j1
    return _tape_of(*nodes)._record(out, parents)


def reshape(m: Node, shape: tuple) -> Node:
    """The same entries in row-major order under a new shape."""
    x = m.value
    return m.tape._record(x.reshape(shape), [(m, lambda g: g.reshape(x.shape))])


def reduce(m: Node, mode: str = "sum") -> Node:
    """Sum or mean of each matrix of `m`, as a 1x1 matrix."""
    if mode not in ("sum", "mean"):
        raise ValueError(f"unknown mode {mode!r}")
    x = m.value
    out = x.sum(axis=(-2, -1), keepdims=True)
    count = 1.0
    if mode == "mean":
        count = x.size // out.size
        out = out / count
    return m.tape._record(out, [
        (m, lambda g: np.broadcast_to(g / count, x.shape).copy())])


def row_norms(m: Node) -> Node:
    """Euclidean norm of every row, as an mx1 column per matrix."""
    x = m.value
    n = np.sqrt((x * x).sum(axis=-1, keepdims=True))

    def vjp(g):
        safe = np.where(n > 0, n, 1.0)
        return g * np.where(n > 0, x / safe, 0.0)

    return m.tape._record(n, [(m, vjp)])


def topk_mean(v: Node, k: int) -> Node:
    """Mean of the k largest entries of each column/row vector of a batch,
    as a 1x1 per vector; ties broken by lowest index. Gradient flows 1/k to
    each selected entry only."""
    x = v.value
    flat = x.reshape(x.shape[:-2] + (-1,))
    n = flat.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for vector of length {n}")
    order = np.argsort(-flat, axis=-1, kind="stable")[..., :k]
    top = np.take_along_axis(flat, order, axis=-1)
    out = (top.sum(axis=-1) / k).reshape(x.shape[:-2] + (1, 1))
    mask = np.zeros_like(flat)
    np.put_along_axis(mask, order, 1.0 / k, axis=-1)
    mask = mask.reshape(x.shape)
    return v.tape._record(out, [(v, lambda g: g * mask)])


def _accumulate(grads: dict[int, np.ndarray], node: Node, g: np.ndarray):
    i = node.index
    if i in grads:
        grads[i] = grads[i] + g
    else:
        grads[i] = g


def backward(loss: Node) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss node with respect to every named leaf
    (exact zeros if unreached).

    A node's cotangent is dropped once it has been passed to its parents,
    so a sweep over a long tape holds only the cotangents still pending.
    The tape is not modified; repeated calls give identical results.
    """
    if loss.value.shape != (1, 1):
        raise ValueError(f"loss must be scalar (1x1), got shape {loss.value.shape}")
    tape = loss.tape
    grads: dict[int, np.ndarray] = {loss.index: np.ones((1, 1))}
    reached: dict[str, np.ndarray] = {}
    for ref in reversed(tape.nodes[:loss.index + 1]):
        node = ref()
        g = grads.pop(node.index, None) if node is not None else None
        if g is None:
            continue
        if node.name is not None:
            reached[node.name] = g
        for parent, vjp in node.parents:
            # a constant or unnamed leaf: its cotangent would never be read
            if parent.parents or parent.name is not None:
                _accumulate(grads, parent, vjp(g))
    return {name: reached[name] if name in reached else np.zeros_like(value)
            for name, value in tape.leaves.items()}


@dataclass
class GradReport:
    max_rel_error: float
    worst_coordinate: str
    passed: bool


def finite_diff_check(build: Callable[[dict[str, np.ndarray]], Node],
                      params: dict[str, np.ndarray],
                      eps: float = 1e-5,
                      tol: float = 1e-4,
                      seed: int = 0) -> GradReport:
    """Compare analytic gradients of `build` against central differences.

    `build` must construct a fresh tape from the given parameter arrays and
    return the scalar loss node. All coordinates are checked unless the
    total exceeds 10,000, in which case a seeded random subsample of
    SAMPLED_COORDS coordinates is used. Relative error denominator is
    max(|analytic|, |numeric|, 1e-8).
    """
    params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    loss = build(params)
    if loss.value.shape != (1, 1):
        raise ValueError("build must produce a scalar loss")
    if build(params).value[0, 0] != loss.value[0, 0]:
        raise ValueError("build is not deterministic; finite differences are invalid")
    analytic = backward(loss)

    coords = [(name, idx) for name, p in params.items()
              for idx in np.ndindex(p.shape)]
    total = len(coords)
    if total > 10_000:
        rng = np.random.default_rng(seed)
        pick = rng.choice(total, size=SAMPLED_COORDS, replace=False)
        coords = [coords[i] for i in pick]

    # The perturbed evaluations run in extended precision so that the
    # central-difference cancellation does not drown out coordinates with
    # tiny (but correct) double-precision gradients.
    wide = {k: v.astype(np.longdouble) for k, v in params.items()}
    worst_err = 0.0
    worst = ""
    for name, idx in coords:
        p = {k: v.copy() for k, v in wide.items()}
        p[name][idx] += eps
        up = build(p).value[0, 0]
        p[name][idx] -= 2 * eps
        down = build(p).value[0, 0]
        numeric = float((up - down) / (2 * eps))
        a = analytic[name][idx]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        if err > worst_err:
            worst_err = err
            worst = f"{name}{list(idx)}"
    return GradReport(max_rel_error=worst_err, worst_coordinate=worst,
                      passed=worst_err <= tol)
