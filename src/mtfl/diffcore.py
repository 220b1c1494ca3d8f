"""Dense float arrays with tape-based reverse-mode differentiation.

A value on the tape is a float array of two or more axes. The last two axes
are the matrix (scalars are 1x1); any leading axes are a batch, such as one
matrix per video, and a 2-D value is simply a batch of none. Row-wise ops
(softmax, norms, slices, concatenation, the temporal convolution) act on
each matrix of a batch on its own; `topk_mean` and `reduce` give one value
per matrix. `matmul` and `add_rowvec` broadcast a 2-D parameter over the
batch, and their backward sums its gradient over every row of the batch.

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

__all__ = [
    "Tape",
    "Node",
    "GradReport",
    "as_matrix",
    "matmul",
    "add",
    "sub",
    "add_rowvec",
    "scale",
    "hadamard",
    "sigmoid",
    "relu",
    "absolute",
    "log_clamped",
    "softmax_rows",
    "dilated_conv1d_depthwise",
    "concat_cols",
    "slice_rows",
    "reshape",
    "transpose",
    "reduce",
    "row_norms",
    "topk_mean",
    "backward",
    "finite_diff_check",
]


def as_matrix(value, dtype=None) -> np.ndarray:
    """Coerce to a float array of at least two axes and validate finiteness.

    Floating inputs keep their precision (so the finite-difference checker
    can push extended-precision values through a build); everything else
    widens to float64. A scalar becomes 1x1 and a vector one row.
    """
    a = np.asarray(value)
    if dtype is None:
        dtype = a.dtype if a.dtype.kind == "f" else np.float64
    a = a.astype(dtype, copy=False)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
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
    """a @ b over the last two axes. `b` is either 2-D, a weight shared by
    every matrix of a's batch, or has the same batch axes as `a`."""
    av, bv = a.value, b.value
    if av.shape[-1] != bv.shape[-2] or (bv.ndim > 2
                                        and bv.shape[:-2] != av.shape[:-2]):
        raise ValueError(
            f"matmul dimension mismatch: {av.shape} @ {bv.shape}")
    if bv.ndim == 2:
        # One GEMM over all B*T rows, forward and backward; the weight
        # gradient is thereby summed over the batch.
        out = (_rows(av) @ bv).reshape(av.shape[:-1] + bv.shape[1:])
        return _tape_of(a, b)._record(out, [
            (a, lambda g: (_rows(g) @ bv.T).reshape(av.shape)),
            (b, lambda g: _rows(av).T @ _rows(g)),
        ])
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


def sub(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ValueError(f"sub shape mismatch: {a.value.shape} vs {b.value.shape}")
    return _tape_of(a, b)._record(a.value - b.value, [
        (a, lambda g: g),
        (b, lambda g: -g),
    ])


def add_rowvec(m: Node, b: Node) -> Node:
    """Broadcast-add a 1xD row (bias) over every row of a ...xTxD value."""
    if b.value.shape != (1, m.value.shape[-1]):
        raise ValueError(
            f"row vector shape {b.value.shape} does not match matrix {m.value.shape}")
    return _tape_of(m, b)._record(m.value + b.value, [
        (m, lambda g: g),
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
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return m.tape._record(out, [(m, lambda g: g * out * (1.0 - out))])


def relu(m: Node) -> Node:
    x = m.value
    return m.tape._record(np.maximum(x, 0.0), [(m, lambda g: g * (x > 0))])


def absolute(m: Node) -> Node:
    x = m.value
    return m.tape._record(np.abs(x), [(m, lambda g: g * np.sign(x))])


def log_clamped(m: Node, lo: float = 1e-7, hi: float = 1.0 - 1e-7) -> Node:
    """log of the input clamped into [lo, hi]; gradient is zero where clamped."""
    x = m.value
    clamped = np.clip(x, lo, hi)
    inside = (x > lo) & (x < hi)
    return m.tape._record(np.log(clamped),
                          [(m, lambda g: g * inside / clamped)])


def softmax_rows(m: Node) -> Node:
    x = m.value
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return s * (g - (g * s).sum(axis=-1, keepdims=True))

    return m.tape._record(s, [(m, vjp)])


def _shift_rows(x: np.ndarray, offset: int) -> np.ndarray:
    """Rows of each matrix moved by `offset` (positive: downward),
    zero-filled; rows never cross from one matrix of a batch to the next."""
    out = np.zeros_like(x)
    t = x.shape[-2]
    if offset == 0:
        return x.copy()
    if offset > 0:
        if offset < t:
            out[..., offset:, :] = x[..., :t - offset, :]
    else:
        if -offset < t:
            out[..., :t + offset, :] = x[..., -offset:, :]
    return out


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
    r = dilation
    # out[t] = w0*x[t-r] + w1*x[t] + w2*x[t+r] + b
    out = (w[:, 0] * _shift_rows(x, r) + w[:, 1] * x
           + w[:, 2] * _shift_rows(x, -r) + b)

    def vjp_x(g):
        return (w[:, 0] * _shift_rows(g, -r) + w[:, 1] * g
                + w[:, 2] * _shift_rows(g, r))

    def vjp_w(g):
        gw = np.empty_like(w)
        gw[:, 0] = _rows(g * _shift_rows(x, r)).sum(axis=0)
        gw[:, 1] = _rows(g * x).sum(axis=0)
        gw[:, 2] = _rows(g * _shift_rows(x, -r)).sum(axis=0)
        return gw

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


def slice_rows(m: Node, i0: int, i1: int) -> Node:
    x = m.value

    def vjp(g):
        full = np.zeros_like(x)
        full[..., i0:i1, :] = g
        return full

    return m.tape._record(x[..., i0:i1, :].copy(), [(m, vjp)])


def reshape(m: Node, shape: tuple) -> Node:
    """The same entries in row-major order under a new shape."""
    x = m.value
    return m.tape._record(x.reshape(shape), [(m, lambda g: g.reshape(x.shape))])


def transpose(m: Node, axis1: int = -2, axis2: int = -1) -> Node:
    """Two axes swapped; by default the last two, the matrix transpose."""
    return m.tape._record(np.swapaxes(m.value, axis1, axis2),
                          [(m, lambda g: np.swapaxes(g, axis1, axis2))])


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
                      max_coords: int = 200,
                      seed: int = 0) -> GradReport:
    """Compare analytic gradients of `build` against central differences.

    `build` must construct a fresh tape from the given parameter arrays and
    return the scalar loss node. All coordinates are checked unless the
    total exceeds 10,000, in which case a seeded random subsample of at
    least `max_coords` coordinates is used. Relative error denominator is
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
        pick = rng.choice(total, size=max(max_coords, 200), replace=False)
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
