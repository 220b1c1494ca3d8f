"""The multi-timescale fusion network and snippet classifier.

Three TxD feature matrices (short / medium / long timescale) pass through
four stages: pairwise cross-attention fusion, dilated-conv local gating,
self-attention over a reduced concatenation, and a final fuse-and-residual
projection, followed by a per-snippet 3-layer classifier. Each stage can
be bypassed independently for ablations. A batch of videos runs as one
forward over (B,T,D) tensors; no op mixes one video's snippets with
another's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Node, Tape

# Dilation of each LTL gate's conv, by timescale pair.
DILATIONS = {"lm": 2, "ms": 1, "sl": 4}
# Share of the classifier's hidden units that dropout zeroes: RTFM's value.
DROPOUT = 0.7


@dataclass(frozen=True)
class ModelConfig:
    d: int
    t: int = 32
    heads: int = 4
    hidden: tuple[int, int] = (512, 128)
    use_pfl: bool = True
    use_ltl: bool = True
    use_gtl: bool = True
    use_ff: bool = True

    def __post_init__(self):
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if self.t < 2:
            raise ValueError(f"snippet count T must be >= 2, got {self.t}")
        if self.d < 2:
            raise ValueError(f"feature dimension D must be >= 2, got {self.d}")
        if self.d % 2 != 0:
            raise ValueError(f"feature dimension D must be even, got {self.d}")
        if (self.d // 2) % self.heads != 0:
            raise ValueError(f"D/2={self.d // 2} not divisible by heads={self.heads}")
        if len(self.hidden) != 2 or min(self.hidden) < 1:
            raise ValueError(f"hidden must be two widths >= 1, got {self.hidden}")


def _tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Shape of every learnable tensor under the given stage switches.

    Bias tensors end in "_b" (the optimizer exempts them from weight decay).
    """
    d = config.d
    h1, h2 = config.hidden
    shapes: dict[str, tuple[int, int]] = {}
    if config.use_pfl:
        for pair in ("lm", "ms", "sl"):
            for proj in ("q", "k", "v", "o"):
                shapes[f"pfl.{pair}.{proj}_w"] = (d, d)
                shapes[f"pfl.{pair}.{proj}_b"] = (1, d)
    if config.use_ltl:
        for pair in ("lm", "ms", "sl"):
            shapes[f"ltl.{pair}.conv_w"] = (d, 3)
            shapes[f"ltl.{pair}.conv_b"] = (1, d)
        shapes["ltl.proj_w"] = (d, d // 2)
        shapes["ltl.proj_b"] = (1, d // 2)
    if config.use_gtl:
        shapes["gtl.red_w"] = (3 * d, d // 2)
        shapes["gtl.red_b"] = (1, d // 2)
        for proj in ("q", "k", "v", "o"):
            shapes[f"gtl.msa.{proj}_w"] = (d // 2, d // 2)
            shapes[f"gtl.msa.{proj}_b"] = (1, d // 2)
    if config.use_ff:
        shapes["ff.proj_w"] = (d, d)
        shapes["ff.proj_b"] = (1, d)
    shapes["clf.fc1_w"] = (d, h1)
    shapes["clf.fc1_b"] = (1, h1)
    shapes["clf.fc2_w"] = (h1, h2)
    shapes["clf.fc2_b"] = (1, h2)
    shapes["clf.fc3_w"] = (h2, 1)
    shapes["clf.fc3_b"] = (1, 1)
    return shapes


def param_count(config: ModelConfig) -> int:
    return sum(r * c for r, c in _tensor_shapes(config).values())


def init_params(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, (rows, cols) in _tensor_shapes(config).items():
        if name.endswith("_b"):
            params[name] = np.zeros((rows, cols))
        else:
            bound = 1.0 / np.sqrt(rows)
            params[name] = rng.uniform(-bound, bound, size=(rows, cols))
    return params


def _project(x: Node, leaves, prefix: str) -> Node:
    return dc.linear(x, leaves[f"{prefix}_w"], leaves[f"{prefix}_b"])


def cross_attention(q_src: Node, kv_src: Node, leaves, prefix: str,
                    heads: int) -> Node:
    """Multi-head cross-attention; self-attention when q_src is kv_src.
    Every head of every video attends in one batched product."""
    q = _project(q_src, leaves, f"{prefix}.q")
    k = _project(kv_src, leaves, f"{prefix}.k")
    v = _project(kv_src, leaves, f"{prefix}.v")
    return _project(dc.attention(q, k, v, heads), leaves, f"{prefix}.o")


def pfl_forward(f_l: Node, f_m: Node, f_s: Node, leaves,
                config: ModelConfig) -> tuple[Node, Node, Node]:
    """Pairwise cross-attention fusion; identity pass-through when disabled."""
    if not config.use_pfl:
        return f_l, f_m, f_s
    f_lm = cross_attention(f_l, f_m, leaves, "pfl.lm", config.heads)
    f_ms = cross_attention(f_m, f_s, leaves, "pfl.ms", config.heads)
    f_sl = cross_attention(f_s, f_l, leaves, "pfl.sl", config.heads)
    return f_lm, f_ms, f_sl


def ltl_forward(f_lm: Node, f_ms: Node, f_sl: Node, leaves,
                config: ModelConfig) -> Node:
    """Sigmoid conv gates scale each pairwise matrix; sum projected to D/2."""
    scaled = []
    for name, p in (("lm", f_lm), ("ms", f_ms), ("sl", f_sl)):
        gate = dc.sigmoid(dc.dilated_conv1d_depthwise(
            p, leaves[f"ltl.{name}.conv_w"], leaves[f"ltl.{name}.conv_b"],
            DILATIONS[name]))
        scaled.append(dc.hadamard(gate, p))
    total = dc.add(dc.add(scaled[0], scaled[1]), scaled[2])
    return _project(total, leaves, "ltl.proj")


def gtl_forward(f_l: Node, f_m: Node, f_s: Node, leaves,
                config: ModelConfig) -> Node:
    """Concat the three scales, reduce to D/2, self-attend over snippets."""
    c = dc.concat_cols([f_l, f_m, f_s])
    reduced = _project(c, leaves, "gtl.red")
    return cross_attention(reduced, reduced, leaves, "gtl.msa", config.heads)


def ff_fuse(z: Node, residual: Node, leaves) -> Node:
    """Project the fuse input `z` to D and add the residual."""
    return dc.add(_project(z, leaves, "ff.proj"), residual)


def _keep_mask(shape: tuple, rng) -> np.ndarray:
    """The boolean keep mask of dropout at rate DROPOUT on a (B,T,H) batch.
    `rng` is a sequence of generators, one per video, each drawing that
    video's mask exactly as it would for the video alone."""
    if len(rng) != shape[0]:
        raise ValueError(f"{len(rng)} dropout generators for a batch "
                         f"of {shape[0]}")
    draw = np.empty(shape)
    for r, row in zip(rng, draw):
        r.random(out=row)
    return draw >= DROPOUT


def classify(x: Node, leaves, config: ModelConfig, rng=None) -> Node:
    """Per-snippet scores in (0,1). Inverted dropout follows each hidden
    ReLU if and only if `rng` is given (see `_keep_mask`)."""
    h = x
    for layer in ("clf.fc1", "clf.fc2"):
        h = _project(h, leaves, layer)
        h = dc.relu(h) if rng is None else dc.relu_dropout(
            h, _keep_mask(h.shape, rng), 1.0 / (1.0 - DROPOUT))
    return dc.sigmoid(_project(h, leaves, "clf.fc3"))


def forward(feats: np.ndarray, leaves: dict[str, Node],
            config: ModelConfig, rng=None) -> tuple[Tape, Node, Node]:
    """Assemble the full network on the tape that owns the parameter
    `leaves`; returns (tape, fused X, snippet scores).

    `feats` holds the short, medium and long timescales along its first
    axis: (3,T,D) for one video, or (3,B,T,D) for a batch of B videos that
    run as one forward; X and the scores then carry the batch axis.
    Classifier dropout runs if and only if `rng` is given, on a batch
    only: a sequence of dropout generators, one per video.

    Disabled stages are bypassed: PFL passes the scale matrices through;
    with LTL (resp. GTL) off, the other branch's output is duplicated to
    fill both halves of the fuse input; with both off, the fuse input is
    the mean of the pairwise matrices; with FF off, X is the fuse input
    with no projection or residual. All four off reduces to the mean of
    the input scales.
    """
    tape = next(iter(leaves.values())).tape
    f_s, f_m, f_l = map(tape.constant, feats)

    f_lm, f_ms, f_sl = pfl_forward(f_l, f_m, f_s, leaves, config)
    u_local = ltl_forward(f_lm, f_ms, f_sl, leaves, config) if config.use_ltl else None
    u_global = gtl_forward(f_l, f_m, f_s, leaves, config) if config.use_gtl else None

    if u_local is None and u_global is None:
        z = dc.scale(dc.add(dc.add(f_lm, f_ms), f_sl), 1.0 / 3.0)
    else:
        z = dc.concat_cols([u_global if u_local is None else u_local,
                            u_local if u_global is None else u_global])
    x = z
    if config.use_ff:
        residual = dc.scale(dc.add(dc.add(f_l, f_m), f_s), 1.0 / 3.0)
        x = ff_fuse(z, residual, leaves)
    return tape, x, classify(x, leaves, config, rng)
