"""Training loop: Adam with decoupled weight decay, class-balanced batch
sampling, per-step loss logging, and binary checkpoint round-trips.

Checkpoint layout (version 2): magic "MTFC", u32 version, body, u32 CRC-32
of the body. The body holds a JSON header (configs, step, seed), the step
again and the parameter tensor table; every tensor is serialized as name
length + name + rows + cols + raw little-endian float64 values. A version 1
body ends with Adam's two moment tables: they load, are checked, and dropped.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from contextlib import nullcontext, suppress
from dataclasses import asdict, dataclass, field, is_dataclass
from itertools import chain
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import model as model_mod
from . import objective
from .container import (ChecksumError, FormatError, NonFiniteError, Reader,
                        frame, open_container, open_output, output_file)
from .dataio import Dataset, snippet_tensors
from .diffcore import Node, Tape, backward
from .model import ModelConfig
from .objective import LossBreakdown, LossWeights

CKPT_MAGIC = b"MTFC"
CKPT_VERSION = 2
# Adam's moment decay rates and denominator offset: the usual values.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Decoupled weight decay on every weight tensor (biases exempt): RTFM's value.
WEIGHT_DECAY = 5e-4


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    learning_rate: float = 1e-4
    batch_half: int = 64  # videos of each class in a batch
    epochs: int = 1000
    seed: int = 0
    loss: LossWeights = field(default_factory=LossWeights)
    checkpoint_every: int = 0

    def __post_init__(self):
        # Chained comparisons are false for NaN, so NaN is rejected too.
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be finite and positive")
        if self.batch_half < 1:
            raise ValueError("batch half must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got "
                             f"{self.checkpoint_every}")
        if self.loss.k > self.model.t:
            raise ValueError(f"top-k k={self.loss.k} exceeds the snippet "
                             f"count T={self.model.t}")


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, params):
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, cfg: TrainConfig) -> dict[str, np.ndarray]:
    """Bias-corrected Adam with decoupled weight decay (biases exempt).

    Mutates `state`, returns the updated parameter dict.
    """
    state.step += 1
    t = state.step
    lr, b1, b2 = cfg.learning_rate, ADAM_BETA1, ADAM_BETA2
    out = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(
                f"{name}: gradient shape {g.shape} vs parameter {p.shape}")
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / (1 - b1 ** t)
        v_hat = state.v[name] / (1 - b2 ** t)
        new_p = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if not name.endswith("_b"):
            new_p = new_p - lr * WEIGHT_DECAY * new_p
        out[name] = new_p
    return out


def sample_batch(dataset: Dataset, rng: np.random.Generator, n: int):
    """`n` normal and `n` abnormal video indices, drawn with replacement
    from a class smaller than `n`."""
    normals = [i for i, v in enumerate(dataset.videos) if v.label == 0]
    abnormals = [i for i, v in enumerate(dataset.videos) if v.label == 1]
    if not normals or not abnormals:
        raise ValueError("dataset must contain both classes")

    def pick(pool):
        return list(rng.choice(pool, size=n, replace=len(pool) < n))

    return pick(normals), pick(abnormals)


def _video_rng(seed: int, step: int, video_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, step, video_index]))


def batch_loss(params: dict[str, np.ndarray], feats: np.ndarray,
               model_cfg: ModelConfig, weights: LossWeights,
               rngs=None) -> tuple[Node, LossBreakdown]:
    """The objective over one batch, built on a single tape from one
    forward over the (3,2n,T,D) snippet tensor `feats` of n normal videos,
    then n abnormal ones: the parameters become leaves once. Dropout runs
    if and only if `rngs`, one dropout generator per video, is given."""
    tape = Tape()
    leaves = {name: tape.leaf(value, name=name)
              for name, value in params.items()}
    _, x, scores = model_mod.forward(feats, leaves, model_cfg, rng=rngs)
    return objective.total_loss(x, scores, weights)


def batch_gradients(feats: np.ndarray, indices: list[int],
                    params: dict[str, np.ndarray], cfg: TrainConfig,
                    step: int):
    """Loss gradients for the batch `indices` (n normal videos, then n
    abnormal ones) of a dataset whose (3,N,T,D) snippet tensor is `feats`,
    from a single reverse sweep. Each batch slot has its own dropout
    generator, drawn from (seed, step, slot).

    Returns (grads, LossBreakdown).
    """
    rngs = [_video_rng(cfg.seed, step, slot) for slot in range(len(indices))]
    total, breakdown = batch_loss(params, feats[:, indices], cfg.model,
                                  cfg.loss, rngs)
    return backward(total), breakdown


def steps_per_epoch(dataset: Dataset, cfg: TrainConfig) -> int:
    n_norm = sum(1 for v in dataset.videos if v.label == 0)
    n_abn = sum(1 for v in dataset.videos if v.label == 1)
    return max(1, -(-max(n_norm, n_abn) // cfg.batch_half))


def train(dataset: Dataset, cfg: TrainConfig, out_dir=None,
          log_path=None):
    """Run the full optimization; returns (params, AdamState, log rows).

    Log rows are (step, LossBreakdown); also written as CSV when
    `log_path` is given. Deterministic in (dataset, cfg, seed).
    """
    feats = snippet_tensors(dataset.videos, cfg.model.t)
    params = model_mod.init_params(cfg.model, cfg.seed)
    state = AdamState.zeros_like(params)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xBA7C4]))
    log: list[tuple[int, LossBreakdown]] = []
    # Line-buffered, so the log on disk holds every step a checkpoint holds.
    with (open_output(log_path, buffering=1) if log_path
          else nullcontext()) as log_file:
        if log_file:
            log_file.write("step,bce,fm,sparsity,smoothness,total\n")
        for step in range(cfg.epochs * steps_per_epoch(dataset, cfg)):
            normal, abnormal = sample_batch(dataset, rng, cfg.batch_half)
            grads, breakdown = batch_gradients(
                feats, normal + abnormal, params, cfg, step)
            if not np.isfinite(breakdown.total):
                raise RuntimeError(
                    f"non-finite loss {breakdown.total} at step {step}")
            params = adam_step(params, grads, state, cfg)
            log.append((step, breakdown))
            if log_file:
                log_file.write(
                    f"{step},{breakdown.bce!r},{breakdown.fm!r},"
                    f"{breakdown.sparsity!r},{breakdown.smoothness!r},"
                    f"{breakdown.total!r}\n")
            # adam_step has counted this step: state.step is step + 1
            if (out_dir is not None and cfg.checkpoint_every > 0
                    and state.step % cfg.checkpoint_every == 0):
                save_checkpoint(Path(out_dir) / f"step_{state.step:07d}.mtfc",
                                cfg, params, state.step)
        if out_dir is not None:
            save_checkpoint(Path(out_dir) / "final.mtfc", cfg, params,
                            state.step)
    return params, state, log


def score_videos(records, params, cfg_model: ModelConfig, batch: int):
    """Eval-mode snippet scores, one vector per video of `records`, in
    order. The videos run `batch` at a time, each chunk as one forward on
    one tape; a video's scores do not depend on the others in its chunk.
    Only the score values outlive a forward: holding its output node would
    keep the chunk's whole graph alive into the next chunk's forward."""
    for i in range(0, len(records), batch):
        tape = Tape()
        leaves = {name: tape.leaf(value, name=name)
                  for name, value in params.items()}
        feats = snippet_tensors(records[i:i + batch], cfg_model.t)
        yield from model_mod.forward(feats, leaves, cfg_model)[2].value[..., 0]


def _pack_tensor_table(tensors: dict[str, np.ndarray]) -> bytes:
    chunks = [struct.pack("<I", len(tensors))]
    for name in sorted(tensors):
        raw = name.encode("utf-8")
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<II", arr.shape[0], arr.shape[1]))
        chunks.append(arr.tobytes())
    return b"".join(chunks)


def _unpack_tensor_table(r: Reader) -> dict[str, np.ndarray]:
    count = r.u32()
    out = {}
    for _ in range(count):
        raw_name = bytes(r.take(r.u32()))
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{r.path}: tensor name {raw_name[:40]!r} "
                              f"at byte {r.pos - len(raw_name)} is not "
                              f"UTF-8") from None
        if name in out:
            raise FormatError(f"{r.path}: tensor {name} listed twice")
        rows, cols = struct.unpack("<II", r.take(8))
        data = np.frombuffer(r.take(8 * rows * cols), dtype="<f8")
        out[name] = data.reshape(rows, cols).copy()
    return out


def from_json(kind, value, name: str):
    """The setting of type `kind` that decoded JSON `value` holds: the one
    rule for config files and checkpoint headers. int: an integer; float:
    any number, an int widened; neither takes a bool. bool, str: their own
    type. tuple[...]: a list of its length; a config dataclass: an object of
    exactly its fields. Each part is read by its annotated kind. Anything
    else is a ValueError naming `name`."""
    args = get_args(kind)
    if is_dataclass(kind) and isinstance(value, dict):
        hints = get_type_hints(kind)
        if odd := sorted(set(value) ^ set(hints)):
            raise ValueError(f"{name} fields missing or unknown: {odd}")
        return kind(**{k: from_json(hints[k], v, f"{name}.{k}")
                       for k, v in value.items()})
    if args and isinstance(value, list) and len(value) == len(args):
        return tuple(from_json(a, v, name) for a, v in zip(args, value))
    if type(value) is kind or (kind, type(value)) == (float, int):
        with suppress(OverflowError):  # an int too large for a float
            return kind(value)
    raise ValueError(f"{name} must be {kind if args else kind.__name__}, "
                     f"got {json.dumps(value)[:60]}")


def _drop_retired(blob: dict, fixed: dict):
    """Drop from `blob` the settings older headers hold and this version
    fixes. Any other value than the fixed one is an error."""
    for key, value in fixed.items():
        if key in blob and (old := blob.pop(key)) != value:
            raise ValueError(f"retired setting {key}={json.dumps(old)}, "
                             f"now fixed at {json.dumps(value)}")


def _require_finite(path, tables):
    """A NonFiniteError naming `path` and the first non-finite tensor."""
    for name, tensor in chain.from_iterable(t.items() for t in tables):
        if not np.all(np.isfinite(tensor)):
            raise NonFiniteError(f"{path}: tensor {name} is not finite")


def _config_from_json(raw: bytes, path, step: int, tables) -> TrainConfig:
    """The header's config; its step and seed must be the stored ones, and
    each tensor table must hold the tensors of the model it describes."""
    try:
        blob = json.loads(raw.decode("utf-8"))
        if set(blob) != {"train", "step", "seed"}:
            raise ValueError(f"header keys {sorted(blob)}")
        t = {**blob["train"]}
        t.pop("workers", None)  # thread count; did not change results
        _drop_retired(t, {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2,
                          "eps": ADAM_EPS, "weight_decay": WEIGHT_DECAY})
        if "batch_normal" in t or "batch_abnormal" in t:
            halves = t.pop("batch_normal", None), t.pop("batch_abnormal", None)
            if json.dumps(halves[0]) != json.dumps(halves[1]):  # 2 vs 2.0
                raise ValueError(f"unequal batch halves {halves}")
            t["batch_half"] = halves[0]
        t["model"] = {**t["model"]}
        _drop_retired(t["model"], {"dilations": model_mod.DILATIONS,
                                   "dropout": model_mod.DROPOUT})
        cfg = from_json(TrainConfig, t, "train")
        for key, stored in (("step", step), ("seed", cfg.seed)):
            if from_json(int, blob[key], key) != stored:
                raise ValueError(f"header {key} {blob[key]} != {stored}")
        shapes = model_mod._tensor_shapes(cfg.model)
        for table in tables:
            got = {k: a.shape for k, a in table.items()}
            if odd := sorted(k for k in got.keys() | shapes.keys()
                             if got.get(k) != shapes.get(k)):
                raise ValueError(f"tensors {odd[:3]} do not fit the model")
        return cfg
    except (ValueError, KeyError, TypeError, RecursionError) as e:
        raise FormatError(f"{path}: bad checkpoint header "
                          f"({type(e).__name__}: {e})") from None


def save_checkpoint(path, cfg: TrainConfig, params: dict[str, np.ndarray],
                    step: int):
    """Write to `<path>.tmp`, then rename it over `path`: a write that fails
    or is killed part-way leaves the previous checkpoint at `path` whole.
    Non-finite tensors are refused before anything is written."""
    _require_finite(path, (params,))
    header = json.dumps({"train": asdict(cfg), "step": step,
                         "seed": cfg.seed}, sort_keys=True).encode("utf-8")
    body = chain((struct.pack("<I", len(header)), header,
                  struct.pack("<I", step)), map(_pack_tensor_table, [params]))
    tmp = Path(output_file(f"{path}.tmp"))
    try:
        with open_output(tmp, "wb") as f:
            f.write(frame(CKPT_MAGIC, CKPT_VERSION))
            crc = 0
            for chunk in body:
                f.write(chunk)
                crc = zlib.crc32(chunk, crc)
            f.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    """Returns (TrainConfig, params); a v1 file's moments are dropped."""
    r = open_container(path, CKPT_MAGIC, {1, CKPT_VERSION})
    # Structural parse first so a chopped file reports truncation, not a
    # checksum mismatch; CRC catches in-place corruption afterwards.
    header = bytes(r.take(r.u32()))
    step = r.u32()
    n_tables = 3 if r.version == 1 else 1  # v1: also Adam's m and v
    tables = [_unpack_tensor_table(r) for _ in range(n_tables)]
    body_end = r.pos
    stored_crc = r.u32()
    r.end()
    if zlib.crc32(r.raw[8:body_end]) != stored_crc:
        raise ChecksumError(f"{path}: CRC mismatch")
    _require_finite(path, tables)
    return _config_from_json(header, path, step, tables), tables[0]
