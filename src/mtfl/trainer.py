"""Training loop: Adam with decoupled weight decay, class-balanced batch
sampling, per-step loss logging, and binary checkpoint round-trips.

Checkpoint layout: magic "MTFC", u32 version, body, u32 CRC-32 of the
body. The body holds a JSON header (configs, step, seed), the parameter
tensor table, and the two Adam moment tables; every tensor is serialized
as name length + name + rows + cols + raw little-endian float64 values.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from pathlib import Path

import numpy as np

from . import model as model_mod
from . import objective
from .container import (ChecksumError, FormatError, Reader, frame,
                        open_container)
from .dataio import Dataset, snippet_tensors
from .diffcore import Node, Tape, backward
from .model import ModelConfig, MultiScaleFeatures
from .objective import LossBreakdown, LossWeights

CKPT_MAGIC = b"MTFC"
CKPT_VERSION = 1
# Adam's moment decay rates and denominator offset: the usual values.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    learning_rate: float = 1e-4
    weight_decay: float = 5e-4
    batch_half: int = 64  # videos of each class in a batch
    epochs: int = 1000
    seed: int = 0
    loss: LossWeights = field(default_factory=LossWeights)
    checkpoint_every: int = 0

    def __post_init__(self):
        # Chained comparisons are false for NaN, so NaN is rejected too.
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be finite and positive")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight decay must be finite and nonnegative")
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
        if cfg.weight_decay > 0 and not name.endswith("_b"):
            new_p = new_p - lr * cfg.weight_decay * new_p
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


def batch_loss(params: dict[str, np.ndarray], msf: MultiScaleFeatures,
               labels, model_cfg: ModelConfig, weights: LossWeights,
               rngs=None) -> tuple[Node, LossBreakdown]:
    """The objective over one batch, built on a single tape from one
    forward over the (B,T,D) tensors of `msf`: the parameters become leaves
    once. Dropout runs if and only if `rngs`, one dropout generator per
    video, is given."""
    tape = Tape()
    leaves = {name: tape.leaf(value, name=name)
              for name, value in params.items()}
    _, x, scores = model_mod.forward(msf, leaves, model_cfg, rng=rngs)
    return objective.total_loss(x, scores, labels, weights)


def batch_gradients(feats: MultiScaleFeatures, labels: np.ndarray,
                    indices: list[int], params: dict[str, np.ndarray],
                    cfg: TrainConfig, step: int, mode: str = "train"):
    """Loss gradients for the batch `indices` of a dataset whose (N,T,D)
    snippet tensors are `feats` and labels `labels`, from a single reverse
    sweep. `mode` "train" gives each batch slot its own dropout generator,
    drawn from (seed, step, slot); "eval" runs without dropout.

    Returns (grads, LossBreakdown).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval, got {mode!r}")
    batch = MultiScaleFeatures(f_s=feats.f_s[indices], f_m=feats.f_m[indices],
                               f_l=feats.f_l[indices])
    rngs = ([_video_rng(cfg.seed, step, slot) for slot in range(len(indices))]
            if mode == "train" else None)
    total, breakdown = batch_loss(params, batch, labels[indices], cfg.model,
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
    dataset.validate()
    feats = snippet_tensors(dataset.videos, cfg.model.t)
    labels = np.array([v.label for v in dataset.videos])
    params = model_mod.init_params(cfg.model, cfg.seed)
    state = AdamState.zeros_like(params)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xBA7C4]))
    log: list[tuple[int, LossBreakdown]] = []
    log_file = open(log_path, "w") if log_path else None
    if log_file:
        log_file.write("step,bce,fm,sparsity,smoothness,total\n")
    try:
        per_epoch = steps_per_epoch(dataset, cfg)
        step = 0
        for _epoch in range(cfg.epochs):
            for _ in range(per_epoch):
                normal, abnormal = sample_batch(dataset, rng, cfg.batch_half)
                indices = normal + abnormal
                grads, breakdown = batch_gradients(
                    feats, labels, indices, params, cfg, step, mode="train")
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
                step += 1
                if (out_dir is not None and cfg.checkpoint_every > 0
                        and step % cfg.checkpoint_every == 0):
                    save_checkpoint(Path(out_dir) / f"step_{step:07d}.mtfc",
                                    cfg, params, state)
        if out_dir is not None:
            save_checkpoint(Path(out_dir) / "final.mtfc", cfg, params, state)
    finally:
        if log_file:
            log_file.close()
    return params, state, log


def score_video(record, params, cfg_model: ModelConfig) -> np.ndarray:
    """Eval-mode snippet scores for one video (a batch of one)."""
    tape = Tape()
    leaves = {name: tape.leaf(value, name=name)
              for name, value in params.items()}
    msf = snippet_tensors([record], cfg_model.t)
    _, _, s = model_mod.forward(msf, leaves, cfg_model)
    return s.value.ravel()


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
        rows, cols = struct.unpack("<II", r.take(8))
        data = np.frombuffer(r.take(8 * rows * cols), dtype="<f8")
        out[name] = data.reshape(rows, cols).copy()
    return out


def _config_to_json(cfg: TrainConfig, step: int) -> bytes:
    blob = asdict(cfg)
    blob["model"]["hidden"] = list(cfg.model.hidden)
    return json.dumps({"train": blob, "step": step, "seed": cfg.seed},
                      sort_keys=True).encode("utf-8")


def _from_header(cls, blob: dict, **nested):
    """`cls` from a header object that must hold exactly its fields."""
    odd = set(blob) ^ {f.name for f in fields(cls)}
    if odd:
        raise ValueError(
            f"{cls.__name__} fields missing or unknown: {sorted(odd)}")
    return cls(**{**blob, **nested})


def _drop_retired(blob: dict, fixed: dict):
    """Drop from `blob` the settings older headers hold and this version
    fixes. Any other value than the fixed one is an error."""
    for key, value in fixed.items():
        if key in blob and (old := blob.pop(key)) != value:
            raise ValueError(f"retired setting {key}={json.dumps(old)}, "
                             f"now fixed at {json.dumps(value)}")


def _config_from_json(raw: bytes, path) -> TrainConfig:
    try:
        blob = json.loads(raw.decode("utf-8"))
        if set(blob) != {"train", "step", "seed"}:
            raise ValueError(f"header keys {sorted(blob)}")
        t = dict(blob["train"])
        t.pop("workers", None)  # thread count; did not change results
        _drop_retired(t, {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2,
                          "eps": ADAM_EPS})
        if "batch_normal" in t or "batch_abnormal" in t:
            halves = t.pop("batch_normal", None), t.pop("batch_abnormal", None)
            if halves[0] != halves[1]:
                raise ValueError(f"unequal batch halves {halves}")
            t["batch_half"] = halves[0]
        m = dict(t["model"])
        _drop_retired(m, {"dilations": model_mod.DILATIONS})
        m["hidden"] = tuple(m["hidden"])
        return _from_header(TrainConfig, t,
                            model=_from_header(ModelConfig, m),
                            loss=_from_header(LossWeights, t["loss"]))
    except (ValueError, KeyError, TypeError) as e:
        raise FormatError(f"{path}: bad checkpoint header "
                          f"({type(e).__name__}: {e})") from None


def save_checkpoint(path, cfg: TrainConfig, params: dict[str, np.ndarray],
                    state: AdamState):
    """Write to `<path>.tmp`, then rename it over `path`: a write that fails
    or is killed part-way leaves the previous checkpoint at `path` whole."""
    header = _config_to_json(cfg, state.step)
    body = chain((struct.pack("<I", len(header)), header,
                  struct.pack("<I", state.step)),
                 map(_pack_tensor_table, (params, state.m, state.v)))
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as f:
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
    """Returns (TrainConfig, params, AdamState)."""
    r = open_container(path, CKPT_MAGIC, CKPT_VERSION)
    # Structural parse first so a chopped file reports truncation, not a
    # checksum mismatch; CRC catches in-place corruption afterwards.
    header = bytes(r.take(r.u32()))
    step = r.u32()
    params = _unpack_tensor_table(r)
    m = _unpack_tensor_table(r)
    v = _unpack_tensor_table(r)
    body_end = r.pos
    stored_crc = r.u32()
    r.end()
    if zlib.crc32(r.raw[8:body_end]) != stored_crc:
        raise ChecksumError(f"{path}: CRC mismatch")
    return (_config_from_json(header, path), params,
            AdamState(m=m, v=v, step=step))
