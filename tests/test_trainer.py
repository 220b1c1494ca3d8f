import json
import math
import platform
import re
import struct
import zlib

import numpy as np
import pytest
from dataclasses import replace

from mtfl import container, dataio, trainer
from mtfl import model as model_mod
from mtfl.dataio import Dataset, SynthConfig, synth_generate
from mtfl.model import ModelConfig
from mtfl.objective import LossWeights
from mtfl.container import FormatError
from mtfl.trainer import (AdamState, TrainConfig, adam_step, load_checkpoint,
                          sample_batch, save_checkpoint, train)

TINY_MODEL = ModelConfig(d=8, t=8, heads=2, hidden=(6, 4))


def tiny_dataset(seed=7, n=4):
    cfg = SynthConfig(n_normal_train=n, n_abnormal_train=n,
                      n_normal_test=2, n_abnormal_test=2, d=8,
                      frames_range=(64, 128))
    return synth_generate(cfg, seed)


def tiny_train_config(**kw):
    defaults = dict(model=TINY_MODEL, epochs=2, batch_half=2, seed=0,
                    loss=LossWeights(k=2, margin=4.0))
    defaults.update(kw)
    return TrainConfig(**defaults)


VALID_CONFIGS = {
    ModelConfig: TINY_MODEL,
    LossWeights: LossWeights(),
    TrainConfig: TrainConfig(model=TINY_MODEL),
    SynthConfig: SynthConfig(),
}


@pytest.mark.parametrize("cls,changes", [
    (ModelConfig, {"heads": 0}), (ModelConfig, {"t": 1}),
    (ModelConfig, {"d": 0}), (ModelConfig, {"d": 7, "heads": 1}),
    (ModelConfig, {"d": 12, "heads": 4}),
    (ModelConfig, {"dropout": float("nan")}), (ModelConfig, {"dropout": 1.0}),
    (ModelConfig, {"hidden": (0, 4)}), (ModelConfig, {"hidden": (-1, 4)}),
    (ModelConfig, {"hidden": (4,)}),
    (LossWeights, {"lambda_fm": -1.0}), (LossWeights, {"margin": math.nan}),
    (LossWeights, {"lambda2": math.inf}), (LossWeights, {"k": 0}),
    (TrainConfig, {"learning_rate": 0.0}),
    (TrainConfig, {"learning_rate": math.nan}),
    (TrainConfig, {"weight_decay": -1.0}), (TrainConfig, {"batch_half": 0}),
    (TrainConfig, {"epochs": 0}), (TrainConfig, {"seed": -1}),
    (TrainConfig, {"checkpoint_every": -1}),
    (TrainConfig, {"loss": LossWeights(k=TINY_MODEL.t + 1)}),
    (SynthConfig, {"boost": 0.0}), (SynthConfig, {"noise_scale": math.inf}),
    (SynthConfig, {"n_abnormal_test": 0}), (SynthConfig, {"d": 0}),
    (SynthConfig, {"frames_range": (768, 256)}),
    (SynthConfig, {"frames_range": (0, 4)}),
], ids=lambda x: x.__name__ if isinstance(x, type) else repr(x))
def test_invalid_config_cannot_be_made(cls, changes):
    """A config checks its rules when it is made: directly, and through
    `dataclasses.replace`."""
    valid = VALID_CONFIGS[cls]
    with pytest.raises(ValueError):
        cls(**{**vars(valid), **changes})
    with pytest.raises(ValueError):
        replace(valid, **changes)


class TestAdamStep:
    def _setup(self, wd=0.0):
        params = {"w": np.array([[1.0, -2.0]]), "x_b": np.array([[0.5]])}
        cfg = TrainConfig(model=TINY_MODEL, learning_rate=0.1,
                          weight_decay=wd)
        return params, AdamState.zeros_like(params), cfg

    def test_zero_gradients_leave_params(self):
        params, state, cfg = self._setup()
        grads = {k: np.zeros_like(p) for k, p in params.items()}
        out = adam_step(params, grads, state, cfg)
        for k in params:
            assert np.array_equal(out[k], params[k])
        assert state.step == 1

    def test_first_step_moves_by_lr_sign(self):
        params, state, cfg = self._setup()
        grads = {"w": np.array([[1000.0, -1000.0]]), "x_b": np.array([[0.0]])}
        out = adam_step(params, grads, state, cfg)
        moves = out["w"] - params["w"]
        assert np.allclose(moves, [[-0.1, 0.1]], rtol=1e-6)

    def test_two_steps_match_hand_unrolled_recurrence(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        cfg = TrainConfig(model=TINY_MODEL, learning_rate=lr, weight_decay=0.0)
        p = 2.0
        params = {"w": np.array([[p]])}
        state = AdamState.zeros_like(params)
        m = v = 0.0
        for t, g in enumerate([0.3, -1.1], start=1):
            params = adam_step(params, {"w": np.array([[g]])}, state, cfg)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p = p - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert np.isclose(params["w"][0, 0], p, rtol=1e-14)

    def test_decoupled_decay_skips_biases(self):
        params, state, cfg = self._setup(wd=0.1)
        grads = {k: np.zeros_like(p) for k, p in params.items()}
        out = adam_step(params, grads, state, cfg)
        assert np.array_equal(out["x_b"], params["x_b"])
        assert np.allclose(out["w"], params["w"] * (1 - 0.1 * 0.1))

    def test_shape_mismatch_rejected(self):
        params, state, cfg = self._setup()
        grads = {"w": np.zeros((2, 2)), "x_b": np.zeros((1, 1))}
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, grads, state, cfg)


class TestSampleBatch:
    def test_deterministic_given_seed(self):
        ds, _ = tiny_dataset()
        a = sample_batch(ds, np.random.default_rng(3), 2)
        b = sample_batch(ds, np.random.default_rng(3), 2)
        assert a == b

    def test_exact_class_counts(self):
        ds, _ = tiny_dataset()
        normals, abnormals = sample_batch(ds, np.random.default_rng(0), 3)
        assert len(normals) == 3 and len(abnormals) == 3
        for i in normals:
            assert ds.videos[i].label == 0
        for i in abnormals:
            assert ds.videos[i].label == 1

    def test_replacement_covers_small_class(self):
        ds, _ = tiny_dataset(n=3)
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(50):
            _, abnormals = sample_batch(ds, rng, 8)
            seen.update(abnormals)
        all_abnormal = {i for i, v in enumerate(ds.videos) if v.label == 1}
        assert seen == all_abnormal

    def test_missing_class_rejected(self):
        ds, _ = tiny_dataset()
        only_normal = Dataset(videos=[v for v in ds.videos if v.label == 0],
                              split="any")
        with pytest.raises(ValueError, match="classes"):
            sample_batch(only_normal, np.random.default_rng(0), 1)


class TestTrain:
    def test_same_seed_identical_loss_logs(self):
        ds, _ = tiny_dataset()
        cfg = tiny_train_config()
        _, _, log_a = train(ds, cfg)
        _, _, log_b = train(ds, cfg)
        assert len(log_a) == len(log_b)
        for (sa, ba), (sb, bb) in zip(log_a, log_b):
            assert sa == sb
            assert abs(ba.total - bb.total) <= 1e-12
            assert abs(ba.bce - bb.bce) <= 1e-12

    def test_same_seed_bit_identical_params_and_log_bytes(self, tmp_path):
        ds, _ = tiny_dataset()
        p1, _, _ = train(ds, tiny_train_config(), log_path=tmp_path / "a.csv")
        p2, _, _ = train(ds, tiny_train_config(), log_path=tmp_path / "b.csv")
        assert p1.keys() == p2.keys()
        for k in p1:
            assert np.array_equal(p1[k], p2[k]), k
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_zero_lambdas_total_equals_bce(self):
        ds, _ = tiny_dataset()
        cfg = tiny_train_config(
            loss=LossWeights(k=2, margin=4.0, lambda_fm=0.0, lambda1=0.0,
                             lambda2=0.0))
        _, _, log = train(ds, cfg)
        for _, b in log:
            assert b.total == b.bce

    def test_descent_on_synthetic_data(self):
        ds, _ = tiny_dataset()
        cfg = tiny_train_config(epochs=20, learning_rate=1e-3)
        _, _, log = train(ds, cfg)
        first = np.mean([b.bce for _, b in log[:3]])
        last = np.mean([b.bce for _, b in log[-3:]])
        assert last < first

    def test_loss_log_csv_format(self, tmp_path):
        ds, _ = tiny_dataset()
        log_path = tmp_path / "loss_log.csv"
        train(ds, tiny_train_config(), log_path=log_path)
        lines = log_path.read_text().splitlines()
        assert lines[0] == "step,bce,fm,sparsity,smoothness,total"
        step, *terms = lines[1].split(",")
        assert step == "0"
        assert len(terms) == 5
        for term in terms:
            float(term)


def header_of(raw: bytes) -> bytes:
    (n,) = struct.unpack("<I", raw[8:12])
    return raw[12:12 + n]


def with_header(raw: bytes, header: bytes) -> bytes:
    """The checkpoint `raw` with its JSON header replaced and a valid CRC."""
    (n,) = struct.unpack("<I", raw[8:12])
    body = struct.pack("<I", len(header)) + header + raw[12 + n:-4]
    return raw[:8] + body + struct.pack("<I", zlib.crc32(body))


def older_header(h: dict, beta1=0.9, lm=2, halves=None) -> bytes:
    """The header `h` as older versions wrote it: with Adam's betas and
    eps, two batch halves, the LTL dilations and a thread count. By
    default each holds the value the current version fixes."""
    t = dict(h["train"])
    half = t.pop("batch_half")
    t["batch_normal"], t["batch_abnormal"] = halves or (half, half)
    t.update(beta1=beta1, beta2=0.999, eps=1e-8, workers=1)
    t["model"] = {**t["model"], "dilations": {"lm": lm, "ms": 1, "sl": 4}}
    return json.dumps({**h, "train": t}).encode()


def edited_header(h: dict, model=None, loss=None, **train_fields) -> bytes:
    """The header `h` with the given train, model and loss fields
    replaced."""
    t = {**h["train"], **train_fields}
    t["model"] = {**t["model"], **(model or {})}
    t["loss"] = {**t["loss"], **(loss or {})}
    return json.dumps({**h, "train": t}).encode()


def first_name_offset(raw: bytes) -> int:
    """Byte offset of the first tensor name in checkpoint `raw`: after the
    magic, version, header, step, table count and name length."""
    (n,) = struct.unpack("<I", raw[8:12])
    return 12 + n + 12


class TestCheckpoint:
    def _trained(self, tmp_path):
        ds, _ = tiny_dataset()
        cfg = tiny_train_config(epochs=1)
        params, state, _ = train(ds, cfg)
        path = tmp_path / "ckpt.mtfc"
        save_checkpoint(path, cfg, params, state)
        return cfg, params, state, path

    def test_round_trip_bit_exact(self, tmp_path):
        cfg, params, state, path = self._trained(tmp_path)
        cfg2, params2, state2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert state2.step == state.step
        for k in params:
            assert np.array_equal(params[k], params2[k])
            assert np.array_equal(state.m[k], state2.m[k])
            assert np.array_equal(state.v[k], state2.v[k])
        # saving the reloaded state reproduces the same bytes
        path2 = tmp_path / "again.mtfc"
        save_checkpoint(path2, cfg2, params2, state2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        with pytest.raises(container.BadMagicError):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4] = 77
        path.write_bytes(bytes(raw))
        with pytest.raises(container.VersionError):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(container.TruncationError):
            load_checkpoint(path)

    def test_truncation_names_the_file(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:first_name_offset(raw) + 2])
        with pytest.raises(container.TruncationError, match=str(path)):
            load_checkpoint(path)

    def test_tensor_name_not_utf8_is_checkpoint_error(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[first_name_offset(raw)] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"{path}.*tensor name"):
            load_checkpoint(path)

    @pytest.mark.parametrize("failure", ["tensor-table", "disk-full"])
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path,
                                                    monkeypatch, failure):
        cfg, params, state, path = self._trained(tmp_path)
        before = path.read_bytes()
        newer = {k: v + 1.0 for k, v in params.items()}
        if failure == "tensor-table":
            pack = trainer._pack_tensor_table
            packed = []

            def pack_then_fail(tensors):
                # the parameter table is written, then packing a moment
                # table fails
                if packed:
                    raise MemoryError("simulated")
                packed.append(tensors)
                return pack(tensors)
            monkeypatch.setattr(trainer, "_pack_tensor_table", pack_then_fail)
            expected = MemoryError
        else:
            real_open = open

            class FullDisk:
                """A file whose third write fails, as on a full disk."""
                def __init__(self, f):
                    self.f, self.writes = f, 0

                def write(self, data):
                    self.writes += 1
                    if self.writes == 3:
                        raise OSError(28, "No space left on device")
                    return self.f.write(data)

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self.f.close()

            monkeypatch.setattr(trainer, "open",
                                lambda *a, **k: FullDisk(real_open(*a, **k)),
                                raising=False)
            expected = OSError
        with pytest.raises(expected):
            save_checkpoint(path, cfg, newer, state)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_corruption_fails_checksum(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_header_with_retired_workers_key_loads(self, tmp_path):
        cfg, params, _, path = self._trained(tmp_path)
        header = json.loads(header_of(path.read_bytes()))
        path.write_bytes(with_header(path.read_bytes(), older_header(header)))
        cfg2, params2, _ = load_checkpoint(path)
        assert cfg2 == cfg
        for k in params:
            assert np.array_equal(params[k], params2[k])

    @pytest.mark.parametrize("edit", [
        lambda h: b"{not json",
        lambda h: b"\xff\xfe",
        lambda h: json.dumps({**h, "train": {
            k: v for k, v in h["train"].items() if k != "epochs"}}).encode(),
        lambda h: edited_header(h, threads=2),
        lambda h: edited_header(h, model={"width": 3}),
        lambda h: json.dumps({k: v for k, v in h.items()
                              if k != "step"}).encode(),
        lambda h: json.dumps({**h, "epoch": 3}).encode(),
        lambda h: json.dumps([h]).encode(),
        lambda h: older_header(h, beta1=0.95),
        lambda h: older_header(h, lm=3),
        lambda h: older_header(h, halves=(2, 3)),
        lambda h: edited_header(h, model={"heads": 0}),
        lambda h: edited_header(h, model={"t": 1}),
        lambda h: edited_header(h, model={"dropout": float("nan")}),
        lambda h: edited_header(h, loss={"k": h["train"]["model"]["t"] + 1}),
        lambda h: edited_header(h, seed=-1),
        lambda h: edited_header(h, learning_rate=0),
        lambda h: edited_header(h, model={"hidden": [0, 4]}),
        lambda h: edited_header(h, model={"heads": "2"}),
    ], ids=["invalid-json", "invalid-utf8", "missing-field", "unknown-field",
            "unknown-model-field", "missing-step", "unknown-top-level-key",
            "not-an-object", "retired-beta1-changed",
            "retired-dilation-changed", "unequal-batch-halves", "heads-0",
            "t-1", "dropout-nan", "k-above-t", "seed-negative", "lr-0",
            "hidden-width-0", "heads-string"])
    def test_unparsable_header_is_checkpoint_error(self, tmp_path, edit):
        _, _, _, path = self._trained(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(with_header(raw, edit(json.loads(header_of(raw)))))
        with pytest.raises(FormatError,
                           match=f"{re.escape(str(path))}: bad checkpoint "
                                 f"header"):
            load_checkpoint(path)

    def test_scoring_with_reloaded_checkpoint_matches(self, tmp_path):
        cfg, params, state, path = self._trained(tmp_path)
        _, test_ds = tiny_dataset()
        _, params2, _ = load_checkpoint(path)
        for v in test_ds.videos:
            a = trainer.score_video(v, params, cfg.model)
            b = trainer.score_video(v, params2, cfg.model)
            assert np.allclose(a, b, atol=1e-12)


def stack_videos(nodes):
    """Per-video (T, D) nodes as one (B, T, D) node on the same tape."""
    from mtfl import diffcore as dc

    flat = dc.concat_cols([dc.reshape(n, (1, n.value.size)) for n in nodes])
    return dc.reshape(flat, (len(nodes),) + nodes[0].shape)


class TestGradientStaging:
    def test_staged_equals_monolithic(self):
        """The batched step's gradients must agree with one tape that runs
        every video through its own forward, in eval mode and in train mode
        with the per-slot dropout draws."""
        from mtfl import model as M
        from mtfl import objective
        from mtfl.dataio import snippet_tensors
        from mtfl.diffcore import Tape, backward
        from mtfl.model import MultiScaleFeatures

        ds, _ = tiny_dataset()
        cfg = tiny_train_config()
        assert cfg.model.dropout > 0
        params = M.init_params(cfg.model, 3)
        feats = snippet_tensors(ds.videos, cfg.model.t)
        all_labels = np.array([v.label for v in ds.videos])
        indices = [0, 1, 4, 5]
        labels = all_labels[indices]
        assert sorted(labels) == [0, 0, 1, 1]

        for mode, step in (("eval", 0), ("train", 6)):
            staged, _ = trainer.batch_gradients(feats, all_labels, indices,
                                                params, cfg, step=step,
                                                mode=mode)
            tape = Tape()
            leaves = {n: tape.leaf(v, name=n) for n, v in params.items()}
            xs, ss = [], []
            for slot, i in enumerate(indices):
                rng = (np.random.default_rng(
                    np.random.SeedSequence([cfg.seed, step, slot]))
                    if mode == "train" else None)
                one = MultiScaleFeatures(feats.f_s[i], feats.f_m[i],
                                         feats.f_l[i])
                _, x, s = M.forward(one, leaves, cfg.model, rng=rng)
                xs.append(x)
                ss.append(s)
            total, _ = objective.total_loss(stack_videos(xs), stack_videos(ss),
                                            labels, cfg.loss)
            mono = backward(total)
            assert staged.keys() == mono.keys()
            for k in params:
                assert np.allclose(staged[k], mono[k], rtol=1e-12,
                                   atol=1e-15), (mode, k)
        # dropout is live: the train-mode gradients differ from eval mode
        eval_grads, _ = trainer.batch_gradients(feats, all_labels, indices,
                                                params, cfg, step=6,
                                                mode="eval")
        assert not np.allclose(staged["clf.fc1_w"], eval_grads["clf.fc1_w"])

    def test_tape_length_does_not_depend_on_batch_size(self):
        from mtfl import model as M
        from mtfl.model import MultiScaleFeatures

        cfg = tiny_train_config()
        params = M.init_params(cfg.model, 0)
        rng = np.random.default_rng(0)
        lengths = []
        for half in (2, 8):
            msf = MultiScaleFeatures(*(rng.standard_normal(
                (2 * half, cfg.model.t, cfg.model.d)) for _ in range(3)))
            labels = [0] * half + [1] * half
            rngs = [np.random.default_rng(i) for i in range(2 * half)]
            total, _ = trainer.batch_loss(params, msf, labels, cfg.model,
                                          cfg.loss, rngs)
            lengths.append(len(total.tape.nodes))
        assert lengths[0] == lengths[1]
        # one tape of batched ops, not one forward per video
        assert lengths[0] < 300


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator setting is glibc's mallopt")
class TestAllocation:
    def test_training_step_takes_few_page_faults(self):
        """With the CLI's allocator setting a training step reuses the freed
        heap of the last one; when glibc hands it back to the kernel, a step
        faults in more than 2,000 pages of it again."""
        import resource

        from mtfl import cli
        from mtfl.dataio import snippet_tensors

        assert cli._keep_freed_heap()
        ds, _ = synth_generate(SynthConfig(
            n_normal_train=40, n_abnormal_train=40, n_normal_test=1,
            n_abnormal_test=1, d=16), 1)
        cfg = TrainConfig(model=ModelConfig(d=16, t=32), batch_half=8,
                          seed=1)
        feats = snippet_tensors(ds.videos, cfg.model.t)
        labels = np.array([v.label for v in ds.videos])
        params = model_mod.init_params(cfg.model, cfg.seed)
        state = AdamState.zeros_like(params)
        rng = np.random.default_rng(0)
        faults = []
        for step in range(25):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            normal, abnormal = sample_batch(ds, rng, cfg.batch_half)
            grads, _ = trainer.batch_gradients(
                feats, labels, normal + abnormal, params, cfg, step)
            params = adam_step(params, grads, state, cfg)
            faults.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert np.mean(faults[5:]) <= 64, faults
