import json
import math
import platform
import re
import struct
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

from mtfl import container, dataio, trainer
from mtfl import model as model_mod
from mtfl.dataio import Dataset, SynthConfig, synth_generate
from mtfl.model import ModelConfig
from mtfl.objective import LossWeights
from mtfl.container import FormatError
from mtfl.diffcore import Tape
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
    (ModelConfig, {"hidden": (0, 4)}), (ModelConfig, {"hidden": (-1, 4)}),
    (ModelConfig, {"hidden": (4,)}),
    (LossWeights, {"lambda_fm": -1.0}), (LossWeights, {"margin": math.nan}),
    (LossWeights, {"lambda2": math.inf}), (LossWeights, {"k": 0}),
    (TrainConfig, {"learning_rate": 0.0}),
    (TrainConfig, {"learning_rate": math.nan}),
    (TrainConfig, {"batch_half": 0}),
    (TrainConfig, {"epochs": 0}), (TrainConfig, {"seed": -1}),
    (TrainConfig, {"checkpoint_every": -1}),
    (TrainConfig, {"loss": LossWeights(k=TINY_MODEL.t + 1)}),
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
    @pytest.fixture(autouse=True)
    def no_decay(self, monkeypatch):
        """Each test sees Adam alone unless it sets a decay itself."""
        monkeypatch.setattr(trainer, "WEIGHT_DECAY", 0.0)

    def _setup(self):
        params = {"w": np.array([[1.0, -2.0]]), "x_b": np.array([[0.5]])}
        cfg = TrainConfig(model=TINY_MODEL, learning_rate=0.1)
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
        cfg = TrainConfig(model=TINY_MODEL, learning_rate=lr)
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

    def test_decoupled_decay_skips_biases(self, monkeypatch):
        monkeypatch.setattr(trainer, "WEIGHT_DECAY", 0.1)
        params, state, cfg = self._setup()
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

    def test_loss_log_on_disk_covers_every_checkpoint(self, tmp_path,
                                                      monkeypatch):
        """At every checkpoint write, the final one included, the loss log
        on disk already holds a row for each step the checkpoint holds: a
        run killed after a checkpoint keeps the log of its steps."""
        ds, _ = tiny_dataset()
        log_path = tmp_path / "loss_log.csv"
        on_disk = []  # (checkpoint name, its step, the log's lines)

        def spy(path, cfg, params, step):
            lines = log_path.read_text().splitlines()
            on_disk.append((path.name, step, lines))
            return save_checkpoint(path, cfg, params, step)

        monkeypatch.setattr(trainer, "save_checkpoint", spy)
        cfg = tiny_train_config(epochs=10, checkpoint_every=5)
        assert trainer.steps_per_epoch(ds, cfg) == 2
        train(ds, cfg, out_dir=tmp_path, log_path=log_path)
        assert [(name, step) for name, step, _ in on_disk] == [
            *((f"step_{s:07d}.mtfc", s) for s in (5, 10, 15, 20)),
            ("final.mtfc", 20)]
        final = log_path.read_text().splitlines()
        for _, step, lines in on_disk:
            assert lines == final[:1 + step]

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


def packed(entries) -> bytes:
    """A checkpoint tensor table of the (name, 2-D array) `entries`, in the
    order given: so a name can be listed twice."""
    chunks = [struct.pack("<I", len(entries))]
    for name, tensor in entries:
        raw = name.encode()
        chunks += [struct.pack("<I", len(raw)), raw,
                   struct.pack("<II", *tensor.shape),
                   np.asarray(tensor, dtype="<f8").tobytes()]
    return b"".join(chunks)


def params_table(raw: bytes) -> bytes:
    """The parameter table of version 2 checkpoint `raw`."""
    (n,) = struct.unpack("<I", raw[8:12])
    return raw[12 + n + 4:-4]


def with_tables(raw: bytes, *tables: bytes, version: int) -> bytes:
    """The checkpoint `raw` with version `version`, its header and step, the
    packed tensor tables `tables` in place of its own, and a valid CRC."""
    (n,) = struct.unpack("<I", raw[8:12])
    body = raw[8:12 + n + 4] + b"".join(tables)
    return (raw[:4] + struct.pack("<I", version) + body
            + struct.pack("<I", zlib.crc32(body)))


def as_v1(raw: bytes, m: dict, v: dict) -> bytes:
    """Version 2 checkpoint `raw` as version 1 wrote it: with Adam's moment
    tables `m` and `v` after the parameters."""
    return with_tables(raw, params_table(raw), packed(sorted(m.items())),
                       packed(sorted(v.items())), version=1)


# A version 1 checkpoint written by the code before version 2: the
# parameters, config and Adam moments of train(tiny_dataset()[0],
# V1_CONFIG), saved by that version's save_checkpoint.
V1_FIXTURE = Path(__file__).parent / "data" / "v1_tiny.mtfc"
V1_CONFIG = tiny_train_config(epochs=1, seed=3)


def with_value(raw: bytes, table: int, name: str, value: float) -> bytes:
    """The checkpoint `raw` with entry [0, 0] of tensor `name` in table
    `table` (0: parameters; in version 1, 1 and 2: Adam's moments) set to
    `value`, and a valid CRC."""
    (n,) = struct.unpack_from("<I", raw, 8)
    pos = 12 + n + 4
    for t in range(table + 1):
        (count,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        for _ in range(count):
            (k,) = struct.unpack_from("<I", raw, pos)
            found = raw[pos + 4:pos + 4 + k].decode()
            rows, cols = struct.unpack_from("<II", raw, pos + 4 + k)
            pos += 4 + k + 8
            if (t, found) == (table, name):
                body = raw[8:pos] + struct.pack("<d", value) + raw[pos + 8:-4]
                return raw[:8] + body + struct.pack("<I", zlib.crc32(body))
            pos += 8 * rows * cols
    raise KeyError(name)


def older_header(h: dict, beta1=0.9, lm=2, halves=None, weight_decay=5e-4,
                 dropout=0.7) -> bytes:
    """The header `h` as older versions wrote it: with Adam's betas and
    eps, two batch halves, the weight decay, the LTL dilations, the dropout
    rate and a thread count. By default each holds the value the current
    version fixes."""
    t = dict(h["train"])
    half = t.pop("batch_half")
    t["batch_normal"], t["batch_abnormal"] = halves or (half, half)
    t.update(beta1=beta1, beta2=0.999, eps=1e-8, weight_decay=weight_decay,
             workers=1)
    t["model"] = {**t["model"], "dilations": {"lm": lm, "ms": 1, "sl": 4},
                  "dropout": dropout}
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
        save_checkpoint(path, cfg, params, state.step)
        return cfg, params, state, path

    def test_round_trip_bit_exact(self, tmp_path):
        cfg, params, state, path = self._trained(tmp_path)
        cfg2, params2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert json.loads(header_of(path.read_bytes()))["step"] == state.step
        for k in params:
            assert np.array_equal(params[k], params2[k])
        # saving the reloaded checkpoint reproduces the same bytes
        path2 = tmp_path / "again.mtfc"
        save_checkpoint(path2, cfg2, params2, state.step)
        assert path.read_bytes() == path2.read_bytes()

    def test_written_as_version_2_with_one_table(self, tmp_path):
        """Magic, version 2, the header, the step, the parameter table and
        the CRC: nothing else."""
        cfg, params, state, path = self._trained(tmp_path)
        raw = path.read_bytes()
        header = header_of(raw)
        body = (struct.pack("<I", len(header)) + header
                + struct.pack("<I", state.step)
                + packed(sorted(params.items())))
        assert raw == (b"MTFC" + struct.pack("<I", 2) + body
                       + struct.pack("<I", zlib.crc32(body)))

    def test_v1_file_loads_as_the_same_training_gives_now(self):
        """A version 1 file written by the code before version 2 loads with
        the config it was trained with and the parameters the same seeded
        training gives now, bit for bit, and scores the same."""
        ds, test_ds = tiny_dataset()
        params, state, _ = train(ds, V1_CONFIG)
        cfg, loaded = load_checkpoint(V1_FIXTURE)
        assert cfg == V1_CONFIG
        assert loaded.keys() == params.keys()
        for k in params:
            assert np.array_equal(params[k], loaded[k])
        batch = 2 * cfg.batch_half
        scored = zip(
            trainer.score_videos(test_ds.videos, params, cfg.model, batch),
            trainer.score_videos(test_ds.videos, loaded, cfg.model, batch),
            strict=True)
        for a, b in scored:
            assert np.array_equal(a, b)

    def test_as_v1_writes_the_bytes_version_1_wrote(self, tmp_path):
        """The test helper `as_v1`, given the same training's moments, makes
        the version 1 file's bytes exactly."""
        ds, _ = tiny_dataset()
        params, state, _ = train(ds, V1_CONFIG)
        path = tmp_path / "ckpt.mtfc"
        save_checkpoint(path, V1_CONFIG, params, state.step)
        assert as_v1(path.read_bytes(), state.m, state.v) == (
            V1_FIXTURE.read_bytes())

    @pytest.mark.parametrize("version", [0, 3])
    def test_version_other_than_1_or_2_is_version_error(self, tmp_path,
                                                        version):
        _, _, _, path = self._trained(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(with_tables(raw, params_table(raw), version=version))
        with pytest.raises(container.VersionError,
                           match=f"{re.escape(str(path))}: unsupported "
                                 f"version {version}"):
            load_checkpoint(path)

    def test_version_2_with_moment_tables_is_truncation_error(self,
                                                              tmp_path):
        """A version 2 file holds one table: two more after it are trailing
        bytes, even with a valid CRC over them."""
        _, _, state, path = self._trained(tmp_path)
        v1 = as_v1(path.read_bytes(), state.m, state.v)
        path.write_bytes(v1[:4] + struct.pack("<I", 2) + v1[8:])
        with pytest.raises(container.TruncationError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [2, 1])
    def test_tensor_listed_twice_is_checkpoint_error(self, tmp_path,
                                                     version):
        """A table that lists a name twice, the second copy holding 123.0:
        the parameter table of a version 2 file, the first moment table of
        a version 1 file."""
        _, params, state, path = self._trained(tmp_path)
        raw = path.read_bytes()
        twice = [("clf.fc3_b", np.array([[123.0]]))]
        if version == 2:
            raw = with_tables(raw, packed(sorted(params.items()) + twice),
                              version=2)
        else:
            raw = with_tables(raw, params_table(raw),
                              packed(sorted(state.m.items()) + twice),
                              packed(sorted(state.v.items())), version=1)
        path.write_bytes(raw)
        with pytest.raises(FormatError,
                           match=f"{re.escape(str(path))}: tensor clf.fc3_b "
                                 f"listed twice"):
            load_checkpoint(path)

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
            def pack_then_fail(tensors):
                # the header is written to the .tmp, then packing the
                # parameter table fails
                assert (tmp_path / "ckpt.mtfc.tmp").exists()
                raise MemoryError("simulated")
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

            monkeypatch.setattr(container, "open",
                                lambda *a, **k: FullDisk(real_open(*a, **k)),
                                raising=False)
            expected = OSError
        with pytest.raises(expected):
            save_checkpoint(path, cfg, newer, state.step)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    @pytest.mark.parametrize("table, name, value", [
        (0, "clf.fc1_w", math.nan), (1, "pfl.lm.q_b", math.inf),
        (2, "clf.fc3_b", -math.inf)], ids=["param-nan", "m-inf", "v-neg-inf"])
    def test_non_finite_tensor_is_checkpoint_error(self, tmp_path, table,
                                                    name, value):
        _, _, state, path = self._trained(tmp_path)
        raw = path.read_bytes()
        if table > 0:  # a moment table: only version 1 files hold them
            raw = as_v1(raw, state.m, state.v)
        path.write_bytes(with_value(raw, table, name, value))
        with pytest.raises(container.NonFiniteError,
                           match=f"{re.escape(str(path))}: tensor {name} "):
            load_checkpoint(path)

    def test_save_refuses_non_finite_tensor(self, tmp_path):
        cfg, params, state, path = self._trained(tmp_path)
        before = path.read_bytes()
        bad = {k: v.copy() for k, v in params.items()}
        bad["clf.fc1_w"][0, 0] = math.nan
        with pytest.raises(container.NonFiniteError,
                           match=f"{re.escape(str(path))}: tensor clf.fc1_w "):
            save_checkpoint(path, cfg, bad, state.step)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_corruption_fails_checksum(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)
        # the last value of a version 1 file's second moment table
        raw = bytearray(V1_FIXTURE.read_bytes())
        raw[-5] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(container.ChecksumError):
            load_checkpoint(path)

    def test_header_with_retired_workers_key_loads(self, tmp_path):
        """An older header loads, in a version 2 file and in a version 1
        file."""
        cfg, params, state, path = self._trained(tmp_path)
        raw = path.read_bytes()
        header = older_header(json.loads(header_of(raw)))
        for blob in (raw, as_v1(raw, state.m, state.v)):
            path.write_bytes(with_header(blob, header))
            cfg2, params2 = load_checkpoint(path)
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
        lambda h: older_header(h, weight_decay=0.0),
        lambda h: older_header(h, dropout=0.5),
        lambda h: edited_header(h, model={"heads": 0}),
        lambda h: edited_header(h, model={"t": 1}),
        lambda h: edited_header(h, model={"dropout": float("nan")}),
        lambda h: edited_header(h, loss={"k": h["train"]["model"]["t"] + 1}),
        lambda h: edited_header(h, seed=-1),
        lambda h: edited_header(h, learning_rate=0),
        lambda h: edited_header(h, model={"hidden": [0, 4]}),
        lambda h: edited_header(h, model={"heads": "2"}),
        lambda h: edited_header(h, model={"heads": 2.0}),
        lambda h: edited_header(h, model={"heads": True}),
        lambda h: edited_header(h, model={"t": 8.0}),
        lambda h: edited_header(h, model={"hidden": [6.0, 4]}),
        lambda h: edited_header(h, loss={"k": 2.0}),
        lambda h: edited_header(h, model={"use_pfl": "no"}),
        lambda h: edited_header(h, batch_half=2.0),
        lambda h: edited_header(h, epochs=True),
        lambda h: older_header(h, halves=(2.0, 2.0)),
        lambda h: older_header(h, halves=(2, 2.0)),
        lambda h: edited_header(h, model={"use_pfl": False}),
        lambda h: edited_header(h, model={"hidden": [8, 4]}),
        lambda h: json.dumps({**h, "step": h["step"] + 1}).encode(),
        lambda h: json.dumps({**h, "seed": 7}).encode(),
        lambda h: json.dumps({**h, "step": float(h["step"])}).encode(),
        lambda h: b"[" * 200_000 + b"]" * 200_000,
    ], ids=["invalid-json", "invalid-utf8", "missing-field", "unknown-field",
            "unknown-model-field", "missing-step", "unknown-top-level-key",
            "not-an-object", "retired-beta1-changed",
            "retired-dilation-changed", "unequal-batch-halves",
            "retired-weight-decay-changed", "retired-dropout-changed",
            "heads-0", "t-1", "dropout-nan", "k-above-t", "seed-negative",
            "lr-0", "hidden-width-0", "heads-string", "heads-float",
            "heads-bool", "t-float", "hidden-float", "k-float",
            "use-pfl-string",
            "batch-half-float", "epochs-bool", "older-batch-halves-float",
            "older-batch-halves-int-and-float",
            "pfl-tensors-without-use-pfl", "hidden-not-the-tensors",
            "step-not-stored", "seed-not-train-seed", "step-float",
            "nested-too-deep"])
    def test_unparsable_header_is_checkpoint_error(self, tmp_path, edit):
        _, _, _, path = self._trained(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(with_header(raw, edit(json.loads(header_of(raw)))))
        with pytest.raises(FormatError,
                           match=f"{re.escape(str(path))}: bad checkpoint "
                                 f"header"):
            load_checkpoint(path)

    def test_tensor_tables_must_match_header(self, tmp_path):
        """A `--disable-ff` checkpoint whose header claims FF, and a
        version 1 checkpoint whose Adam moment table lacks a tensor."""
        ds, _ = tiny_dataset()
        cfg = tiny_train_config(epochs=1,
                                model=replace(TINY_MODEL, use_ff=False))
        params, state, _ = train(ds, cfg)
        path = tmp_path / "ckpt.mtfc"
        save_checkpoint(path, cfg, params, state.step)
        raw = path.read_bytes()
        path.write_bytes(with_header(raw, edited_header(
            json.loads(header_of(raw)), model={"use_ff": True})))
        bad_header = f"{re.escape(str(path))}: bad checkpoint header"
        with pytest.raises(FormatError, match=bad_header):
            load_checkpoint(path)
        state.m.pop("clf.fc3_b")
        path.write_bytes(as_v1(raw, state.m, state.v))
        with pytest.raises(FormatError, match=bad_header):
            load_checkpoint(path)

    def test_float_field_written_as_json_int_loads(self, tmp_path):
        cfg, _, _, path = self._trained(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(with_header(raw, edited_header(
            json.loads(header_of(raw)), loss={"margin": 100, "lambda1": 0})))
        cfg2, _ = load_checkpoint(path)
        assert cfg2 == replace(cfg, loss=replace(cfg.loss, margin=100.0,
                                                 lambda1=0.0))
        assert type(cfg2.loss.margin) is float
        assert type(cfg2.loss.lambda1) is float

    def test_scoring_with_reloaded_checkpoint_matches(self, tmp_path):
        cfg, params, state, path = self._trained(tmp_path)
        _, test_ds = tiny_dataset()
        _, params2 = load_checkpoint(path)
        batch = 2 * cfg.batch_half
        scored = zip(
            trainer.score_videos(test_ds.videos, params, cfg.model, batch),
            trainer.score_videos(test_ds.videos, params2, cfg.model, batch),
            strict=True)
        for a, b in scored:
            assert np.allclose(a, b, atol=1e-12)


def score_alone(record, params, cfg_model):
    """Eval-mode snippet scores of one video, run as a batch of one."""
    tape = Tape()
    leaves = {name: tape.leaf(value, name=name)
              for name, value in params.items()}
    feats = dataio.snippet_tensors([record], cfg_model.t)
    return model_mod.forward(feats, leaves, cfg_model)[2].value.ravel()


class TestScoreVideos:
    # 1, B - 1, B and B + 1 videos for the training batch B = 4
    @pytest.mark.parametrize("n_videos", [1, 3, 4, 5])
    def test_batched_scores_equal_scoring_alone(self, n_videos):
        ds, _ = tiny_dataset(n=5)
        cfg = tiny_train_config(epochs=1)
        params, _, _ = train(ds, cfg)
        batch = 2 * cfg.batch_half
        assert batch == 4
        videos = ds.videos[:n_videos]
        scores = list(trainer.score_videos(videos, params, cfg.model, batch))
        assert len(scores) == len(videos)
        for v, s in zip(videos, scores):
            assert s.shape == (cfg.model.t,)
            assert np.array_equal(s, score_alone(v, params, cfg.model)), \
                v.video_id

    def test_chunk_graph_freed_before_its_scores_are_yielded(
            self, monkeypatch):
        outputs = []
        forward = model_mod.forward

        def recording_forward(*args, **kwargs):
            result = forward(*args, **kwargs)
            outputs.append(weakref.ref(result[2]))
            return result

        monkeypatch.setattr(model_mod, "forward", recording_forward)
        _, test_ds = tiny_dataset()
        params = model_mod.init_params(TINY_MODEL, 0)
        scores = trainer.score_videos(test_ds.videos, params, TINY_MODEL, 2)
        next(scores)
        assert len(outputs) == 1 and outputs[0]() is None

    def test_no_videos_give_no_scores(self):
        params = model_mod.init_params(TINY_MODEL, 0)
        assert list(trainer.score_videos([], params, TINY_MODEL, 4)) == []


def stack_videos(nodes):
    """Per-video (1, T, D) nodes as one (B, T, D) node on the same tape."""
    from mtfl import diffcore as dc

    flat = dc.concat_cols([dc.reshape(n, (1, n.value.size)) for n in nodes])
    return dc.reshape(flat, (len(nodes),) + nodes[0].shape[1:])


class TestGradientStaging:
    def test_staged_equals_monolithic(self):
        """The batched step's gradients must agree with one tape that runs
        every video through its own forward, in eval mode and in train mode
        with the per-slot dropout draws."""
        from mtfl import model as M
        from mtfl import objective
        from mtfl.dataio import snippet_tensors
        from mtfl.diffcore import Tape, backward

        ds, _ = tiny_dataset()
        cfg = tiny_train_config()
        assert M.DROPOUT > 0
        params = M.init_params(cfg.model, 3)
        feats = snippet_tensors(ds.videos, cfg.model.t)
        indices = [0, 1, 4, 5]
        assert [ds.videos[i].label for i in indices] == [0, 0, 1, 1]

        def eval_gradients():
            total, _ = trainer.batch_loss(params, feats[:, indices],
                                          cfg.model, cfg.loss)
            return backward(total)

        for mode, step in (("eval", 0), ("train", 6)):
            if mode == "train":
                staged, _ = trainer.batch_gradients(feats, indices, params,
                                                    cfg, step=step)
            else:
                staged = eval_gradients()
            tape = Tape()
            leaves = {n: tape.leaf(v, name=n) for n, v in params.items()}
            xs, ss = [], []
            for slot, i in enumerate(indices):
                rng = ([np.random.default_rng(
                    np.random.SeedSequence([cfg.seed, step, slot]))]
                    if mode == "train" else None)
                _, x, s = M.forward(feats[:, i:i + 1], leaves, cfg.model,
                                    rng=rng)
                xs.append(x)
                ss.append(s)
            total, _ = objective.total_loss(stack_videos(xs), stack_videos(ss),
                                            cfg.loss)
            mono = backward(total)
            assert staged.keys() == mono.keys()
            for k in params:
                assert np.allclose(staged[k], mono[k], rtol=1e-12,
                                   atol=1e-15), (mode, k)
        # dropout is live: the train-mode gradients differ from eval mode
        assert not np.allclose(staged["clf.fc1_w"],
                               eval_gradients()["clf.fc1_w"])

    def test_tape_length_does_not_depend_on_batch_size(self):
        from mtfl import model as M

        cfg = tiny_train_config()
        params = M.init_params(cfg.model, 0)
        rng = np.random.default_rng(0)
        lengths = []
        for half in (2, 8):
            feats = rng.standard_normal((3, 2 * half, cfg.model.t,
                                         cfg.model.d))
            rngs = [np.random.default_rng(i) for i in range(2 * half)]
            total, _ = trainer.batch_loss(params, feats, cfg.model, cfg.loss,
                                          rngs)
            lengths.append(len(total.tape.nodes))
        assert lengths[0] == lengths[1]
        # one tape of batched ops, not one forward per video
        assert lengths[0] < 300

    def test_training_step_records_135_nodes(self):
        """An 8+8 step at D=16 with dropout: 4 attention blocks of 4
        `linear`s and one `attention` each, and one `relu_dropout` per
        hidden classifier layer."""
        cfg = ModelConfig(d=16, t=32)
        feats = np.random.default_rng(0).standard_normal((3, 16, 32, 16))
        total, _ = trainer.batch_loss(
            model_mod.init_params(cfg, 0), feats, cfg, LossWeights(),
            [np.random.default_rng(i) for i in range(16)])
        assert len(total.tape.nodes) == 135


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
        params = model_mod.init_params(cfg.model, cfg.seed)
        state = AdamState.zeros_like(params)
        rng = np.random.default_rng(0)
        faults = []
        for step in range(25):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            normal, abnormal = sample_batch(ds, rng, cfg.batch_half)
            grads, _ = trainer.batch_gradients(
                feats, normal + abnormal, params, cfg, step)
            params = adam_step(params, grads, state, cfg)
            faults.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert np.mean(faults[5:]) <= 64, faults
