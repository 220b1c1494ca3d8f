"""Fuzz tests: mutated score curves, manifests, feature files,
checkpoints and checkpoint headers must end in the documented errors,
never in a traceback, a warning or an exception of another type."""

import contextlib
import io
import json
import shutil
import struct
import warnings
from dataclasses import fields, is_dataclass
from datetime import timedelta
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtfl import dataio
from mtfl.cli import run
from mtfl.container import FormatError
from mtfl.metrics import _read_curve_lines, read_score_curve
from mtfl.trainer import load_checkpoint, save_checkpoint, train

from test_trainer import (V1_FIXTURE, header_of, tiny_dataset,
                          tiny_train_config, with_header)

FUZZ = settings(max_examples=50, deadline=timedelta(seconds=5))

BLANK_LINES = [b"", b"  ", b"\t \r", b" \x0c"]
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf8\x88\x80\x80"]
# UTF-8 bytes that break the layout `export_score_curve` writes.
OFF_LAYOUT = [b"\r", b",", b"."]


def apply(data: bytes, ops) -> bytes:
    for op, *arg in ops:
        if op == "truncate":
            data = data[:arg[0] % (len(data) + 1)]
        elif op == "flip" and data:
            pos = arg[0] % len(data)
            data = data[:pos] + bytes([data[pos] ^ arg[1]]) + data[pos + 1:]
        elif op == "line":
            lines = data.split(b"\n")
            lines.insert(arg[0] % (len(lines) + 1), arg[1])
            data = b"\n".join(lines)
        elif op == "bytes":
            pos = arg[0] % (len(data) + 1)
            data = data[:pos] + arg[1] + data[pos:]
    return data


position = st.integers(0, 2**16)
curve_ops = st.lists(st.one_of(
    st.tuples(st.just("truncate"), position),
    st.tuples(st.just("flip"), position, st.integers(1, 255)),
    st.tuples(st.just("line"), position, st.sampled_from(BLANK_LINES)),
    st.tuples(st.just("line"), position,
              st.text(max_size=20).map(lambda t: t.encode("utf-8"))),
    st.tuples(st.just("bytes"), position, st.sampled_from(NOT_UTF8)),
    st.tuples(st.just("bytes"), position, st.sampled_from(OFF_LAYOUT)),
), min_size=1, max_size=4)


@pytest.fixture(scope="module")
def curves(tmp_path_factory):
    """A test manifest, its score curves, and the curve the fuzz mutates."""
    root = tmp_path_factory.mktemp("fuzz_curves")
    assert run(["synth", "--out-dir", str(root / "data"), "--normal", "4",
                "--abnormal", "4", "--d", "8", "--seed", "3"]) == 0
    manifest = root / "data" / "test_manifest.csv"
    scores = root / "scores"
    scores.mkdir()
    rng = np.random.default_rng(0)
    for v in dataio.read_manifest(manifest, split="test").videos:
        s = rng.random(v.n_frames)
        (scores / f"{v.video_id}.csv").write_text(
            "".join(f"{f},{s[f]:.6f},0\n" for f in range(v.n_frames)))
    victim = sorted(scores.glob("*.csv"))[-1]
    return manifest, scores, victim, victim.read_bytes()


@FUZZ
@given(ops=curve_ops)
def test_mutated_curve_gives_exit_code_and_one_line(curves, ops):
    manifest, scores, victim, clean = curves
    victim.write_bytes(apply(clean, ops))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = run(["eval", "--scores-dir", str(scores),
                    "--manifest", str(manifest)])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@FUZZ
@given(ops=curve_ops)
def test_fast_curve_parse_agrees_with_line_rule(curves, ops):
    """The array path is only a fast path: where it accepts a file, the
    line rule that defines the format reads the same values."""
    _, _, victim, clean = curves
    victim.write_bytes(apply(clean, ops))
    outcomes = []
    for read in (read_score_curve, _read_curve_lines):
        try:
            outcomes.append(read(victim))
        except ValueError as e:
            outcomes.append(str(e))
    fast, lines = outcomes
    if isinstance(lines, str):
        assert fast == lines
    else:
        assert np.array_equal(fast, lines, equal_nan=True)
        assert np.array_equal(np.signbit(fast), np.signbit(lines))


# What the manifest fuzz inserts: field and interval separators, line
# breaks, and values that parse as numbers but break a rule.
MANIFEST_TOKENS = [b",", b":", b";", b"\n", b"-1", b"..", b"nan",
                   str(2**31).encode(), str(2**64).encode(),
                   str(10**30).encode(), b"9" * 5000]


@pytest.fixture(scope="module")
def manifest_run(tmp_path_factory):
    """A small synthetic set and a checkpoint trained on it; the fuzz
    writes each mutated test manifest next to the original."""
    root = tmp_path_factory.mktemp("fuzz_manifest")
    data = root / "data"
    assert run(["synth", "--out-dir", str(data), "--normal", "4",
                "--abnormal", "4", "--d", "8", "--seed", "3"]) == 0
    assert run(["train", "--manifest", str(data / "train_manifest.csv"),
                "--out-dir", str(root / "run"), "--epochs", "1",
                "--batch-half", "2", "--seed", "1", "--t", "8",
                "--heads", "2"]) == 0
    clean = (data / "test_manifest.csv").read_bytes()
    return root, data / "mutated_manifest.csv", clean


def run_quietly(argv):
    """`mtfl` in-process: exit code, stderr, and any warning raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = run(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


@FUZZ
@given(ops=st.lists(st.one_of(
    st.tuples(st.just("truncate"), position),
    st.tuples(st.just("flip"), position, st.integers(1, 255)),
    st.tuples(st.just("bytes"), position, st.sampled_from(MANIFEST_TOKENS)),
), min_size=1, max_size=4))
def test_mutated_manifest_gives_exit_code_and_one_line(manifest_run, ops):
    """`score`, then `eval` of its curves, on a mutated test manifest: each
    exits 0, 1 or 2 with exactly one error line, and a validation error
    names the manifest."""
    root, manifest, clean = manifest_run
    manifest.write_bytes(apply(clean, ops))
    scores = root / "scores"
    shutil.rmtree(scores, ignore_errors=True)
    for argv in (["score", "--checkpoint", str(root / "run" / "final.mtfc"),
                  "--out-dir", str(scores)],
                 ["eval", "--scores-dir", str(scores)]):
        code, err, caught = run_quietly([*argv, "--manifest", str(manifest)])
        assert code in (0, 1, 2)
        assert caught == []
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        if code == 1:
            assert str(manifest) in err, err


@FUZZ
@given(ops=st.lists(st.one_of(
    st.tuples(st.just("truncate"), position),
    st.tuples(st.just("flip"), position, st.integers(1, 255)),
    st.tuples(st.just("bytes"), position, st.sampled_from(MANIFEST_TOKENS)),
), min_size=1, max_size=4))
def test_mutated_train_manifest_gives_exit_code_and_one_line(manifest_run,
                                                             ops):
    """`train` on a mutated train manifest: it exits 0, 1 or 2 with exactly
    one error line; a validation error names the manifest and leaves no
    --out-dir behind."""
    root, _, _ = manifest_run
    manifest = root / "data" / "mutated_train_manifest.csv"
    manifest.write_bytes(apply(
        (root / "data" / "train_manifest.csv").read_bytes(), ops))
    out = root / "fuzz_run"
    shutil.rmtree(out, ignore_errors=True)
    code, err, caught = run_quietly([
        "train", "--manifest", str(manifest), "--out-dir", str(out),
        "--epochs", "1", "--batch-half", "2", "--t", "8", "--heads", "2",
        "--seed", "1"])
    assert code in (0, 1, 2)
    assert caught == []
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code == 1:
        assert str(manifest) in err, err
        assert not out.exists()


@pytest.fixture(scope="module")
def feature_file(manifest_run):
    root, _, _ = manifest_run
    path = root / "data" / "features" / "test_abnormal_0000_long.mtfb"
    return root / "mutated.mtfb", path.read_bytes()


@FUZZ
@given(data=st.data())
def test_mutated_feature_file_raises_only_format_error(feature_file, data):
    path, raw = feature_file
    anywhere = st.integers(0, len(raw) - 1)
    header = st.integers(0, 15)  # magic, version, N and D
    ops = data.draw(st.lists(st.one_of(
        st.tuples(st.just("flip"), st.one_of(anywhere, header),
                  st.integers(1, 255)),
        st.tuples(st.just("truncate"), anywhere),
        st.tuples(st.just("bytes"), anywhere,
                  st.binary(min_size=1, max_size=8)),
    ), min_size=1, max_size=3))
    path.write_bytes(apply(raw, ops))
    try:
        dataio.read_feature_file(path)
    except FormatError as e:
        assert str(path) in str(e)


def structure_offsets(raw: bytes) -> list[int]:
    """Offsets of the checkpoint bytes that steer its parse: magic,
    version, lengths, tensor names and shapes. A version 1 file holds three
    tensor tables, a version 2 file one."""
    version, n = struct.unpack_from("<II", raw, 4)
    offsets = list(range(12))
    pos = 12 + n + 4
    for _table in range(3 if version == 1 else 1):
        (count,) = struct.unpack_from("<I", raw, pos)
        offsets += range(pos, pos + 4)
        pos += 4
        for _ in range(count):
            (k,) = struct.unpack_from("<I", raw, pos)
            rows, cols = struct.unpack_from("<II", raw, pos + 4 + k)
            offsets += range(pos, pos + 4 + k + 8)
            pos += 4 + k + 8 + 8 * rows * cols
    return offsets


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    ds, _ = tiny_dataset()
    cfg = tiny_train_config(epochs=1)
    params, state, _ = train(ds, cfg)
    path = tmp_path_factory.mktemp("fuzz_ckpt") / "ckpt.mtfc"
    save_checkpoint(path, cfg, params, state.step)
    raw = path.read_bytes()
    return path, raw, structure_offsets(raw)


@pytest.fixture(scope="module")
def v1_checkpoint(tmp_path_factory):
    """A copy of the version 1 file that the code before version 2 wrote."""
    path = tmp_path_factory.mktemp("fuzz_v1_ckpt") / "ckpt.mtfc"
    raw = V1_FIXTURE.read_bytes()
    path.write_bytes(raw)
    return path, raw, structure_offsets(raw)


@FUZZ
@given(data=st.data())
def test_mutated_checkpoint_raises_only_checkpoint_error(checkpoint, data):
    mutate_and_load(checkpoint, data)


@FUZZ
@given(data=st.data())
def test_mutated_v1_checkpoint_raises_only_checkpoint_error(v1_checkpoint,
                                                            data):
    mutate_and_load(v1_checkpoint, data)


def mutate_and_load(checkpoint, data):
    """Flip bytes of the checkpoint, anywhere or where they steer its
    parse, or cut it short, then load it: it loads, or raises a
    FormatError naming the file."""
    path, raw, structure = checkpoint
    anywhere = st.integers(0, len(raw) - 1)
    ops = data.draw(st.lists(st.one_of(
        st.tuples(st.just("flip"),
                  st.one_of(anywhere, st.sampled_from(structure)),
                  st.integers(1, 255)),
        st.tuples(st.just("truncate"), anywhere),
    ), min_size=1, max_size=3))
    path.write_bytes(apply(raw, ops))
    try:
        load_checkpoint(path)
    except FormatError as e:
        assert str(path) in str(e)


def leaf_paths(blob, path=()):
    """The key paths of every value in decoded JSON `blob` that is not an
    object: each list, and each of its elements."""
    if isinstance(blob, dict):
        for key, value in blob.items():
            yield from leaf_paths(value, path + (key,))
        return
    yield path
    if isinstance(blob, list):
        for i, value in enumerate(blob):
            yield from leaf_paths(value, path + (i,))


def replaced(blob, path, value):
    """A copy of `blob` with the value at key path `path` replaced."""
    if not path:
        return value
    out = list(blob) if isinstance(blob, list) else dict(blob)
    out[path[0]] = replaced(blob[path[0]], path[1:], value)
    return out


def assert_typed(cfg):
    """Every field of config `cfg` holds its annotated type exactly."""
    hints = get_type_hints(type(cfg))
    for f in fields(cfg):
        kind, value = hints[f.name], getattr(cfg, f.name)
        if is_dataclass(kind):
            assert_typed(value)
        elif get_args(kind):
            assert type(value) is tuple, (f.name, value)
            assert tuple(map(type, value)) == get_args(kind), (f.name, value)
        else:
            assert type(value) is kind, (f.name, value)


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-10**400, 10**400), st.floats(), st.text(max_size=8))
json_values = st.one_of(json_scalars, st.lists(json_scalars, max_size=3))


@FUZZ
@given(data=st.data())
def test_header_value_loads_typed_or_raises_checkpoint_error(checkpoint,
                                                             data):
    """One value of a real header replaced by any JSON value: the
    checkpoint loads with every config field of its annotated type, or is
    a checkpoint error naming the file."""
    path, raw, _ = checkpoint
    header = json.loads(header_of(raw))
    leaf = data.draw(st.sampled_from(list(leaf_paths(header))))
    edited = replaced(header, leaf, data.draw(json_values))
    path.write_bytes(with_header(raw, json.dumps(edited).encode()))
    try:
        cfg, _ = load_checkpoint(path)
    except FormatError as e:
        assert str(path) in str(e)
    else:
        assert_typed(cfg)
