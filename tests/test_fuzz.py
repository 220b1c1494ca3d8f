"""Fuzz tests: mutated score curves and checkpoints must end in the
documented errors, never in a traceback, a warning or an exception of
another type."""

import contextlib
import io
import struct
import warnings
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtfl import dataio
from mtfl.cli import _read_curve_lines, _read_curve_scores, run
from mtfl.container import FormatError
from mtfl.trainer import load_checkpoint, save_checkpoint, train

from test_trainer import tiny_dataset, tiny_train_config

FUZZ = settings(max_examples=50, deadline=timedelta(seconds=5))

BLANK_LINES = [b"", b"  ", b"\t \r", b" \x0c"]
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf8\x88\x80\x80"]


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
    """numpy's one-call parse is only a fast path: where it accepts a file,
    the line rule that defines the format reads the same values."""
    _, _, victim, clean = curves
    victim.write_bytes(apply(clean, ops))
    outcomes = []
    for read in (_read_curve_scores, _read_curve_lines):
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


def structure_offsets(raw: bytes) -> list[int]:
    """Offsets of the checkpoint bytes that steer its parse: magic,
    version, lengths, tensor names and shapes."""
    (n,) = struct.unpack_from("<I", raw, 8)
    offsets = list(range(12))
    pos = 12 + n + 4
    for _table in range(3):
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
    save_checkpoint(path, cfg, params, state)
    raw = path.read_bytes()
    return path, raw, structure_offsets(raw)


@FUZZ
@given(data=st.data())
def test_mutated_checkpoint_raises_only_checkpoint_error(checkpoint, data):
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
