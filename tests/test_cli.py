import contextlib
import inspect
import io
import itertools
import json
import os
import re
import shutil
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import mtfl
from mtfl import cli, dataio, model, trainer
from mtfl.cli import CliError, build_parser, parse_args, run
from mtfl.container import FormatError
from mtfl.dataio import SynthConfig, synth_generate, write_feature_file
from mtfl.diffcore import finite_diff_check
from mtfl.metrics import read_score_curve
from mtfl.model import ModelConfig
from mtfl.objective import LossWeights
from mtfl.trainer import TrainConfig

from test_trainer import (as_v1, edited_header, first_name_offset,
                          header_of, older_header, with_header, with_value)


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def small_synth(tmp_path, seed=5):
    data = tmp_path / "data"
    code = run(["synth", "--out-dir", str(data), "--normal", "4",
                "--abnormal", "4", "--d", "8", "--seed", str(seed)])
    assert code == 0
    return data


def assert_one_line_error(err):
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def write_curves(scores_dir, manifest):
    """A constant `frame,score,gt` curve per test video."""
    scores_dir.mkdir()
    for v in dataio.read_manifest(manifest, split="test").videos:
        (scores_dir / f"{v.video_id}.csv").write_text(
            "".join(f"{f},0.5,0\n" for f in range(v.n_frames)))


def cli_env(env=()) -> dict:
    """This process's environment, with the variables of `env` set and this
    checkout's `mtfl` first on PYTHONPATH."""
    src = str(Path(mtfl.__file__).resolve().parents[1])
    env = {**os.environ, **dict(env)}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli_process(argv, timeout=60, env=(), **kw):
    """The CLI in a child process, killed after `timeout` seconds, with
    the variables of `env` set; `kw` goes to `subprocess.run`."""
    return subprocess.run([sys.executable, "-m", "mtfl.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=cli_env(env), **kw)


def cli_process(argv) -> subprocess.Popen:
    """The CLI started in a child process, its output discarded."""
    return subprocess.Popen([sys.executable, "-m", "mtfl.cli", *argv],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, env=cli_env())


def as_v1_with_zero_moments(ckpt) -> bytes:
    """The version 2 checkpoint at `ckpt` as a version 1 file, its Adam
    moments zeros."""
    zeros = trainer.AdamState.zeros_like(trainer.load_checkpoint(ckpt)[1])
    return as_v1(ckpt.read_bytes(), zeros.m, zeros.v)


def train_small(tmp_path, data, extra=()):
    out = tmp_path / "run"
    code = run(["train", "--manifest", str(data / "train_manifest.csv"),
                "--out-dir", str(out), "--epochs", "2", "--batch-half", "2",
                "--seed", "1", "--t", "8", "--heads", "2",
                "--margin", "4", *extra])
    assert code == 0
    return out


def every_flag():
    """(command, flag, dest, kind) for every flag of every subcommand."""
    for command, p in cli._commands(build_parser()).items():
        for a in p._actions:
            if a.option_strings and a.dest not in ("help", "config"):
                kind = bool if a.nargs == 0 else a.type or str
                yield pytest.param(command, a.option_strings[0], a.dest, kind,
                                   id=f"{command} {a.option_strings[0]}")


def on_line(flag, value):
    if isinstance(value, bool):
        return [flag] if value else []
    return [flag, str(value)]


class TestExitCodes:
    @pytest.mark.parametrize("error,code", [
        (CliError("bad usage"), 1),
        (dataio.ManifestError("m.csv:1: bad"), 1),
        (ValueError("bad value"), 1),
        (json.JSONDecodeError("bad json", "{", 1), 1),
        (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad byte"), 1),
        (FormatError("f.mtfb: bad magic"), 2),
        (OSError(5, "I/O error"), 2),
        (RuntimeError("non-finite loss"), 2),
        (MemoryError(), 2),
    ], ids=lambda x: type(x).__name__ if isinstance(x, Exception) else str(x))
    def test_each_kind_maps_to_its_code(self, monkeypatch, capsys, error,
                                        code):
        def fail(args):
            raise error
        monkeypatch.setattr(cli, "_cmd_gradcheck", fail)
        got, _, err = run_capture(capsys, ["gradcheck"])
        assert got == code
        assert_one_line_error(err)

    def test_interrupt_exits_2(self, monkeypatch):
        def interrupt(args):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "_cmd_gradcheck", interrupt)
        assert run(["gradcheck"]) == 2

    def test_scoring_loop_value_error_is_validation_error(
            self, tmp_path, monkeypatch, capsys):
        data = small_synth(tmp_path)
        out = train_small(tmp_path, data)

        def fail(*args):
            raise ValueError("n_frames must be >= 1")
        monkeypatch.setattr(mtfl.metrics, "expand_to_frames", fail)
        code, _, err = run_capture(capsys, [
            "score", "--checkpoint", str(out / "final.mtfc"),
            "--manifest", str(data / "test_manifest.csv"),
            "--out-dir", str(tmp_path / "scores")])
        assert code == 1
        assert_one_line_error(err)


class TestManifestFrames:
    @pytest.mark.parametrize("frames", ["0", "-5"])
    @pytest.mark.parametrize("command", ["train", "score", "eval"])
    def test_n_frames_below_one_is_validation_error(self, tmp_path, capsys,
                                                    command, frames):
        data = small_synth(tmp_path)
        split = "train" if command == "train" else "test"
        manifest = data / f"{split}_manifest.csv"
        argv = {
            "train": ["--out-dir", str(tmp_path / "run"), "--seed", "1",
                      "--epochs", "1", "--batch-half", "2", "--t", "8",
                      "--heads", "2"],
            "score": ["--out-dir", str(tmp_path / "scores"),
                      "--checkpoint", str(tmp_path / "run" / "final.mtfc")],
            "eval": ["--scores-dir", str(tmp_path / "scores")],
        }[command]
        if command == "score":
            train_small(tmp_path, data)
        if command == "eval":
            write_curves(tmp_path / "scores", manifest)
        lines = manifest.read_text().splitlines(True)
        fields = lines[1].split(",")
        fields[2] = frames
        lines[1] = ",".join(fields)
        manifest.write_text("".join(lines))
        code, _, err = run_capture(capsys, [command, "--manifest",
                                            str(manifest), *argv])
        assert code == 1
        assert_one_line_error(err)
        assert f"{manifest}:2: n_frames must be >= 1, got {frames}" in err


class TestGradcheckCommand:
    def test_defaults_pass(self, capsys):
        code, out, _ = run_capture(capsys, ["gradcheck"])
        assert code == 0
        assert "PASS" in out
        assert "max relative error" in out

    def test_negative_seed_is_validation_error(self, capsys):
        code, _, err = run_capture(capsys, ["gradcheck", "--seed", "-1"])
        assert code == 1
        assert_one_line_error(err)
        assert "seed must be >= 0, got -1" in err

    def test_wrong_vjp_fails(self, monkeypatch, capsys):
        """A sigmoid whose vjp drops the (1 - s) factor fails the check."""
        def sigmoid(m):
            out = 1.0 / (1.0 + np.exp(-m.value))
            return m.tape._record(out, [(m, lambda g: g * out)])
        monkeypatch.setattr(mtfl.diffcore, "sigmoid", sigmoid)
        code, out, _ = run_capture(capsys, ["gradcheck", "--d", "4"])
        assert code == 1
        assert "FAIL" in out

    def test_passes_where_zero_biases_meet_the_relu_kink(self, capsys):
        """At seed 3 the initial zero biases leave a classifier input at
        exactly 0, where `relu` has no derivative; the drawn biases do not."""
        code, out, _ = run_capture(capsys, ["gradcheck", "--seed", "3"])
        assert code == 0, out
        assert "PASS" in out


STAGES = ("pfl", "ltl", "gtl", "ff")


@pytest.mark.parametrize("dropout,stages", [
    *((0.0, on) for n in range(5) for on in itertools.combinations(STAGES, n)),
    (0.5, STAGES),
], ids=lambda v: "+".join(v) or "none" if isinstance(v, tuple)
    else f"dropout={v}")
def test_gradcheck_every_stage_switch_and_dropout(dropout, stages,
                                                  monkeypatch):
    """`gradcheck`'s check, at D=4 and seed 0, with each set of stages on
    and with dropout at rate `dropout` (0: no dropout generators): the loss
    through `trainer.batch_loss`, at `gradcheck_point`. Each build makes
    fresh dropout generators per slot, so it is one function of the
    parameters."""
    monkeypatch.setattr(model, "DROPOUT", dropout)
    mcfg = ModelConfig(d=4, t=cli.GRADCHECK_T, heads=2,
                       hidden=cli.GRADCHECK_HIDDEN,
                       **{f"use_{s}": s in stages for s in STAGES})
    feats, params = cli.gradcheck_point(mcfg, 0)

    def build(p):
        rngs = ([np.random.default_rng(slot) for slot in range(4)]
                if dropout else None)
        return trainer.batch_loss(p, feats, mcfg, cli.GRADCHECK_LOSS, rngs)[0]

    report = finite_diff_check(build, params)
    assert report.passed, (report.max_rel_error, report.worst_coordinate)


class TestSynthCommand:
    def test_writes_manifests_and_features(self, tmp_path):
        data = small_synth(tmp_path)
        assert (data / "train_manifest.csv").exists()
        assert (data / "test_manifest.csv").exists()
        ds = dataio.read_dataset(data / "train_manifest.csv")
        assert len(ds.videos) == 8

    @pytest.mark.parametrize("flags", [["--seed", "-1"]],
                             ids=lambda flags: " ".join(flags))
    def test_invalid_setting_rejected_before_writing(self, tmp_path, flags):
        out = tmp_path / "data"
        code, err, caught = run_with_warnings([
            "synth", "--out-dir", str(out), "--normal", "1", "--abnormal",
            "1", "--d", "4", *flags])
        assert code == 1
        assert_one_line_error(err)
        assert f"{flags[0][2:]} must be " in err
        assert caught == []
        assert not out.exists()


class TestTrainCommand:
    def test_trains_and_checkpoints(self, tmp_path):
        data = small_synth(tmp_path)
        out = train_small(tmp_path, data)
        assert (out / "final.mtfc").exists()
        assert (out / "loss_log.csv").exists()

    def test_mismatched_d_is_validation_error(self, tmp_path, capsys):
        data = small_synth(tmp_path)
        # corrupt one video's short-scale features to a different D
        victim = next((data / "features").glob("train_abnormal_0000_short.mtfb"))
        write_feature_file(victim, np.ones((4, 6)))
        code, _, err = run_capture(capsys, [
            "train", "--manifest", str(data / "train_manifest.csv"),
            "--out-dir", str(tmp_path / "x"), "--seed", "0"])
        assert code == 1
        assert "train_abnormal_0000" in err
        assert "Traceback" not in err

    def test_missing_seed_prints_one(self, tmp_path, capsys):
        data = small_synth(tmp_path)
        code, out, _ = run_capture(capsys, [
            "train", "--manifest", str(data / "train_manifest.csv"),
            "--out-dir", str(tmp_path / "run"), "--epochs", "1",
            "--batch-half", "2", "--t", "8", "--heads", "2", "--margin", "4"])
        assert code == 0
        assert "seed=" in out

    def test_unknown_flag_rejected(self, tmp_path):
        assert run(["train", "--nonsense"]) == 1

    @pytest.mark.parametrize("flag,value", [
        ("--heads", "0"), ("--heads", "-2"), ("--seed", "-1")],
        ids=lambda x: x)
    def test_setting_error_names_setting_before_writing(self, tmp_path,
                                                        capsys, flag, value):
        data = small_synth(tmp_path)
        out = tmp_path / "run"
        argv = ["train", "--manifest", str(data / "train_manifest.csv"),
                "--out-dir", str(out), "--epochs", "1", "--batch-half", "2",
                "--seed", "1", "--t", "8", "--heads", "2", "--margin", "4",
                flag, value]
        code, _, err = run_capture(capsys, argv)
        assert code == 1
        assert_one_line_error(err)
        assert f"{flag[2:]} must be >= " in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--lr", "nan"], ["--lr", "inf"], ["--lr", "0"], ["--lr", "-1e-3"],
        ["--k", "5", "--t", "4"],
        ["--margin", "nan"], ["--lambda-fm", "inf"],
        ["--workers", "2"], ["--checkpoint-every", "-1"],
    ], ids=lambda flags: " ".join(flags))
    def test_invalid_setting_rejected_before_writing(self, tmp_path, capsys,
                                                     flags):
        data = small_synth(tmp_path)
        out = tmp_path / "run"
        code, _, err = run_capture(capsys, [
            "train", "--manifest", str(data / "train_manifest.csv"),
            "--out-dir", str(out), "--epochs", "1", "--batch-half", "2",
            "--seed", "1", "--t", "8", "--heads", "2", "--margin", "4",
            *flags])
        assert code == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("hidden", [[0, 4], [-1, 4]], ids=json.dumps)
    def test_invalid_hidden_from_config_rejected_before_writing(
            self, tmp_path, capsys, hidden):
        data = small_synth(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hidden": hidden}))
        out = tmp_path / "run"
        code, _, err = run_capture(capsys, [
            "train", "--config", str(cfg), "--manifest",
            str(data / "train_manifest.csv"), "--out-dir", str(out),
            "--epochs", "1", "--batch-half", "2", "--seed", "1", "--t", "8",
            "--heads", "2"])
        assert code == 1
        assert_one_line_error(err)
        assert "hidden must be two widths >= 1" in err
        assert not out.exists()


def edit_manifest_line(manifest, line, field, value):
    """Set 0-based `field` of 1-based manifest line `line` to `value`;
    returns the line's video id."""
    lines = manifest.read_text().splitlines(True)
    fields = lines[line - 1].rstrip("\n").split(",")
    fields[field] = value
    lines[line - 1] = ",".join(fields) + "\n"
    manifest.write_text("".join(lines))
    return fields[0]


class TestManifestRecordRules:
    """A manifest line whose video breaks a rule is a validation error
    that names the manifest, the line and the video."""

    @pytest.mark.parametrize("line,field,value,message", [
        (1, 1, "2", "label must be 0 or 1"),
        (2, 6, "0:99999", "interval [0,99999) outside"),
        (2, 6, "0:20;10:30", "overlapping intervals"),
        (1, 6, "0:10", "normal video with anomaly intervals"),
        (1, 5, "narrow.mtfb", "long-scale D=6 differs from short-scale D=8"),
        (1, 4, "empty.mtfb", "medium-scale feature file has no rows"),
    ], ids=["label", "outside", "overlap", "normal", "scale-d", "no-rows"])
    def test_rule_names_manifest_line_and_video(self, tmp_path, capsys,
                                                line, field, value, message):
        """`eval` checks the rules of a line's text; a feature file's rules
        are checked by `score` (and `train`), as eval opens none."""
        data = small_synth(tmp_path)
        write_feature_file(data / "narrow.mtfb", np.zeros((4, 6)))
        write_feature_file(data / "empty.mtfb", np.zeros((0, 8)))
        scores = tmp_path / "scores"
        if field in (3, 4, 5):  # a feature-file path
            argv = ["score", "--out-dir", str(scores), "--checkpoint",
                    str(train_small(tmp_path, data) / "final.mtfc")]
        else:
            argv = ["eval", "--scores-dir", str(scores)]
        manifest = data / "test_manifest.csv"
        vid = edit_manifest_line(manifest, line, field, value)
        code, _, err = run_capture(capsys, [*argv, "--manifest",
                                            str(manifest)])
        assert code == 1
        assert_one_line_error(err)
        assert f"error: {manifest}:{line}: {vid}: {message}" in err
        assert not scores.exists()

    def test_feature_file_without_rows_rejected_before_training(
            self, tmp_path, capsys):
        data = small_synth(tmp_path)
        write_feature_file(data / "empty.mtfb", np.zeros((0, 8)))
        manifest = data / "train_manifest.csv"
        vid = edit_manifest_line(manifest, 3, 3, "empty.mtfb")
        out = tmp_path / "run"
        code, _, err = run_capture(capsys, [
            "train", "--manifest", str(manifest), "--out-dir", str(out),
            "--seed", "1", "--epochs", "1", "--batch-half", "2", "--t", "8",
            "--heads", "2"])
        assert code == 1
        assert_one_line_error(err)
        assert (f"{manifest}:3: {vid}: short-scale feature file has no rows"
                in err)
        assert not out.exists()

    def test_manifest_not_utf8_names_file(self, tmp_path, capsys):
        data = small_synth(tmp_path)
        manifest = data / "test_manifest.csv"
        manifest.write_bytes(manifest.read_bytes().replace(b"_", b"\xab", 1))
        code, _, err = run_capture(capsys, [
            "eval", "--scores-dir", str(tmp_path / "scores"),
            "--manifest", str(manifest)])
        assert code == 1
        assert_one_line_error(err)
        assert f"error: {manifest}: not UTF-8" in err

    def test_duplicate_ids_name_manifest(self, tmp_path, capsys):
        data = small_synth(tmp_path)
        manifest = data / "test_manifest.csv"
        first = manifest.read_text().splitlines(True)[0]
        manifest.write_text(first + first)
        code, _, err = run_capture(capsys, [
            "eval", "--scores-dir", str(tmp_path / "scores"),
            "--manifest", str(manifest)])
        assert code == 1
        assert_one_line_error(err)
        assert f"error: {manifest}: duplicate video ids" in err

    def test_n_frames_beyond_range_is_validation_error(self, tmp_path,
                                                        capsys):
        data = small_synth(tmp_path)
        manifest = data / "test_manifest.csv"
        edit_manifest_line(manifest, 1, 2, str(2**31))
        code, _, err = run_capture(capsys, [
            "eval", "--scores-dir", str(tmp_path / "scores"),
            "--manifest", str(manifest)])
        assert code == 1
        assert_one_line_error(err)
        assert f"{manifest}:1: n_frames must be < 2**31, got {2**31}" in err


class TestManifestVideoIds:
    @pytest.mark.parametrize("vid", ["", ".", "..", "../escaped", "a/b",
                                     "a\\b", "..\\escaped", "a\x00b"])
    def test_id_that_is_not_a_file_name_is_validation_error(
            self, tmp_path, capsys, vid):
        data = small_synth(tmp_path)
        out = train_small(tmp_path, data)
        manifest = data / "test_manifest.csv"
        lines = manifest.read_text().splitlines(True)
        lines[0] = ",".join([vid, *lines[0].split(",")[1:]])
        manifest.write_text("".join(lines))
        before = sorted(tmp_path.rglob("*"))
        scores = tmp_path / "scores"
        code, _, err = run_capture(capsys, [
            "score", "--checkpoint", str(out / "final.mtfc"),
            "--manifest", str(manifest), "--out-dir", str(scores)])
        assert code == 1
        assert_one_line_error(err)
        assert f"{manifest}:1: video id {vid!r} is not a file name" in err
        assert sorted(tmp_path.rglob("*")) == before
        assert not (tmp_path / "escaped.csv").exists()


class TestScoreEvalCommands:
    def test_full_pipeline_output_format(self, tmp_path, capsys):
        data = small_synth(tmp_path)
        out = train_small(tmp_path, data)
        scores = tmp_path / "scores"
        code = run(["score", "--checkpoint", str(out / "final.mtfc"),
                    "--manifest", str(data / "test_manifest.csv"),
                    "--out-dir", str(scores)])
        assert code == 0
        curves = list(scores.glob("*.csv"))
        assert len(curves) == 2  # test split defaults to a quarter per class
        code, text, _ = run_capture(capsys, [
            "eval", "--scores-dir", str(scores),
            "--manifest", str(data / "test_manifest.csv")])
        assert code == 0
        lines = dict(line.split("=") for line in text.splitlines()
                     if "=" in line)
        assert 0.0 <= float(lines["AUC"]) <= 1.0
        assert 0.0 <= float(lines["AP"]) <= 1.0

    def test_empty_test_manifest_writes_no_curves(self, tmp_path, capsys):
        out = train_small(tmp_path, small_synth(tmp_path))
        manifest = tmp_path / "empty_manifest.csv"
        manifest.write_text("")
        scores = tmp_path / "scores"
        capsys.readouterr()
        code, text, err = run_capture(capsys, [
            "score", "--checkpoint", str(out / "final.mtfc"),
            "--manifest", str(manifest), "--out-dir", str(scores)])
        assert (code, err) == (0, "")
        assert text == f"wrote 0 score curves to {scores}\n"
        assert list(scores.iterdir()) == []

    def test_eval_of_manifest_without_videos_says_so(self, tmp_path,
                                                     capsys):
        manifest = tmp_path / "empty_manifest.csv"
        manifest.write_text("\n")
        code, out, err = run_capture(capsys, [
            "eval", "--scores-dir", str(tmp_path / "scores"),
            "--manifest", str(manifest)])
        assert (code, out) == (1, "")
        assert_one_line_error(err)
        assert f"error: {manifest}: no videos to evaluate" in err

    def test_eval_of_one_class_frames_names_manifest(self, tmp_path, capsys):
        data = small_synth(tmp_path)
        manifest = data / "test_manifest.csv"
        manifest.write_text(manifest.read_text().splitlines(True)[0])
        write_curves(tmp_path / "scores", manifest)
        code, _, err = run_capture(capsys, [
            "eval", "--scores-dir", str(tmp_path / "scores"),
            "--manifest", str(manifest)])
        assert code == 1
        assert_one_line_error(err)
        assert f"error: {manifest}: AUC needs both classes" in err

    def test_feature_dimension_mismatch_is_validation_error(self, tmp_path,
                                                             capsys):
        out = train_small(tmp_path, small_synth(tmp_path))  # D=8
        wide = tmp_path / "wide"
        assert run(["synth", "--out-dir", str(wide), "--normal", "4",
                    "--abnormal", "4", "--d", "12", "--seed", "5"]) == 0
        scores = tmp_path / "scores"
        code, _, err = run_capture(capsys, [
            "score", "--checkpoint", str(out / "final.mtfc"),
            "--manifest", str(wide / "test_manifest.csv"),
            "--out-dir", str(scores)])
        assert code == 1
        assert_one_line_error(err)
        assert "D=12" in err and "D=8" in err
        assert not scores.exists()

    def test_checkpoint_from_older_version_scores(self, tmp_path, capsys):
        """A header as older versions wrote it (`older_header`), one that
        holds only `weight_decay` and `model.dropout` besides this version's
        keys, as written before both were constants, and a version 1 file
        with Adam moment tables score the same curve bytes as the file this
        version writes."""
        data = small_synth(tmp_path)
        ckpt = train_small(tmp_path, data) / "final.mtfc"
        raw = ckpt.read_bytes()
        header = json.loads(header_of(raw))
        forms = {"current": raw,
                 "older": with_header(raw, older_header(header)),
                 "with-decay-and-dropout": with_header(raw, edited_header(
                     header, weight_decay=0.0005, model={"dropout": 0.7})),
                 "version-1": as_v1_with_zero_moments(ckpt)}
        curves = {}
        for name, blob in forms.items():
            ckpt, scores = tmp_path / f"{name}.mtfc", tmp_path / name
            ckpt.write_bytes(blob)
            code, _, err = run_capture(capsys, [
                "score", "--checkpoint", str(ckpt),
                "--manifest", str(data / "test_manifest.csv"),
                "--out-dir", str(scores)])
            assert code == 0, err
            curves[name] = {p.name: p.read_bytes() for p in scores.iterdir()}
        assert curves["current"]
        assert (curves["older"] == curves["current"]
                == curves["with-decay-and-dropout"] == curves["version-1"])

    @pytest.mark.parametrize("edit", [
        lambda h: b"{not json",
        lambda h: b'{"train": {}, "step": 0, "seed": 0}',
        lambda h: older_header(h, beta1=0.95),
        lambda h: older_header(h, lm=3),
        lambda h: older_header(h, halves=(2, 3)),
        lambda h: older_header(h, weight_decay=0.0),
        lambda h: older_header(h, dropout=0.5),
        lambda h: edited_header(h, model={"heads": 0}),
        lambda h: edited_header(h, model={"heads": 2.0}),
        lambda h: edited_header(h, model={"use_pfl": "no"}),
        lambda h: edited_header(h, model={"use_ff": False}),
        lambda h: b"[" * 200_000 + b"]" * 200_000,
    ], ids=["invalid-json", "empty-train-config", "retired-beta1-changed",
            "retired-dilation-changed", "unequal-batch-halves",
            "retired-weight-decay-changed", "retired-dropout-changed",
            "heads-0", "heads-float", "use-pfl-string",
            "ff-tensors-without-use-ff", "nested-too-deep"])
    def test_unparsable_checkpoint_header_is_runtime_error(
            self, tmp_path, capsys, edit):
        data = small_synth(tmp_path)
        ckpt = train_small(tmp_path, data) / "final.mtfc"
        raw = ckpt.read_bytes()
        ckpt.write_bytes(with_header(raw, edit(json.loads(header_of(raw)))))
        code, _, err = run_capture(capsys, [
            "score", "--checkpoint", str(ckpt),
            "--manifest", str(data / "test_manifest.csv"),
            "--out-dir", str(tmp_path / "scores")])
        assert code == 2
        assert_one_line_error(err)
        assert f"{ckpt}: bad checkpoint header" in err
        assert not (tmp_path / "scores").exists()

    def test_header_claiming_a_stage_without_its_tensors_is_runtime_error(
            self, tmp_path, capsys):
        data = small_synth(tmp_path)
        ckpt = train_small(tmp_path, data, ["--disable-ff"]) / "final.mtfc"
        raw = ckpt.read_bytes()
        ckpt.write_bytes(with_header(raw, edited_header(
            json.loads(header_of(raw)), model={"use_ff": True})))
        code, _, err = run_capture(capsys, [
            "score", "--checkpoint", str(ckpt),
            "--manifest", str(data / "test_manifest.csv"),
            "--out-dir", str(tmp_path / "scores")])
        assert code == 2
        assert_one_line_error(err)
        assert f"{ckpt}: bad checkpoint header" in err and "ff.proj" in err
        assert not (tmp_path / "scores").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_score_is_validation_error(self, tmp_path, bad):
        data = small_synth(tmp_path)
        manifest = data / "test_manifest.csv"
        victim = dataio.read_manifest(manifest, split="test").videos[-1]
        scores = tmp_path / "scores"
        write_curves(scores, manifest)
        curve = scores / f"{victim.video_id}.csv"
        lines = curve.read_text().splitlines(True)
        lines[3] = f"3,{bad},0\n"
        curve.write_text("".join(lines))
        # NaN != NaN defeats the tie grouping of AUC/AP and can loop forever;
        # the child is killed at the timeout, so a regression fails.
        proc = run_cli_process(["eval", "--scores-dir", str(scores),
                                "--manifest", str(manifest)], timeout=60)
        assert proc.returncode == 1
        assert_one_line_error(proc.stderr)
        assert f"error: {curve}: {victim.video_id}: non-finite" in proc.stderr

    def test_curve_length_mismatch_is_validation_error(self, tmp_path,
                                                       capsys):
        data = small_synth(tmp_path)
        manifest = data / "test_manifest.csv"
        victim = dataio.read_manifest(manifest, split="test").videos[0]
        scores = tmp_path / "scores"
        write_curves(scores, manifest)
        curve = scores / f"{victim.video_id}.csv"
        curve.write_text("".join(curve.read_text().splitlines(True)[:-1]))
        code, _, err = run_capture(capsys, [
            "eval", "--scores-dir", str(scores), "--manifest", str(manifest)])
        assert code == 1
        assert_one_line_error(err)
        assert (f"error: {curve}: {victim.video_id}: {victim.n_frames - 1} "
                f"scores for {victim.n_frames} frames") in err

    def test_eval_reads_no_feature_file(self, tmp_path, capsys):
        """`eval` needs only the manifest and the curves: with the feature
        files gone it prints the same report, byte for byte."""
        data = small_synth(tmp_path)
        out = train_small(tmp_path, data)
        manifest = str(data / "test_manifest.csv")
        scores = tmp_path / "scores"
        assert run(["score", "--checkpoint", str(out / "final.mtfc"),
                    "--manifest", manifest, "--out-dir", str(scores)]) == 0
        argv = ["eval", "--scores-dir", str(scores), "--manifest", manifest,
                "--per-video"]
        capsys.readouterr()
        before = run_capture(capsys, argv)
        shutil.rmtree(data / "features")
        assert run_capture(capsys, argv) == before
        assert before[0] == 0 and "video test_abnormal_0000: auc=" in before[1]

    @pytest.mark.parametrize("command", ["train", "score"])
    def test_each_feature_file_read_once(self, tmp_path, monkeypatch,
                                         command):
        data = small_synth(tmp_path)
        split = "train" if command == "train" else "test"
        if command == "score":
            out = train_small(tmp_path, data)
            argv = ["--checkpoint", str(out / "final.mtfc"),
                    "--out-dir", str(tmp_path / "scores")]
        else:
            argv = ["--out-dir", str(tmp_path / "run"), "--epochs", "1",
                    "--batch-half", "2", "--seed", "1", "--t", "8",
                    "--heads", "2"]
        read = dataio.read_feature_file
        opened = []
        monkeypatch.setattr(dataio, "read_feature_file",
                            lambda path: (opened.append(path), read(path))[1])
        assert run([command, "--manifest", str(data / f"{split}_manifest.csv"),
                    *argv]) == 0
        assert sorted(opened) == sorted(
            (data / "features").glob(f"{split}_*.mtfb"))

    @pytest.mark.parametrize("bad", ["garbage", "3,abc,0"])
    def test_unparsable_curve_line_is_validation_error(self, tmp_path, capsys,
                                                       bad):
        data = small_synth(tmp_path)
        out = train_small(tmp_path, data)
        manifest = data / "test_manifest.csv"
        scores = tmp_path / "scores"
        assert run(["score", "--checkpoint", str(out / "final.mtfc"),
                    "--manifest", str(manifest), "--out-dir",
                    str(scores)]) == 0
        curve = sorted(scores.glob("*.csv"))[0]
        lines = curve.read_text().splitlines(True)
        lines[2] = bad + "\n"
        curve.write_text("".join(lines))
        code, _, err = run_capture(capsys, [
            "eval", "--scores-dir", str(scores), "--manifest", str(manifest)])
        assert code == 1
        assert_one_line_error(err)
        assert f"{curve}:3" in err

    def test_tensor_name_not_utf8_is_runtime_error(self, tmp_path, capsys):
        data = small_synth(tmp_path)
        ckpt = train_small(tmp_path, data) / "final.mtfc"
        raw = bytearray(ckpt.read_bytes())
        raw[first_name_offset(raw)] = 0xFF
        ckpt.write_bytes(bytes(raw))
        code, _, err = run_capture(capsys, [
            "score", "--checkpoint", str(ckpt),
            "--manifest", str(data / "test_manifest.csv"),
            "--out-dir", str(tmp_path / "scores")])
        assert code == 2
        assert_one_line_error(err)
        assert str(ckpt) in err

    @pytest.mark.parametrize("table, name, value", [
        (0, "clf.fc1_w", float("nan")), (2, "ltl.proj_w", float("inf"))],
        ids=["param-nan", "adam-moment-inf"])
    def test_non_finite_checkpoint_is_runtime_error(self, tmp_path, capsys,
                                                    table, name, value):
        data = small_synth(tmp_path)
        ckpt = train_small(tmp_path, data) / "final.mtfc"
        # a moment table: only version 1 files hold them
        raw = as_v1_with_zero_moments(ckpt) if table else ckpt.read_bytes()
        ckpt.write_bytes(with_value(raw, table, name, value))
        code, _, err = run_capture(capsys, [
            "score", "--checkpoint", str(ckpt),
            "--manifest", str(data / "test_manifest.csv"),
            "--out-dir", str(tmp_path / "scores")])
        assert code == 2
        assert_one_line_error(err)
        assert f"{ckpt}: tensor {name} " in err
        assert not (tmp_path / "scores").exists()

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        data = small_synth(tmp_path)
        code, _, err = run_capture(capsys, [
            "score", "--checkpoint", str(tmp_path / "missing.mtfc"),
            "--manifest", str(data / "test_manifest.csv"),
            "--out-dir", str(tmp_path / "s")])
        assert code == 2
        assert err


@pytest.fixture(scope="module")
def long_videos(tmp_path_factory):
    """100 test videos of 5,000 frames each at D=8 with their curves, a
    manifest of 10 of them (5 of each class) and a checkpoint at T=8."""
    root = tmp_path_factory.mktemp("long_videos")
    synth_generate(SynthConfig(n_normal_train=1, n_abnormal_train=1,
                               n_normal_test=50, n_abnormal_test=50, d=8,
                               frames_range=(5000, 5000)), 0, out_dir=root)
    lines = (root / "test_manifest.csv").read_text().splitlines(True)
    (root / "ten_manifest.csv").write_text("".join(lines[:5] + lines[50:55]))
    assert run(["train", "--manifest", str(root / "train_manifest.csv"),
                "--out-dir", str(root / "run"), "--epochs", "1",
                "--batch-half", "1", "--seed", "1", "--t", "8",
                "--heads", "2"]) == 0
    assert run(["score", "--checkpoint", str(root / "run" / "final.mtfc"),
                "--manifest", str(root / "test_manifest.csv"),
                "--out-dir", str(root / "scores")]) == 0
    return root


def traced_peak(argv) -> int:
    """The `tracemalloc` peak, in bytes, of a successful in-process run of
    the CLI with `argv`."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["score", "eval"])
def test_peak_memory_does_not_grow_with_test_set(long_videos, tmp_path,
                                                 command):
    """`score` holds a video's snippet means, not its clips, and `eval` a
    curve's runs, not its frame scores: from 10 to 100 videos of 5,000
    frames the peak grows by less than 0.5 MB. Holding every video's
    clips, or every curve's scores, grows it by more than 4 MB."""
    peaks = []
    # The first run pays the process's one-time costs; its peak is left out.
    for manifest in ("ten_manifest.csv", "ten_manifest.csv",
                     "test_manifest.csv"):
        if command == "score":
            argv = ["score", "--out-dir", str(tmp_path / f"run{len(peaks)}"),
                    "--checkpoint", str(long_videos / "run" / "final.mtfc")]
        else:
            argv = ["eval", "--scores-dir", str(long_videos / "scores")]
        peaks.append(traced_peak(
            [*argv, "--manifest", str(long_videos / manifest)]))
    assert peaks[2] - peaks[1] < 0.5 * 2**20, peaks


def run_with_warnings(argv):
    """`mtfl` in-process: exit code, stderr, and any warning raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


class TestCurveReader:
    def test_scored_curves_parse_as_per_line_floats(self, tmp_path):
        data = small_synth(tmp_path)
        out = train_small(tmp_path, data)
        scores = tmp_path / "scores"
        assert run(["score", "--checkpoint", str(out / "final.mtfc"),
                    "--manifest", str(data / "test_manifest.csv"),
                    "--out-dir", str(scores)]) == 0
        for curve in sorted(scores.glob("*.csv")):
            expected = np.array([float(line.split(",")[1])
                                 for line in curve.read_text().splitlines()])
            assert np.array_equal(read_score_curve(curve), expected)

    def test_blank_and_whitespace_only_lines_are_skipped(self, tmp_path):
        curve = tmp_path / "v.csv"
        curve.write_text("0,0.25,0\n\n1,0.5,1\n  \t\n\r\n2, 0.75 ,0\n \n")
        assert read_score_curve(curve).tolist() == [0.25, 0.5, 0.75]

    @pytest.mark.parametrize("text", ["", "\n\n", " \n\t\n"],
                             ids=["empty", "blank", "whitespace"])
    def test_curve_without_scores_is_length_error(self, tmp_path, text):
        data = small_synth(tmp_path)
        manifest = data / "test_manifest.csv"
        victim = dataio.read_manifest(manifest, split="test").videos[0]
        scores = tmp_path / "scores"
        write_curves(scores, manifest)
        (scores / f"{victim.video_id}.csv").write_text(text)
        code, err, caught = run_with_warnings([
            "eval", "--scores-dir", str(scores), "--manifest", str(manifest)])
        assert code == 1
        assert_one_line_error(err)
        assert f"{victim.video_id}: 0 scores" in err
        assert caught == []

    def test_invalid_utf8_is_validation_error(self, tmp_path, capsys):
        data = small_synth(tmp_path)
        manifest = data / "test_manifest.csv"
        scores = tmp_path / "scores"
        write_curves(scores, manifest)
        curve = sorted(scores.glob("*.csv"))[0]
        curve.write_bytes(curve.read_bytes().replace(b"0.5", b"0\xff5", 1))
        code, _, err = run_capture(capsys, [
            "eval", "--scores-dir", str(scores), "--manifest", str(manifest)])
        assert code == 1
        assert_one_line_error(err)
        assert str(curve) in err


# A locale whose encoding is ASCII, with Python's UTF-8 fallbacks off: a
# reader that decodes text by the locale fails on any non-ASCII byte.
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


class TestTextIsUtf8:
    """Text inputs are decoded as UTF-8 whatever the locale."""

    def test_curve_with_unicode_digit(self, tmp_path, capsys):
        data = small_synth(tmp_path)
        manifest = str(data / "test_manifest.csv")
        scores = tmp_path / "scores"
        write_curves(scores, data / "test_manifest.csv")
        argv = ["eval", "--scores-dir", str(scores), "--manifest", manifest]
        capsys.readouterr()
        code, expected, _ = run_capture(capsys, argv)
        assert code == 0
        curve = sorted(scores.glob("*.csv"))[0]
        lines = curve.read_text().splitlines(True)
        lines[2] = "2,\u06600.5,0\n"  # ARABIC-INDIC DIGIT ZERO, then 0.5
        curve.write_text("".join(lines), encoding="utf-8")
        proc = run_cli_process(argv, env=ASCII_LOCALE)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")

    def test_config_file_with_non_ascii_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # `manifest` is not a synth key, so synth ignores it, but it reads
        # the whole file.
        cfg.write_text(json.dumps({"manifest": "dätä/test_manifest.csv",
                                   "normal": 2, "abnormal": 2},
                                  ensure_ascii=False),
                       encoding="utf-8")
        out = tmp_path / "data"
        proc = run_cli_process(["synth", "--config", str(cfg),
                                "--out-dir", str(out)], env=ASCII_LOCALE)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"wrote 4 train and 2 test videos to {out}\n"


def test_settable_value_count():
    """The values a user can set: every field of the four configs that is
    not itself a config, and every argument of `gradcheck_full_model`. A new
    setting changes this count."""
    hints = [get_type_hints(cls)[f.name]
             for cls in (TrainConfig, ModelConfig, LossWeights, SynthConfig)
             for f in fields(cls)]
    count = sum(not is_dataclass(kind) for kind in hints)
    count += len(inspect.signature(cli.gradcheck_full_model).parameters)
    assert count == 26


class TestConfigFilePrecedence:
    def test_config_value_used_when_flag_absent(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 4, "d": 8, "heads": 2, "seed": -1}))
        code, out, err = run_capture(capsys, ["gradcheck", "--config",
                                              str(cfg)])
        assert (code, out) == (1, "")
        assert "seed must be >= 0, got -1" in err

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # an invalid seed from the config, overridden on the line
        cfg.write_text(json.dumps({"t": 4, "d": 8, "heads": 2, "seed": -1}))
        code, out, _ = run_capture(capsys, [
            "gradcheck", "--config", str(cfg), "--seed", "0"])
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize("entry", [
        {"epochs": "ten"}, {"epochs": 2.5}, {"lr": "fast"}, {"lr": True},
        {"disable_pfl": "yes"}, {"disable_pfl": 1}, {"hidden": "wide"},
        {"hidden": [8, "x"]}, {"hidden": [8]}, {"manifest": 5},
    ], ids=json.dumps)
    def test_wrong_type_rejected_before_writing(self, tmp_path, capsys,
                                                entry):
        data = small_synth(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "manifest": str(data / "train_manifest.csv"), "epochs": 1,
            "batch_half": 2, "seed": 1, "t": 8, "heads": 2, "margin": 4,
            **entry}))
        out = tmp_path / "run"
        code, _, err = run_capture(capsys, [
            "train", "--config", str(cfg), "--out-dir", str(out)])
        assert code == 1
        assert_one_line_error(err)
        assert next(iter(entry)) in err
        assert not out.exists()

    def test_config_values_take_flag_types(self, tmp_path, capsys):
        data = small_synth(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "manifest": str(data / "train_manifest.csv"), "epochs": "1",
            "batch_half": 2, "seed": 1, "t": 8, "heads": 2, "margin": 4,
            "lr": "1e-3", "disable_pfl": True, "hidden": [8, 4]}))
        out = tmp_path / "run"
        code, _, err = run_capture(capsys, [
            "train", "--config", str(cfg), "--out-dir", str(out)])
        assert code == 0, err
        from mtfl.trainer import load_checkpoint
        tcfg, _ = load_checkpoint(out / "final.mtfc")
        assert tcfg.epochs == 1 and tcfg.learning_rate == 1e-3
        assert tcfg.model.hidden == (8, 4) and not tcfg.model.use_pfl

    @pytest.mark.parametrize("command,flag,dest,kind", every_flag())
    def test_flag_and_config_key_agree(self, tmp_path, command, flag, dest,
                                       kind):
        one, other = {int: (3, 5), float: (0.25, 0.5), str: ("a", "b"),
                      bool: (True, False)}[kind]
        cfg = tmp_path / "cfg.json"

        def parsed(config_value, line):
            argv = [command, *line]
            if config_value is not None:
                cfg.write_text(json.dumps({dest: config_value}))
                argv += ["--config", str(cfg)]
            return getattr(parse_args(argv), dest)

        assert parsed(None, on_line(flag, one)) == one
        assert parsed(one, []) == one
        assert parsed(other, on_line(flag, one)) == one

    def test_config_values_reach_only_their_own_parse(self, tmp_path):
        """The parser is built once: a config file's values must not become
        the defaults of a later parse without it."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 4, "epochs": 3}))
        assert parse_args(["gradcheck", "--config", str(cfg)]).d == 4
        assert parse_args(["train", "--config", str(cfg)]).epochs == 3
        assert parse_args(["gradcheck"]).d == 8
        assert parse_args(["train"]).epochs == TrainConfig.epochs

    def test_unknown_key_rejected_before_writing(self, tmp_path, capsys):
        data = small_synth(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "manifest": str(data / "train_manifest.csv"), "epoch": 1,
            "batch_halff": 2, "seed": 1, "t": 8, "heads": 2, "margin": 4,
            "weight_decay": 5e-4, "dropout": 0.7}))
        out = tmp_path / "run"
        code, _, err = run_capture(capsys, [
            "train", "--config", str(cfg), "--out-dir", str(out)])
        assert code == 1
        assert_one_line_error(err)
        for key in ("batch_halff", "epoch", "weight_decay", "dropout"):
            assert key in err
        assert not out.exists()

    def test_keys_of_other_commands_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "t": 4, "d": 8, "heads": 2, "checkpoint": "x.mtfc",
            "per_video": True, "normal": 2, "hidden": [8, 4]}))
        code, out, _ = run_capture(capsys, ["gradcheck", "--config", str(cfg)])
        assert code == 0
        assert "PASS" in out

    def test_bad_config_json_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run_capture(capsys, ["gradcheck", "--config", str(cfg)])
        assert code == 1
        assert "JSON" in err

    def test_config_not_utf8_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'\xff{"t": 4}')
        code, _, err = run_capture(capsys, ["gradcheck", "--config", str(cfg)])
        assert code == 1
        assert_one_line_error(err)
        assert str(cfg) in err

    @pytest.mark.parametrize("command", ["gradcheck", "train"])
    def test_config_nested_too_deep_rejected(self, tmp_path, capsys,
                                             command):
        """JSON nested deeper than the decoder recurses is not valid JSON:
        the whole file, or the value of one key."""
        deep = "[" * 200_000 + "]" * 200_000
        cfg = tmp_path / "cfg.json"
        cfg.write_text(deep if command == "gradcheck"
                       else f'{{"seed": {deep}}}')
        code, _, err = run_capture(capsys, [command, "--config", str(cfg)])
        assert code == 1
        assert_one_line_error(err)
        assert f"config file {cfg} is not valid JSON" in err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
@pytest.mark.parametrize("given", ["checkpoint", "manifest", "feature-file",
                                   "curve", "config"])
def test_input_that_is_a_fifo_is_runtime_error(tmp_path, given):
    """Reading a FIFO blocks until a writer comes, so an input path that
    names one is refused before it is opened. The child is killed at the
    timeout, so a regression fails."""
    data = small_synth(tmp_path)
    manifest = data / "test_manifest.csv"
    scores = tmp_path / "scores"
    fifo = tmp_path / "fifo"
    argv = {
        "checkpoint": ["score", "--checkpoint", str(fifo), "--manifest",
                       str(manifest), "--out-dir", str(scores)],
        "manifest": ["eval", "--manifest", str(fifo), "--scores-dir",
                     str(scores)],
        "feature-file": ["train", "--manifest",
                         str(data / "train_manifest.csv"), "--out-dir",
                         str(tmp_path / "run"), "--seed", "1"],
        "curve": ["eval", "--manifest", str(manifest), "--scores-dir",
                  str(scores)],
        "config": ["gradcheck", "--config", str(fifo)],
    }[given]
    if given == "feature-file":
        fifo = data / "fifo.mtfb"
        edit_manifest_line(data / "train_manifest.csv", 1, 3, fifo.name)
    if given == "curve":
        write_curves(scores, manifest)
        video = dataio.read_manifest(manifest, split="test").videos[0]
        fifo = scores / f"{video.video_id}.csv"
        fifo.unlink()
    os.mkfifo(fifo)
    proc = run_cli_process(argv, timeout=30)
    assert proc.returncode == 2
    assert_one_line_error(proc.stderr)
    assert f"error: {fifo}: not a regular file" in proc.stderr


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
@pytest.mark.parametrize("output", ["loss-log", "checkpoint-tmp", "curve",
                                    "synth-feature", "synth-manifest"])
def test_output_that_is_a_fifo_is_runtime_error(tmp_path, output):
    """Opening a FIFO to write blocks until a reader comes, so an output
    path that names one is refused before it is opened, and left as it is.
    The child is killed at the timeout, so a regression fails."""
    run_dir, scores = tmp_path / "run", tmp_path / "scores"
    if output.startswith("synth"):
        data = tmp_path / "data"
        argv = ["synth", "--out-dir", str(data), "--normal", "2",
                "--abnormal", "2", "--d", "4"]
        (data / "features").mkdir(parents=True)
        fifo = data / {
            "synth-feature": "features/train_normal_0000_short.mtfb",
            "synth-manifest": "train_manifest.csv"}[output]
    elif output == "curve":
        data = small_synth(tmp_path)
        checkpoint = train_small(tmp_path, data) / "final.mtfc"
        argv = ["score", "--checkpoint", str(checkpoint), "--manifest",
                str(data / "test_manifest.csv"), "--out-dir", str(scores)]
        video = dataio.read_manifest(data / "test_manifest.csv",
                                     split="test").videos[0]
        scores.mkdir()
        fifo = scores / f"{video.video_id}.csv"
    else:
        data = small_synth(tmp_path)
        argv = ["train", "--manifest", str(data / "train_manifest.csv"),
                "--out-dir", str(run_dir), "--epochs", "1", "--batch-half",
                "2", "--seed", "1", "--t", "8", "--heads", "2"]
        run_dir.mkdir()
        fifo = run_dir / {"loss-log": "loss_log.csv",
                          "checkpoint-tmp": "final.mtfc.tmp"}[output]
    os.mkfifo(fifo)
    proc = run_cli_process(argv, timeout=30)
    assert proc.returncode == 2
    assert_one_line_error(proc.stderr)
    assert f"error: {fifo}: not a regular file" in proc.stderr
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_write_past_file_size_limit_names_the_file(tmp_path):
    """A write that fails at the file-size limit raises an OSError that
    names no file. `train` under a 200 KB limit, below the size of one of
    its checkpoints, set in its own child process with SIGXFSZ ignored,
    fails writing its first checkpoint: one error line that names the
    checkpoint's .tmp, and no .tmp left behind."""
    resource = pytest.importorskip("resource")
    limit = 200_000
    params = model.init_params(ModelConfig(d=16, t=32), 0)
    assert 8 * sum(p.size for p in params.values()) > limit
    data = tmp_path / "data"
    assert run(["synth", "--out-dir", str(data), "--normal", "8",
                "--abnormal", "8", "--d", "16", "--seed", "1"]) == 0
    out = tmp_path / "run"

    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    proc = run_cli_process(
        ["train", "--manifest", str(data / "train_manifest.csv"),
         "--out-dir", str(out), "--epochs", "3", "--batch-half", "4",
         "--seed", "1", "--checkpoint-every", "5"],
        preexec_fn=limit_file_size)
    assert proc.returncode == 2
    assert_one_line_error(proc.stderr)
    assert f"{out / 'step_0000005.mtfc.tmp'}'" in proc.stderr
    assert sorted(p.name for p in out.iterdir()) == ["loss_log.csv"]


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="no SIGKILL")
def test_killed_train_leaves_loadable_checkpoints(tmp_path):
    """`train --checkpoint-every 1` in a child process, killed by SIGKILL at
    three seeded delays after its first checkpoint appears: every
    checkpoint left behind loads, and the loss log holds a row for each
    step of the newest one."""
    data = small_synth(tmp_path)
    delays = np.random.default_rng(27).uniform(0.0, 0.4, size=3)
    for i, delay in enumerate(delays):
        out = tmp_path / f"run_{i}"
        proc = cli_process(["train", "--manifest",
                            str(data / "train_manifest.csv"), "--out-dir",
                            str(out), "--epochs", "1000", "--batch-half",
                            "2", "--seed", str(i), "--t", "8", "--heads",
                            "2", "--checkpoint-every", "1"])
        try:
            deadline = time.monotonic() + 60
            while not (out / "step_0000001.mtfc").exists():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            time.sleep(delay)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signal.SIGKILL
        steps = sorted(int(c.stem.removeprefix("step_"))
                       for c in out.glob("step_*.mtfc"))
        assert steps and not (out / "final.mtfc").exists()
        for c in out.glob("*.mtfc"):
            trainer.load_checkpoint(c)
        rows = (out / "loss_log.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows[:steps[-1]]] == list(
            range(steps[-1]))


def test_readme_cli_section_matches_parser():
    """(a) Every flag on a `mtfl <command>` line of the README's usage block,
    or on an indented line that continues it, is a flag of that command.
    (b) The flags the CLI section names are exactly the parser's."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n")[1]
    section = section.split("\n## ")[0]
    commands = cli._commands(build_parser())

    def flags(p):
        return {s for a in p._actions for s in a.option_strings
                if s.startswith("--")} - {"--help"}

    usage = section.split("```\n")[1]
    for line in usage.splitlines():
        if line.startswith("mtfl "):
            command = line.split()[1]
        assert set(re.findall(r"--[a-z][a-z0-9-]*", line)) <= flags(
            commands[command]), line
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section)) - {"--help"}
    assert named == set().union(*map(flags, commands.values()))
