import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mtfl
from mtfl import cli, dataio
from mtfl.cli import (CliError, _read_curve_scores, build_parser, parse_args,
                      run)
from mtfl.container import FormatError
from mtfl.dataio import SynthConfig, synth_generate, write_feature_file

from test_trainer import (edited_header, first_name_offset, header_of,
                          older_header, with_header)


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


def run_cli_process(argv, timeout=60):
    """The CLI in a child process, killed after `timeout` seconds."""
    src = str(Path(mtfl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "mtfl.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


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

    @pytest.mark.parametrize("heads", ["0", "-2"])
    def test_heads_below_one_is_validation_error(self, capsys, heads):
        code, _, err = run_capture(capsys, ["gradcheck", "--heads", heads])
        assert code == 1
        assert_one_line_error(err)
        assert f"heads must be >= 1, got {heads}" in err

    def test_negative_seed_is_validation_error(self, capsys):
        code, _, err = run_capture(capsys, ["gradcheck", "--seed", "-1"])
        assert code == 1
        assert_one_line_error(err)
        assert "seed must be >= 0, got -1" in err


class TestSynthCommand:
    def test_writes_manifests_and_features(self, tmp_path):
        data = small_synth(tmp_path)
        assert (data / "train_manifest.csv").exists()
        assert (data / "test_manifest.csv").exists()
        ds = dataio.read_manifest(data / "train_manifest.csv")
        assert len(ds.videos) == 8

    @pytest.mark.parametrize("flags", [
        ["--noise", "inf"], ["--noise", "nan"], ["--noise", "-1"],
        ["--boost", "inf"], ["--boost", "nan"], ["--seed", "-1"],
    ], ids=lambda flags: " ".join(flags))
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
        ["--weight-decay", "nan"], ["--weight-decay", "inf"],
        ["--weight-decay", "-1"], ["--k", "5", "--t", "4"],
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
        data = small_synth(tmp_path)
        ckpt = train_small(tmp_path, data) / "final.mtfc"
        raw = ckpt.read_bytes()
        ckpt.write_bytes(with_header(raw, older_header(
            json.loads(header_of(raw)))))
        code, _, err = run_capture(capsys, [
            "score", "--checkpoint", str(ckpt),
            "--manifest", str(data / "test_manifest.csv"),
            "--out-dir", str(tmp_path / "scores")])
        assert code == 0, err

    @pytest.mark.parametrize("edit", [
        lambda h: b"{not json",
        lambda h: b'{"train": {}, "step": 0, "seed": 0}',
        lambda h: older_header(h, beta1=0.95),
        lambda h: older_header(h, lm=3),
        lambda h: older_header(h, halves=(2, 3)),
        lambda h: edited_header(h, model={"heads": 0}),
    ], ids=["invalid-json", "empty-train-config", "retired-beta1-changed",
            "retired-dilation-changed", "unequal-batch-halves", "heads-0"])
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
        assert victim.video_id in proc.stderr

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
        assert victim.video_id in err

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

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        data = small_synth(tmp_path)
        code, _, err = run_capture(capsys, [
            "score", "--checkpoint", str(tmp_path / "missing.mtfc"),
            "--manifest", str(data / "test_manifest.csv"),
            "--out-dir", str(tmp_path / "s")])
        assert code == 2
        assert err


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
            assert np.array_equal(_read_curve_scores(curve), expected)

    def test_blank_and_whitespace_only_lines_are_skipped(self, tmp_path):
        curve = tmp_path / "v.csv"
        curve.write_text("0,0.25,0\n\n1,0.5,1\n  \t\n\r\n2, 0.75 ,0\n \n")
        assert _read_curve_scores(curve).tolist() == [0.25, 0.5, 0.75]

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


class TestConfigFilePrecedence:
    def test_config_value_used_when_flag_absent(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 4, "d": 8, "heads": 2, "seed": 0,
                                   "tol": 1e-4}))
        code, out, _ = run_capture(capsys, ["gradcheck", "--config", str(cfg)])
        assert code == 0
        assert "PASS" in out

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # an impossible tolerance from the config, overridden on the line
        cfg.write_text(json.dumps({"tol": 0.0}))
        code, out, _ = run_capture(capsys, [
            "gradcheck", "--config", str(cfg), "--tol", "1e-4"])
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
        tcfg, _, _ = load_checkpoint(out / "final.mtfc")
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

    def test_unknown_key_rejected_before_writing(self, tmp_path, capsys):
        data = small_synth(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "manifest": str(data / "train_manifest.csv"), "epoch": 1,
            "batch_halff": 2, "seed": 1, "t": 8, "heads": 2, "margin": 4}))
        out = tmp_path / "run"
        code, _, err = run_capture(capsys, [
            "train", "--config", str(cfg), "--out-dir", str(out)])
        assert code == 1
        assert_one_line_error(err)
        assert "batch_halff" in err and "epoch" in err
        assert not out.exists()

    def test_keys_of_other_commands_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "t": 4, "d": 8, "heads": 2, "checkpoint": "x.mtfc",
            "per_video": True, "noise": 2.0, "hidden": [8, 4]}))
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
