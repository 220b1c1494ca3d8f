"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`."""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pipeline  # noqa: E402
from spans import Target, Tracer  # noqa: E402

COUNT_METRICS = (
    "dataio.to_multiscale_calls", "diffcore.tape_nodes",
    "diffcore.backward_calls", "objective.loss_nodes", "model.forward.nodes",
    *(f"model.{stage}.nodes" for stage in pipeline.STAGES),
)

TINY = pipeline.Workload(
    synth=dict(n_normal_train=4, n_abnormal_train=4, n_normal_test=2,
               n_abnormal_test=2, d=8),
    epochs=2, batch_half=2, checkpoint_every=3, evals=2)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(pipeline.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(pipeline, "TAIL_MIN_STEPS", 0)
    monkeypatch.setattr(pipeline, "SETUP_MIN_S", 0.0)

    def run(trace):
        bench = pipeline.Bench(tmp_path, "tiny", seed=3, seconds=0,
                               trace=trace)
        bench.run()
        assert bench.correct, bench.errors
        return bench
    return run


def test_counts_repeat_exactly_across_runs(tiny):
    first, second = tiny(True).per_layer(), tiny(True).per_layer()
    for name in COUNT_METRICS:
        assert first[name][0] > 0, name
        assert first[name] == second[name], name


def test_untraced_run_reports_every_end_to_end_metric(tiny):
    bench = tiny(False)
    metrics = bench.end_to_end()
    assert bench.attempted == (2 + TINY.evals) * len(bench.iterations)
    assert all(value > 0 for value, _ in metrics.values()), metrics
    assert not bench.work.exists()


def test_times_are_read_at_the_reference_speed(tiny, monkeypatch):
    import calibrate
    monkeypatch.setattr(calibrate, "sample",
                        lambda: 2 * calibrate.REFERENCE_MS)
    bench = tiny(False)
    scaled, measured = bench.end_to_end(), bench.end_to_end(normalized=False)
    assert scaled["setup_s"][0] == pytest.approx(measured["setup_s"][0] / 2)
    assert scaled["train_step_ms.p50"][0] == pytest.approx(
        measured["train_step_ms.p50"][0] / 2)
    assert scaled["eval_frames_per_s"][0] == pytest.approx(
        measured["eval_frames_per_s"][0] * 2)
    assert scaled["test_auc"] == measured["test_auc"]


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    outer, inner = tracer.spans
    assert inner.parent == 0
    assert outer.self_ms == pytest.approx(outer.ms - inner.ms)
    assert outer.self_ms >= 9.0
    assert tracer.roots() == ["outer", "outer"]


def test_missing_target_is_reported_not_raised():
    tracer = Tracer()
    tracer.install([Target("mtfl.trainer", "no_such_function", "gone")])
    assert "gone" in tracer.missing
    tracer.restore()


def test_wrappers_are_removed_after_a_run(tiny):
    import mtfl.trainer
    original = mtfl.trainer.sample_batch
    tiny(True)
    assert mtfl.trainer.sample_batch is original


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
