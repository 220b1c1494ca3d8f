"""Workloads, set-up, the measured loop, the correctness gate and the
metrics computed from them.

Every workload drives the real CLI (`mtfl.cli.run`) in this process. Set-up
makes the synthetic inputs with `dataio.synth_generate`. Each iteration of
the measured loop then trains from scratch, scores the test split with the
checkpoint that training wrote, and evaluates the curves. All iterations of
a run use the same seed, so each must reproduce the first one bit for bit;
that is the determinism part of the gate.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mtfl import cli, dataio
from mtfl import metrics as mtfl_metrics
from mtfl.dataio import SynthConfig

import calibrate
from spans import Target, Tracer

SETUP_REPS = 3           # at least this many set-ups,
SETUP_MIN_S = 2.0        # and at least this long in all
CAL_REPS = 4             # reference-work samples before each timed call
MIN_ITERATIONS = 2
# The step tail is p90 of at least 100 steps, so that at least 10 lie
# beyond it. The percentile is fixed, not the highest the sample count
# allows: a run on a slow host would otherwise report a lower percentile.
TAIL_PERCENTILE = 90.0
TAIL_MIN_STEPS = 100


@dataclass(frozen=True)
class Workload:
    synth: dict
    epochs: int
    batch_half: int
    checkpoint_every: int
    # Eval calls per iteration. An eval of 40k frames lasts ~0.1 s, and one
    # such call per iteration gave too few samples to steady the median.
    evals: int = 1

    def steps(self) -> int:
        """Training steps per iteration: epochs times the trainer's
        steps_per_epoch rule, ceil(largest class / batch half)."""
        cfg = SynthConfig(**self.synth)
        largest = max(cfg.n_normal_train, cfg.n_abnormal_train)
        return self.epochs * -(-largest // self.batch_half)


# Why each workload exists is recorded in BENCHMARK.json. `train_wide` (the
# `train` pipeline at D=256, GEMM-bound) is not listed there: its figures
# followed the speed drift of a shared 2-core host too closely (README.md).
WORKLOADS = {
    "train": Workload(synth=dict(n_normal_test=40, n_abnormal_test=40, d=16),
                      epochs=4, batch_half=8, checkpoint_every=10, evals=4),
    "train_wide": Workload(synth=dict(n_normal_test=40, n_abnormal_test=40,
                                      d=256),
                           epochs=3, batch_half=8, checkpoint_every=5,
                           evals=4),
    "score_eval": Workload(
        synth=dict(n_normal_train=8, n_abnormal_train=8, n_normal_test=100,
                   n_abnormal_test=100, d=16, frames_range=(2000, 8000)),
        epochs=21, batch_half=8, checkpoint_every=5),
}


def _first_arg_tape(args, result):
    return args[0].tape


# The untraced run only timestamps step boundaries: a step starts when the
# trainer asks for its batch.
STEP_TARGETS = (Target("mtfl.trainer", "sample_batch", "trainer.sample"),)

LAYER_TARGETS = STEP_TARGETS + (
    Target("mtfl.dataio", "synth_generate", "dataio.synth"),
    Target("mtfl.dataio", "read_manifest", "dataio.read_manifest"),
    Target("mtfl.trainer", "to_multiscale", "dataio.to_multiscale"),
    Target("mtfl.trainer", "batch_gradients", "trainer.batch_gradients"),
    Target("mtfl.trainer", "adam_step", "trainer.adam"),
    Target("mtfl.trainer", "save_checkpoint", "trainer.checkpoint_save"),
    Target("mtfl.trainer", "load_checkpoint", "trainer.checkpoint_load"),
    Target("mtfl.trainer", "score_video", "trainer.score_video"),
    Target("mtfl.trainer", "backward_from", "diffcore.backward_from",
           lambda args, result: args[0]),
    Target("mtfl.trainer", "backward", "diffcore.backward",
           _first_arg_tape),
    Target("mtfl.model", "forward", "model.forward",
           lambda args, result: result[0]),
    Target("mtfl.model", "pfl_forward", "model.pfl", _first_arg_tape, True),
    Target("mtfl.model", "ltl_forward", "model.ltl", _first_arg_tape, True),
    Target("mtfl.model", "gtl_forward", "model.gtl", _first_arg_tape, True),
    Target("mtfl.model", "ff_fuse", "model.ff", _first_arg_tape, True),
    Target("mtfl.model", "classify", "model.clf", _first_arg_tape, True),
    Target("mtfl.objective", "total_loss", "objective.loss",
           lambda args, result: result[0].tape),
    Target("mtfl.metrics", "evaluate", "metrics.evaluate"),
    Target("mtfl.metrics", "roc_auc", "metrics.roc_auc"),
    Target("mtfl.metrics", "average_precision", "metrics.average_precision"),
    Target("mtfl.metrics", "export_score_curve", "metrics.export_curve"),
    Target("mtfl.metrics", "expand_to_frames", "metrics.expand"),
    Target("mtfl.cli", "_cmd_train", "cli.train"),
    Target("mtfl.cli", "_cmd_score", "cli.score"),
    Target("mtfl.cli", "_cmd_eval", "cli.eval"),
)

STAGES = ("pfl", "ltl", "gtl", "ff", "clf")
SWEEPS = ("diffcore.backward_from", "diffcore.backward")


@dataclass
class Iteration:
    traced: bool
    spans: tuple[int, int] = (0, 0)
    wall_s: dict = field(default_factory=dict)   # command -> [seconds]
    step_ms: list = field(default_factory=list)
    steps: int = 0

    def seconds(self) -> float:
        return sum(sum(times) for times in self.wall_s.values())


@dataclass
class Reference:
    """What the first successful iteration produced."""
    loss_digest: str
    curves_digest: str
    eval_values: dict
    loss_mean: float
    auc: float


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _eval_values(stdout: str) -> dict:
    """`KEY=value` tokens that `mtfl eval` prints, kept as strings."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.strip().partition("=")
        if sep and key in ("AUC", "AP"):
            out[key] = value
    return out


def _matches(printed: str, exact: float) -> bool:
    """A printed decimal equals `exact` to the digits it shows."""
    decimals = len(printed.partition(".")[2])
    return abs(float(printed) - exact) <= 0.5 * 10.0 ** -decimals + 1e-12


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
        self.tracer = Tracer()
        self.attempted = 0
        self.failures: set = set()
        self.errors: list[str] = []
        self.reference: Reference | None = None
        self.counts: dict | None = None
        self.iterations: list[Iteration] = []
        self.setup_s: list[float] = []
        self.cal_ms: list[float] = []    # reference-work samples of the run
        self.write_s = 0.0
        self.tail: dict = {}

    # -- running -----------------------------------------------------------

    def run(self):
        try:
            self.setup()
            measured = 0.0
            # Calls that fail at once add little measured time; the wall-clock
            # deadline keeps such a run from looping until it is killed.
            deadline = time.perf_counter() + 2 * self.seconds + 30
            while (len(self.iterations) < self._min_iterations()
                   or ((measured < self.seconds or self._short_of_steps())
                       and time.perf_counter() < deadline)):
                # In a traced run, traced and untraced iterations alternate
                # so that the tracing overhead is measured side by side.
                traced = self.trace and len(self.iterations) % 2 == 1
                it = self.iteration(traced)
                measured += it.seconds()
        finally:
            self.tracer.restore()
            shutil.rmtree(self.work, ignore_errors=True)

    def _min_iterations(self) -> int:
        return 2 * MIN_ITERATIONS if self.trace else MIN_ITERATIONS

    def _short_of_steps(self) -> bool:
        """An untraced run needs TAIL_MIN_STEPS step times for its tail."""
        return (not self.trace and sum(len(it.step_ms) for it in
                                       self.iterations) < TAIL_MIN_STEPS)

    def setup(self):
        """Write the inputs once, then generate them and load them back at
        least SETUP_REPS times and SETUP_MIN_S seconds; set-up time is the
        median, so work moved into set-up shows. File creation is timed once
        and kept out of `setup_s`: on a shared disk it swung threefold
        between runs of the same code while generating and loading stayed
        steady."""
        cfg = SynthConfig(**self.wl.synth)
        self.data = self.work / "data"
        t0 = time.perf_counter()
        dataio.synth_generate(cfg, self.seed, out_dir=self.data)
        self.write_s = time.perf_counter() - t0
        if self.trace:
            self.tracer.install(LAYER_TARGETS)
        try:
            while (len(self.setup_s) < SETUP_REPS
                   or sum(self.setup_s) < SETUP_MIN_S):
                self.sample_speed()
                with self.tracer.span("setup"):
                    t0 = time.perf_counter()
                    dataio.synth_generate(cfg, self.seed)
                    dataio.read_manifest(self.data / "train_manifest.csv",
                                         "train")
                    test = dataio.read_manifest(
                        self.data / "test_manifest.csv", "test")
                    self.setup_s.append(time.perf_counter() - t0)
        finally:
            self.tracer.restore()
        self.test_videos = test.videos
        self.frames = sum(v.n_frames for v in test.videos)

    def sample_speed(self):
        self.cal_ms += [calibrate.sample() for _ in range(CAL_REPS)]

    @property
    def speed(self) -> float:
        """Multiplier from the times of this run to the reference host
        speed: one factor per run, so it scales a run's percentiles
        without widening them."""
        return calibrate.REFERENCE_MS / statistics.median(self.cal_ms)

    def call(self, index: int, command: str, argv: list[str], it: Iteration):
        times = it.wall_s.setdefault(command, [])
        nth = len(times)
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        # Collect the previous call's cyclic garbage (every tape is a cycle)
        # here, so that it is not charged to whichever call runs next.
        gc.collect()
        self.sample_speed()
        with self.tracer.span(f"call.{command}"):
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    rc = cli.run([command, *argv])
            except Exception as e:  # a crash is a failed call, not a stop
                rc = f"{type(e).__name__}: {e}"
            times.append(time.perf_counter() - t0)
        if rc != 0:
            self.fail(index, command,
                      f"exit {rc}: {err.getvalue().strip()[-300:]}", nth)
        return rc == 0, out.getvalue()

    def fail(self, index: int, command: str, message: str, nth: int = 0):
        """Count the nth `command` call of iteration `index` as failed."""
        self.failures.add((index, command, nth))
        if len(self.errors) < 20:
            self.errors.append(f"iteration {index} {command}: {message}")

    def iteration(self, traced: bool) -> Iteration:
        index = len(self.iterations)
        it = Iteration(traced=traced)
        run_dir, scores = self.work / "run", self.work / "scores"
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(scores, ignore_errors=True)
        train_manifest = str(self.data / "train_manifest.csv")
        test_manifest = str(self.data / "test_manifest.csv")
        wl = self.wl

        self.tracer.install(LAYER_TARGETS if traced else STEP_TARGETS)
        first = len(self.tracer.spans)
        try:
            ok_train, _ = self.call(index, "train", [
                "--manifest", train_manifest, "--out-dir", str(run_dir),
                "--epochs", str(wl.epochs), "--lr", "1e-3",
                "--batch-half", str(wl.batch_half), "--seed", str(self.seed),
                "--checkpoint-every", str(wl.checkpoint_every)], it)
            ok_score, _ = self.call(index, "score", [
                "--checkpoint", str(run_dir / "final.mtfc"),
                "--manifest", test_manifest, "--out-dir", str(scores)], it)
            evals = [self.call(index, "eval", [
                "--scores-dir", str(scores), "--manifest", test_manifest], it)
                for _ in range(wl.evals)]
        finally:
            self.tracer.restore()
        it.spans = (first, len(self.tracer.spans))
        self._step_times(it)
        self.iterations.append(it)
        if ok_train and ok_score and all(ok for ok, _ in evals):
            self.check(index, run_dir, scores,
                       [_eval_values(out) for _, out in evals])
        if traced:
            self._check_counts(index, it)
        return it

    def _step_times(self, it: Iteration):
        """Step i lasts from its batch request to the next one, within one
        train call; the last step of a call has no end mark and is left out."""
        lo, hi = it.spans
        roots = self.tracer.roots()
        starts = [s.start for s, r in zip(self.tracer.spans[lo:hi],
                                          roots[lo:hi])
                  if s.name == "trainer.sample" and r == "call.train"]
        it.steps = len(starts)
        it.step_ms = [(b - a) * 1e3 for a, b in zip(starts, starts[1:])]

    # -- correctness -------------------------------------------------------

    def check(self, index: int, run_dir: Path, scores: Path,
              printed: list[dict]):
        log = run_dir / "loss_log.csv"
        rows = log.read_text().splitlines()[1:]
        if len(rows) != self.wl.steps():
            self.fail(index, "train", f"{len(rows)} loss rows, expected "
                      f"{self.wl.steps()}")
            return
        loss_digest = _digest([log])
        curve_files = sorted(scores.glob("*.csv"))
        curves_digest = _digest(curve_files)
        if self.reference is None:
            self.reference = self._first_check(index, rows, loss_digest,
                                               scores, curves_digest,
                                               printed[0])
            if self.reference is None:
                return
        ref = self.reference
        # Same seed, same inputs: everything must repeat bit for bit.
        if loss_digest != ref.loss_digest:
            self.fail(index, "train", "loss log differs from the first "
                      "iteration with the same seed")
        if curves_digest != ref.curves_digest:
            self.fail(index, "score", "score curves differ from the first "
                      "iteration with the same seed")
        for nth, values in enumerate(printed):
            if values != ref.eval_values:
                self.fail(index, "eval", f"printed {values}, first eval "
                          f"printed {ref.eval_values}", nth)

    def _first_check(self, index, rows, loss_digest, scores, curves_digest,
                     values) -> Reference | None:
        expected = {f"{v.video_id}.csv" for v in self.test_videos}
        written = {p.name for p in scores.glob("*.csv")}
        if written != expected:
            self.fail(index, "score", f"{len(written)} curves for "
                      f"{len(expected)} test videos")
            return None
        frame_scores = {}
        for v in self.test_videos:
            lines = (scores / f"{v.video_id}.csv").read_text().splitlines()
            try:
                s = np.array([float(line.split(",")[1]) for line in lines])
            except (IndexError, ValueError) as e:
                self.fail(index, "score", f"{v.video_id}: unparsable line: {e}")
                return None
            if s.size != v.n_frames or not np.all(np.isfinite(s)) \
                    or s.min() < 0.0 or s.max() > 1.0:
                self.fail(index, "score", f"{v.video_id}: {s.size} lines for "
                          f"{v.n_frames} frames, or a score outside [0,1]")
                return None
            frame_scores[v.video_id] = s
        report = mtfl_metrics.evaluate(self.test_videos, frame_scores)
        if set(values) != {"AUC", "AP"} \
                or not _matches(values["AUC"], report.auc) \
                or not _matches(values["AP"], report.ap):
            self.fail(index, "eval", f"printed {values}, metrics.evaluate "
                      f"gives AUC={float(report.auc)!r} "
                      f"AP={float(report.ap)!r}")
            return None
        totals = [float(r.split(",")[5]) for r in rows]
        return Reference(loss_digest=loss_digest, curves_digest=curves_digest,
                         eval_values=values, loss_mean=float(np.mean(totals)),
                         auc=float(report.auc))

    def _check_counts(self, index: int, it: Iteration):
        """Calls and tape nodes at every traced boundary must repeat exactly
        from one traced iteration to the next."""
        counts: dict[str, list[int]] = {}
        lo, hi = it.spans
        for s in self.tracer.spans[lo:hi]:
            entry = counts.setdefault(s.name, [0, 0])
            entry[0] += 1
            entry[1] += s.nodes or 0
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            self.fail(index, "train", "call or tape-node counts differ from "
                      "the previous traced iteration")

    # -- results -----------------------------------------------------------

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.failures and self.reference is not None

    def end_to_end(self, normalized: bool = True) -> dict:
        """Times read at the reference host speed (calibrate.py), or as
        measured when `normalized` is false."""
        its = [it for it in self.iterations if not it.traced]
        speed = self.speed if normalized else 1.0
        steps = [ms * speed for it in its for ms in it.step_ms] or [0.0]
        videos_per_step = 2 * self.wl.batch_half
        ref = self.reference
        self.tail = {"percentile": TAIL_PERCENTILE, "samples": len(steps)}
        def per_second(command, amount):
            return statistics.median(amount(it) / (t * speed) for it in its
                                     for t in it.wall_s[command])

        return {
            "setup_s": (statistics.median(self.setup_s) * speed, "s"),
            "train_videos_per_s": (per_second(
                "train", lambda it: it.steps * videos_per_step), "videos/s"),
            "train_step_ms.p50": (float(np.percentile(steps, 50)), "ms"),
            "train_step_ms.tail": (float(np.percentile(steps,
                                                       TAIL_PERCENTILE)),
                                   "ms"),
            "score_frames_per_s": (per_second(
                "score", lambda it: self.frames), "frames/s"),
            "eval_frames_per_s": (per_second(
                "eval", lambda it: self.frames), "frames/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
            "test_auc": (ref.auc if ref else 0.0, "ratio"),
            "loss_mean": (ref.loss_mean if ref else 0.0, "loss"),
            "call_success_rate": (1.0 - self.failed / self.attempted,
                                  "ratio"),
        }

    def per_layer(self) -> dict:
        spans, roots = self.tracer.spans, self.tracer.roots()
        traced = [it for it in self.iterations if it.traced]
        phase: dict[str, list] = {"call.train": [], "call.score": [],
                                  "call.eval": []}
        for it in traced:
            lo, hi = it.spans
            for s, r in zip(spans[lo:hi], roots[lo:hi]):
                phase[r].append(s)
        train, score, ev = (phase["call.train"], phase["call.score"],
                            phase["call.eval"])
        steps = sum(it.steps for it in traced)
        videos = sum(1 for s in train if s.name == "model.forward")

        def total(group, *names):
            return sum(s.ms for s in group if s.name in names)

        def self_total(group, name):
            return sum(s.self_ms for s in group if s.name == name)

        def calls(group, *names):
            return sum(1 for s in group if s.name in names)

        def nodes(group, *names):
            return sum(s.nodes or 0 for s in group if s.name in names)

        def per(value, n):
            return value / n if n else 0.0

        def per_call(group, name):
            return per(total(group, name), calls(group, name))

        n_score = calls(score, "call.score")
        n_eval = calls(ev, "call.eval")

        everything = [s for s in spans if s.name == "dataio.read_manifest"]
        synth = [s.ms / 1e3 for s in spans if s.name == "dataio.synth"]
        step_ms = [ms for it in traced for ms in it.step_ms]
        covered = self._covered_ms(traced)
        untraced_wall = [it.seconds() for it in self.iterations
                         if not it.traced]
        traced_wall = [it.seconds() for it in traced]
        overhead = (statistics.median(traced_wall)
                    - statistics.median(untraced_wall)) * 1e3

        out = {
            "dataio.synth_s": (statistics.median(synth) if synth else 0.0, "s"),
            "dataio.read_manifest_ms": (per(
                sum(s.ms for s in everything), len(everything)), "ms/call"),
            "dataio.to_multiscale_ms": (per(
                total(train, "dataio.to_multiscale"), steps), "ms/step"),
            "dataio.to_multiscale_calls": (per(
                calls(train, "dataio.to_multiscale"), steps), "calls/step"),
            "diffcore.tape_nodes": (per(nodes(train, *SWEEPS), steps),
                                    "nodes/step"),
            "diffcore.backward_ms": (per(total(train, *SWEEPS), steps),
                                     "ms/step"),
            "diffcore.backward_calls": (per(calls(train, *SWEEPS), steps),
                                        "calls/step"),
            "model.forward_ms": (per(total(train, "model.forward"), steps),
                                 "ms/step"),
            "model.forward.self_ms": (per(self_total(train, "model.forward"),
                                          steps), "ms/step"),
            "model.forward.nodes": (per(nodes(train, "model.forward"),
                                        videos), "nodes/video"),
        }
        for stage in STAGES:
            out[f"model.{stage}_ms"] = (per(total(train, f"model.{stage}"),
                                            steps), "ms/step")
            out[f"model.{stage}.nodes"] = (per(nodes(train, f"model.{stage}"),
                                               videos), "nodes/video")
        out.update({
            "objective.loss_ms": (per(total(train, "objective.loss"), steps),
                                  "ms/step"),
            "objective.loss_nodes": (per(nodes(train, "objective.loss"),
                                         steps), "nodes/step"),
            "trainer.step_ms": (float(np.percentile(step_ms, 50))
                                if step_ms else 0.0, "ms"),
            "trainer.step_coverage": (per(100.0 * covered, sum(step_ms)),
                                      "%"),
            "trainer.sample_ms": (per(total(train, "trainer.sample"), steps),
                                  "ms/step"),
            "trainer.batch_gradients.self_ms": (per(self_total(
                train, "trainer.batch_gradients"), steps), "ms/step"),
            "trainer.adam_ms": (per(total(train, "trainer.adam"), steps),
                                "ms/step"),
            "trainer.checkpoint_save_ms": (per_call(
                train, "trainer.checkpoint_save"), "ms/call"),
            "trainer.checkpoint_load_ms": (per_call(
                score, "trainer.checkpoint_load"), "ms/call"),
            "trainer.score_video_ms": (per_call(score, "trainer.score_video"),
                                       "ms/video"),
            "metrics.export_curve_ms": (per(total(
                score, "metrics.export_curve"), n_score), "ms/score"),
            "metrics.expand_ms": (per(total(score, "metrics.expand"),
                                      n_score), "ms/score"),
            "cli.score.self_ms": (per(self_total(score, "cli.score"),
                                      n_score), "ms/score"),
            "metrics.evaluate_ms": (per(total(ev, "metrics.evaluate"),
                                        n_eval), "ms/eval"),
            "metrics.roc_auc_ms": (per(total(ev, "metrics.roc_auc"),
                                       n_eval), "ms/eval"),
            "metrics.average_precision_ms": (per(total(
                ev, "metrics.average_precision"), n_eval), "ms/eval"),
            "cli.eval.self_ms": (per(self_total(ev, "cli.eval"), n_eval),
                                 "ms/eval"),
            "trace.overhead_ms": (overhead, "ms/iteration"),
            "trace.overhead_pct": (per(100.0 * overhead,
                                       statistics.median(untraced_wall)
                                       * 1e3), "%"),
        })
        # Times read at the reference host speed, like the end-to-end ones.
        for name, (value, unit) in out.items():
            if unit in ("s", "ms") or unit.startswith("ms/"):
                out[name] = (value * self.speed, unit)
        return out

    def _covered_ms(self, traced) -> float:
        """Time inside the sample, batch_gradients and adam spans of the
        steps that `step_ms` measures (every step but the last of a call)."""
        covered = 0.0
        spans, roots = self.tracer.spans, self.tracer.roots()
        for it in traced:
            lo, hi = it.spans
            train = [s for s, r in zip(spans[lo:hi], roots[lo:hi])
                     if r == "call.train"]
            starts = [s.start for s in train if s.name == "trainer.sample"]
            if len(starts) < 2:
                continue
            covered += sum(s.ms for s in train
                           if s.name in ("trainer.sample",
                                         "trainer.batch_gradients",
                                         "trainer.adam")
                           and starts[0] <= s.start < starts[-1])
        return covered
