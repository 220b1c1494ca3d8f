"""Smoke tests of the experiment scripts in `scripts/`: each runs end to end
in a child process on a one-epoch budget."""

import os
import re
import subprocess
import sys
from pathlib import Path

import mtfl

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, out_dir, timeout=300):
    src = str(Path(mtfl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), str(out_dir),
         "--epochs", "1"],
        capture_output=True, text=True, timeout=timeout, env=env)


def test_synthetic_pipeline_runs(tmp_path):
    proc = run_script("run_synthetic_pipeline.py", tmp_path / "run")
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^AUC=\d\.\d{6}$", proc.stdout, re.M), proc.stdout


def test_ablations_run_every_variant(tmp_path):
    proc = run_script("run_ablations.py", tmp_path / "ablation")
    assert proc.returncode == 0, proc.stderr
    blocks = proc.stdout.split("--- variant: ")[1:]
    assert [b.split(" ")[0] for b in blocks] == ["full", "pfl", "ltl", "gtl",
                                                  "ff"]
    for block in blocks:
        assert re.search(r"^AUC=\d\.\d{6}$", block, re.M), block


def test_output_digest_is_reproducible(tmp_path):
    runs = [run_script("output_digest.py", tmp_path / name)
            for name in ("a", "b")]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout
    paths = [line.split("  ", 1)[1] for line in runs[0].stdout.splitlines()]
    for expected in ("run/final.mtfc", "run/loss_log.csv",
                     "ablated/final.mtfc", "scores/test_normal_0000.csv",
                     "data/features/train_normal_0000_short.mtfb",
                     "data/train_manifest.csv", "data/test_manifest.csv",
                     "(eval output)", "(gradcheck output)"):
        assert expected in paths, runs[0].stdout
