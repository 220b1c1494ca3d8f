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
