#!/usr/bin/env python3
"""Digest of every output of a fixed pipeline: synth, train, an ablated
train, score, eval with per-video lines, and a small gradient check. Prints
`sha256  path` for each file written, sorted by path, and one line each for
the eval and gradcheck output, so two versions of the code can be compared
with `diff`.

Usage: python3 scripts/output_digest.py [out_dir] [--epochs N]

To compare against another checkout, copy this script out of the tree and
run it with PYTHONPATH pointing at that checkout's `src`.
"""

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

from mtfl.cli import run


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("out_dir", nargs="?", default="digest_run")
    ap.add_argument("--epochs", type=int, default=20)
    args = ap.parse_args()

    root = Path(args.out_dir)
    data, scores = root / "data", root / "scores"
    train = ["train", "--manifest", str(data / "train_manifest.csv"),
             "--epochs", str(args.epochs), "--lr", "1e-3",
             "--batch-half", "8", "--seed", "3"]
    steps = [
        ["synth", "--out-dir", str(data), "--normal", "40", "--abnormal",
         "40", "--d", "16", "--seed", "7"],
        [*train, "--out-dir", str(root / "run")],
        [*train, "--out-dir", str(root / "ablated"), "--disable-pfl",
         "--disable-gtl"],
        ["score", "--checkpoint", str(root / "run" / "final.mtfc"),
         "--manifest", str(data / "test_manifest.csv"),
         "--out-dir", str(scores)],
        ["eval", "--scores-dir", str(scores),
         "--manifest", str(data / "test_manifest.csv"), "--per-video"],
        ["gradcheck", "--d", "4"],
    ]
    printed = {}  # command -> stdout
    for argv in steps:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(argv)
        if code != 0:
            sys.stdout.write(out.getvalue())
            sys.exit(code)
        printed[argv[0]] = out.getvalue()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(root)}")
    for command in ("eval", "gradcheck"):
        digest = hashlib.sha256(printed[command].encode()).hexdigest()
        print(f"{digest}  ({command} output)")


if __name__ == "__main__":
    main()
