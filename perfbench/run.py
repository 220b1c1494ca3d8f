"""mtfl benchmark.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports `mtfl` from its `src/`.
With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
per-layer metrics of the outside-in traced run. The last line of standard
output is the result object; the line before it holds the details (the
environment record, sample counts, errors and untraceable targets).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

# Fixed before numpy loads: one process, one BLAS thread, so a step's time
# does not depend on what else the machine is running.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    here = Path(__file__).resolve().parent
    root = here.parent
    if not (root / "src" / "mtfl" / "__init__.py").is_file():
        print(f"error: no mtfl sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(here)]

    import calibrate
    import environment
    import pipeline

    if args.workload not in pipeline.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    bench = pipeline.Bench(root, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    bench.run()
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment.record(root),
        "iterations": len(bench.iterations),
        "traced_iterations": sum(it.traced for it in bench.iterations),
        "setup_s": bench.setup_s,
        "reference_ms": calibrate.REFERENCE_MS,
        "calibration_ms": statistics.median(bench.cal_ms),
        "as_measured": None if args.trace else {
            name: value for name, (value, _) in
            bench.end_to_end(normalized=False).items()},
        "input_write_s": bench.write_s,
        "call_s": {command: [it.wall_s.get(command) for it in bench.iterations]
                   for command in ("train", "score", "eval")},
        "tail": bench.tail,
        "error_rate": bench.failed / bench.attempted,
        "errors": bench.errors,
        "missing": bench.tracer.missing,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
