"""A fixed piece of reference work that tracks the host's speed.

On a shared host the same code runs up to 1.6 times slower for minutes at
a time while other tenants are busy, and a 40-second run can fall wholly
inside such a phase. The harness times this reference work between CLI
calls and reports every time as it would read at the reference speed:
a measured time is multiplied by `REFERENCE_MS / median(sample())` of its
run. The work mixes what the program spends its time on: interpreter
loops, small GEMMs and the formatting and parsing of text lines. It does
not import the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Median of `sample()` on the host the bounds were set on (2-core x86 VM,
# Python 3.11, numpy 2 with OpenBLAS, one BLAS thread).
REFERENCE_MS = 5.9

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((32, 16))
_W = _rng.standard_normal((16, 64))
_V = _rng.standard_normal(1500)


def _work():
    s = 0
    for i in range(20000):
        s += i * i
    for _ in range(150):
        np.maximum(_X @ _W, 0.0).sum()
    lines = [f"{i},{x:.6f}" for i, x in enumerate(_V)]
    return s + sum(float(line.split(",")[1]) for line in lines)


def sample() -> float:
    """Milliseconds one run of the reference work takes now."""
    t0 = time.perf_counter()
    _work()
    return (time.perf_counter() - t0) * 1e3

