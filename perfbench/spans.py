"""Outside-in tracing for the benchmark.

A `Tracer` replaces module attributes of the program with wrappers that
record one span per call (name, start, end, parent span) and, where a tape
is reachable from the arguments or the result, the number of tape nodes at
that boundary. It wraps the attribute the caller looks up: `trainer.py`
imports `to_multiscale` and `backward_from` by name, so those are patched
on `mtfl.trainer`, not on the modules that define them.

Spans are strictly nested (the program is single-threaded in the
benchmark), so a span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_s: float = 0.0
    nodes: int | None = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    @property
    def self_ms(self) -> float:
        return self.ms - self.child_s * 1e3


# A tape finder maps (args, result) to the tape whose nodes are counted.
# With `added`, the count is the nodes the call appended to a tape that
# exists before it; otherwise it is the length of the tape after the call.
@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    span: str
    tape_of: Callable | None = None
    added: bool = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: dict[str, str] = {}
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int):
        span = self.spans[index]
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def install(self, targets):
        """Wrap every target; a target that no longer exists is recorded in
        `missing` with the reason instead of failing the run."""
        for target in targets:
            module = importlib.import_module(target.module)
            original = getattr(module, target.attr, None)
            if not callable(original):
                self.missing[target.span] = (
                    f"{target.module}.{target.attr} does not exist")
                continue
            setattr(module, target.attr, self._wrapper(target, original))
            self._installed.append((module, target.attr, original))

    def restore(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _wrapper(self, target: Target, original):
        tracer = self

        def wrapper(*args, **kwargs):
            base = (len(target.tape_of(args, None).nodes)
                    if target.added else 0)
            index = tracer.begin(target.span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if target.tape_of is not None:
                tracer.spans[index].nodes = (
                    len(target.tape_of(args, result).nodes) - base)
            return result

        return wrapper

    def roots(self) -> list[str]:
        """Name of the outermost span enclosing each span (itself if top)."""
        out: list[str] = []
        for span in self.spans:
            out.append(span.name if span.parent is None else out[span.parent])
        return out
