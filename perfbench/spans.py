"""Span recording around the solver's public functions, from outside the solver.

A ``Tracer`` replaces module attributes with timing wrappers while it is
active and puts the originals back on exit, so the solver itself carries no
instrumentation. Spans nest on one thread: each records its name, start, end
and the index of the span that was open when it began.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class LayerTime:
    total: float = 0.0
    self_time: float = 0.0
    calls: int = 0


def layer_times(spans: list[Span]) -> dict[str, LayerTime]:
    """Per span name: summed duration, summed self time and call count.

    Self time is a span's duration minus the durations of its direct
    children; children of one parent never overlap, so that is exactly the
    part of the interval no child covers.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, LayerTime] = {}
    for k, s in enumerate(spans):
        lt = out.setdefault(s.name, LayerTime())
        lt.total += s.end - s.start
        lt.self_time += (s.end - s.start) - child_time[k]
        lt.calls += 1
    return out


class Tracer:
    """Collects spans and counters; patches are undone by ``restore``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def current(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def timed(self, name: str, count=None):
        """Wrapper factory: one span per call; ``count(args, kwargs, result)``
        runs after the span closes, so counting is not charged to the layer."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if count is not None:
                    count(args, kwargs, result)
                return result

            return wrapper

        return make

    def patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
