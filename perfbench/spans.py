"""In-memory spans recorded around calls from the benchmark into skewlab.

A span has a name, start, end, parent and job id, plus counters recorded
at the same boundary.  With recording off, `span` records nothing and
drops counters, so the untraced replay runs the same code path.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: str
    counts: dict = field(default_factory=dict)
    peak_bytes: Optional[int] = None


class _Off:
    """Stand-in span for untraced runs: accepts counters and drops them."""

    def count(self, name: str, value: float) -> None:
        pass


_OFF = _Off()


class _Live:
    def __init__(self, span: Span):
        self.span = span

    def count(self, name: str, value: float) -> None:
        self.span.counts[name] = self.span.counts.get(name, 0) + value


class Tracer:
    """Records spans when `enabled`.  Spans named in `peaks` also get the
    peak of the memory allocated while they run, from tracemalloc, which is
    on only inside them (it slows Python code, so a peak pass is separate)."""

    def __init__(self, enabled: bool, peaks: frozenset = frozenset()):
        self.enabled = enabled
        self.peaks = peaks
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = ""

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[object]:
        if not self.enabled:
            yield _OFF
            return
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, 0.0, 0.0, parent, self.job)
        self.spans.append(s)
        self._stack.append(s.id)
        peak = name in self.peaks
        if peak:
            tracemalloc.start()
        s.start = time.perf_counter()
        try:
            yield _Live(s)
        finally:
            s.end = time.perf_counter()
            if peak:
                s.peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out
