"""Statistics and span tracing used by the benchmark.

Every time here is CPU time of the benchmark process (CLOCK).  The work
is single-threaded and does no I/O, so CPU time is the wall time minus
the time the host steals from the virtual CPU.  On the shared 2-vCPU box
the baseline was measured on, that steal made the wall time of a fixed
loop swing by up to 1.9x between runs.

CPU time still moves with the speed the host lends the virtual CPU (a
busy neighbour on the same core): the same op took 0.25 s of CPU in one
spell and 0.45 s in the next, and spells last from seconds to minutes.
A fixed calibration loop did not track these swings for the workloads
(a log-log fit of op time on loop time had slopes 0.01 to 0.6), so
times are reported as measured, and the bounds in BENCHMARK.json leave
room for the swings.

Spans are recorded only from the benchmark's own code, around each call
it makes into a cubewords module; the library itself is not
instrumented.  A span is (id, parent, name, start, end, work, op): work
counts the units the call processed (letters, steps, calls) so rates
are measured where the work happens, and op ties every span of one
operation together.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Iterator, NamedTuple, Optional

CLOCK = time.process_time

class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    work: int
    op: Optional[int]


class Tracer:
    """Collects spans in memory; they are written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: Optional[int] = None

    @contextmanager
    def span(self, name: str, work: int = 1, op: Optional[int] = None) -> Iterator[None]:
        if op is not None:
            self._op = op
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(span_id, parent, name, 0.0, 0.0, work, self._op))
        self._stack.append(span_id)
        start = CLOCK()
        try:
            yield
        finally:
            end = CLOCK()
            self._stack.pop()
            self.spans[span_id] = Span(span_id, parent, name, start, end, work, self._op)

    def call(self, name: str, fn, *args, work: int = 1, **kwargs):
        """fn(*args, **kwargs) inside a span named after the library call."""
        with self.span(name, work):
            return fn(*args, **kwargs)


class NullTracer:
    """The untraced run: calls go straight through."""

    def span(self, name: str, work: int = 1, op: Optional[int] = None):
        return nullcontext()

    def call(self, name: str, fn, *args, work: int = 1, **kwargs):
        return fn(*args, **kwargs)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping
    children are merged first, so no instant is subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(span.id, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = (span.end - span.start) - covered
    return result


class LayerTotals(NamedTuple):
    calls: int
    busy: float
    work: int


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Calls, busy (self) seconds and work units per span name."""
    own = self_times(spans)
    totals: dict[str, list] = {}
    for span in spans:
        entry = totals.setdefault(span.name, [0, 0.0, 0])
        entry[0] += 1
        entry[1] += own[span.id]
        entry[2] += span.work
    return {name: LayerTotals(*entry) for name, entry in totals.items()}


def tail(samples: list[float]) -> Optional[tuple[float, float]]:
    """(value, percentile) at the highest percentile with ten samples beyond it.

    With n samples sorted ascending this is the one at 0-based rank
    n - 11: exactly ten samples rank above it, and it sits at the
    100 * (n - 10) / n percentile.  None when there are fewer than 11.
    """
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n
