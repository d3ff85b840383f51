"""In-memory spans for the benchmark's traced run.

A span records a name, start and end (perf_counter seconds), the index of
the span open around it, the job id, and counts attached to it.  Spans stay
in memory and are written out once the run ends.  With memory=True a span
also records the tracemalloc peak above the traced size at its start; only
leaf spans give a meaningful peak, because each span resets the peak.
"""

import tracemalloc
from time import perf_counter


class Span:
    __slots__ = ("tracer", "name", "counts", "start", "end", "parent", "job")

    def __init__(self, tracer, name, counts):
        self.tracer = tracer
        self.name = name
        self.counts = counts

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._open[-1] if tr._open else None
        self.job = tr.job
        tr._open.append(len(tr.spans))
        tr.spans.append(self)
        if tr.memory:
            tracemalloc.reset_peak()
            self.counts["peak_base"] = tracemalloc.get_traced_memory()[0]
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = perf_counter()
        tr = self.tracer
        if tr.memory:
            self.counts["peak_bytes"] = (tracemalloc.get_traced_memory()[1]
                                         - self.counts.pop("peak_base"))
        tr._open.pop()

    def add(self, **counts):
        for k, v in counts.items():
            self.counts[k] = self.counts.get(k, 0) + v


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.job = None
        self._open: list[int] = []

    def span(self, name: str, **counts) -> Span:
        return Span(self, name, counts)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.job, s.counts] for s in self.spans]


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def add(self, **counts):
        pass


class NullTracer:
    """Tracer stand-in for the untraced pass: spans cost one call."""

    _span = _NullSpan()

    def span(self, name, **counts):
        return self._span


NULL = NullTracer()
