"""In-memory span recorder and summary statistics for the benchmark.

Spans are opened in the benchmark's own code, around calls into the public
functions of the sqclick modules; nothing inside the package is
instrumented.  Each span records its name, start, end and the span that
was open when it started, and the whole list is written out as JSON lines
when the traced run ends.
"""

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans of one traced run."""

    def __init__(self):
        self.spans = []  # [id, parent id or None, name, start, end]
        self._open = []

    @contextmanager
    def span(self, name):
        record = [len(self.spans), self._open[-1] if self._open else None, name,
                  time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            self._open.pop()
            record[4] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name):
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def total(self, *names):
        return sum(s[4] - s[3] for s in self.spans if s[2] in names)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def percentile(values, q):
    """q-th percentile (0-100) by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_call_us(fn, calls, repeats):
    """Median over ``repeats`` batches of the mean time of one call, in us.

    Batching keeps the clock's own cost out of calls that take a few
    microseconds.
    """
    batches = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        batches.append((time.perf_counter() - start) / calls)
    return statistics.median(batches) * 1e6
