"""In-memory spans around the benchmark's calls into cyarith.

A span records a name, its start and end (perf_counter_ns), the span that
encloses it and the id of the operation it belongs to.  Spans are kept in a
list and handed to the caller when the run ends; nothing is written while
the workload is being timed.

With tracing off, `span` returns one shared no-op context manager and
`wrap` returns the callable unchanged, so the timed path runs no tracing
code apart from that `with` statement.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

#: name of the span that encloses one whole operation; its self time is the
#: benchmark's own glue (input lookup, oracle comparison), not a layer's
OP_SPAN = "op"

_NO_SPAN = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.op = None  # id of the operation being run
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NO_SPAN

    @contextlib.contextmanager
    def _span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """`fn` with every call enclosed in a span `name` (unchanged when off)."""
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            with self._span(name):
                return fn(*args, **kwargs)

        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus its children's.

        Calls are synchronous and single-threaded, so children never overlap
        one another and the time they cover is the sum of their durations.
        """
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_ns[rec["parent"]] += rec["end_ns"] - rec["start_ns"]
        out: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            out[rec["name"]] += (rec["end_ns"] - rec["start_ns"] - child_ns[rec["id"]]) / 1e9
        return dict(out)

    def span_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for rec in self.spans:
            out[rec["name"]] += 1
        return dict(out)
