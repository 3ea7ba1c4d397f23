"""In-memory spans for the traced run, and the self-time ledger over them.

The traced run wraps each call the benchmark makes into a ``repro``
layer in a span: a name, a start, an end and the span that was open
when it began.  Counts measured at the same boundary ride on the span.
Nothing is written while the run measures; :meth:`SpanRecorder.dump`
writes the whole list as JSON lines once the run is over.

A span's *self time* is its duration minus the time its direct children
cover.  Each operation of a traced run is one root span; the root's own
self time is the wall time that no layer span covers.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    span_id: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans; with ``enabled`` false it records nothing.

    The disabled recorder runs the same benchmark code with the same
    calls into the program, which is how the traced run measures its own
    overhead.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield Span(name, -1, None, 0.0)
            return
        span = Span(
            name,
            len(self.spans),
            self._stack[-1].span_id if self._stack else None,
            time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "id": s.span_id,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            "counts": s.counts,
                        }
                    )
                    + "\n"
                )


def root_ledgers(spans: list) -> list:
    """One ledger per root span, in start order.

    A ledger maps each span name under the root to its summed self
    time there, plus ``root.name``, ``root.wall`` (the root's duration)
    and ``root.self`` (the root's own self time: wall time under it
    that no child span covers).
    """
    by_id = {s.span_id: s for s in spans}
    child_seconds: dict = {}
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] = (
                child_seconds.get(s.parent, 0.0) + s.seconds
            )
    ledgers: dict = {}
    for s in spans:
        own = s.seconds - child_seconds.get(s.span_id, 0.0)
        if s.parent is None:
            ledgers[s.span_id] = {
                "root.name": s.name,
                "root.wall": s.seconds,
                "root.self": own,
            }
            continue
        root = s
        while root.parent is not None:
            root = by_id[root.parent]
        ledger = ledgers[root.span_id]
        ledger[s.name] = ledger.get(s.name, 0.0) + own
    return [ledgers[k] for k in sorted(ledgers)]


def spans_outside(spans: list, root_name: str) -> list:
    """The spans whose root span is not called ``root_name``."""
    root_of: dict = {}
    kept = []
    for s in spans:
        root = s.name if s.parent is None else root_of[s.parent]
        root_of[s.span_id] = root
        if root != root_name:
            kept.append(s)
    return kept


def durations(spans: list, name: str) -> list:
    """Durations of every span called ``name``, in start order."""
    return [s.seconds for s in spans if s.name == name]


def count_total(spans: list, name: str, key: str) -> float:
    """Sum of one count over every span called ``name``."""
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)
