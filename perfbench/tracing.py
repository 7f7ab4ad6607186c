"""Spans and counts recorded around the benchmark's calls into bohrlift.

A span is (name, start, end, parent, task).  Spans opened inside another
span get it as parent; replayed stages name their parent explicitly, so
they count as its children although they run after it has closed.  The
self time of a span is its duration minus the durations of its children.

`OFF` is the tracer used for the end-to-end runs: its spans cost one
function call and record nothing.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    """Keeps every span and count in memory until the run reports."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, task]
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self.task = "setup"
        self.top: list[int] = []  # spans with no parent opened since the last reset
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        sid = len(self.spans)
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = [name, perf_counter(), None, parent, self.task]
        self.spans.append(record)
        if parent is None:
            self.top.append(sid)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    def count(self, name: str, n: float) -> None:
        self.counts[name] += n

    def self_times(self) -> dict[str, tuple[float, float]]:
        """Per span name: (self time outside set-up, self time in set-up)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list[float]] = {}
        for sid, (name, start, end, _, task) in enumerate(self.spans):
            slot = out.setdefault(name, [0.0, 0.0])
            slot[task == "setup"] += end - start - child_time[sid]
        return {name: (v[0], v[1]) for name, v in out.items()}

    def replay_coverage(self) -> float:
        """Replayed stage time over the time of the calls those stages replay."""
        replayed = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None and start >= self.spans[parent][2]:
                replayed[parent] += end - start
        covered = sum(replayed)
        parents = sum(s[2] - s[1] for sid, s in enumerate(self.spans) if replayed[sid] > 0.0)
        return covered / parents if parents else 0.0


class _Off:
    """Tracer stand-in that records nothing."""

    enabled = False
    task = "setup"
    top: list[int] = []
    _null = nullcontext()

    def span(self, name: str, parent: int | None = None):
        return self._null

    def count(self, name: str, n: float) -> None:
        pass


OFF = _Off()
