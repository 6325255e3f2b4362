"""Timing spans around calls into the program, recorded from outside it.

``Tracer.patch`` swaps a module attribute (a function, or a method on a
class) for a wrapper that opens a span on entry and closes it on exit;
``Tracer.restore`` puts every original back. Spans are kept in memory as
flat lists until the run ends. A layer's self time is the length of its
spans minus the part covered by spans opened inside them, so nested layers
(attention inside the encoder, edge arrays inside the GAT) are never counted
twice.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

__all__ = ["Tracer"]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own calls."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def patch(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        """Index of the next span, for summarising only what follows."""
        return len(self.names)

    def first_start(self, name: str, since: int = 0) -> float | None:
        for i in range(since, len(self.names)):
            if self.names[i] == name:
                return self.starts[i]
        return None

    def summary(self, since: int = 0, after: float = float("-inf")) -> dict[str, dict]:
        """Per span name: ``self_s``, ``inclusive_s`` and ``calls``.

        Only spans from index ``since`` on that start at or after ``after``
        are counted. A span nested in one of its own name adds to the calls
        but not again to the inclusive time.
        """
        count = len(self.names)
        child = [0.0] * (count - since)
        for i in range(count - 1, since - 1, -1):
            parent = self.parents[i]
            if parent >= since:
                child[parent - since] += self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i in range(since, count):
            if self.starts[i] < after:
                continue
            name = self.names[i]
            length = self.ends[i] - self.starts[i]
            entry = out.setdefault(name, {"self_s": 0.0, "inclusive_s": 0.0, "calls": 0})
            entry["self_s"] += length - child[i - since]
            entry["calls"] += 1
            parent = self.parents[i]
            if parent < since or self.names[parent] != name:
                entry["inclusive_s"] += length
        return out

    def covered(self, since: int, start: float, end: float) -> float:
        """Seconds of [start, end] spent inside some top-level span."""
        total = 0.0
        for i in range(since, len(self.names)):
            if self.parents[i] < since and self.starts[i] >= start and self.ends[i] <= end:
                total += self.ends[i] - self.starts[i]
        return total
