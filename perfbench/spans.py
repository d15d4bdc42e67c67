"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own code, around the calls it
makes into each layer of the ``repro`` package, either directly
(``with tracer.span(name):``) or by replacing a layer's function with a
timing wrapper (:meth:`Tracer.wrap`).  Nothing inside ``src/`` is
changed; a wrapped function still runs the original code path, so the
traced run executes the same program as the untraced one.

Every span keeps its name, start, end and the index of the span that
was open when it started, so a layer's *self time* is its duration
minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

clock = time.monotonic


class Tracer:
    """Collects spans in memory; writes nothing until asked."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` rows, in start order.
        self.spans: List[list] = []
        self._stack: List[int] = []

    def open(self, name: str, start: Optional[float] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock() if start is None else start, None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._stack.pop()
        self.spans[index][2] = clock()

    @contextlib.contextmanager
    def span(self, name: str, start: Optional[float] = None):
        """Context manager timing one span (``start`` back-dates it)."""
        index = self.open(name, start)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a wrapper that records a span.

        ``owner`` is a module, class or instance.  The original stays
        reachable as the wrapper's ``__wrapped__``.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(index)

        setattr(owner, attribute, traced)

    def rows(self) -> List[Tuple[str, float, float, int]]:
        """Closed spans as ``(name, start, end, parent)`` tuples."""
        return [tuple(row) for row in self.spans if row[2] is not None]


def span_table(rows: List[Tuple[str, float, float, int]]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total time and self time, in seconds."""
    child_time = defaultdict(float)
    for _name, start, end, parent in rows:
        if parent >= 0:
            child_time[parent] += end - start
    table: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, _parent) in enumerate(rows):
        entry = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
    return table


def top_level_seconds(rows: List[Tuple[str, float, float, int]]) -> float:
    """Summed duration of the spans no other span encloses."""
    return sum(end - start for _name, start, end, parent in rows if parent < 0)
