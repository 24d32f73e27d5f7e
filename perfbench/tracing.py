"""In-memory spans recorded by the benchmark around its own calls.

The traced run wraps each call it makes into a layer's public function
in a span: name, start, end, parent and request id. Spans stay in memory
and are written out once, when the run ends. Nothing here reaches into
the program; a layer whose function a refactor removed is reported as
missing instead of crashing the run.

A :class:`Tracer` is driven from one thread: nesting follows the
``with`` stack. Intervals measured elsewhere (the async front end's
queue and service times) enter through :meth:`Tracer.record`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans, missing layers and their reasons."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: Dict[str, str] = {}
        self._stack: List[Span] = []
        self._request: Optional[int] = None
        self._next_request = 0

    @contextmanager
    def request(self, name: str = "request") -> Iterator[Span]:
        """A root span that gives every span inside it one request id."""
        self._next_request += 1
        outer, self._request = self._request, self._next_request
        try:
            with self.span(name) as root:
                yield root
        finally:
            self._request = outer

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            len(self.spans), name, time.perf_counter(), 0.0, parent, self._request
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def record(
        self, name: str, start: float, end: float, parent: Optional[Span] = None
    ) -> Span:
        """Add an interval measured outside a ``with`` block."""
        span = Span(
            len(self.spans),
            name,
            start,
            end,
            parent.span_id if parent is not None else None,
            parent.request if parent is not None else None,
        )
        self.spans.append(span)
        return span

    def resolve(self, layer: str, owner: object, attribute: str):
        """``owner.attribute``, or None with ``layer`` marked missing."""
        found = getattr(owner, attribute, None)
        if found is None:
            owner_name = getattr(owner, "__name__", type(owner).__name__)
            self.missing[layer] = f"{owner_name}.{attribute} no longer exists"
        return found

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.spans if span.name == name]

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds.

        A span's self time is its duration minus the part of it that its
        direct children cover.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                parent = self.spans[span.parent]
                overlap = min(span.end, parent.end) - max(span.start, parent.start)
                covered[span.parent] += max(0.0, overlap)
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += max(0.0, span.duration - covered[span.span_id])
        return table

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
