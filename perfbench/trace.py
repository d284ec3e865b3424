"""In-memory spans recorded around calls into the layers, and their reduction.

A span has a name, start, end, parent and request id.  Spans stay in
memory while the benchmark runs and are written out once, at the end.
A layer's self time is its span's duration minus the durations of its
direct children.  Children of one span are recorded one after another on
one thread, so they never overlap; when a child is a replay of part of
the parent's work (the request was first timed as one call, then its
parts were timed one by one), the same subtraction gives the parent's
excess over its parts.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed call into a layer."""

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
    """Records spans in memory; :meth:`write` dumps them as JSON lines."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    @contextmanager
    def span(
        self, name: str, parent: Optional[int] = None, request: Optional[int] = None
    ) -> Iterator[int]:
        """Time the body as span ``name``; yields the span id for children."""
        span_id = len(self.spans)
        record = Span(span_id, name, time.perf_counter(), 0.0, parent, request)
        self.spans.append(record)
        try:
            yield span_id
        finally:
            record.end = time.perf_counter()

    def write(self, path: Path, header: Dict) -> None:
        """Write ``header`` then every span, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for record in self.spans:
                handle.write(json.dumps(asdict(record)) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {record.span_id: record.duration for record in spans}
    for record in spans:
        if record.parent is not None:
            own[record.parent] -= record.duration
    return own


def self_times_by_layer(spans: List[Span]) -> Dict[str, List[float]]:
    """Layer (span name) -> the self time of each of its spans, in order."""
    own = self_times(spans)
    layers: Dict[str, List[float]] = defaultdict(list)
    for record in spans:
        layers[record.name].append(own[record.span_id])
    return dict(layers)


def durations_by_layer(spans: List[Span]) -> Dict[str, List[float]]:
    """Layer (span name) -> the full duration of each of its spans."""
    layers: Dict[str, List[float]] = defaultdict(list)
    for record in spans:
        layers[record.name].append(record.duration)
    return dict(layers)
