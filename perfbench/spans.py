"""Benchmark-side spans for the traced run.

Spans are recorded by the benchmark around its own calls into each
layer (the program's tracer stays off).  A span's layer is its name up
to the first dot.  Spans stay in memory until :meth:`Spans.dump`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    span_id: int
    name: str
    request: str
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """An in-memory span recorder; one open parent chain at a time."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[Span] = []

    @contextmanager
    def span(self, name: str, request: str = "") -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), name,
                      request or (parent.request if parent else ""),
                      parent.span_id if parent else None,
                      time.perf_counter())
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self) -> Dict[str, float]:
        """Per layer: span time not covered by the span's children."""
        children: Dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] = children.get(s.parent, 0.0) + s.seconds
        out: Dict[str, float] = {}
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            own = s.seconds - children.get(s.span_id, 0.0)
            out[layer] = out.get(layer, 0.0) + own
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.span_id, "name": s.name, "request": s.request,
                    "parent": s.parent, "start": s.start, "end": s.end,
                }) + "\n")


class NoSpans(Spans):
    """The untraced run's recorder: records nothing."""

    @contextmanager
    def span(self, name: str, request: str = "") -> Iterator[None]:
        yield None
