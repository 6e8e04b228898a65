"""Spans the benchmark records around its own calls into cechlab.

Spans stay in memory while a run measures and are written out once, at
its end. A span's counts are the work counters read at that boundary.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, parent: Span | None = None) -> Iterator[Span]:
        record = Span(len(self.spans), name, None if parent is None else parent.id,
                      time.perf_counter())
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(asdict(record)) + "\n")
