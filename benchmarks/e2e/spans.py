"""The harness's own span recorder.

Spans are opened around calls *into* `repro`'s public functions (the
program is not instrumented; that is a later issue).  They stay in
memory and are written once, as JSON lines, when the traced run ends.
A span's self time is its duration minus what its child spans cover.
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
    name: str
    start_ns: int
    end_ns: int
    span_id: int
    parent_id: Optional[int]
    op_id: str  # workload/pass/query — shared by one operation's spans

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Single-threaded by design: the traced run has one client."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._op_id = ""

    @contextmanager
    def operation(self, op_id: str) -> Iterator[None]:
        previous, self._op_id = self._op_id, op_id
        try:
            yield
        finally:
            self._op_id = previous

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            name, time.perf_counter_ns(), 0, len(self.spans) + 1,
            parent, self._op_id,
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def self_times_ms(self) -> Dict[int, float]:
        """span_id -> self time.  Children of one parent never overlap
        (one thread, strictly nested), so coverage is their sum."""
        covered: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span.parent_id is not None:
                covered[span.parent_id] += span.duration_ns
        return {
            span.span_id: (span.duration_ns - covered[span.span_id]) / 1e6
            for span in self.spans
        }

    def write_jsonl(self, path: Path) -> None:
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")
