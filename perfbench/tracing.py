"""The benchmark's own spans, recorded around calls into the program.

A span is ``(name, start, end, span id, parent id, trace id)``.  Spans
nest per thread; every top-level span starts a new trace id, so the
spans of one operation (one setup, one scan, one query) share it.  The
recorder keeps spans in memory and writes them out when the run ends:
a Chrome ``trace_event`` file (loadable in Perfetto) and a self-time
table, where a span's self time is its duration minus the part covered
by its children.

:data:`NULL_SPANS` has the same interface and records nothing; the
untraced end-to-end pass runs through it.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator


class SpanRecorder:
    def __init__(self) -> None:
        # (name, start_ns, end_ns, span_id, parent_id, trace_id, thread)
        self.spans: list[tuple[str, int, int, int, int, int, int]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1

    def _new_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = self._new_id()
        parent_id, trace_id = stack[-1] if stack else (0, span_id)
        stack.append((span_id, trace_id))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (name, start, end, span_id, parent_id, trace_id,
                     threading.get_ident())
                )

    def total_seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, *_ in self.spans if n == name) / 1e9

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds and self seconds."""
        children: dict[int, list[tuple[int, int]]] = {}
        for _, start, end, _, parent_id, _, _ in self.spans:
            if parent_id:
                children.setdefault(parent_id, []).append((start, end))
        table: dict[str, dict[str, float]] = {}
        for name, start, end, span_id, *_ in self.spans:
            covered = 0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start = max(child_start, cursor)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            row = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - covered) / 1e9
        return table

    def render_self_times(self) -> str:
        table = self.self_times()
        lines = [f"{'span':<52} {'count':>7} {'total_s':>10} {'self_s':>10}"]
        for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
            lines.append(
                f"{name:<52} {int(row['count']):>7} "
                f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}"
            )
        return "\n".join(lines)

    def write_chrome(self, path: Path) -> None:
        origin = min((start for _, start, *_ in self.spans), default=0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 0,
                "tid": thread,
                "args": {"span_id": span_id, "parent_id": parent_id,
                         "trace_id": trace_id},
            }
            for name, start, end, span_id, parent_id, trace_id, thread in self.spans
        ]
        path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")


class _NullSpans:
    _none = nullcontext()

    def span(self, name: str) -> nullcontext:
        return self._none


NULL_SPANS = _NullSpans()
