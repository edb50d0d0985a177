"""Hierarchical tracing: spans, a structured event log, and exporters.

:class:`repro.runtime.metrics.Metrics` answers *how much* (counters,
timers, histograms); this module answers *where the time went*.  A
:class:`Tracer` records **spans** — named, nested wall-clock intervals —
plus a bounded **structured event log**, and exports both:

* :meth:`Tracer.span` is a context manager; spans nest through a
  per-thread stack, so ``with tracer.span("a"): with tracer.span("b")``
  records ``b`` as a child of ``a`` with no bookkeeping at the call site;
* work handed to another thread (a :class:`repro.runtime.WorkerPool`
  shard) passes the submitting span as an explicit ``parent=`` handle, so
  shard spans stitch under the span that submitted them even though the
  per-thread stacks never meet;
* :meth:`Tracer.event` appends a JSONL-ready record (span id, name,
  severity, attributes) to a bounded log — the place for rare structured
  facts (a rank-cap fallback engaging, a cell being quarantined) that
  would be noise as spans;
* :meth:`Tracer.chrome_trace` renders the Chrome ``trace_event`` JSON
  format, loadable in Perfetto / ``chrome://tracing``;
* :func:`summarize_trace` aggregates total/self time per span name into a
  hot-path ranking, rendered by :func:`render_trace_summary`.

The **untraced default** is :data:`NULL_TRACER`, a singleton
:class:`NullTracer` whose :meth:`~NullTracer.span` returns one shared
no-op span — no per-call object allocation, so instrumented hot paths
cost two method calls when tracing is off.  It is the tracer of every
context built without one, including the no-op
:data:`repro.runtime.context.NULL_CONTEXT`, so instrumented code, which
always holds a context, follows one pattern::

    with context.tracer.span("index.query") as span:
        ...
        span.set_attribute("cells", block.size)

Both buffers are bounded (``max_spans`` / ``max_events``, oldest records
dropped first, drops counted), so a tracer left attached to a long-lived
serving context cannot grow without bound.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Iterable

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "render_trace_summary",
    "summarize_trace",
]


class Span:
    """One named wall-clock interval, recorded into its tracer on exit.

    Use as a context manager (via :meth:`Tracer.span`); attributes set
    through :meth:`set_attribute` travel into the event-log records and
    the Chrome-trace ``args`` of the span.
    """

    __slots__ = (
        "_tracer",
        "name",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attributes",
        "thread_id",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: int | None,
        attributes: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = 0.0
        self.end: float | None = None
        self.attributes = attributes
        self.thread_id = 0

    @property
    def duration(self) -> float:
        """Seconds between enter and exit (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach one key/value to the span (last write wins)."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        self.thread_id = threading.get_ident()
        self._tracer._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = time.perf_counter()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        self._tracer._record(self)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, duration={self.duration:.6f}s)"
        )


class _NullSpan:
    """The shared no-op span: valid context manager and parent handle."""

    __slots__ = ()

    span_id = None
    parent_id = None
    name = ""
    start = 0.0
    end = 0.0
    duration = 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullSpan()"


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The do-nothing tracer wired in wherever no real one is attached.

    Every method is a constant-time no-op returning shared singletons —
    no span objects, no attribute dicts, no locks — so the untraced hot
    path pays only the method-call overhead (measured <1% on the bench
    scan; see docs/architecture.md).
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, parent: Any = None, **attributes: Any) -> _NullSpan:
        """A shared no-op span (ignores the name, parent, attributes)."""
        return _NULL_SPAN

    def current_span(self) -> None:
        """No span is ever open on a NullTracer."""
        return None

    def event(
        self,
        name: str,
        severity: str = "info",
        span: Any = None,
        **attributes: Any,
    ) -> None:
        """Dropped."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTracer()"


NULL_TRACER = NullTracer()


class Tracer:
    """Thread-safe recorder of hierarchical spans and structured events.

    Parameters
    ----------
    max_spans, max_events:
        Buffer bounds.  When full, the *oldest* records are dropped and
        the drop is counted (:attr:`dropped_spans` /
        :attr:`dropped_events`), so a tracer on a long-lived service
        degrades to "most recent window" instead of growing unboundedly.

    Examples
    --------
    >>> tracer = Tracer()
    >>> with tracer.span("outer") as outer:
    ...     with tracer.span("inner", step=1) as inner:
    ...         pass
    >>> inner.parent_id == outer.span_id
    True
    >>> [s.name for s in tracer.spans()]
    ['inner', 'outer']
    """

    enabled = True

    def __init__(self, max_spans: int = 100_000, max_events: int = 10_000) -> None:
        if max_spans < 1 or max_events < 1:
            raise ValueError("max_spans and max_events must be >= 1")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._max_spans = int(max_spans)
        self._max_events = int(max_events)
        self._spans: list[Span] = []
        self._events: list[dict[str, Any]] = []
        self._next_id = 1
        self.dropped_spans = 0
        self.dropped_events = 0
        # Anchor: perf_counter origin mapped to the epoch, so exported
        # timestamps are absolute microseconds yet keep perf_counter's
        # monotonicity between spans of one run.
        self._origin_perf = time.perf_counter()
        self._origin_epoch = time.time()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(
        self, name: str, parent: "Span | _NullSpan | None" = None, **attributes: Any
    ) -> Span:
        """A new span context manager.

        ``parent`` overrides the implicit per-thread nesting — pass the
        submitting span when the body runs on another thread (a worker
        shard), so the trace stitches across threads.  Passing a no-op
        span (from an untraced caller) is the same as passing ``None``.
        """
        if parent is None:
            parent_id = None  # resolved from the thread stack on enter
        else:
            parent_id = parent.span_id  # None for _NULL_SPAN: a root span
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(self, name, span_id, parent_id, dict(attributes))
        if parent is not None:
            span.attributes["explicit_parent"] = True
        return span

    def current_span(self) -> Span | None:
        """The innermost open span of the *calling* thread, or ``None``."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def event(
        self,
        name: str,
        severity: str = "info",
        span: "Span | _NullSpan | None" = None,
        **attributes: Any,
    ) -> None:
        """Append one structured record to the bounded event log.

        The record carries the id of ``span`` (default: the calling
        thread's current span), the wall-clock timestamp, a severity
        string (``"info"``/``"warning"``/``"error"`` by convention), and
        the attributes — everything JSON-serialisable, one dict per line
        in :meth:`write_events`.
        """
        if span is None:
            span = self.current_span()
        record = {
            "ts": self._to_epoch(time.perf_counter()),
            "name": name,
            "severity": severity,
            "span_id": getattr(span, "span_id", None),
            "attributes": attributes,
        }
        with self._lock:
            self._events.append(record)
            if len(self._events) > self._max_events:
                del self._events[0]
                self.dropped_events += 1

    # Internal hooks used by Span.__enter__/__exit__.
    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if span.parent_id is None and "explicit_parent" not in span.attributes:
            if stack:
                span.parent_id = stack[-1].span_id
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # pragma: no cover - defensive
            stack.remove(span)

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            if len(self._spans) > self._max_spans:
                del self._spans[0]
                self.dropped_spans += 1

    # ------------------------------------------------------------------
    # Reading & export
    # ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        """Completed spans, in completion order (a copy)."""
        with self._lock:
            return list(self._spans)

    def events(self) -> list[dict[str, Any]]:
        """Structured event records, oldest first (a copy)."""
        with self._lock:
            return [dict(record) for record in self._events]

    def _to_epoch(self, perf_timestamp: float) -> float:
        return self._origin_epoch + (perf_timestamp - self._origin_perf)

    def chrome_trace(self) -> dict[str, Any]:
        """The trace in Chrome ``trace_event`` JSON format.

        One complete (``"ph": "X"``) event per span — ``ts``/``dur`` in
        microseconds, ``tid`` the recording thread — plus ``args``
        carrying the span/parent ids and attributes, so Perfetto shows
        the cross-thread stitching that thread-lane nesting alone cannot.
        """
        pid = os.getpid()
        events: list[dict[str, Any]] = []
        for span in self.spans():
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": self._to_epoch(span.start) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": pid,
                    "tid": span.thread_id,
                    "args": {
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        **{
                            key: value
                            for key, value in span.attributes.items()
                            if key != "explicit_parent"
                        },
                    },
                }
            )
        for record in self.events():
            events.append(
                {
                    "name": record["name"],
                    "cat": "repro.event",
                    "ph": "i",
                    "s": "t",
                    "ts": record["ts"] * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        "severity": record["severity"],
                        "span_id": record["span_id"],
                        **record["attributes"],
                    },
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "dropped_spans": self.dropped_spans,
                "dropped_events": self.dropped_events,
            },
        }

    def write_chrome_trace(self, path: str | os.PathLike) -> None:
        """Write :meth:`chrome_trace` as JSON (open in Perfetto)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
            handle.write("\n")

    def write_events(self, path: str | os.PathLike) -> None:
        """Write the structured event log as JSONL, one record per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.events():
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"Tracer(spans={len(self._spans)}, events={len(self._events)}, "
                f"dropped_spans={self.dropped_spans})"
            )


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def summarize_trace(
    source: "Tracer | Iterable[Span]",
) -> list[dict[str, Any]]:
    """Aggregate spans into per-name totals, ranked hottest-first.

    Returns one row per span name with ``calls``, ``total_seconds`` (sum
    of durations), ``self_seconds`` (duration minus the durations of
    direct children, floored at zero — children running concurrently on
    worker threads can overlap their parent), ``min_seconds`` and
    ``max_seconds``.  Rows are sorted by ``self_seconds`` descending:
    the hot-path ranking.  In a serial trace the ``self_seconds`` column
    telescopes — its grand total equals the summed duration of the root
    spans.
    """
    spans = source.spans() if isinstance(source, Tracer) else list(source)
    children_time: dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            children_time[span.parent_id] = (
                children_time.get(span.parent_id, 0.0) + span.duration
            )
    rows: dict[str, dict[str, Any]] = {}
    for span in spans:
        row = rows.get(span.name)
        if row is None:
            row = rows[span.name] = {
                "name": span.name,
                "calls": 0,
                "total_seconds": 0.0,
                "self_seconds": 0.0,
                "min_seconds": float("inf"),
                "max_seconds": 0.0,
            }
        row["calls"] += 1
        row["total_seconds"] += span.duration
        row["self_seconds"] += max(
            0.0, span.duration - children_time.get(span.span_id, 0.0)
        )
        row["min_seconds"] = min(row["min_seconds"], span.duration)
        row["max_seconds"] = max(row["max_seconds"], span.duration)
    return sorted(
        rows.values(), key=lambda row: (-row["self_seconds"], row["name"])
    )


def render_trace_summary(
    source: "Tracer | Iterable[Span] | list[dict[str, Any]]",
) -> str:
    """The :func:`summarize_trace` rows as an aligned text table."""
    if isinstance(source, list) and source and isinstance(source[0], dict):
        rows = source
    else:
        rows = summarize_trace(source)  # type: ignore[arg-type]
    headers = ["span", "calls", "total s", "self s", "min s", "max s"]
    cells = [
        [
            str(row["name"]),
            str(row["calls"]),
            f"{row['total_seconds']:.4f}",
            f"{row['self_seconds']:.4f}",
            f"{row['min_seconds']:.4f}",
            f"{row['max_seconds']:.4f}",
        ]
        for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(line[i]) for line in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]

    def _line(parts: list[str]) -> str:
        padded = [parts[0].ljust(widths[0])] + [
            parts[i].rjust(widths[i]) for i in range(1, len(parts))
        ]
        return "  ".join(padded)

    out = [_line(headers), _line(["-" * width for width in widths])]
    out.extend(_line(line) for line in cells)
    if not cells:
        out.append("(no spans recorded)")
    return "\n".join(out)
