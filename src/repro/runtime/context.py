"""The ExecutionContext: one object a compute loop polls and reports to.

Every long-running entry point in the library accepts an optional
``context`` and does four things with it at each natural checkpoint (an
iteration, a row block, a query pair):

1. **poll the deadline** — :meth:`ExecutionContext.checkpoint` raises a
   structured :class:`repro.runtime.errors.DeadlineExceeded` once the
   armed wall-clock budget runs out;
2. **poll the cancellation token** — a caller (another thread, a signal
   handler) flips :meth:`CancellationToken.cancel` and the loop stops at
   its next checkpoint with :class:`repro.runtime.errors.Cancelled`;
3. **charge working sets** — :meth:`ExecutionContext.charge` accounts
   bytes against the live :class:`repro.runtime.budget.MemoryLedger`
   *before* allocating, converting would-be OOMs into clean structured
   failures;
4. **record metrics** — counters/timers/series on
   :attr:`ExecutionContext.metrics`.

A context is always present below the entry points.  An entry point
given none resolves it once, ``context = context or NULL_CONTEXT``, and
everything beneath calls the context unconditionally.
:data:`NULL_CONTEXT` has no deadline, ledger, cancellation token, fault
injector or slow-query log; its tracer is
:data:`repro.runtime.trace.NULL_TRACER` and its metrics sink
:data:`repro.runtime.metrics.NULL_METRICS` drops every write.  So the
no-context path computes exactly what a context-free run would, at the
cost of a few no-op calls per checkpoint.  All structured failures carry
a metrics snapshot, so an interrupted run still reports how far it got.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.runtime.budget import MemoryLedger, WallClockDeadline
from repro.runtime.errors import Cancelled, DeadlineExceeded, MemoryBudgetExceeded
from repro.runtime.metrics import NULL_METRICS, Metrics
from repro.runtime.trace import NULL_TRACER, NullTracer, Tracer

__all__ = ["CancellationToken", "ExecutionContext", "NULL_CONTEXT", "NullContext"]


class CancellationToken:
    """A thread-safe one-way flag polled at checkpoints.

    Examples
    --------
    >>> token = CancellationToken()
    >>> token.cancelled
    False
    >>> token.cancel()
    >>> token.cancelled
    True
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation; irreversible."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._event.is_set()


class ExecutionContext:
    """Deadline + memory budget + cancellation + metrics for one run.

    Parameters
    ----------
    deadline:
        An armed :class:`repro.runtime.budget.WallClockDeadline`, or
        ``None`` for no time budget.
    memory:
        A live :class:`repro.runtime.budget.MemoryLedger`, or ``None``
        for no memory budget.
    cancellation:
        A :class:`CancellationToken` shared with whoever may cancel.
    metrics:
        The :class:`repro.runtime.metrics.Metrics` sink; a fresh one is
        created when omitted, so ``ExecutionContext()`` is a pure
        metrics-collection context with no budgets at all.
    fault_injector:
        An optional :class:`repro.runtime.resilience.FaultInjector` (or
        anything with an ``on_checkpoint(what)`` method) consulted at
        every :meth:`checkpoint`, so tests can deterministically kill a
        run at its *n*-th checkpoint and assert recovery.
    tracer:
        An optional :class:`repro.runtime.trace.Tracer`.  Instrumented
        loops open hierarchical spans on it (per iteration, per shard,
        per query); when omitted it defaults to the shared
        :data:`repro.runtime.trace.NULL_TRACER`, whose no-op spans keep
        the untraced path allocation-free.
    slow_queries:
        An optional :class:`repro.runtime.telemetry.SlowQueryLog`.
        Retrieval entry points (``GSimIndex.query``/``query_many``/
        ``top_pairs``, the top-k scans, batch blocks) report their
        latency to it; calls above its threshold land in the bounded
        ring as structured records.  ``None`` (the default) costs one
        ``is None`` check per call.

    Examples
    --------
    >>> context = ExecutionContext.start(deadline_seconds=60.0)
    >>> context.checkpoint("warm-up")   # within budget: no-op
    >>> context.metrics.increment("demo.steps")
    >>> context.metrics.counter("demo.steps")
    1.0
    """

    __slots__ = (
        "deadline",
        "memory",
        "cancellation",
        "metrics",
        "fault_injector",
        "tracer",
        "slow_queries",
    )

    def __init__(
        self,
        deadline: WallClockDeadline | None = None,
        memory: MemoryLedger | None = None,
        cancellation: CancellationToken | None = None,
        metrics: Metrics | None = None,
        fault_injector: "Any | None" = None,
        tracer: "Tracer | NullTracer | None" = None,
        slow_queries: "Any | None" = None,
    ) -> None:
        self.deadline = deadline
        self.memory = memory
        self.cancellation = cancellation
        self.metrics = metrics if metrics is not None else Metrics()
        self.fault_injector = fault_injector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.slow_queries = slow_queries

    @classmethod
    def start(
        cls,
        deadline_seconds: float | None = None,
        memory_limit_bytes: int | None = None,
        cancellation: CancellationToken | None = None,
        metrics: Metrics | None = None,
        fault_injector: "Any | None" = None,
        tracer: "Tracer | NullTracer | None" = None,
        slow_queries: "Any | None" = None,
    ) -> "ExecutionContext":
        """Arm a context from plain limits (the common construction)."""
        deadline = (
            WallClockDeadline(deadline_seconds)
            if deadline_seconds is not None
            else None
        )
        memory = (
            MemoryLedger(memory_limit_bytes)
            if memory_limit_bytes is not None
            else None
        )
        return cls(
            deadline=deadline,
            memory=memory,
            cancellation=cancellation,
            metrics=metrics,
            fault_injector=fault_injector,
            tracer=tracer,
            slow_queries=slow_queries,
        )

    # ------------------------------------------------------------------
    # Cooperative enforcement
    # ------------------------------------------------------------------
    def checkpoint(self, what: str = "computation") -> None:
        """Poll cancellation and deadline; raise structured failures.

        Raised exceptions carry :meth:`Metrics.snapshot` of everything
        recorded so far.
        """
        if self.cancellation and self.cancellation.cancelled:
            raise Cancelled(
                f"{what} cancelled", metrics=self.metrics.snapshot()
            )
        if self.deadline and self.deadline.expired:
            raise DeadlineExceeded(
                f"{what} exceeded its {self.deadline.limit_seconds:.1f}s "
                "wall-clock budget",
                metrics=self.metrics.snapshot(),
            )
        if self.fault_injector is not None:
            self.fault_injector.on_checkpoint(what)

    def charge(self, num_bytes: float, what: str = "allocation") -> None:
        """Charge a working set against the ledger (no-op without one).

        On a breach the raised
        :class:`repro.runtime.errors.MemoryBudgetExceeded` carries the
        metrics snapshot; on success the peak is mirrored into the
        ``memory.peak_bytes`` gauge.
        """
        if not self.memory:
            return
        try:
            self.memory.charge(num_bytes, what)
        except MemoryBudgetExceeded as exc:
            exc.metrics = self.metrics.snapshot()
            raise
        self.metrics.record_max("memory.peak_bytes", self.memory.peak_bytes)

    def release(self, num_bytes: float) -> None:
        """Return a charged working set to the ledger (no-op without one)."""
        if self.memory:
            self.memory.release(num_bytes)

    def snapshot(self) -> dict[str, Any]:
        """The metrics snapshot, with live budget state folded in."""
        snap = self.metrics.snapshot()
        if self.deadline:
            snap["gauges"]["deadline.elapsed_seconds"] = self.deadline.elapsed
            snap["gauges"]["deadline.limit_seconds"] = self.deadline.limit_seconds
        if self.memory:
            snap["gauges"]["memory.held_bytes"] = self.memory.held_bytes
            snap["gauges"]["memory.peak_bytes"] = self.memory.peak_bytes
            snap["gauges"]["memory.limit_bytes"] = self.memory.limit_bytes
        return snap

    def __repr__(self) -> str:
        parts = []
        if self.deadline:
            parts.append(f"deadline={self.deadline.limit_seconds:.1f}s")
        if self.memory:
            parts.append(f"memory={self.memory.limit_bytes}B")
        if self.cancellation:
            parts.append(f"cancelled={self.cancellation.cancelled}")
        return f"ExecutionContext({', '.join(parts)})"


class NullContext(ExecutionContext):
    """The always-present stand-in for "no context": no budgets, no records.

    Its class attributes are fixed and it has no instance state, so the
    one shared :data:`NULL_CONTEXT` cannot be armed by accident.  It
    pickles by reference, so a process worker resolves the same
    singleton.

    Examples
    --------
    >>> NULL_CONTEXT.checkpoint("demo")
    >>> NULL_CONTEXT.charge(1 << 40)
    >>> NULL_CONTEXT.metrics.increment("demo.steps")
    >>> NULL_CONTEXT.snapshot()["counters"]
    {}
    """

    __slots__ = ()

    deadline = None
    memory = None
    cancellation = None
    metrics = NULL_METRICS
    fault_injector = None
    tracer = NULL_TRACER
    slow_queries = None

    def __init__(self) -> None:
        pass

    def __reduce__(self) -> str:
        return "NULL_CONTEXT"

    def __repr__(self) -> str:
        return "NULL_CONTEXT"


NULL_CONTEXT = NullContext()
