"""Runtime layer: execution contexts, budgets, cancellation, metrics.

Sits between :mod:`repro.utils` and the compute layers.  Every solver,
retrieval, and serving loop in the library runs under an
:class:`ExecutionContext`: it polls the context's deadline and
cancellation token at checkpoints, charges working sets against its live
memory ledger, and records counters/timers/series into its
:class:`Metrics` sink.  Budget breaches surface as structured
:class:`BudgetExceeded` failures carrying the metrics collected so far.
A caller that passes no context gets :data:`NULL_CONTEXT`, the shared
no-op context: no budgets, and a :data:`NULL_METRICS` sink that drops
every write.

The budget policies (:class:`Deadline` / :class:`MemoryBudget`) live
here too, so the experiment harness's predictive gating (cost-model
OOM/TIMEOUT substitution) and in-loop enforcement share one
implementation.

Tracing (:mod:`repro.runtime.trace`) rides the same context: attach a
:class:`Tracer` and every instrumented loop records hierarchical spans
(per iteration, per worker shard, per query) plus a bounded structured
event log, exportable as Chrome ``trace_event`` JSON or summarised into
a hot-path table.  Without one, the shared :data:`NULL_TRACER` keeps the
hot path allocation-free.
"""

from repro.runtime.budget import (
    Deadline,
    MemoryBudget,
    MemoryLedger,
    WallClockDeadline,
)
from repro.runtime.context import NULL_CONTEXT, CancellationToken, ExecutionContext
from repro.runtime.errors import (
    BudgetExceeded,
    Cancelled,
    CorruptArtifactError,
    DeadlineExceeded,
    IndexUnavailableError,
    InjectedFault,
    MemoryBudgetExceeded,
    TransientError,
)
from repro.runtime.metrics import (
    HISTOGRAM_BUCKETS,
    NULL_METRICS,
    Metrics,
    TimerReading,
    histogram_bucket_bounds,
)
from repro.runtime.parallel import WorkerPool, shard_ranges, shard_rows_by_nnz
from repro.runtime.workspace import ArrayRef, CsrRef
from repro.runtime.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    render_trace_summary,
    summarize_trace,
)
from repro.runtime.resilience import (
    Checkpoint,
    CheckpointManager,
    FaultInjector,
    RetryPolicy,
    atomic_write,
    content_checksum,
)
from repro.runtime.telemetry import (
    MetricsExporter,
    PeriodicFlusher,
    ResourceMonitor,
    SLObjective,
    SLOReport,
    SLOTracker,
    SlowQuery,
    SlowQueryLog,
    TelemetrySession,
    render_slo_report,
)

__all__ = [
    "ArrayRef",
    "BudgetExceeded",
    "CancellationToken",
    "Cancelled",
    "Checkpoint",
    "CheckpointManager",
    "CorruptArtifactError",
    "CsrRef",
    "Deadline",
    "DeadlineExceeded",
    "ExecutionContext",
    "FaultInjector",
    "HISTOGRAM_BUCKETS",
    "IndexUnavailableError",
    "InjectedFault",
    "MemoryBudget",
    "MemoryBudgetExceeded",
    "MemoryLedger",
    "Metrics",
    "MetricsExporter",
    "NULL_CONTEXT",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullTracer",
    "PeriodicFlusher",
    "ResourceMonitor",
    "RetryPolicy",
    "SLObjective",
    "SLOReport",
    "SLOTracker",
    "SlowQuery",
    "SlowQueryLog",
    "Span",
    "TelemetrySession",
    "TimerReading",
    "Tracer",
    "TransientError",
    "WallClockDeadline",
    "WorkerPool",
    "atomic_write",
    "content_checksum",
    "histogram_bucket_bounds",
    "render_slo_report",
    "render_trace_summary",
    "shard_ranges",
    "shard_rows_by_nnz",
    "summarize_trace",
]
