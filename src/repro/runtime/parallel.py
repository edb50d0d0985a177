"""Worker pools: sharded execution that cooperates with ExecutionContext.

Every hot loop in the library — the SpMM factor steps, the blocked top-k
scans, the independent sweep cells, batched index queries — decomposes
into *shards* whose results are merged deterministically.  This module
provides the one pool abstraction they all share:

* :class:`WorkerPool` — a shard executor with two backends and an
  explicit serial mode (``max_workers=1`` executes shards inline in the
  calling thread, the default everywhere: no entry point spawns workers
  unless asked).

  ``backend="thread"`` (default): the BLAS-backed dense GEMMs and
  scipy's sparse-times-dense kernels release the GIL, so threads give
  real parallelism on those paths with zero serialisation cost.

  ``backend="process"``: a persistent ``ProcessPoolExecutor`` for the
  kernels that *hold* the GIL (blocked top-k selection, per-row Python
  loops).  Work must be shipped as (module-level function, picklable
  item) pairs: the shard kernels of :mod:`repro.runtime.kernels` over
  the handles a :meth:`WorkerPool.workspace` hands out, which for a
  process pool are (file, row-range) descriptors a few hundred bytes
  long regardless of array size.  Worker processes pin their
  BLAS pools via :mod:`_repro_blas_pin` (mirroring the CI pinning) so a
  w-process pool never oversubscribes cores with w × BLAS threads; the
  *effective* in-worker thread count is probed and recorded in
  ``parallel.worker_blas_threads``.
* :func:`shard_ranges` — contiguous ``(start, stop)`` row ranges of
  near-equal size.
* :func:`shard_rows_by_nnz` — contiguous CSR row ranges balanced by
  stored-entry count, so skew-degree graphs do not leave workers idle.

Cooperation with :class:`repro.runtime.ExecutionContext`:

* the context is checkpointed between shard submissions and before every
  shard body, so cancellation and deadline expiry propagate into workers
  at shard granularity (shard bodies may poll more finely themselves);
* per-shard wall time is folded into the ``parallel.shard_seconds``
  timer and shard/task counts into ``parallel.shards``, so a metrics
  snapshot shows how much work ran under the pool;
* budget breaches raised inside a worker surface to the caller exactly
  as the serial path would raise them — the first failing shard in
  submission order wins, and queued shards are skipped;
* when the context carries a :class:`repro.runtime.trace.Tracer`, every
  shard records a ``parallel.shard`` span parented to the span that was
  open in the *submitting* thread at :meth:`WorkerPool.map` time, so
  worker-thread spans stitch under their logical parent in the exported
  trace rather than floating as roots.

Determinism: :meth:`WorkerPool.map` returns results in submission order
regardless of completion order, so any shard decomposition whose merge
is order-independent (or performed on the ordered result list) yields
results independent of ``max_workers`` — and of the backend.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import weakref
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

import numpy as np

import _repro_blas_pin
from repro.runtime.context import NULL_CONTEXT, ExecutionContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.workspace import Workspace

__all__ = ["WorkerPool", "shard_ranges", "shard_rows_by_nnz"]

_BACKENDS = ("thread", "process")


def _probe_worker() -> dict[str, int]:
    """Runs inside a pool worker: report identity and BLAS pinning truth."""
    return {
        "pid": os.getpid(),
        "blas_threads": _repro_blas_pin.effective_blas_threads(),
    }


def _default_mp_context() -> str:
    """``fork`` where available (no per-worker interpreter+numpy warm-up,
    ~ms instead of seconds to start a pool); ``spawn`` elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"

T = TypeVar("T")
R = TypeVar("R")


def shard_ranges(total: int, num_shards: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ≤ ``num_shards`` contiguous near-equal
    ``(start, stop)`` ranges (empty ranges are dropped).

    Examples
    --------
    >>> shard_ranges(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    >>> shard_ranges(2, 4)
    [(0, 1), (1, 2)]
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if num_shards < 1:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    num_shards = min(num_shards, total) or (1 if total else 0)
    bounds = np.linspace(0, total, num_shards + 1).astype(np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(num_shards)
        if bounds[i + 1] > bounds[i]
    ]


def shard_rows_by_nnz(
    indptr: np.ndarray, num_shards: int
) -> list[tuple[int, int]]:
    """Contiguous CSR row ranges with near-equal stored-entry counts.

    ``indptr`` is the CSR index pointer (length ``rows + 1``); the cost of
    ``A[start:stop] @ X`` is proportional to the nnz in the range, so
    balancing by nnz rather than row count keeps skew-degree shards even.
    """
    indptr = np.asarray(indptr)
    rows = int(indptr.shape[0]) - 1
    if rows < 0:
        raise ValueError("indptr must have at least one entry")
    if num_shards < 1:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    num_shards = min(num_shards, rows) or (1 if rows else 0)
    if num_shards <= 1:
        return [(0, rows)] if rows else []
    total = int(indptr[-1])
    # Cut where the cumulative nnz crosses each equal-share boundary; fall
    # back to equal row counts for edgeless matrices.
    if total == 0:
        return shard_ranges(rows, num_shards)
    targets = np.linspace(0, total, num_shards + 1)[1:-1]
    cuts = np.searchsorted(indptr[1:], targets, side="left") + 1
    bounds = np.unique(np.concatenate(([0], cuts, [rows])))
    return [
        (int(bounds[i]), int(bounds[i + 1])) for i in range(len(bounds) - 1)
    ]


class WorkerPool:
    """A shard executor: workers when ``max_workers > 1``, inline otherwise.

    Parameters
    ----------
    max_workers:
        Worker count.  ``None`` resolves to the cores this process may
        run on (its CPU affinity set, else ``os.cpu_count()``); ``1`` is
        the serial mode (shards run inline, in order, in the calling
        thread — the determinism-debugging configuration).
    backend:
        ``"thread"`` (default) or ``"process"``.  The process backend
        keeps one persistent ``ProcessPoolExecutor`` per pool (started
        lazily on the first parallel :meth:`map`), whose workers pin
        their BLAS thread pools to 1 (mirroring the CI pinning) so w
        processes never fan out into w × BLAS threads.  Process shards
        must be (module-level function, picklable item) pairs; closures
        are a thread/serial-only convenience.
    mp_context:
        Multiprocessing start method for the process backend: ``"fork"``
        (default where available — instant pool start, inherits the
        parent's BLAS state), ``"spawn"`` (slower start, but the BLAS
        pin is applied *before* numpy loads, so it is authoritative), or
        ``"forkserver"``.

    Examples
    --------
    >>> pool = WorkerPool(max_workers=2)
    >>> pool.map(lambda x: x * x, [1, 2, 3])
    [1, 4, 9]
    >>> WorkerPool(max_workers=1).serial
    True
    """

    __slots__ = (
        "max_workers",
        "backend",
        "mp_context",
        "_executor",
        "_executor_lock",
        "_worker_info",
        "_finalizer",
        "__weakref__",
    )

    def __init__(
        self,
        max_workers: int | None = None,
        backend: str = "thread",
        mp_context: str | None = None,
    ) -> None:
        if max_workers is None:
            max_workers = _repro_blas_pin.usable_cpu_count()
        if not isinstance(max_workers, (int, np.integer)) or isinstance(
            max_workers, bool
        ):
            raise TypeError(f"max_workers must be an int, got {max_workers!r}")
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        self.max_workers = int(max_workers)
        self.backend = backend
        self.mp_context = mp_context or _default_mp_context()
        self._executor: Executor | None = None
        self._executor_lock = threading.Lock()
        self._worker_info: dict[str, int] | None = None
        self._finalizer = None

    @classmethod
    def resolve(
        cls,
        workers: "WorkerPool | int | None",
        backend: str | None = None,
    ) -> "WorkerPool":
        """Normalise an entry-point argument into a pool.

        ``None`` means *serial* (the library never threads unless asked),
        an int is a worker count, and an existing pool passes through
        (its own backend wins — ``backend`` only applies when a pool is
        being created here).
        """
        if isinstance(workers, cls):
            return workers
        workers = 1 if workers is None else workers
        return cls(max_workers=workers, backend=backend or "thread")

    @property
    def serial(self) -> bool:
        """True when shards run inline in the calling thread."""
        return self.max_workers == 1

    def workspace(self) -> "Workspace":
        """A fresh operand workspace for this pool's shard kernels.

        One per solver or scan: it places operands where this pool's
        workers can reach them (:mod:`repro.runtime.workspace`) —
        arrays in place for serial and thread pools, file descriptors
        for process pools.
        """
        from repro.runtime.workspace import ProcessWorkspace, Workspace

        if self.backend == "process" and not self.serial:
            return ProcessWorkspace(self.max_workers)
        return Workspace(self.max_workers)

    # ------------------------------------------------------------------
    # Process-backend executor lifecycle
    # ------------------------------------------------------------------
    def _process_executor(self) -> Executor:
        """The persistent process executor, started on first use.

        Workers run :func:`_repro_blas_pin.initialize` as their
        initializer; one probe task then records the *effective* BLAS
        thread count (env intent and loaded-library truth can differ
        under ``fork``) into :attr:`worker_info`.
        """
        with self._executor_lock:
            if self._executor is None:
                context = multiprocessing.get_context(self.mp_context)
                executor = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=context,
                    initializer=_repro_blas_pin.initialize,
                    initargs=(1,),
                )
                self._worker_info = executor.submit(_probe_worker).result()
                self._executor = executor
                self._finalizer = weakref.finalize(
                    self, _shutdown_executor, executor
                )
            return self._executor

    @property
    def worker_info(self) -> dict[str, int] | None:
        """Probe result from the process workers (None until first use)."""
        return self._worker_info

    def shutdown(self) -> None:
        """Stop the persistent process executor (no-op for threads/serial).

        The pool remains usable: the next process-parallel ``map`` starts
        a fresh executor.
        """
        with self._executor_lock:
            executor, self._executor = self._executor, None
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        context: ExecutionContext = NULL_CONTEXT,
        what: str = "parallel shards",
    ) -> list[R]:
        """Apply ``fn`` to every item; results come back in item order.

        The context is checkpointed before every shard, so a
        cancelled token or expired deadline stops the work at shard
        granularity; per-shard wall time lands in the
        ``parallel.shard_seconds`` timer.  The first shard to fail — in
        *submission* order, independent of thread scheduling — has its
        exception re-raised here; shards not yet started when any shard
        fails are cancelled.
        """
        work: Sequence[T] = list(items)
        # Captured in the submitting thread: worker-thread shard spans
        # stitch under the span that submitted them, not under whatever
        # happens to be open on the worker's own stack.
        parent = context.tracer.current_span()
        context.checkpoint(what)
        context.metrics.record_max("parallel.workers", self.max_workers)
        if not work:
            return []
        if self.serial or len(work) == 1:
            return [self._run_shard(fn, item, context, what, parent) for item in work]
        if self.backend == "process":
            return self._map_process(fn, work, context, what, parent)
        run = self._run_shard
        with ThreadPoolExecutor(max_workers=self.max_workers) as executor:
            futures = [
                executor.submit(run, fn, item, context, what, parent)
                for item in work
            ]
            return _gather(futures)

    def _map_process(
        self,
        fn: Callable[[T], R],
        work: Sequence[T],
        context: ExecutionContext,
        what: str,
        parent,
    ) -> list[R]:
        """Ship shards to the persistent process executor.

        ``fn`` and every item must be picklable (module-level kernels over
        :mod:`repro.runtime.workspace` descriptors); results and failures
        are gathered as on the thread path.  The context cannot cross the
        process boundary, so cancellation / deadline / fault-injection
        fire at batch granularity in the parent, and the batch's wall
        time is observed from the parent's side.
        """
        executor = self._process_executor()
        if self._worker_info is not None:
            context.metrics.set_gauge(
                "parallel.worker_blas_threads",
                float(self._worker_info["blas_threads"]),
            )
            context.metrics.record_max(
                "parallel.process_workers", self.max_workers
            )
        start = time.perf_counter()
        with context.tracer.span("parallel.process_batch", parent=parent) as span:
            span.set_attribute("what", what)
            span.set_attribute("shards", len(work))
            try:
                return _gather([executor.submit(fn, item) for item in work])
            finally:
                context.metrics.add_time(
                    "parallel.shard_seconds", time.perf_counter() - start
                )
                context.metrics.increment("parallel.shards", len(work))
                context.checkpoint(what)

    @staticmethod
    def _run_shard(
        fn: Callable[[T], R],
        item: T,
        context: ExecutionContext,
        what: str,
        parent,
    ) -> R:
        context.checkpoint(what)
        start = time.perf_counter()
        try:
            with context.tracer.span("parallel.shard", parent=parent) as span:
                span.set_attribute("what", what)
                return fn(item)
        finally:
            context.metrics.add_time(
                "parallel.shard_seconds", time.perf_counter() - start
            )
            context.metrics.increment("parallel.shards")

    def __repr__(self) -> str:
        return (
            f"WorkerPool(max_workers={self.max_workers}, "
            f"backend={self.backend!r})"
        )


def _gather(futures: list[Future]) -> list:
    """Shard results in submission order.  Once any shard fails, the
    shards that have not started are cancelled; the first failure *in
    submission order* is re-raised."""

    def cancel_rest(done: Future) -> None:
        if not done.cancelled() and done.exception() is not None:
            for pending in futures:
                pending.cancel()

    for future in futures:
        future.add_done_callback(cancel_rest)
    wait(futures)
    for future in futures:  # a shard's own failure outranks cancellations
        if not future.cancelled() and future.exception() is not None:
            raise future.exception()
    return [future.result() for future in futures]


def _shutdown_executor(executor: Executor) -> None:
    """GC finalizer for a pool's process executor (module-level so the
    finalizer holds no reference back to the pool)."""
    executor.shutdown(wait=False, cancel_futures=True)
