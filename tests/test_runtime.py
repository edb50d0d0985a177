"""Unit tests for the runtime layer: ExecutionContext, Metrics, budgets.

Covers the three scenarios the issue calls out explicitly — a deadline
armed mid-run stopping GSim+ with partial metrics, a memory budget turning
the dense rank-cap fallback into a structured failure, and thread-pooled
``query_many`` aggregating counters without losing increments — plus the
supporting pieces (Metrics semantics, ledger accounting, cancellation,
the budget policies, and byte-identical no-context behaviour).
"""

import threading
import time

import numpy as np
import pytest

from repro import gsim_plus
from repro.core.batch import BatchQueryEngine
from repro.core.embeddings import LowRankFactors
from repro.core.gsim_plus import GSimPlus
from repro.graphs import Graph
from repro.runtime import (
    BudgetExceeded,
    Cancelled,
    CancellationToken,
    Deadline,
    DeadlineExceeded,
    ExecutionContext,
    MemoryBudget,
    MemoryBudgetExceeded,
    MemoryLedger,
    Metrics,
    WallClockDeadline,
)
from repro.runtime.metrics import SERIES_CAPACITY
from repro.utils.validation import resolve_node_index


def _ring(n: int, seed: int = 0) -> Graph:
    """A ring plus a few chords — connected, irregular, deterministic."""
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(n // 2):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((int(u), int(v)))
    return Graph.from_edges(n, edges)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counters_accumulate(self):
        metrics = Metrics()
        metrics.increment("x")
        metrics.increment("x", 4)
        assert metrics.counter("x") == 5.0
        assert metrics.counter("never") == 0.0

    def test_timer_context_manager(self):
        metrics = Metrics()
        with metrics.time("block"):
            pass
        with metrics.time("block"):
            pass
        reading = metrics.timer("block")
        assert reading.calls == 2
        assert reading.seconds >= 0.0
        assert metrics.timer("never") == (0.0, 0)

    def test_gauges_and_record_max(self):
        metrics = Metrics()
        metrics.set_gauge("g", 7)
        metrics.set_gauge("g", 3)
        assert metrics.gauge("g") == 3.0
        metrics.record_max("peak", 10)
        metrics.record_max("peak", 4)
        assert metrics.gauge("peak") == 10.0

    def test_series_ordered(self):
        metrics = Metrics()
        for value in (1, 2, 4, 8):
            metrics.observe("width", value)
        assert metrics.series("width") == [1, 2, 4, 8]

    def test_series_keep_only_the_newest_values(self):
        metrics = Metrics()
        for value in range(10_000):
            metrics.observe("width", value)
        kept = metrics.series("width")
        assert len(kept) <= SERIES_CAPACITY
        assert kept == list(range(10_000 - len(kept), 10_000))
        merged = Metrics()
        merged.merge_snapshot(metrics.snapshot())
        merged.merge_snapshot(metrics.snapshot())
        assert len(merged.series("width")) <= SERIES_CAPACITY
        assert merged.series("width")[-1] == 9_999

    def test_snapshot_is_a_deep_copy(self):
        metrics = Metrics()
        metrics.increment("n")
        metrics.observe("s", 1)
        snap = metrics.snapshot()
        metrics.increment("n")
        metrics.observe("s", 2)
        assert snap["counters"]["n"] == 1
        assert snap["series"]["s"] == [1]

    def test_merge_snapshot_semantics(self):
        first = Metrics()
        first.increment("calls", 2)
        first.record_max("peak", 5)
        first.observe("w", 1)
        first.add_time("t", 0.5)
        second = Metrics()
        second.increment("calls", 3)
        second.record_max("peak", 9)
        second.observe("w", 2)
        second.add_time("t", 0.25)
        first.merge_snapshot(second.snapshot())
        snap = first.snapshot()
        assert snap["counters"]["calls"] == 5
        assert snap["gauges"]["peak"] == 9
        assert snap["series"]["w"] == [1, 2]
        assert first.timer("t").calls == 2
        assert first.timer("t").seconds == pytest.approx(0.75)

    def test_thread_safety_no_lost_increments(self):
        metrics = Metrics()
        per_thread, threads = 2000, 8

        def worker():
            for _ in range(per_thread):
                metrics.increment("hits")

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert metrics.counter("hits") == per_thread * threads


# ----------------------------------------------------------------------
# MemoryLedger / WallClockDeadline
# ----------------------------------------------------------------------
class TestMemoryLedger:
    def test_charge_release_peak(self):
        ledger = MemoryLedger(1000)
        ledger.charge(400, "a")
        ledger.charge(500, "b")
        assert ledger.held_bytes == 900
        ledger.release(500)
        assert ledger.held_bytes == 400
        assert ledger.peak_bytes == 900

    def test_breach_raises_and_holds_nothing_extra(self):
        ledger = MemoryLedger(1000)
        ledger.charge(800, "base")
        with pytest.raises(MemoryBudgetExceeded, match="exceeds budget"):
            ledger.charge(300, "overflow")
        assert ledger.held_bytes == 800

    def test_release_clamps_at_zero(self):
        ledger = MemoryLedger(100)
        ledger.charge(50, "x")
        ledger.release(80)
        assert ledger.held_bytes == 0

    def test_negative_amounts_rejected(self):
        ledger = MemoryLedger(100)
        with pytest.raises(ValueError):
            ledger.charge(-1)
        with pytest.raises(ValueError):
            ledger.release(-1)


class TestWallClockDeadline:
    def test_fresh_deadline_not_expired(self):
        deadline = WallClockDeadline(60.0)
        assert not deadline.expired
        deadline.check("warm-up")  # no raise

    def test_expired_deadline_raises(self):
        deadline = WallClockDeadline(0.005)
        time.sleep(0.02)
        assert deadline.expired
        with pytest.raises(DeadlineExceeded, match="wall-clock budget"):
            deadline.check("slow step")


# ----------------------------------------------------------------------
# ExecutionContext
# ----------------------------------------------------------------------
class TestExecutionContext:
    def test_default_context_is_pure_metrics(self):
        context = ExecutionContext()
        context.checkpoint("anything")  # no budgets: never raises
        context.charge(10**12)  # no ledger: no-op
        context.metrics.increment("ok")
        assert context.snapshot()["counters"]["ok"] == 1

    def test_start_arms_limits(self):
        context = ExecutionContext.start(
            deadline_seconds=60.0, memory_limit_bytes=1024
        )
        context.charge(512, "factors")
        assert context.memory is not None
        assert context.memory.held_bytes == 512
        assert context.snapshot()["gauges"]["memory.peak_bytes"] == 512

    def test_checkpoint_deadline_carries_metrics(self):
        context = ExecutionContext.start(deadline_seconds=0.005)
        context.metrics.increment("progress", 3)
        time.sleep(0.02)
        with pytest.raises(DeadlineExceeded) as excinfo:
            context.checkpoint("step")
        assert excinfo.value.metrics["counters"]["progress"] == 3

    def test_charge_breach_carries_metrics(self):
        context = ExecutionContext.start(memory_limit_bytes=100)
        context.metrics.increment("progress")
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            context.charge(200, "big block")
        assert excinfo.value.metrics["counters"]["progress"] == 1

    def test_cancellation_token(self):
        token = CancellationToken()
        context = ExecutionContext(cancellation=token)
        context.checkpoint("before")  # fine
        token.cancel()
        with pytest.raises(Cancelled, match="cancelled"):
            context.checkpoint("after")

    def test_budget_exceptions_share_base(self):
        for exc_type in (DeadlineExceeded, MemoryBudgetExceeded, Cancelled):
            assert issubclass(exc_type, BudgetExceeded)


# ----------------------------------------------------------------------
# GSim+ under a context
# ----------------------------------------------------------------------
class TestGSimPlusUnderContext:
    def test_no_context_results_identical(self):
        a, b = _ring(12, seed=1), _ring(8, seed=2)
        plain = gsim_plus(a, b, iterations=6)
        traced = gsim_plus(a, b, iterations=6, context=ExecutionContext())
        np.testing.assert_array_equal(plain.similarity, traced.similarity)
        assert plain.z_frobenius_log == traced.z_frobenius_log

    def test_metrics_recorded_per_iteration(self):
        a, b = _ring(12, seed=1), _ring(8, seed=2)
        context = ExecutionContext()
        gsim_plus(a, b, iterations=6, context=context)
        snap = context.snapshot()
        assert snap["counters"]["gsim_plus.iterations"] == 6
        assert snap["counters"]["gsim_plus.spmm"] == 24
        # widths double (1, 2, 4, 8) then pin at min(n_a, n_b) = 8 dense.
        assert snap["series"]["gsim_plus.width"] == [1, 2, 4, 8, 8, 8, 8]
        assert snap["counters"]["gsim_plus.dense_steps"] == 3

    def test_deadline_armed_mid_run_stops_with_partial_metrics(self):
        a, b = _ring(12, seed=1), _ring(8, seed=2)
        context = ExecutionContext.start(deadline_seconds=0.05)

        def stall(k, width):
            if k == 1:
                time.sleep(0.08)  # burn the budget after one iteration

        solver = GSimPlus(a, b)
        with pytest.raises(DeadlineExceeded, match="GSim\\+ iteration") as excinfo:
            solver.run(iterations=10, progress=stall, context=context)
        partial = excinfo.value.metrics
        assert partial is not None
        assert partial["counters"]["gsim_plus.iterations"] == 1

    def test_memory_budget_converts_dense_fallback_to_structured_oom(self):
        # Factored working sets for n_a=12, n_b=8: (12+8)*width*8 bytes,
        # peaking at 1280 B at width 8.  The dense fallback then needs
        # 2*12*8*8 = 1536 B, so a 1400 B ceiling admits every factored
        # step and rejects exactly the dense hand-over.
        a, b = _ring(12, seed=1), _ring(8, seed=2)
        context = ExecutionContext.start(memory_limit_bytes=1400)
        with pytest.raises(MemoryBudgetExceeded, match="dense rank-cap") as excinfo:
            gsim_plus(a, b, iterations=6, rank_cap="dense", context=context)
        partial = excinfo.value.metrics
        assert partial["counters"]["gsim_plus.iterations"] == 3
        # The breach released the factored charge before raising.
        assert context.memory is not None
        assert context.memory.held_bytes == 0
        # The same run fits in factored form when the cap never engages.
        roomy = ExecutionContext.start(memory_limit_bytes=1400)
        result = gsim_plus(a, b, iterations=3, rank_cap="none", context=roomy)
        assert result.final_width == 8

    def test_dense_fallback_charges_every_step_buffer(self, monkeypatch):
        # A dense step holds the iterate plus Z^T, P, Q and the update:
        # 5*12*8*8 = 3840 B.  A 2000 B ceiling admits the factored steps
        # (peak 1280 B) and a two-buffer charge (1536 B) but not that
        # working set, so the hand-over fails before any dense step runs.
        def no_dense_step(*args, **kwargs):
            raise AssertionError("dense step ran past its ledger charge")

        monkeypatch.setattr(GSimPlus, "_step_dense", no_dense_step)
        a, b = _ring(12, seed=1), _ring(8, seed=2)
        context = ExecutionContext.start(memory_limit_bytes=2000)
        with pytest.raises(MemoryBudgetExceeded, match="dense rank-cap") as excinfo:
            gsim_plus(a, b, iterations=6, rank_cap="dense", context=context)
        assert excinfo.value.metrics["counters"]["gsim_plus.iterations"] == 3
        assert context.memory is not None
        assert context.memory.held_bytes == 0

    def test_cancellation_stops_iteration(self):
        a, b = _ring(12, seed=1), _ring(8, seed=2)
        token = CancellationToken()
        context = ExecutionContext(cancellation=token)

        def cancel_after_two(k, width):
            if k == 2:
                token.cancel()

        with pytest.raises(Cancelled):
            GSimPlus(a, b).run(
                iterations=10, progress=cancel_after_two, context=context
            )
        assert context.metrics.counter("gsim_plus.iterations") == 2

    def test_z_frobenius_log_finite_in_dense_fallback(self):
        # Satellite fix: the dense regime used to report NaN; it must now
        # match the exact ("none") rank-cap value in log-space.
        a, b = _ring(12, seed=1), _ring(8, seed=2)
        dense = gsim_plus(a, b, iterations=8, rank_cap="dense")
        exact = gsim_plus(a, b, iterations=8, rank_cap="none")
        assert dense.used_dense_fallback
        assert np.isfinite(dense.z_frobenius_log)
        np.testing.assert_allclose(
            dense.z_frobenius_log, exact.z_frobenius_log, rtol=1e-9
        )


# ----------------------------------------------------------------------
# BatchQueryEngine under a context
# ----------------------------------------------------------------------
class TestBatchUnderContext:
    def _engine(self) -> BatchQueryEngine:
        rng = np.random.default_rng(7)
        return BatchQueryEngine(
            LowRankFactors(rng.random((40, 4)), rng.random((30, 4)))
        )

    def test_query_many_threaded_counter_aggregation(self):
        engine = self._engine()
        requests = [([i % 40, (i + 1) % 40], [i % 30]) for i in range(64)]
        context = ExecutionContext()
        serial = engine.query_many(requests)
        threaded = engine.query_many(requests, max_workers=4, context=context)
        for expected, got in zip(serial, threaded):
            np.testing.assert_array_equal(expected, got)
        snap = context.snapshot()
        assert snap["counters"]["batch.blocks_served"] == len(requests)
        assert snap["counters"]["batch.cells_served"] == sum(
            len(qa) * len(qb) for qa, qb in requests
        )

    def test_stream_rows_charges_blocks_and_releases(self):
        engine = self._engine()
        context = ExecutionContext.start(memory_limit_bytes=16 * 30 * 8)
        blocks = list(engine.stream_rows(block_rows=16, context=context))
        assert sum(b.shape[0] for _, b in blocks) == 40
        assert context.memory is not None
        assert context.memory.held_bytes == 0
        assert context.metrics.counter("batch.rows_streamed") == 40

    def test_stream_rows_deadline_checkpoint(self):
        engine = self._engine()
        context = ExecutionContext.start(deadline_seconds=0.005)
        stream = engine.stream_rows(block_rows=16, context=context)
        next(stream)
        time.sleep(0.02)
        with pytest.raises(DeadlineExceeded, match="stream_rows block"):
            next(stream)


# ----------------------------------------------------------------------
# Policy objects
# ----------------------------------------------------------------------
class TestGuardsFacade:
    def test_policies_arm_live_enforcers(self):
        assert isinstance(Deadline(limit_seconds=5.0).arm(), WallClockDeadline)
        ledger = MemoryBudget(limit_bytes=1024).ledger()
        assert isinstance(ledger, MemoryLedger)
        assert ledger.limit_bytes == 1024


# ----------------------------------------------------------------------
# resolve_node_index (satellite helper)
# ----------------------------------------------------------------------
class TestResolveNodeIndex:
    def test_passthrough(self):
        out = resolve_node_index([2, 0, 1], 3, "queries")
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [2, 0, 1])

    def test_none_resolves_to_all_when_allowed(self):
        np.testing.assert_array_equal(
            resolve_node_index(None, 4, "queries", full_if_none=True),
            np.arange(4),
        )
        with pytest.raises(ValueError, match="must not be None"):
            resolve_node_index(None, 4, "queries")

    def test_bounds(self):
        with pytest.raises(IndexError, match="out of range"):
            resolve_node_index([0, 3], 3, "queries")
        with pytest.raises(IndexError, match="out of range"):
            resolve_node_index([-1], 3, "queries")

    def test_bounds_error_type_override(self):
        with pytest.raises(ValueError, match="out of range"):
            resolve_node_index([5], 3, "nodes", bounds_error=ValueError)

    def test_duplicates(self):
        with pytest.raises(ValueError, match="contains duplicates"):
            resolve_node_index([1, 1], 3, "queries")
        np.testing.assert_array_equal(
            resolve_node_index([1, 1], 3, "queries", allow_duplicates=True),
            [1, 1],
        )

    def test_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            resolve_node_index([], 3, "queries")
        assert resolve_node_index([], 3, "queries", allow_empty=True).size == 0

    def test_non_1d_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            resolve_node_index([[0, 1]], 3, "queries")
