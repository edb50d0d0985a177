"""Serial-vs-parallel equivalence suite and worker-pool unit tests.

Everything here carries the ``parallel`` marker; CI runs it as its own
step with pinned BLAS thread counts.  The load-bearing claims:

* every parallel path (factor steps, dense fallback, top-k scans, sweep
  cells, batched queries) returns **bit-identical** results for
  ``max_workers`` in {1, 2, 4};
* cancellation and deadline expiry propagate out of worker threads as
  the same structured exceptions the serial path raises;
* the bounded-memory scans stay within their ledger budget.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest

import _repro_blas_pin

from repro.core.batch import BatchQueryEngine
from repro.core.embeddings import LowRankFactors
from repro.core.gsim_plus import GSimPlus
from repro.core.topk import scan_top_pairs, top_k_for_queries, top_k_pairs
from repro.experiments.journal import RunJournal
from repro.experiments.runner import (
    ALGORITHMS,
    AlgorithmSpec,
    CellTask,
    ExperimentConfig,
    run_cells,
)
from repro.graphs.generators import rmat_graph
from repro.retrieval.index import GSimIndex
from repro.runtime import (
    CancellationToken,
    Cancelled,
    DeadlineExceeded,
    ExecutionContext,
    MemoryLedger,
    WallClockDeadline,
    WorkerPool,
)
from repro.runtime.errors import TransientError
from repro.runtime.parallel import shard_ranges, shard_rows_by_nnz
from repro.runtime.resilience import RetryPolicy

pytestmark = pytest.mark.parallel

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def graph_pair():
    return (
        rmat_graph(8, 1200, seed=3, name="A"),
        rmat_graph(7, 600, seed=4, name="B"),
    )


# ----------------------------------------------------------------------
# Shard helpers
# ----------------------------------------------------------------------
class TestShardHelpers:
    def test_ranges_cover_and_are_contiguous(self):
        for total in (0, 1, 2, 7, 10, 1000):
            for shards in (1, 2, 3, 7, 64):
                ranges = shard_ranges(total, shards)
                assert len(ranges) <= shards
                flat = [i for start, stop in ranges for i in range(start, stop)]
                assert flat == list(range(total))

    def test_ranges_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            shard_ranges(-1, 2)
        with pytest.raises(ValueError):
            shard_ranges(10, 0)

    def test_nnz_shards_cover_and_balance(self, graph_pair):
        graph_a, _ = graph_pair
        indptr = graph_a.adjacency.indptr
        total = int(indptr[-1])
        for shards in (1, 2, 4, 8):
            ranges = shard_rows_by_nnz(indptr, shards)
            flat = [i for start, stop in ranges for i in range(start, stop)]
            assert flat == list(range(graph_a.num_nodes))
            if shards > 1 and len(ranges) > 1:
                loads = [int(indptr[stop] - indptr[start]) for start, stop in ranges]
                # Balanced up to one row's worth of skew around the target.
                assert max(loads) <= total / len(ranges) + int(np.diff(indptr).max())

    def test_nnz_shards_edgeless_falls_back_to_rows(self):
        indptr = np.zeros(11, dtype=np.int64)
        assert shard_rows_by_nnz(indptr, 3) == shard_ranges(10, 3)

    def test_nnz_shards_empty_matrix(self):
        assert shard_rows_by_nnz(np.zeros(1, dtype=np.int64), 4) == []


# ----------------------------------------------------------------------
# WorkerPool
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_map_preserves_order(self):
        for workers in WORKER_COUNTS:
            pool = WorkerPool(max_workers=workers)
            assert pool.map(lambda x: x * x, range(50)) == [x * x for x in range(50)]

    def test_serial_flag_and_resolve(self):
        assert WorkerPool(max_workers=1).serial
        assert not WorkerPool(max_workers=2).serial
        assert WorkerPool.resolve(None).max_workers == 1
        assert WorkerPool.resolve(3).max_workers == 3
        pool = WorkerPool(max_workers=2)
        assert WorkerPool.resolve(pool) is pool

    def test_default_worker_count_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        for name in _repro_blas_pin.BLAS_ENV_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # unprobed
        assert WorkerPool().max_workers == 1
        assert _repro_blas_pin.effective_blas_threads() == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert WorkerPool().max_workers == 8
        assert _repro_blas_pin.effective_blas_threads() == 8

    def test_rejects_bad_worker_counts(self):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=0)
        with pytest.raises(TypeError):
            WorkerPool(max_workers=True)
        with pytest.raises(TypeError):
            WorkerPool(max_workers=2.5)

    def test_first_submitted_error_wins(self):
        def boom(x):
            raise ValueError(f"boom{x}")

        for workers in WORKER_COUNTS:
            with pytest.raises(ValueError, match="boom0"):
                WorkerPool(max_workers=workers).map(boom, range(8))

    def test_single_failure_propagates(self):
        def maybe_boom(x):
            if x == 5:
                raise KeyError("five")
            return x

        with pytest.raises(KeyError):
            WorkerPool(max_workers=4).map(maybe_boom, range(8))

    def test_failure_cancels_queued_shards_while_earlier_shard_runs(self):
        # Shard 0 is still running when shard 1 fails: the queued shards
        # must not start, although shard 1's error is not yet reached in
        # submission order.
        failing = threading.Event()
        ran = []

        def shard(x):
            ran.append(x)
            if x == 0:
                assert failing.wait(10)
                time.sleep(0.2)  # let the failure's cancellations land
                return x
            if x == 1:
                failing.set()
                raise KeyError("one")
            return x

        with pytest.raises(KeyError):
            WorkerPool(max_workers=2).map(shard, range(8))
        assert sorted(ran) == [0, 1]

    def test_serial_runs_inline(self):
        thread_ids = []
        WorkerPool(max_workers=1).map(
            lambda _: thread_ids.append(threading.get_ident()), range(4)
        )
        assert set(thread_ids) == {threading.get_ident()}

    def test_map_records_shard_metrics(self):
        context = ExecutionContext()
        WorkerPool(max_workers=2).map(lambda x: x, range(6), context=context)
        snap = context.metrics.snapshot()
        assert snap["counters"]["parallel.shards"] == 6
        assert snap["gauges"]["parallel.workers"] == 2

    def test_map_checkpoints_cancellation(self):
        token = CancellationToken()
        token.cancel()
        context = ExecutionContext(cancellation=token)
        with pytest.raises(Cancelled):
            WorkerPool(max_workers=2).map(lambda x: x, range(4), context=context)


# ----------------------------------------------------------------------
# Factor-step bit-identity
# ----------------------------------------------------------------------
class TestFactorStepEquivalence:
    @pytest.mark.parametrize("rank_cap", ["dense", "qr-compress", "none"])
    def test_bit_identical_across_workers(self, graph_pair, rank_cap):
        graph_a, graph_b = graph_pair
        iterations = 5 if rank_cap == "none" else 10
        reference = GSimPlus(graph_a, graph_b, rank_cap=rank_cap).run(iterations)
        for workers in WORKER_COUNTS[1:]:
            result = GSimPlus(
                graph_a, graph_b, rank_cap=rank_cap, max_workers=workers
            ).run(iterations)
            assert np.array_equal(reference.similarity, result.similarity)
            assert reference.z_frobenius_log == result.z_frobenius_log
            assert reference.used_dense_fallback == result.used_dense_fallback

    def test_dense_fallback_engages(self, graph_pair):
        graph_a, graph_b = graph_pair
        result = GSimPlus(graph_a, graph_b, max_workers=4).run(10)
        assert result.used_dense_fallback  # the regime the sharded dense step serves

    def test_shard_cache_hits_counted(self, graph_pair):
        graph_a, graph_b = graph_pair
        context = ExecutionContext()
        GSimPlus(graph_a, graph_b, max_workers=2).run(6, context=context)
        counters = context.metrics.snapshot()["counters"]
        assert counters["gsim_plus.shard_cache_hits"] > 0
        assert counters["gsim_plus.transpose_cache_hits"] > 0


# ----------------------------------------------------------------------
# Top-k scans
# ----------------------------------------------------------------------
class TestTopKEquivalence:
    def test_pairs_identical_across_workers_and_blocks(self, graph_pair):
        graph_a, graph_b = graph_pair
        reference = top_k_pairs(graph_a, graph_b, k=25, iterations=6)
        for workers in WORKER_COUNTS:
            for block_rows in (16, 1024):
                result = top_k_pairs(
                    graph_a, graph_b, k=25, iterations=6,
                    block_rows=block_rows, max_workers=workers,
                )
                assert result == reference

    def test_scan_matches_bruteforce_on_tie_heavy_factors(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n_a = int(rng.integers(2, 40))
            n_b = int(rng.integers(2, 30))
            # Integer entries produce many exact score ties.
            factors = LowRankFactors(
                rng.integers(0, 3, size=(n_a, 2)).astype(float),
                rng.integers(0, 3, size=(n_b, 2)).astype(float),
            )
            scores = factors.u @ factors.v.T
            rows, cols = np.divmod(np.arange(scores.size), n_b)
            for k in (1, 5, n_a * n_b):
                order = np.lexsort((cols, rows, -scores.ravel()))[:k]
                expected = [
                    (int(rows[i]), int(cols[i]), float(scores.ravel()[i]))
                    for i in order
                ]
                for workers in WORKER_COUNTS:
                    got = scan_top_pairs(
                        factors, k, block_rows=3, max_workers=workers
                    )
                    assert [(p.node_a, p.node_b, p.score) for p in got] == expected

    def test_queries_identical_across_workers(self, graph_pair):
        graph_a, graph_b = graph_pair
        queries = list(range(0, graph_a.num_nodes, 3))
        reference = top_k_for_queries(graph_a, graph_b, queries, k=7, iterations=6)
        for workers in WORKER_COUNTS:
            for block_rows in (8, 1024):
                result = top_k_for_queries(
                    graph_a, graph_b, queries, k=7, iterations=6,
                    block_rows=block_rows, max_workers=workers,
                )
                assert result == reference

    def test_queries_memory_stays_bounded(self, graph_pair):
        """The blocked query scan must never charge the full |Q| x n_B."""
        graph_a, graph_b = graph_pair
        queries = list(range(graph_a.num_nodes)) * 4  # |Q| = 4 n_A
        block_rows = 16
        full_bytes = len(queries) * graph_b.num_nodes * 8
        context = ExecutionContext(memory=MemoryLedger(1 << 30))
        top_k_for_queries(
            graph_a, graph_b, queries, k=5, iterations=6,
            block_rows=block_rows, context=context,
        )
        assert context.memory.peak_bytes < full_bytes
        assert context.memory.held_bytes == 0

    def test_cancellation_fires_mid_scan(self, graph_pair):
        graph_a, graph_b = graph_pair
        factors = GSimIndex.build(graph_a, graph_b, iterations=6)._factors

        class _CancelAfter:
            def __init__(self, token, after):
                self.token = token
                self.remaining = after

            def on_checkpoint(self, what):
                self.remaining -= 1
                if self.remaining <= 0:
                    self.token.cancel()

        for workers in (2, 4):
            token = CancellationToken()
            context = ExecutionContext(
                cancellation=token, fault_injector=_CancelAfter(token, after=3)
            )
            with pytest.raises(Cancelled):
                scan_top_pairs(
                    factors, 10, block_rows=8,
                    context=context, max_workers=workers,
                )

    def test_deadline_fires_mid_scan(self, graph_pair):
        graph_a, graph_b = graph_pair
        factors = GSimIndex.build(graph_a, graph_b, iterations=6)._factors
        for workers in (2, 4):
            context = ExecutionContext(deadline=WallClockDeadline(1e-9))
            with pytest.raises(DeadlineExceeded):
                scan_top_pairs(
                    factors, 10, block_rows=8,
                    context=context, max_workers=workers,
                )


# ----------------------------------------------------------------------
# Batched queries and the index
# ----------------------------------------------------------------------
class TestServingEquivalence:
    def test_query_many_identical_across_workers(self, graph_pair):
        graph_a, graph_b = graph_pair
        index = GSimIndex.build(graph_a, graph_b, iterations=6)
        rng = np.random.default_rng(5)
        requests = [
            (
                rng.integers(0, graph_a.num_nodes, size=4).tolist(),
                rng.integers(0, graph_b.num_nodes, size=3).tolist(),
            )
            for _ in range(12)
        ]
        reference = index.query_many(requests)
        for workers in WORKER_COUNTS:
            blocks = index.query_many(requests, max_workers=workers)
            assert len(blocks) == len(reference)
            for got, expected in zip(blocks, reference):
                assert np.array_equal(got, expected)

    def test_engine_query_many_accepts_legacy_zero(self):
        engine = BatchQueryEngine(
            LowRankFactors(np.ones((4, 1)), np.ones((3, 1)))
        )
        blocks = engine.query_many([([0], [0, 1])], max_workers=0)
        assert blocks[0].shape == (1, 2)

    def test_index_top_pairs_identical_across_workers(self, graph_pair):
        graph_a, graph_b = graph_pair
        index = GSimIndex.build(graph_a, graph_b, iterations=6)
        reference = index.top_pairs(k=20)
        for workers in WORKER_COUNTS:
            for block_rows in (16, 1024):
                assert (
                    index.top_pairs(
                        k=20, block_rows=block_rows, max_workers=workers
                    )
                    == reference
                )


# ----------------------------------------------------------------------
# Sweep cells
# ----------------------------------------------------------------------
def _tiny_tasks(graph_pair, algorithms=("GSim+", "GSim")):
    graph_a, graph_b = graph_pair
    queries_a = np.arange(8)
    queries_b = np.arange(8)
    return [
        CellTask(
            ALGORITHMS[name], graph_a, graph_b, queries_a, queries_b,
            iterations=4, dataset=f"cell-{name}",
        )
        for name in algorithms
    ]


def _comparable(record):
    return (record.algorithm, record.dataset, record.outcome, record.params)


class TestSweepEquivalence:
    def test_run_cells_identical_outcomes(self, graph_pair):
        tasks = _tiny_tasks(graph_pair)
        serial = run_cells(tasks, ExperimentConfig(max_workers=1))
        for workers in WORKER_COUNTS[1:]:
            parallel = run_cells(tasks, ExperimentConfig(max_workers=workers))
            assert [_comparable(r) for r in parallel] == [
                _comparable(r) for r in serial
            ]

    def test_run_cells_journal_replay_composes(self, graph_pair, tmp_path):
        tasks = _tiny_tasks(graph_pair)
        journal = RunJournal(tmp_path / "journal.jsonl")
        config = ExperimentConfig(max_workers=2, journal=journal)
        first = run_cells(tasks, config)
        assert journal.hits == 0
        resumed = RunJournal(tmp_path / "journal.jsonl", resume=True)
        config2 = ExperimentConfig(max_workers=2, journal=resumed)
        second = run_cells(tasks, config2)
        assert resumed.hits == len(tasks)
        assert [_comparable(r) for r in second] == [_comparable(r) for r in first]

    def test_run_cells_retry_quarantine_composes(self, graph_pair):
        def _always_transient(*args, **kwargs):
            raise TransientError("flaky cell")

        flaky = AlgorithmSpec(
            name="Flaky",
            run=_always_transient,
            cost_model="gsim+",
            units_per_second=1e8,
        )
        graph_a, graph_b = graph_pair
        tasks = [
            CellTask(
                flaky, graph_a, graph_b, np.arange(4), np.arange(4),
                iterations=2, dataset=f"flaky-{i}",
            )
            for i in range(3)
        ]
        config = ExperimentConfig(
            max_workers=2,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        records = run_cells(tasks, config)
        assert [record.outcome.value for record in records] == ["error"] * 3
        assert all(record.attempts == 2 for record in records)
        assert all("quarantined" in record.note for record in records)

    def test_parallel_cells_report_ledger_memory(self, graph_pair):
        tasks = _tiny_tasks(graph_pair)
        records = run_cells(tasks, ExperimentConfig(max_workers=2))
        for record in records:
            assert record.ok
            assert record.memory_bytes is not None and record.memory_bytes > 0
