"""The no-op execution context that stands in for "no context".

Entry points resolve ``context=None`` to :data:`NULL_CONTEXT` once; code
below them calls the context unconditionally.  These tests pin what that
relies on: the singleton survives pickling (process workers resolve the
same object), it never accumulates state however much work runs under
it, its metrics sink mirrors every :class:`Metrics` method, and a
streamed block's working set is the one block it charges.
"""

from __future__ import annotations

import inspect
import pickle
import tracemalloc

import numpy as np
import pytest

from repro import GSimIndex, gsim_plus
from repro.core.batch import BatchQueryEngine
from repro.core.embeddings import LowRankFactors
from repro.core.topk import top_k_pairs
from repro.graphs import erdos_renyi_graph, random_node_sample
from repro.runtime import (
    NULL_CONTEXT,
    NULL_METRICS,
    NULL_TRACER,
    ExecutionContext,
    Metrics,
    WorkerPool,
)
from repro.runtime.workspace import ProcessWorkspace

_EMPTY_SNAPSHOT = {
    "counters": {},
    "timers": {},
    "gauges": {},
    "series": {},
    "histograms": {},
}


def _public_methods(cls) -> list[str]:
    return sorted(
        name
        for name, member in inspect.getmembers(cls)
        if not name.startswith("_") and callable(member)
    )


class TestNullContextContract:
    def test_pickles_to_itself(self):
        assert pickle.loads(pickle.dumps(NULL_CONTEXT)) is NULL_CONTEXT
        assert pickle.loads(pickle.dumps(NULL_METRICS)) is NULL_METRICS

    def test_has_no_budgets_and_null_sinks(self):
        assert isinstance(NULL_CONTEXT, ExecutionContext)
        assert NULL_CONTEXT.deadline is None
        assert NULL_CONTEXT.memory is None
        assert NULL_CONTEXT.cancellation is None
        assert NULL_CONTEXT.fault_injector is None
        assert NULL_CONTEXT.slow_queries is None
        assert NULL_CONTEXT.tracer is NULL_TRACER
        assert NULL_CONTEXT.metrics is NULL_METRICS

    def test_cannot_be_armed(self):
        with pytest.raises(AttributeError):
            NULL_CONTEXT.deadline = object()
        with pytest.raises(AttributeError):
            NULL_CONTEXT.metrics = Metrics()

    def test_enforces_nothing(self):
        NULL_CONTEXT.checkpoint("anything")
        NULL_CONTEXT.charge(1 << 60, "far beyond any budget")
        NULL_CONTEXT.release(1 << 60)
        assert NULL_CONTEXT.snapshot() == _EMPTY_SNAPSHOT

    def test_process_workspace_hands_kernels_the_null_context(self):
        live = ExecutionContext()
        with ProcessWorkspace(2) as ws:
            assert ws.kernel_context(live) is NULL_CONTEXT


class TestNoContextRunsLeaveNoTrace:
    @pytest.fixture(scope="class")
    def pair(self):
        graph_a = erdos_renyi_graph(30, 110, seed=5)
        return graph_a, random_node_sample(graph_a, 12, seed=6)

    def test_gsim_plus(self, pair):
        gsim_plus(*pair, iterations=6, context=None)
        assert NULL_CONTEXT.metrics.snapshot() == _EMPTY_SNAPSHOT

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_top_k_pairs(self, pair, backend):
        with WorkerPool(max_workers=2, backend=backend) as pool:
            top_k_pairs(*pair, k=5, iterations=4, block_rows=4, max_workers=pool)
        assert NULL_CONTEXT.metrics.snapshot() == _EMPTY_SNAPSHOT

    def test_index_query(self, pair):
        index = GSimIndex.build(*pair, iterations=4)
        index.query([0, 1, 2], [0, 3], context=None)
        index.top_matches(0, k=3)
        assert NULL_CONTEXT.metrics.snapshot() == _EMPTY_SNAPSHOT
        assert NULL_CONTEXT.snapshot() == _EMPTY_SNAPSHOT


class TestNullMetrics:
    def test_every_metrics_method_exists(self):
        for name in _public_methods(Metrics):
            assert callable(getattr(NULL_METRICS, name, None)), name

    def test_writers_drop_and_readers_match_a_fresh_sink(self):
        NULL_METRICS.increment("x", 3)
        NULL_METRICS.add_time("x", 1.0)
        NULL_METRICS.set_gauge("x", 2.0)
        NULL_METRICS.record_max("x", 5.0)
        NULL_METRICS.observe("x", 1.0)
        NULL_METRICS.observe_histogram("x", 0.5)
        with NULL_METRICS.time("x"), NULL_METRICS.time_histogram("x"):
            pass
        donor = Metrics()
        donor.increment("y")
        NULL_METRICS.merge_snapshot(donor.snapshot())
        fresh = Metrics()
        assert NULL_METRICS.snapshot() == fresh.snapshot() == _EMPTY_SNAPSHOT
        assert NULL_METRICS.counter("x") == fresh.counter("x")
        assert NULL_METRICS.timer("x") == fresh.timer("x")
        assert NULL_METRICS.gauge("x") == fresh.gauge("x")
        assert NULL_METRICS.series("x") == fresh.series("x")
        assert NULL_METRICS.histogram("x") == fresh.histogram("x")


class TestStreamRowsWorkingSet:
    def test_peak_stays_within_the_charged_block(self):
        # A 128 KiB block: below NumPy's 256 KiB temporary-elision
        # threshold, an out-of-place divide would hold a second block.
        rng = np.random.default_rng(0)
        factors = LowRankFactors(rng.random((512, 4)), rng.random((1024, 4)))
        engine = BatchQueryEngine(factors)
        context = ExecutionContext.start(memory_limit_bytes=1 << 30)
        stream = engine.stream_rows(block_rows=16, context=context)
        tracemalloc.start()
        try:
            _, block = next(stream)
            del block
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            _, block = next(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        charged = context.memory.held_bytes
        assert charged == block.nbytes
        assert peak - base < 1.5 * charged

    def test_in_place_normalisation_is_bit_identical(self):
        rng = np.random.default_rng(1)
        factors = LowRankFactors(rng.random((37, 3)), rng.random((11, 3)))
        engine = BatchQueryEngine(factors)
        for start, block in engine.stream_rows(block_rows=8):
            expected = (factors.u[start : start + 8] @ factors.v.T) / engine.global_norm
            assert np.array_equal(block, expected)
