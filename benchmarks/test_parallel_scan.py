"""Benchmarks for the parallel execution engine (PR: worker pools).

An R-MAT pair sized so the blocked top-k scan dominates (n_A + n_B ≈
20k nodes): the factors are prebuilt once, so every benchmark times only
the kernel under study.

Three comparisons land in ``results/BENCH_core.json``:

* **legacy vs vectorised selection** — the pre-worker-pool scan loops
  (full ``np.argsort`` block sorts + per-entry Python heap pushes, and
  per-row full sorts for query rankings) against the
  ``np.argpartition``-based replacements.  This is the algorithmic win;
  it holds on a single core.
* **serial vs ``max_workers`` ∈ {2, 4}** — the same scan through
  :class:`repro.runtime.WorkerPool`.  Thread scaling only materialises
  on multi-core hosts; on a single-CPU runner these entries document
  the (small) sharding overhead instead.  Results are asserted
  equivalent in every case.
* **factor step serial vs sharded** — the row-sharded SpMM doubling
  step.

Run via ``make bench`` (pinned BLAS thread env) to refresh the JSON.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from repro.core.embeddings import LowRankFactors
from repro.core.gsim_plus import GSimPlus
from repro.core.topk import scan_top_pairs
from repro.graphs.generators import rmat_graph
from repro.runtime.kernels import row_top_k

K_PAIRS = 100
K_PER_QUERY = 10
BLOCK_ROWS = 1024


@pytest.fixture(scope="module")
def pair():
    graph_a = rmat_graph(14, 131_072, seed=7, name="rmat-A")   # n_A = 16384
    graph_b = rmat_graph(11, 8_192, seed=8, name="rmat-B")     # n_B = 2048
    return graph_a, graph_b


@pytest.fixture(scope="module")
def factors(pair) -> LowRankFactors:
    """Width-8 factors (3 doubling steps), built once for every scan."""
    graph_a, graph_b = pair
    solver = GSimPlus(graph_a, graph_b, rank_cap="qr-compress")
    state = None
    for state in solver.iterate(3):
        pass
    assert state is not None and state.factors is not None
    return state.factors


def _legacy_top_k_pairs(factors: LowRankFactors, k: int, block_rows: int):
    """The pre-PR ``top_k_pairs`` scan loop, verbatim: full stable argsort
    to seed the heap, then per-entry Python ``heappushpop`` displacement."""
    n_a, n_b = factors.shape
    heap: list[tuple[float, int, int]] = []
    v_t = factors.v.T
    for start in range(0, n_a, block_rows):
        stop = min(start + block_rows, n_a)
        block = factors.u[start:stop] @ v_t
        if len(heap) < k:
            flat = np.argsort(-block, axis=None, kind="stable")[:k]
            for index in flat:
                row, col = divmod(int(index), n_b)
                entry = (float(block[row, col]), start + row, col)
                if len(heap) < k:
                    heapq.heappush(heap, entry)
                else:
                    heapq.heappushpop(heap, entry)
            continue
        threshold = heap[0][0]
        rows, cols = np.nonzero(block > threshold)
        for row, col in zip(rows, cols):
            entry = (float(block[row, col]), start + int(row), int(col))
            if entry[0] > heap[0][0]:
                heapq.heappushpop(heap, entry)
    return sorted(heap, key=lambda item: (-item[0], item[1], item[2]))


def _scores(pairs) -> np.ndarray:
    return np.sort([p.score if hasattr(p, "score") else p[0] for p in pairs])


# ----------------------------------------------------------------------
# Global top-k scan
# ----------------------------------------------------------------------
def test_scan_legacy_fullsort(benchmark, factors):
    result = benchmark.pedantic(
        _legacy_top_k_pairs, args=(factors, K_PAIRS, BLOCK_ROWS),
        rounds=3, warmup_rounds=1,
    )
    assert len(result) == K_PAIRS


def test_scan_vectorized_serial(benchmark, factors):
    result = benchmark.pedantic(
        scan_top_pairs, args=(factors, K_PAIRS),
        kwargs={"block_rows": BLOCK_ROWS, "max_workers": 1},
        rounds=3, warmup_rounds=1,
    )
    assert len(result) == K_PAIRS
    legacy = _legacy_top_k_pairs(factors, K_PAIRS, BLOCK_ROWS)
    assert np.allclose(_scores(result), _scores(legacy))


@pytest.mark.parametrize("workers", [2, 4])
def test_scan_vectorized_workers(benchmark, factors, workers):
    result = benchmark.pedantic(
        scan_top_pairs, args=(factors, K_PAIRS),
        kwargs={"block_rows": BLOCK_ROWS, "max_workers": workers},
        rounds=3, warmup_rounds=1,
    )
    assert result == scan_top_pairs(
        factors, K_PAIRS, block_rows=BLOCK_ROWS, max_workers=1
    )


# ----------------------------------------------------------------------
# Per-query ranking selection (legacy per-row full sort vs argpartition)
# ----------------------------------------------------------------------
def _rank_rows_legacy(block: np.ndarray, k: int):
    return [np.argsort(-block[i], kind="stable")[:k] for i in range(block.shape[0])]


def _rank_rows_vectorized(block: np.ndarray, k: int):
    return [row_top_k(block[i], k) for i in range(block.shape[0])]


@pytest.fixture(scope="module")
def query_block(factors) -> np.ndarray:
    rows = np.arange(0, factors.shape[0], 4)  # 4096 query rows
    return factors.u[rows] @ factors.v.T


def test_query_ranking_legacy_argsort(benchmark, query_block):
    result = benchmark.pedantic(
        _rank_rows_legacy, args=(query_block, K_PER_QUERY),
        rounds=3, warmup_rounds=1,
    )
    assert len(result) == query_block.shape[0]


def test_query_ranking_argpartition(benchmark, query_block):
    result = benchmark.pedantic(
        _rank_rows_vectorized, args=(query_block, K_PER_QUERY),
        rounds=3, warmup_rounds=1,
    )
    legacy = _rank_rows_legacy(query_block, K_PER_QUERY)
    assert all(np.array_equal(got, want) for got, want in zip(result, legacy))


# ----------------------------------------------------------------------
# Factor doubling step
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 4])
def test_factor_step_workers(benchmark, pair, workers):
    graph_a, graph_b = pair
    solver = GSimPlus(graph_a, graph_b, rank_cap="qr-compress", max_workers=workers)
    base = LowRankFactors(
        np.ones((graph_a.num_nodes, 8)), np.ones((graph_b.num_nodes, 8))
    )
    result = benchmark.pedantic(
        solver._step_factors, args=(base,), rounds=3, warmup_rounds=1
    )
    assert result.width == 16
