"""Differential tests of the bound-pruned pair scan (``differential``).

:func:`repro.core.topk.scan_top_pairs` scores only the blocks whose row
bound can still reach the k-th score.  These tests check, on tie-heavy
graph pairs, mixed-sign recompressed factors, float32 factors and an
all-ties pair, that the pruned scan returns — bit for bit — what the
shared kernel returns when it scores every block at the same
``block_rows``, that this equals a brute-force ``lexsort`` of the
materialised matrix up to float rounding, and that the pruning counters
agree across the serial, thread and process backends at 1 and 2 workers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LowRankFactors
from repro.core.gsim_plus import GSimPlus
from repro.core.topk import scan_top_pairs, top_k_pairs
from repro.graphs import rmat_graph
from repro.runtime import NULL_CONTEXT, ExecutionContext, Tracer, WorkerPool, kernels
from tests.test_differential import tie_heavy_graphs

pytestmark = pytest.mark.differential

_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

POOL_KEYS = (("thread", 1), ("thread", 2), ("process", 1), ("process", 2))


@pytest.fixture(scope="module")
def pools():
    built = {
        (backend, workers): WorkerPool(max_workers=workers, backend=backend)
        for backend, workers in POOL_KEYS
    }
    yield built
    for pool in built.values():
        pool.shutdown()


def _unpruned(factors: LowRankFactors, k: int, block_rows: int) -> list[tuple]:
    """The kernel scoring every block: the scan without pruning."""
    n_a, n_b = factors.shape
    task = (
        factors.u,
        np.ascontiguousarray(factors.v.T),
        list(range(0, n_a, block_rows)),
        min(k, n_a * n_b),
        block_rows,
        -np.inf,
        NULL_CONTEXT,
    )
    scores, rows, cols = kernels.scan_pairs(task)
    return [(int(r), int(c), float(s)) for s, r, c in zip(scores, rows, cols)]


def _pruned(factors, k, block_rows, pool) -> tuple[list[tuple], dict]:
    context = ExecutionContext()
    got = scan_top_pairs(
        factors, k, block_rows=block_rows, context=context, max_workers=pool
    )
    counters = context.metrics.snapshot()["counters"]
    return [(p.node_a, p.node_b, p.score) for p in got], counters


def _check(factors, k, block_rows, pools) -> dict:
    """Pruned == unpruned bit for bit on every pool; both match brute
    force; the counters add up and agree.  Returns the counters."""
    expected = _unpruned(factors, k, block_rows)
    reference_counters = None
    for key, pool in pools.items():
        got, counters = _pruned(factors, k, block_rows, pool)
        assert got == expected, key
        n_a = factors.shape[0]
        assert counters["topk.rows_scanned"] + counters["topk.rows_pruned"] == n_a
        reference_counters = reference_counters or counters
        for name in ("topk.rows_scanned", "topk.rows_pruned", "topk.blocks_scanned"):
            assert counters[name] == reference_counters[name], (key, name)
    _assert_brute_force(factors, expected, k)
    return reference_counters


def _assert_brute_force(factors: LowRankFactors, got: list[tuple], k: int) -> None:
    """``got`` is the top ``k`` of a ``lexsort`` of the materialised
    matrix by ``(-score, node_a, node_b)``, up to rounding.

    The band is 1e-9·max|S| or, for float32 factors, the rounding bound
    ``4(w+2)·eps·max(|U||V|ᵀ)`` of two summation orders of the same dot
    products; inside it the order of near-ties is free.
    """
    u, v = factors.u.astype(np.float64), factors.v.astype(np.float64)
    scores = (u @ v.T).ravel()
    eps = float(np.finfo(factors.dtype).eps)
    rounding = 4 * (factors.width + 2) * eps * float((np.abs(u) @ np.abs(v).T).max())
    tol = max(1e-9 * float(np.abs(scores).max()), rounding, np.finfo(float).tiny)
    rows, cols = np.divmod(np.arange(scores.size), factors.shape[1])
    expected = np.lexsort((cols, rows, -scores))[: min(k, scores.size)]
    assert len(got) == expected.size
    assert len({(a, b) for a, b, _ in got}) == len(got)
    assert all(first[2] >= second[2] for first, second in zip(got, got[1:]))
    chosen = np.array([scores[a * factors.shape[1] + b] for a, b, _ in got])
    assert np.abs(chosen - [score for _, _, score in got]).max() <= tol
    assert (chosen >= scores[expected[-1]] - tol).all()
    assert np.allclose(np.sort(chosen), np.sort(scores[expected]), rtol=0, atol=tol)


def _solver_factors(graph_a, graph_b, iterations, recompress_tol, precision):
    solver = GSimPlus(
        graph_a, graph_b, rank_cap="qr-compress",
        recompress_tol=recompress_tol, precision=precision,
    )
    state = None
    for state in solver.iterate(iterations):
        pass
    return state.factors


@_settings
@given(
    pair=st.tuples(tie_heavy_graphs(), tie_heavy_graphs()),
    iterations=st.integers(1, 6),
    k=st.integers(1, 90),
    block_rows=st.integers(1, 6),
    recompress_tol=st.sampled_from([None, 1e-6, 1e-2]),
    precision=st.sampled_from(["float64", "float32"]),
)
def test_pruned_scan_matches_unpruned_and_brute_force(
    pools, pair, iterations, k, block_rows, recompress_tol, precision
):
    factors = _solver_factors(*pair, iterations, recompress_tol, precision)
    _check(factors, k, block_rows, pools)


@_settings
@given(
    n_a=st.integers(1, 40),
    n_b=st.integers(1, 25),
    width=st.integers(1, 4),
    k=st.integers(1, 60),
    block_rows=st.integers(1, 8),
    precision=st.sampled_from(["float64", "float32"]),
    seed=st.integers(0, 2**16),
)
def test_mixed_sign_recompressed_factors(
    pools, n_a, n_b, width, k, block_rows, precision, seed
):
    rng = np.random.default_rng(seed)
    # Skewed row norms, both signs, and a width above the numerical rank
    # so recompression rotates the factors into mixed-sign bases.
    u = rng.normal(size=(n_a, 2)) * np.exp(2 * rng.normal(size=(n_a, 1)))
    v = rng.normal(size=(n_b, 2))
    mix = rng.normal(size=(2, width + 2))
    factors = LowRankFactors(u @ mix, v @ mix, dtype=precision)
    _check(factors.recompressed(1e-9), k, block_rows, pools)
    _check(factors, k, block_rows, pools)


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_all_ties_prune_nothing(pools, precision):
    """Every score equals every row bound: no block may be dropped."""
    factors = LowRankFactors.ones(23, 7, dtype=precision)
    counters = _check(factors, 5, 4, pools)
    assert counters["topk.rows_pruned"] == 0
    assert counters["topk.blocks_scanned"] == 6


def test_k_larger_than_one_block(pools):
    """The probe spans several blocks when one block holds < k cells."""
    rng = np.random.default_rng(3)
    u = np.exp(3 * rng.normal(size=(60, 3)))
    factors = LowRankFactors(u, rng.random(size=(5, 3)))
    counters = _check(factors, 12, 2, pools)  # 10 cells per block
    assert counters["topk.blocks_scanned"] >= 2
    assert counters["topk.rows_pruned"] > 0


def test_later_rounds_raise_a_loose_probe_threshold(pools):
    """The probe's k-th score can sit far below the true one: here the
    highest-bound row (mixed signs) scores 5 against a bound of 10, and
    every filler row's bound of 6 reaches 5.  The next round scores the
    row holding 8, and after it no filler block is scored."""
    v = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    u = np.array([[3.0, -3.0]] * 10 + [[5.0, -5.0], [8.0, 0.0]])
    counters = _check(LowRankFactors(u, v), 1, 1, pools)
    assert counters["topk.blocks_scanned"] == 2


def test_rows_pruned_parity_across_backends(pools):
    """``rows_scanned + rows_pruned == n_A`` and the same prune on every
    backend and worker count, through the graph-level entry point."""
    # RMAT degree skew spreads the row bounds, so most blocks are pruned.
    graph_a, graph_b = rmat_graph(7, 600, seed=1), rmat_graph(5, 120, seed=2)
    results = {}
    for key, pool in [(("serial", 1), WorkerPool(max_workers=1)), *pools.items()]:
        context = ExecutionContext()
        got = top_k_pairs(
            graph_a, graph_b, k=10, iterations=4, block_rows=4,
            context=context, max_workers=pool,
        )
        counters = context.metrics.snapshot()["counters"]
        assert counters["topk.rows_scanned"] + counters["topk.rows_pruned"] == 128
        results[key] = (got, counters["topk.rows_pruned"])
    assert len(set(map(repr, results.values()))) == 1, results
    assert results[("serial", 1)][1] > 0


def test_prune_span_reports_kept_blocks():
    rng = np.random.default_rng(5)
    factors = LowRankFactors(np.exp(3 * rng.normal(size=(50, 2))), rng.random((9, 2)))
    tracer = Tracer()
    context = ExecutionContext(tracer=tracer)
    scan_top_pairs(factors, 4, block_rows=5, context=context)
    spans = tracer.spans()
    (scan,) = [s for s in spans if s.name == "topk.scan_pairs"]
    (prune,) = [s for s in spans if s.name == "topk.prune"]
    assert prune.parent_id == scan.span_id
    assert prune.attributes["blocks_total"] == 10
    kept = context.metrics.counter("topk.blocks_scanned")
    assert prune.attributes["blocks_kept"] == kept < 10


def test_bound_rounding_slack_keeps_exact_ties():
    """A row whose bound equals its best score in exact arithmetic (its
    V column maxima sit in one V row) can round to a bound just below
    that computed score.  Its block must still be scored: here a copy of
    the row in a later, higher-bound block is probed, and the earlier
    copy wins the tie-break only if its block is kept."""
    rng = np.random.default_rng(17)
    for _ in range(300):
        width = int(rng.integers(8, 33))
        v = rng.uniform(0.1, 1.0, size=(6, width)).astype(np.float32)
        v[0] = v.max(axis=0)  # row 0 holds every column maximum
        tied = rng.uniform(0.0, 1.0, size=width).astype(np.float32)
        # Mixed signs: a loose bound above the tied score, scores below it.
        loose = np.where(np.arange(width) % 2 == 0, 1.5, -1.5).astype(np.float32)
        filler = np.full(width, 1e-3, dtype=np.float32)
        factors = LowRankFactors(np.stack([tied, filler, tied, loose]), v)
        got = scan_top_pairs(factors, 1, block_rows=2)
        assert [(p.node_a, p.node_b, p.score) for p in got] == _unpruned(factors, 1, 2)
