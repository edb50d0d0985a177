"""Differential tests: equivalent paths agree bit for bit (``differential``).

Hypothesis draws small graph pairs, many of them tie-heavy (stars,
regular graphs, graphs with structurally duplicated nodes), and checks
two equivalences:

* **context equivalence** — ``context=None`` (the no-op
  :data:`repro.runtime.NULL_CONTEXT`) and a fully armed context (a
  deadline, a 1 TiB ledger, a live :class:`repro.runtime.Tracer`) give
  bit-identical output from ``gsim_plus``, ``top_k_pairs``,
  ``top_k_for_queries``, ``gsim`` and ``gsvd``, on the serial, thread and
  process backends where the entry point has them;
* **top-k vs brute force** — the blocked scans return the top k of a
  ``lexsort`` of the materialised score matrix by
  ``(-score, node_a, node_b)``, up to float rounding, for several
  ``block_rows``; for one ``block_rows`` every backend and context
  returns the same list bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Graph, gsim, gsim_plus, gsvd
from repro.core.gsim_plus import GSimPlus
from repro.core.topk import top_k_for_queries, top_k_pairs
from repro.runtime import ExecutionContext, Tracer, WorkerPool

pytestmark = pytest.mark.differential

_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BACKENDS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def pools():
    built = {
        "serial": WorkerPool(max_workers=1),
        "thread": WorkerPool(max_workers=2, backend="thread"),
        "process": WorkerPool(max_workers=2, backend="process"),
    }
    yield built
    for pool in built.values():
        pool.shutdown()


def _armed() -> ExecutionContext:
    return ExecutionContext.start(
        deadline_seconds=3600.0, memory_limit_bytes=1 << 40, tracer=Tracer()
    )


@st.composite
def tie_heavy_graphs(draw):
    """A small directed graph with at least one edge, often symmetric."""
    kind = draw(st.sampled_from(["random", "star", "regular", "duplicated"]))
    if kind == "star":
        n = draw(st.integers(3, 9))
        edges = [(0, leaf) for leaf in range(1, n)]
        if draw(st.booleans()):
            edges += [(leaf, 0) for leaf in range(1, n)]
        return Graph.from_edges(n, edges)
    if kind == "regular":
        n = draw(st.integers(3, 9))
        steps = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=2))
        return Graph.from_edges(n, [(i, (i + s) % n) for i in range(n) for s in steps])
    n = draw(st.integers(2, 7))
    possible = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.lists(st.sampled_from(possible), min_size=1, max_size=3 * n))
    if kind == "duplicated":
        # Copies of one node with its in- and out-neighbours: identical
        # similarity rows, so every score they reach is tied.
        source = draw(st.integers(0, n - 1))
        copies = draw(st.integers(1, 3))
        for copy in range(n, n + copies):
            edges = edges + [(copy, j) for i, j in edges if i == source]
            edges = edges + [(i, copy) for i, j in edges if j == source]
        n += copies
    return Graph.from_edges(n, edges)


graph_pairs = st.tuples(tie_heavy_graphs(), tie_heavy_graphs())


def _brute_force_scores(graph_a, graph_b, iterations):
    """The materialised normalised scores of the factors ``top_k_pairs``
    scans."""
    solver = GSimPlus(graph_a, graph_b, rank_cap="qr-compress")
    state = None
    for state in solver.iterate(iterations):
        pass
    factors = state.factors
    return factors.materialize(include_scale=False) / factors.frobenius_norm(
        include_scale=False
    )


def _assert_brute_force_top_k(got, keys, scores, brute_order, k):
    """``got`` (``(key, score)`` pairs) is the top ``k`` of ``scores`` by
    ``brute_order`` (a ``lexsort`` of ``(-score, key)``), up to float
    noise.

    Scores are exact only up to rounding: BLAS sums a row block's dot
    products in an order that depends on the block's shape, so an entry
    may differ from the materialised matrix in its last bits, and an
    exact tie may surface as a near-tie in either order.  So within
    ``tol`` the key order is free; the returned scores must still be
    non-increasing, match the matrix, and cover its top k.
    """
    expected = brute_order[: min(k, len(brute_order))]
    tol = 1e-9 * max(float(np.abs(scores).max()), np.finfo(float).tiny)
    assert len(got) == len(expected)
    got_keys = [key for key, _ in got]
    assert len(set(got_keys)) == len(got_keys)
    assert all(first[1] >= second[1] for first, second in zip(got, got[1:]))
    for key, score in got:
        assert abs(score - scores[keys.index(key)]) <= tol
    kth = scores[expected[-1]]
    chosen = np.array([scores[keys.index(key)] for key in got_keys])
    assert (chosen >= kth - tol).all()
    assert np.allclose(np.sort(chosen), np.sort(scores[expected]), rtol=0, atol=tol)


# ----------------------------------------------------------------------
# Context equivalence
# ----------------------------------------------------------------------
@_settings
@given(
    pair=graph_pairs,
    iterations=st.integers(0, 6),
    rank_cap=st.sampled_from(["dense", "qr-compress"]),
)
def test_gsim_plus_context_equivalence(pools, pair, iterations, rank_cap):
    reference = gsim_plus(*pair, iterations=iterations, rank_cap=rank_cap)
    for backend in BACKENDS:
        for context in (None, _armed()):
            got = gsim_plus(
                *pair,
                iterations=iterations,
                rank_cap=rank_cap,
                context=context,
                max_workers=pools[backend],
            )
            assert np.array_equal(got.similarity, reference.similarity), backend
            assert got.z_frobenius_log == reference.z_frobenius_log
            if context is not None:
                assert context.metrics.counter("gsim_plus.iterations") == iterations


@_settings
@given(pair=graph_pairs, iterations=st.integers(1, 5))
def test_gsim_context_equivalence(pair, iterations):
    reference = gsim(*pair, iterations=iterations).similarity
    context = _armed()
    got = gsim(*pair, iterations=iterations, context=context).similarity
    assert np.array_equal(got, reference)
    assert context.metrics.counter("gsim.iterations") == iterations


@_settings
@given(pair=graph_pairs, iterations=st.integers(1, 5), rank=st.integers(1, 4))
def test_gsvd_context_equivalence(pair, iterations, rank):
    reference = gsvd(*pair, iterations=iterations, rank=rank)
    context = _armed()
    got = gsvd(*pair, iterations=iterations, rank=rank, context=context)
    assert np.array_equal(got.u, reference.u)
    assert np.array_equal(got.sigma, reference.sigma)
    assert np.array_equal(got.v, reference.v)
    assert context.metrics.counter("gsvd.iterations") == iterations


# ----------------------------------------------------------------------
# Top-k: context equivalence and brute force
# ----------------------------------------------------------------------
@_settings
@given(
    pair=graph_pairs,
    iterations=st.integers(1, 6),
    k=st.integers(1, 90),
    block_rows=st.integers(1, 6),
)
def test_top_k_pairs_matches_brute_force(pools, pair, iterations, k, block_rows):
    brute = _brute_force_scores(*pair, iterations)
    keys = [(a, b) for a in range(brute.shape[0]) for b in range(brute.shape[1])]
    scores = brute.ravel()
    rows, cols = np.divmod(np.arange(scores.size), brute.shape[1])
    brute_order = np.lexsort((cols, rows, -scores))
    for rows_per_block in (block_rows, 1024):
        reference = None
        for backend in BACKENDS:
            for context in (None, _armed()):
                got = top_k_pairs(
                    *pair,
                    k=k,
                    iterations=iterations,
                    block_rows=rows_per_block,
                    context=context,
                    max_workers=pools[backend],
                )
                reference = reference or got
                assert got == reference, (backend, rows_per_block, context)
        _assert_brute_force_top_k(
            [((p.node_a, p.node_b), p.score) for p in reference],
            keys, scores, brute_order, k,
        )


@_settings
@given(
    pair=graph_pairs,
    iterations=st.integers(1, 6),
    k=st.integers(1, 12),
    block_rows=st.integers(1, 4),
    data=st.data(),
)
def test_top_k_for_queries_matches_brute_force(
    pools, pair, iterations, k, block_rows, data
):
    graph_a, graph_b = pair
    queries = data.draw(
        st.lists(st.integers(0, graph_a.num_nodes - 1), min_size=0, max_size=8)
    )
    brute = _brute_force_scores(graph_a, graph_b, iterations)
    cols = np.arange(brute.shape[1])
    keys = cols.tolist()
    for rows_per_block in (block_rows, 1024):
        reference = None
        for backend in BACKENDS:
            for context in (None, _armed()):
                got = top_k_for_queries(
                    graph_a,
                    graph_b,
                    queries,
                    k=k,
                    iterations=iterations,
                    block_rows=rows_per_block,
                    context=context,
                    max_workers=pools[backend],
                )
                reference = got if reference is None else reference
                assert got == reference, (backend, rows_per_block, context)
        assert sorted(reference) == sorted(set(queries))
        for node, ranked in reference.items():
            assert all(pair.node_a == node for pair in ranked)
            row = brute[node]
            _assert_brute_force_top_k(
                [(pair.node_b, pair.score) for pair in ranked],
                keys, row, np.lexsort((cols, -row)), k,
            )
