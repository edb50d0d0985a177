"""Top-k pair retrieval from the factored similarity.

The paper's title speaks of *retrieval*: applications rarely want the full
``n_A x n_B`` matrix — they want the most similar pairs.  With GSim+'s
factors that can be answered without materialising the matrix: the
candidate rows are scanned in blocks of bounded size, keeping a running
k-best candidate set, so memory stays ``O(block_rows * n_B + k)`` no
matter how large ``n_A`` grows.

Selection inside a block is vectorised: ``np.argpartition`` finds the
k-th score in linear time, every entry tied with it is kept, and only the
surviving candidates are sorted — ``O(rows * n_B + k log k)`` per block
instead of the full ``O(rows * n_B log(rows * n_B))`` sort.

Ordering is canonical everywhere: score descending, then lowest
``node_a``, then lowest ``node_b``.  Because candidate merges select by
that total order over values (not by arrival order), the result is
independent of worker count and backend — the scan splits rows into
runs of whole blocks, one task of the shared kernel
(:func:`repro.runtime.kernels.scan_pairs`) per run, each keeps a local
k-best set, and the final merge re-selects the global top k.  Across
block sizes it holds up to rounding: BLAS sums a block's dot products in
an order that depends on the block's row count, so a score may differ
in its last bit and an exact tie may resolve as a near-tie.

Entry points:

* :func:`top_k_pairs` — globally best ``(a, b, score)`` triples.
* :func:`top_k_for_queries` — per-query-node ranking (the "find the most
  similar nodes in the other graph" primitive of the synonym-extraction
  and community-matching applications).
* :func:`scan_top_pairs` — the scan engine over prebuilt factors, shared
  with :class:`repro.retrieval.GSimIndex`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.embeddings import LowRankFactors
from repro.core.gsim_plus import GSimPlus
from repro.graphs.graph import Graph
from repro.runtime import NULL_CONTEXT, ExecutionContext, kernels
from repro.runtime.parallel import WorkerPool, shard_ranges
from repro.utils.validation import check_positive_integer, resolve_node_index

__all__ = ["ScoredPair", "scan_top_pairs", "top_k_for_queries", "top_k_pairs"]


@dataclass(frozen=True)
class ScoredPair:
    """One retrieved pair: node in G_A, node in G_B, similarity score."""

    node_a: int
    node_b: int
    score: float


def _factors_for(
    graph_a: Graph,
    graph_b: Graph,
    iterations: int,
    context: ExecutionContext,
    max_workers: "WorkerPool | int | None" = None,
    recompress_tol: float | None = None,
    precision: str = "float64",
) -> tuple[LowRankFactors, float]:
    """Run GSim+ and return the final factors (factored regime enforced)
    and their unscaled Frobenius norm.

    Uses the QR-compressed cap so the representation stays factored even
    past ``2^k >= min(n_A, n_B)`` — the scan below needs U/V, not a dense Z.
    ``recompress_tol`` / ``precision`` forward to the solver's
    recompression and precision policies.
    """
    solver = GSimPlus(
        graph_a,
        graph_b,
        rank_cap="qr-compress",
        max_workers=max_workers,
        recompress_tol=recompress_tol,
        precision=precision,
    )
    state = None
    for state in solver.iterate(iterations, context=context):
        pass
    assert state is not None and state.factors is not None
    norm = state.factors.frobenius_norm(include_scale=False)
    if norm == 0.0:
        raise ZeroDivisionError("similarity collapsed to zero; no ranking exists")
    return state.factors, norm


def _record_scan(
    context: ExecutionContext,
    histogram: str,
    slow_name: str,
    start_time: float,
    span: object,
    **fields: object,
) -> None:
    """A finished scan's latency histogram entry and slow-query record."""
    duration = time.perf_counter() - start_time
    context.metrics.observe_histogram(histogram, duration)
    if context.slow_queries is not None:
        context.slow_queries.maybe_record(
            slow_name, duration, **fields, span_id=getattr(span, "span_id", None)
        )


def scan_top_pairs(
    factors: LowRankFactors,
    k: int,
    block_rows: int = 1024,
    context: ExecutionContext | None = None,
    max_workers: "WorkerPool | int | None" = None,
    score_scale: float = 1.0,
    backend: str = "thread",
) -> list[ScoredPair]:
    """The ``k`` best pairs of a prebuilt factor pair.

    ``score_scale`` multiplies the raw factored scores in the returned
    pairs (callers pass ``1 / ||Z||_F`` for normalised scores); the
    ranking itself uses the raw scores, so any positive scale yields the
    same pairs.  With ``max_workers > 1`` the blocks split into contiguous
    per-worker runs whose local k-best sets are merged by the canonical
    ``(-score, node_a, node_b)`` order — results and scan counters are
    identical for every worker count and backend.
    """
    k = check_positive_integer(k, "k")
    block_rows = check_positive_integer(block_rows, "block_rows")
    n_a, n_b = factors.shape
    k = min(k, n_a * n_b)
    pool = WorkerPool.resolve(max_workers, backend=backend)
    context = context or NULL_CONTEXT
    # Shards are runs of whole blocks, so the blocks scanned — and every
    # per-block counter — do not depend on the worker count.
    num_blocks = -(-n_a // block_rows)
    bounds = [
        (first * block_rows, min(last * block_rows, n_a))
        for first, last in shard_ranges(num_blocks, pool.max_workers)
    ]

    start_time = time.perf_counter()
    with context.tracer.span("topk.scan_pairs") as span:
        span.set_attribute("k", k)
        span.set_attribute("rows", n_a)
        span.set_attribute("cols", n_b)
        try:
            with pool.workspace() as ws:
                u = ws.stage(factors.u)
                v_t = ws.stage(np.ascontiguousarray(factors.v.T))
                scan_context = ws.kernel_context(context)
                tasks = [
                    (u, v_t, start, stop, k, block_rows, scan_context)
                    for start, stop in bounds
                ]
                parts = pool.map(
                    kernels.scan_pairs, tasks, context=context, what="top-k pair scan"
                )
            context.metrics.increment("topk.blocks_scanned", num_blocks)
            context.metrics.increment("topk.rows_scanned", n_a)
            if not parts:
                return []
            scores = np.concatenate([part[0] for part in parts])
            rows = np.concatenate([part[1] for part in parts])
            cols = np.concatenate([part[2] for part in parts])
            order = kernels.canonical_top_k(scores, rows, cols, k)
            return [
                ScoredPair(int(rows[i]), int(cols[i]), float(scores[i]) * score_scale)
                for i in order
            ]
        finally:
            _record_scan(
                context, "topk.scan_seconds", "topk.scan_pairs", start_time, span,
                k=int(k), rows=int(n_a), cols=int(n_b),
                width=factors.width, workers=pool.max_workers,
            )


def top_k_pairs(
    graph_a: Graph,
    graph_b: Graph,
    k: int,
    iterations: int = 10,
    block_rows: int = 1024,
    context: ExecutionContext | None = None,
    max_workers: "WorkerPool | int | None" = None,
    recompress_tol: float | None = None,
    precision: str = "float64",
    backend: str = "thread",
) -> list[ScoredPair]:
    """The ``k`` highest-similarity cross-graph pairs.

    Scores are the *unnormalised* factored products; the ordering is
    identical to the normalised similarity (normalisation is a positive
    scalar), and returned scores are rescaled to unit Frobenius norm for
    interpretability.  Ties are broken by lowest ``node_a`` then lowest
    ``node_b``; the result is independent of ``max_workers``, and of
    ``block_rows`` up to last-bit rounding of the scores.

    Examples
    --------
    >>> from repro.graphs import Graph
    >>> a = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    >>> b = Graph.from_edges(4, [(0, i) for i in range(1, 4)])
    >>> best = top_k_pairs(a, b, k=1, iterations=6)
    >>> (best[0].node_a, best[0].node_b)   # hub matches hub
    (0, 0)
    """
    k = check_positive_integer(k, "k")
    block_rows = check_positive_integer(block_rows, "block_rows")
    context = context or NULL_CONTEXT
    pool = WorkerPool.resolve(max_workers, backend=backend)  # build and scan
    factors, norm = _factors_for(
        graph_a, graph_b, iterations, context, pool, recompress_tol, precision
    )
    return scan_top_pairs(
        factors,
        k,
        block_rows=block_rows,
        context=context,
        max_workers=pool,
        score_scale=1.0 / norm,
    )


def top_k_for_queries(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray | list[int],
    k: int,
    iterations: int = 10,
    block_rows: int = 1024,
    context: ExecutionContext | None = None,
    max_workers: "WorkerPool | int | None" = None,
    recompress_tol: float | None = None,
    precision: str = "float64",
    backend: str = "thread",
) -> dict[int, list[ScoredPair]]:
    """For each query node of ``G_A``, its ``k`` best matches in ``G_B``.

    Returns a mapping ``query node -> ranked ScoredPair list`` (ties broken
    by node id for determinism).  Query rows are scored in blocks of at
    most ``block_rows``, so memory stays ``O(block_rows * n_B)`` however
    large the query set is — each block's working set is charged against
    the context's memory ledger and released after the block.
    """
    k = check_positive_integer(k, "k")
    block_rows = check_positive_integer(block_rows, "block_rows")
    context = context or NULL_CONTEXT
    pool = WorkerPool.resolve(max_workers, backend=backend)  # build and scan
    factors, norm = _factors_for(
        graph_a, graph_b, iterations, context, pool, recompress_tol, precision
    )
    rows = resolve_node_index(
        queries_a, factors.shape[0], "queries_a",
        allow_empty=True, allow_duplicates=True,
    )
    k = min(k, factors.shape[1])
    chunk_bounds = [
        (start, min(start + block_rows, rows.size))
        for start in range(0, rows.size, block_rows)
    ]
    start_time = time.perf_counter()
    with context.tracer.span("topk.query_scan") as span:
        span.set_attribute("queries", int(rows.size))
        span.set_attribute("k", k)
        try:
            with pool.workspace() as ws:
                u = ws.stage(factors.u)
                v_t = ws.stage(np.ascontiguousarray(factors.v.T))
                queries = ws.stage(rows)
                scan_context = ws.kernel_context(context)
                tasks = [
                    (u, v_t, queries, start, stop, k, scan_context)
                    for start, stop in chunk_bounds
                ]
                parts = pool.map(
                    kernels.scan_queries, tasks, context=context,
                    what="top-k query scan",
                )
            context.metrics.increment("topk.blocks_scanned", len(chunk_bounds))
            context.metrics.increment("topk.rows_scanned", int(rows.size))
        finally:
            _record_scan(
                context, "topk.query_scan_seconds", "topk.query_scan", start_time,
                span, queries=int(rows.size), k=int(k),
                width=factors.width, workers=pool.max_workers,
            )
    results: dict[int, list[ScoredPair]] = {}
    for part in parts:
        for node_a, order, scores in part:
            results[node_a] = [
                ScoredPair(node_a, int(col), float(score) / norm)
                for col, score in zip(order, scores)
            ]
    return results
