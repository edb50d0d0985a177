"""GSim — Blondel et al.'s original power iteration (Eq. 2 of the paper).

This is the naive baseline: the full dense ``n_A x n_B`` similarity matrix
is updated each iteration via

    S_k = normalize(A S_{k-1} B^T + A^T S_{k-1} B),   S_0 = all-ones

costing ``O(m_A n_B + m_B n_A)`` time and ``Θ(n_A n_B)`` memory per
iteration.  Even with sparse adjacencies the iterate itself is dense, which
is exactly why the paper's experiments show GSim crashing on the larger
graphs.

:func:`gsim_partial` implements Eq.(5): even when only a
``|Q_A| x |Q_B|`` block is wanted, the *previous* full iterate must be kept
— the query sets only save work in the very last multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.runtime import NULL_CONTEXT, ExecutionContext
from repro.utils.memory import dense_matrix_bytes
from repro.utils.validation import check_nonnegative_integer

__all__ = ["GSimResult", "gsim", "gsim_partial"]


@dataclass
class GSimResult:
    """Output of a GSim run.

    Attributes
    ----------
    similarity:
        Normalised similarity matrix (full, or the query block for
        :func:`gsim_partial`).
    iterations:
        Number of iterations performed.
    iterates:
        Optional per-iteration full matrices (only when ``keep_history``).
    """

    similarity: np.ndarray
    iterations: int
    iterates: list[np.ndarray] | None = None


def _step(
    graph_a: Graph, graph_b: Graph, similarity: np.ndarray
) -> np.ndarray:
    """One unnormalised update ``A S B^T + A^T S B`` with sparse A, B."""
    a, a_t = graph_a.adjacency, graph_a.adjacency_t
    b, b_t = graph_b.adjacency, graph_b.adjacency_t
    # (A S) B^T: evaluate sparse-dense left products, then multiply by the
    # sparse transpose from the right via (B (A S)^T)^T to stay in
    # sparse-times-dense kernels throughout.
    left = a @ similarity
    right = a_t @ similarity
    return (b @ left.T).T + (b_t @ right.T).T


def _normalize(matrix: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(matrix))
    if norm == 0.0:
        raise ZeroDivisionError(
            "similarity iterate collapsed to zero (empty graph?)"
        )
    return matrix / norm


def gsim(
    graph_a: Graph,
    graph_b: Graph,
    iterations: int = 10,
    keep_history: bool = False,
    initial: np.ndarray | None = None,
    context: ExecutionContext | None = None,
) -> GSimResult:
    """Blondel et al.'s GSim over the full node-pair space.

    Parameters
    ----------
    iterations:
        Number of power-iteration steps ``K``; even iterates converge to
        the fixed point.
    keep_history:
        Record every normalised iterate ``S_1 .. S_K`` (used by the
        accuracy experiment; memory-hungry).
    initial:
        Custom dense ``S_0`` (the content-based adaptation); defaults to
        the all-ones matrix of Eq.(2).
    context:
        Optional :class:`repro.runtime.ExecutionContext`: checkpointed
        every iteration (deadline, cancellation) and charged the dense
        working set up front.

    Examples
    --------
    >>> from repro.graphs import Graph
    >>> a = Graph.from_edges(3, [(0, 1), (1, 2)])
    >>> b = Graph.from_edges(2, [(0, 1)])
    >>> gsim(a, b, iterations=4).similarity.shape
    (3, 2)
    """
    iterations = check_nonnegative_integer(iterations, "iterations")
    if initial is None:
        similarity = np.ones((graph_a.num_nodes, graph_b.num_nodes))
    else:
        similarity = np.asarray(initial, dtype=np.float64)
        if similarity.shape != (graph_a.num_nodes, graph_b.num_nodes):
            raise ValueError(
                f"initial S_0 must be {(graph_a.num_nodes, graph_b.num_nodes)}, "
                f"got {similarity.shape}"
            )
        similarity = similarity.copy()
    similarity = _normalize(similarity)
    history: list[np.ndarray] | None = [] if keep_history else None
    context = context or NULL_CONTEXT
    # Working set per step: the iterate plus two same-sized temporaries
    # (matching the 3x factor of the predictive cost model).
    charged = 3 * dense_matrix_bytes(graph_a.num_nodes, graph_b.num_nodes)
    context.charge(charged, "GSim dense iterate")
    try:
        for k in range(iterations):
            context.checkpoint(f"GSim iteration {k + 1}")
            similarity = _normalize(_step(graph_a, graph_b, similarity))
            context.metrics.increment("gsim.iterations")
            context.metrics.increment("gsim.spmm", 4)
            if history is not None:
                history.append(similarity.copy())
    finally:
        context.release(charged)
    return GSimResult(similarity=similarity, iterations=iterations, iterates=history)


def gsim_partial(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray | list[int],
    queries_b: np.ndarray | list[int],
    iterations: int = 10,
    context: ExecutionContext | None = None,
) -> GSimResult:
    """Eq.(5): partial-pair GSim, normalised over the query block.

    The full ``S_{K-1}`` must still be iterated (the dependency structure
    in Eq.(5) spans all pairs); only the final multiplication is restricted
    to the query rows/columns.  This function exists to demonstrate that
    the naive scheme cannot exploit query locality — its cost matches
    :func:`gsim` asymptotically.
    """
    iterations = check_nonnegative_integer(iterations, "iterations")
    if iterations == 0:
        raise ValueError("gsim_partial needs at least one iteration")
    rows = np.asarray(queries_a, dtype=np.int64)
    cols = np.asarray(queries_b, dtype=np.int64)
    similarity = np.ones((graph_a.num_nodes, graph_b.num_nodes))
    similarity = _normalize(similarity)
    context = context or NULL_CONTEXT
    charged = 3 * dense_matrix_bytes(graph_a.num_nodes, graph_b.num_nodes)
    context.charge(charged, "GSim dense iterate")
    try:
        # Iterate the full matrix K-1 times...
        for k in range(iterations - 1):
            context.checkpoint(f"GSim iteration {k + 1}")
            similarity = _normalize(_step(graph_a, graph_b, similarity))
            context.metrics.increment("gsim.iterations")
            context.metrics.increment("gsim.spmm", 4)
        # ...then restrict the final update to the query rows/cols (Eq. 5).
        context.checkpoint("GSim partial final step")
        context.metrics.increment("gsim.iterations")
        context.metrics.increment("gsim.spmm", 4)
        a_rows = graph_a.adjacency[rows]
        a_t_rows = graph_a.adjacency_t[rows]
        b_cols = graph_b.adjacency[cols]
        b_t_cols = graph_b.adjacency_t[cols]
        block = (b_cols @ (a_rows @ similarity).T).T + (
            b_t_cols @ (a_t_rows @ similarity).T
        ).T
    finally:
        context.release(charged)
    return GSimResult(similarity=_normalize(block), iterations=iterations)
