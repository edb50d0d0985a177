"""GSVD — Cason et al.'s fixed-rank low-rank approximation of GSim.

The iterate is approximated as a rank-``r`` SVD
``S_k ≈ U_k Σ_k V_k^T`` with orthonormal ``U_k (n_A x r)`` and
``V_k (n_B x r)``.  One iteration (Eqs. 3-4 of the paper):

1. Build the block matrices
   ``L = [A U Σ | A^T U Σ]`` (``n_A x 2r``) and ``R = [B V | B^T V]``
   (``n_B x 2r``).
2. QR-decompose both: ``L = Q_U R_U``, ``R = Q_V R_V``.
3. SVD of the small core ``R_U R_V^T`` (``2r x 2r``), truncated to rank r.
4. Rotate back: ``U' = Q_U Ũ_r``, ``V' = Q_V Ṽ_r``, ``Σ' = Σ̃_r``.

The QR steps (2) are the cost the paper criticises, and the fixed rank
``r`` is the source of the over/under-fitting the accuracy experiment
(§5.2.3) measures.  Σ is renormalised each iteration (``Σ / ||Σ||_2``),
which for orthonormal factors equals Frobenius normalisation of the
represented matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.runtime import NULL_CONTEXT, ExecutionContext
from repro.utils.validation import check_nonnegative_integer, check_positive_integer

__all__ = ["GSVDResult", "gsvd"]


@dataclass
class GSVDResult:
    """Output of a GSVD run.

    Attributes
    ----------
    u, sigma, v:
        The final rank-``r`` factors; the approximate similarity is
        ``u @ diag(sigma) @ v.T`` (already unit Frobenius norm).
    iterations:
        Iterations performed.
    rank:
        The fixed approximation rank ``r``.
    iterates:
        Optional list of per-iteration ``(u, sigma, v)`` triples.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    iterations: int
    rank: int
    iterates: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None

    def similarity_matrix(self) -> np.ndarray:
        """Materialise the dense approximate ``S_K`` (``n_A x n_B``)."""
        return (self.u * self.sigma) @ self.v.T

    def query_block(
        self, queries_a: np.ndarray | list[int], queries_b: np.ndarray | list[int]
    ) -> np.ndarray:
        """Extract the ``|Q_A| x |Q_B|`` block of the approximation."""
        rows = np.asarray(queries_a, dtype=np.int64)
        cols = np.asarray(queries_b, dtype=np.int64)
        return (self.u[rows] * self.sigma) @ self.v[cols].T


def _initial_factors(
    n_a: int, n_b: int, rank: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-r SVD of the all-ones S_0: dominant pair plus zero padding."""
    u = np.zeros((n_a, rank))
    v = np.zeros((n_b, rank))
    u[:, 0] = 1.0 / np.sqrt(n_a)
    v[:, 0] = 1.0 / np.sqrt(n_b)
    sigma = np.zeros(rank)
    sigma[0] = 1.0  # S_0 normalised: ||S_0||_F = 1 after scaling.
    return u, sigma, v


def gsvd(
    graph_a: Graph,
    graph_b: Graph,
    iterations: int = 10,
    rank: int = 10,
    keep_history: bool = False,
    context: ExecutionContext | None = None,
) -> GSVDResult:
    """Run Cason et al.'s fixed-rank GSVD iteration.

    Parameters
    ----------
    rank:
        The fixed approximation rank ``r`` (the paper evaluates
        r ∈ {5, 10, 50}).
    keep_history:
        Record per-iteration factors (for the accuracy table).

    Examples
    --------
    >>> from repro.graphs import Graph
    >>> a = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    >>> b = Graph.from_edges(3, [(0, 1), (1, 2)])
    >>> result = gsvd(a, b, iterations=4, rank=2)
    >>> result.similarity_matrix().shape
    (4, 3)
    """
    iterations = check_nonnegative_integer(iterations, "iterations")
    rank = check_positive_integer(rank, "rank")
    n_a, n_b = graph_a.num_nodes, graph_b.num_nodes
    rank = min(rank, n_a, n_b)
    a, a_t = graph_a.adjacency, graph_a.adjacency_t
    b, b_t = graph_b.adjacency, graph_b.adjacency_t

    u, sigma, v = _initial_factors(n_a, n_b, rank)
    history: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = (
        [] if keep_history else None
    )
    context = context or NULL_CONTEXT
    for step in range(iterations):
        context.checkpoint(f"GSVD iteration {step + 1}")
        scaled_u = u * sigma  # n_A x r, absorbs Σ as in Eq.(3).
        left_block = np.hstack([a @ scaled_u, a_t @ scaled_u])  # n_A x 2r
        right_block = np.hstack([b @ v, b_t @ v])  # n_B x 2r
        # Eq.(4): the costly dense QR decompositions.
        q_u, r_u = np.linalg.qr(left_block)
        q_v, r_v = np.linalg.qr(right_block)
        core = r_u @ r_v.T  # 2r x 2r
        core_u, core_sigma, core_vt = np.linalg.svd(core)
        keep = min(rank, core_sigma.size)
        u = q_u @ core_u[:, :keep]
        v = q_v @ core_vt[:keep].T
        sigma = core_sigma[:keep]
        # Pad back to the fixed rank if the core collapsed below it.
        if keep < rank:
            u = np.pad(u, ((0, 0), (0, rank - keep)))
            v = np.pad(v, ((0, 0), (0, rank - keep)))
            sigma = np.pad(sigma, (0, rank - keep))
        # Frobenius normalisation (orthonormal factors => ||S||_F = ||Σ||_2).
        norm = float(np.linalg.norm(sigma))
        if norm == 0.0:
            raise ZeroDivisionError("GSVD iterate collapsed to zero")
        sigma = sigma / norm
        context.metrics.increment("gsvd.iterations")
        context.metrics.increment("gsvd.spmm", 4)
        context.metrics.increment("gsvd.qr", 2)
        if history is not None:
            history.append((u.copy(), sigma.copy(), v.copy()))
    return GSVDResult(
        u=u, sigma=sigma, v=v, iterations=iterations, rank=rank, iterates=history
    )
