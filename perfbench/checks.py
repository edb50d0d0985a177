"""Output checks, independent of the program's own algorithms.

* :func:`reference_factors` runs the GSim+ recurrence
  ``Z <- A Z B^T + A^T Z B`` in factored form straight from the edge
  arrays (scipy only), so the served similarity is checked against a
  build the program did not do.
* :func:`reference_top_pairs` finds the exact top-k of ``U V^T`` by the
  canonical order (score descending, then lowest ``a``, then lowest
  ``b``).  Rows whose score bound ``sum_c max(u_c hi_c, u_c lo_c)``
  (``hi``/``lo``: column max/min of ``V``) falls below a known lower
  bound of the k-th score cannot hold a top-k pair and are skipped;
  every other row is scored in full.
* :class:`Checker` counts checks and the operations they failed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

# Relative tolerance for scores that two exact computations produce in a
# different summation order.
EXACT_RTOL = 1e-12


def reference_factors(
    n_a: int,
    edges_a: tuple[np.ndarray, np.ndarray],
    n_b: int,
    edges_b: tuple[np.ndarray, np.ndarray],
    iterations: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact GSim+ factors ``(U, V)`` after ``iterations`` doubling steps."""

    def _adjacency(n: int, edges: tuple[np.ndarray, np.ndarray]):
        src, dst = edges
        matrix = sp.csr_matrix(
            (np.ones(src.size), (src, dst)), shape=(n, n), dtype=np.float64
        )
        return matrix, matrix.T.tocsr()

    a, a_t = _adjacency(n_a, edges_a)
    b, b_t = _adjacency(n_b, edges_b)
    u = np.ones((n_a, 1))
    v = np.ones((n_b, 1))
    for _ in range(iterations):
        u = np.hstack([a @ u, a_t @ u])
        v = np.hstack([b @ v, b_t @ v])
        u /= max(float(np.abs(u).max()), 1e-300)
        v /= max(float(np.abs(v).max()), 1e-300)
    return u, v


def frobenius(u: np.ndarray, v: np.ndarray) -> float:
    """``||U V^T||_F`` through the two Gram matrices."""
    return math.sqrt(max(float(np.sum((u.T @ u) * (v.T @ v))), 0.0))


def reference_top_pairs(
    u: np.ndarray, v: np.ndarray, k: int, floor: float, block_rows: int = 256
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact canonical top-k of ``U V^T`` as ``(scores, rows, cols)``.

    ``floor`` must not exceed the true k-th largest score (any k entries
    of the matrix give one); pass ``-inf`` to score every row.
    """
    hi = v.max(axis=0)
    lo = v.min(axis=0)
    bound = np.maximum(u * hi, u * lo).sum(axis=1)
    # Slack for the rounding of the bound and of the scores themselves.
    slack = 1e-9 * (np.abs(u) @ np.maximum(np.abs(hi), np.abs(lo)))
    rows = np.flatnonzero(bound + slack >= floor)
    v_t = np.ascontiguousarray(v.T)
    best = (np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    for start in range(0, rows.size, block_rows):
        chunk = rows[start : start + block_rows]
        scores = u[chunk] @ v_t
        flat = scores.ravel()
        if flat.size > k:
            kth = flat[np.argpartition(-flat, k - 1)[k - 1]]
            picked = np.flatnonzero(flat >= kth)
        else:
            picked = np.arange(flat.size)
        merged_scores = np.concatenate([best[0], flat[picked]])
        merged_rows = np.concatenate([best[1], chunk[picked // v.shape[0]]])
        merged_cols = np.concatenate([best[2], picked % v.shape[0]])
        order = np.lexsort((merged_cols, merged_rows, -merged_scores))[:k]
        best = (merged_scores[order], merged_rows[order], merged_cols[order])
    return best


def kth_floor(u: np.ndarray, v: np.ndarray, pairs: list[tuple[int, int]], k: int) -> float:
    """A lower bound of the k-th largest entry of ``U V^T``: the smallest
    of ``k`` entries, or ``-inf`` with fewer than ``k`` pairs."""
    if len(set(pairs)) < k:
        return -math.inf
    return min(float(u[a] @ v[b]) for a, b in pairs)


def close(x: float, y: float, rtol: float = EXACT_RTOL) -> bool:
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def same_ranking(
    got: list[tuple[int, int, float]],
    want: list[tuple[int, int, float]],
    score_of,
    rtol: float = EXACT_RTOL,
) -> str | None:
    """Compare a returned ranking with the reference one.

    Ids must match position by position, except where the returned pair
    ties the reference pair at that position (its own reference score
    equals the wanted score within ``rtol``), which only reorders equal
    scores.  Returns a description of the first mismatch, or None.
    """
    if len(got) != len(want):
        return f"{len(got)} results, want {len(want)}"
    for i, ((a, b, score), (wa, wb, wscore)) in enumerate(zip(got, want)):
        if not close(score, wscore, rtol):
            return f"rank {i}: score {score!r}, want {wscore!r}"
        if (a, b) != (wa, wb) and not close(score_of(a, b), wscore, rtol):
            return f"rank {i}: pair {(a, b)}, want {(wa, wb)}"
    return None


class Checker:
    """Counts output checks; a failed check marks its operation failed."""

    def __init__(self) -> None:
        self.checks = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.checks += 1
        if not ok:
            self.failures.append(what)
        return ok

    def mismatch(self, problem: str | None, what: str) -> bool:
        return self.expect(problem is None, f"{what}: {problem}")

    @property
    def failed(self) -> int:
        return len(self.failures)
