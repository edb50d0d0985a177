"""The shard kernels: one set for serial, thread and process execution.

Each kernel takes one picklable task of operand *handles* and resolves
them itself (:func:`repro.runtime.workspace.resolve`), so the same
function runs inline, in a worker thread over the caller's arrays, or in
a pool process over mapped files — the workspace that built the handles
decides which.  Every output row is written by exactly one task as one
fixed-order accumulation, so results are bit-identical for every shard
split and backend.  The scan kernels take an execution context to poll
and charge per block (:data:`repro.runtime.context.NULL_CONTEXT` across
a process boundary).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.runtime.workspace import resolve
from repro.utils.memory import dense_matrix_bytes

__all__ = [
    "canonical_top_k",
    "row_top_k",
    "scan_pairs",
    "scan_queries",
    "spmm_into",
    "spmm_pair_into",
    "spmm_t_into",
]


def spmm_into(task: tuple[Any, int, int, Any, Any, int]) -> None:
    """``out[start:stop, offset:offset+w] = M[start:stop] @ X``."""
    rows, start, stop, dense, out, offset = task
    dense = resolve(dense)
    width = dense.shape[1]
    resolve(out)[start:stop, offset : offset + width] = resolve(rows) @ dense


def spmm_t_into(task: tuple[Any, int, int, Any, Any]) -> None:
    """``out[:, start:stop] = (M[start:stop] @ X).T`` — dense stage 1,
    writing a column slice so stage 2 reads a C-contiguous operand."""
    rows, start, stop, dense, out = task
    resolve(out)[:, start:stop] = (resolve(rows) @ resolve(dense)).T


def spmm_pair_into(task: tuple[Any, Any, int, int, Any, Any, Any]) -> None:
    """``out[start:stop] = A[start:stop] @ P + Aᵀ[start:stop] @ Q`` —
    dense stage 2."""
    a_rows, a_t_rows, start, stop, p, q, out = task
    update = resolve(a_rows) @ resolve(p) + resolve(a_t_rows) @ resolve(q)
    resolve(out)[start:stop] = update


def canonical_top_k(
    scores: np.ndarray, rows: np.ndarray, cols: np.ndarray, k: int
) -> np.ndarray:
    """Indices of the ``k`` best candidates by ``(-score, row, col)``."""
    return np.lexsort((cols, rows, -scores))[:k]


def row_top_k(row: np.ndarray, k: int) -> np.ndarray:
    """Columns of the ``k`` largest entries, ties broken by lowest column.

    Matches ``np.argsort(-row, kind="stable")[:k]`` exactly, but only the
    (at most ``k + ties``) surviving candidates are sorted.
    """
    n = row.size
    if k >= n:
        candidates = np.arange(n)
    else:
        kth = row[np.argpartition(-row, k - 1)[k - 1]]
        candidates = np.flatnonzero(row >= kth)
    return candidates[np.lexsort((candidates, -row[candidates]))[:k]]


def scan_pairs(
    task: tuple[Any, Any, list[int], int, int, float, Any],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score the blocks of ``U Vᵀ`` that start at the ascending row
    offsets ``starts`` (each ``block_rows`` rows, the last cut at
    ``n_A``); return their k-best ``(scores, rows, cols)``.

    ``threshold`` is a known lower bound of the global k-th score
    (``-inf`` when none is known): entries below it are dropped on
    sight.  The running candidate set is exact under truncation: blocks
    are scanned in ascending row order, so an entry tying the current
    k-th score always loses the ``(row, col)`` tie-break to every
    retained entry and can be dropped; anything below the k-th score is
    dominated forever.
    """
    u, v_t, starts, k, block_rows, threshold, context = task
    u, v_t = resolve(u), resolve(v_t)
    n_a, n_b = u.shape[0], v_t.shape[1]
    best_scores = np.empty(0, dtype=np.float64)
    best_rows = np.empty(0, dtype=np.int64)
    best_cols = np.empty(0, dtype=np.int64)
    for block_start in starts:
        block_stop = min(block_start + block_rows, n_a)
        block_bytes = dense_matrix_bytes(
            block_stop - block_start, n_b, itemsize=v_t.dtype.itemsize
        )
        context.checkpoint(f"top_k_pairs scan at row {block_start}")
        context.charge(block_bytes, "top-k scan block")
        try:
            flat = (u[block_start:block_stop] @ v_t).ravel()
            # Candidates: everything that can still reach the top k.  The
            # >= keeps score ties with the current k-th entry, so the merge
            # below decides them by the canonical order, never by arrival.
            if threshold > -np.inf:
                candidates = np.flatnonzero(flat >= threshold)
            else:
                candidates = np.arange(flat.size)
            values = flat[candidates]
        finally:
            context.release(block_bytes)
        if values.size > k:
            kth = values[np.argpartition(-values, k - 1)[k - 1]]
            keep = values >= kth
            candidates = candidates[keep]
            values = values[keep]
        if candidates.size == 0:
            continue
        merged_scores = np.concatenate([best_scores, values])
        merged_rows = np.concatenate([best_rows, block_start + candidates // n_b])
        merged_cols = np.concatenate([best_cols, candidates % n_b])
        order = canonical_top_k(merged_scores, merged_rows, merged_cols, k)
        best_scores = merged_scores[order]
        best_rows = merged_rows[order]
        best_cols = merged_cols[order]
        if best_scores.size == k:
            threshold = float(best_scores[-1])
    return best_scores, best_rows, best_cols


def scan_queries(
    task: tuple[Any, Any, Any, int, int, int, Any],
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Score query rows ``rows[start:stop]`` against every column of
    ``Vᵀ`` in one block; return ``(node, top-k columns, their scores)``
    per query."""
    u, v_t, rows, start, stop, k, context = task
    u, v_t = resolve(u), resolve(v_t)
    chunk = resolve(rows)[start:stop]
    block_bytes = dense_matrix_bytes(
        chunk.size, v_t.shape[1], itemsize=v_t.dtype.itemsize
    )
    context.checkpoint(f"top_k_for_queries scan at query {start}")
    context.charge(block_bytes, "top-k query block")
    try:
        block = u[chunk] @ v_t
        out = []
        for i, node_a in enumerate(chunk):
            order = row_top_k(block[i], k)
            # Copy only the k survivors so the full block can be freed.
            out.append((int(node_a), order, block[i, order]))
        return out
    finally:
        context.release(block_bytes)
