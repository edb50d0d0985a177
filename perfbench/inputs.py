"""Seeded workload inputs, generated without the program under test.

The graphs, query blocks and write batches are drawn with NumPy alone,
so a change to ``repro``'s own generators can never change what the
benchmark feeds it.  The same ``(seed, stream)`` pair always yields the
same arrays.  The program sees only the edge-list files written here and
the query/write arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# One independent random stream per input, so adding a stream never
# shifts the others.
STREAM_GRAPH_A = 1
STREAM_GRAPH_B = 2
STREAM_QUERIES = 3
STREAM_WRITES = 4

RMAT_QUADRANTS = (0.57, 0.19, 0.19, 0.05)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def rmat_edges(
    rng: np.random.Generator, scale: int, num_edges: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct R-MAT edges over ``2**scale`` nodes, no self loops."""
    n = 1 << scale
    t1, t2, t3 = np.cumsum(RMAT_QUADRANTS[:3])
    keys = np.empty(0, dtype=np.int64)
    for _ in range(8):
        deficit = num_edges - keys.size
        if deficit <= 0:
            break
        count = int(deficit * 1.4) + 8
        rows = np.zeros(count, dtype=np.int64)
        cols = np.zeros(count, dtype=np.int64)
        for level in range(scale):
            bit = np.int64(1) << np.int64(scale - 1 - level)
            draws = rng.random(count)
            right = (draws >= t1) & (draws < t2)
            down = (draws >= t2) & (draws < t3)
            diag = draws >= t3
            cols += bit * (right | diag)
            rows += bit * (down | diag)
        keep = rows != cols
        keys = np.unique(np.concatenate([keys, rows[keep] * n + cols[keep]]))
    if keys.size > num_edges:
        keys = np.sort(rng.choice(keys, size=num_edges, replace=False))
    return keys // n, keys % n


def er_edges(
    rng: np.random.Generator, num_nodes: int, num_edges: int
) -> tuple[np.ndarray, np.ndarray]:
    """``num_edges`` distinct uniform directed edges, no self loops."""
    keys = np.empty(0, dtype=np.int64)
    while keys.size < num_edges:
        count = int((num_edges - keys.size) * 1.2) + 64
        rows = rng.integers(0, num_nodes, size=count)
        cols = rng.integers(0, num_nodes, size=count)
        keep = rows != cols
        keys = np.unique(
            np.concatenate([keys, rows[keep] * num_nodes + cols[keep]])
        )
    if keys.size > num_edges:
        keys = np.sort(rng.choice(keys, size=num_edges, replace=False))
    return keys // num_nodes, keys % num_nodes


@dataclass
class EdgeList:
    """One generated graph: its edge-list file and a NumPy copy of it."""

    path: Path
    arrays: Path  # .npz copy, reloaded by the output checks
    num_nodes: int  # max id + 1: the node count a reader of the file sees
    num_edges: int
    degree: np.ndarray  # in + out degree per node

    def load(self) -> tuple[np.ndarray, np.ndarray]:
        with np.load(self.arrays) as data:
            return data["src"], data["dst"]


def write_edge_list(
    directory: Path, name: str, src: np.ndarray, dst: np.ndarray
) -> EdgeList:
    """Write ``src dst`` lines (SNAP style) and keep a binary copy."""
    path = directory / f"{name}.txt"
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# {name}: {src.size} edges\n")
        for start in range(0, src.size, 1 << 18):
            stop = min(start + (1 << 18), src.size)
            lines = [
                f"{s}\t{d}\n"
                for s, d in zip(src[start:stop].tolist(), dst[start:stop].tolist())
            ]
            handle.write("".join(lines))
    arrays = directory / f"{name}.npz"
    np.savez(arrays, src=src, dst=dst)
    num_nodes = int(max(src.max(), dst.max())) + 1
    degree = np.bincount(src, minlength=num_nodes) + np.bincount(
        dst, minlength=num_nodes
    )
    return EdgeList(path, arrays, num_nodes, int(src.size), degree)


def degree_biased(
    rng: np.random.Generator, degree: np.ndarray, size: int
) -> np.ndarray:
    """``size`` distinct sorted node ids, probability proportional to
    ``1 + degree`` (the rule of ``repro.workloads.degree_biased_queries``)."""
    weights = 1.0 + degree.astype(np.float64)
    return np.sort(
        rng.choice(degree.size, size=size, replace=False, p=weights / weights.sum())
    )


def query_blocks(
    rng: np.random.Generator,
    graph_a: EdgeList,
    graph_b: EdgeList,
    count: int,
    rows: int,
    cols: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``count`` degree-biased ``rows x cols`` query blocks."""
    return [
        (
            degree_biased(rng, graph_a.degree, rows),
            degree_biased(rng, graph_b.degree, cols),
        )
        for _ in range(count)
    ]


def new_edge_batches(
    rng: np.random.Generator,
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int,
    batches: int,
    size: int,
) -> list[np.ndarray]:
    """``batches`` arrays of ``size`` edges, each absent from the graph
    and from every other batch (so no ``add_edges`` call is rejected)."""
    taken = set((src * num_nodes + dst).tolist())
    fresh: list[int] = []
    seen: set[int] = set()
    while len(fresh) < batches * size:
        rows = rng.integers(0, num_nodes, size=4 * size)
        cols = rng.integers(0, num_nodes, size=4 * size)
        for key in (rows * num_nodes + cols).tolist():
            if key // num_nodes == key % num_nodes or key in taken or key in seen:
                continue
            seen.add(key)
            fresh.append(key)
    keys = np.asarray(fresh[: batches * size], dtype=np.int64).reshape(batches, size)
    return [np.stack([batch // num_nodes, batch % num_nodes], axis=1) for batch in keys]
