"""NED — Zhu et al.'s inter-graph node metric based on edit distance.

NED compares two nodes (possibly from different graphs) through their
*k-adjacent trees*: the tree rooted at the node whose children at every
level are the graph neighbours of the corresponding node.  Because parents
reappear as children, the number of tree nodes per level (the paper's
``L``) grows exponentially with ``k`` — the reason NED is reported
"unresponsive" on all but the smallest inputs.

The distance between two k-adjacent trees is computed bottom-up: the
distance at depth budget ``d`` between roots ``x`` and ``y`` is the cost of
an optimal assignment (Hungarian) between their child sets under the
depth-``d-1`` distances, where an unmatched child costs the size of its
entire remaining subtree (pure insertion/deletion).  Results are memoised
per ``(depth, x, y)``, which is what makes repeated queries affordable at
all.

``ned_distance`` is a *distance* (0 = structurally identical);
``ned_query`` converts to a similarity via ``1 / (1 + distance)`` so the
experiment harness can rank with the same polarity as the other models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.graphs.graph import Graph
from repro.runtime import NULL_CONTEXT, ExecutionContext
from repro.utils.validation import check_nonnegative_integer

__all__ = ["NEDIndex", "TreeSizeLimitExceeded", "ned_distance", "ned_query"]


class TreeSizeLimitExceeded(RuntimeError):
    """Raised when a k-adjacent tree grows past the configured cap.

    Mirrors the paper's observation that NED fails to answer within a day
    once the trees explode; the experiment harness records this as a
    TIMEOUT-class outcome.
    """


@dataclass
class NEDIndex:
    """Per-graph helper caching neighbour lists and subtree sizes.

    Parameters
    ----------
    graph:
        The graph whose k-adjacent trees are compared.
    depth:
        Maximum tree depth ``k``.
    size_limit:
        Upper bound on any subtree's node count; exceeded =>
        :class:`TreeSizeLimitExceeded`.
    """

    graph: Graph
    depth: int
    size_limit: int = 2_000_000
    _neighbours: list[np.ndarray] = field(default_factory=list, repr=False)
    _sizes: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.depth = check_nonnegative_integer(self.depth, "depth")
        undirected = self.graph.to_undirected()
        self._neighbours = [
            undirected.successors(node) for node in range(undirected.num_nodes)
        ]

    def neighbours(self, node: int) -> np.ndarray:
        """Graph neighbours of ``node`` (children at every tree level)."""
        return self._neighbours[node]

    def subtree_size(self, node: int, depth: int) -> int:
        """Node count of the depth-``depth`` adjacent tree rooted at ``node``.

        Memoised; raises :class:`TreeSizeLimitExceeded` past ``size_limit``
        (this is where the exponential blow-up with ``k`` shows up).
        """
        key = (depth, node)
        cached = self._sizes.get(key)
        if cached is not None:
            return cached
        if depth == 0:
            size = 1
        else:
            size = 1
            for child in self._neighbours[node]:
                size += self.subtree_size(int(child), depth - 1)
                if size > self.size_limit:
                    raise TreeSizeLimitExceeded(
                        f"k-adjacent tree at node {node} exceeds "
                        f"{self.size_limit} nodes at depth {depth}"
                    )
        self._sizes[key] = size
        return size


def _pairwise_distance(
    index_a: NEDIndex,
    index_b: NEDIndex,
    node_a: int,
    node_b: int,
    depth: int,
    memo: dict[tuple[int, int, int], float],
    context: ExecutionContext,
) -> float:
    """Tree edit distance between depth-limited adjacent trees (memoised)."""
    if depth == 0:
        return 0.0
    key = (depth, node_a, node_b)
    cached = memo.get(key)
    if cached is not None:
        context.metrics.increment("ned.memo_hits")
        return cached
    # A single pair on a hubby graph can spend minutes inside this
    # recursion, so the context is checkpointed per uncached subproblem,
    # not just between query pairs.
    context.checkpoint("NED subtree matching")
    context.metrics.increment("ned.subproblems")
    children_a = index_a.neighbours(node_a)
    children_b = index_b.neighbours(node_b)
    na, nb = len(children_a), len(children_b)
    if na == 0 and nb == 0:
        memo[key] = 0.0
        return 0.0
    # Deletion/insertion cost of a child = its whole remaining subtree.
    delete_costs = [
        float(index_a.subtree_size(int(c), depth - 1)) for c in children_a
    ]
    insert_costs = [
        float(index_b.subtree_size(int(c), depth - 1)) for c in children_b
    ]
    if na == 0:
        value = float(sum(insert_costs))
        memo[key] = value
        return value
    if nb == 0:
        value = float(sum(delete_costs))
        memo[key] = value
        return value
    # Square the cost matrix with dummy rows/columns carrying ins/del costs,
    # then solve the optimal assignment.
    size = na + nb
    costs = np.zeros((size, size))
    for i, ca in enumerate(children_a):
        for j, cb in enumerate(children_b):
            costs[i, j] = _pairwise_distance(
                index_a, index_b, int(ca), int(cb), depth - 1, memo, context
            )
    # Matching child i of A with a dummy = deleting its subtree.
    costs[:na, nb:] = np.inf
    for i in range(na):
        costs[i, nb + i] = delete_costs[i]
    costs[na:, :nb] = np.inf
    for j in range(nb):
        costs[na + j, j] = insert_costs[j]
    costs[na:, nb:] = 0.0  # dummy-dummy pairs are free.
    row_idx, col_idx = linear_sum_assignment(costs)
    value = float(costs[row_idx, col_idx].sum())
    memo[key] = value
    return value


def ned_distance(
    graph_a: Graph,
    graph_b: Graph,
    node_a: int,
    node_b: int,
    depth: int = 3,
    size_limit: int = 2_000_000,
) -> float:
    """Single-pair NED distance between ``node_a`` in ``G_A`` and
    ``node_b`` in ``G_B`` using depth-``depth`` adjacent trees.

    Examples
    --------
    >>> from repro.graphs import Graph
    >>> a = Graph.from_edges(3, [(0, 1), (1, 2)])
    >>> ned_distance(a, a, 0, 0, depth=2)
    0.0
    """
    index_a = NEDIndex(graph_a, depth, size_limit=size_limit)
    index_b = NEDIndex(graph_b, depth, size_limit=size_limit)
    memo: dict[tuple[int, int, int], float] = {}
    return _pairwise_distance(
        index_a, index_b, node_a, node_b, depth, memo, NULL_CONTEXT
    )


def ned_query(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray | list[int],
    queries_b: np.ndarray | list[int],
    depth: int = 3,
    size_limit: int = 2_000_000,
    context: ExecutionContext | None = None,
) -> np.ndarray:
    """NED similarity block ``1 / (1 + distance)`` over the query pairs.

    Each pair is a fresh single-pair computation (NED's design); the memo
    is shared across pairs so overlapping neighbourhoods are not re-solved.
    The optional ``context`` is checkpointed between pairs and per
    uncached subproblem, so its deadline and cancellation token stop a
    long run.
    """
    rows = np.asarray(queries_a, dtype=np.int64)
    cols = np.asarray(queries_b, dtype=np.int64)
    index_a = NEDIndex(graph_a, depth, size_limit=size_limit)
    index_b = NEDIndex(graph_b, depth, size_limit=size_limit)
    memo: dict[tuple[int, int, int], float] = {}
    context = context or NULL_CONTEXT
    block = np.empty((rows.size, cols.size))
    for i, node_a in enumerate(rows):
        for j, node_b in enumerate(cols):
            context.checkpoint("NED pair queries")
            distance = _pairwise_distance(
                index_a, index_b, int(node_a), int(node_b), depth, memo, context
            )
            block[i, j] = 1.0 / (1.0 + distance)
            context.metrics.increment("ned.pairs")
    return block
