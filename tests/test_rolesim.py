"""Unit tests for the RoleSim baseline."""

import numpy as np
import pytest

from repro import Graph
from repro.baselines import rolesim, rolesim_query
from repro.runtime import DeadlineExceeded, ExecutionContext, WallClockDeadline


class TestRoleSimProperties:
    def test_diagonal_is_one(self, cycle_graph):
        result = rolesim(cycle_graph, iterations=3)
        np.testing.assert_array_equal(np.diag(result.similarity), 1.0)

    def test_symmetric(self, random_pair):
        graph, _ = random_pair
        result = rolesim(graph, iterations=2)
        np.testing.assert_allclose(result.similarity, result.similarity.T)

    def test_range(self, random_pair):
        graph, _ = random_pair
        sim = rolesim(graph, iterations=2, beta=0.15).similarity
        assert (sim >= 0.15 - 1e-12).all()
        assert (sim <= 1.0 + 1e-12).all()

    def test_beta_floor(self, path_graph):
        # A leaf and a hub share no matching weight at convergence, but
        # the decay term keeps similarity >= beta.
        sim = rolesim(path_graph, iterations=4, beta=0.2).similarity
        assert sim.min() >= 0.2 - 1e-12

    def test_automorphic_nodes_score_one(self):
        # In a 4-cycle every node is automorphically equivalent.
        cycle = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        sim = rolesim(cycle, iterations=5).similarity
        np.testing.assert_allclose(sim, 1.0, atol=1e-9)

    def test_isolated_nodes_identical_roles(self):
        g = Graph.empty(3)
        sim = rolesim(g, iterations=2).similarity
        np.testing.assert_allclose(sim, 1.0)

    def test_zero_iterations_all_ones(self, path_graph):
        sim = rolesim(path_graph, iterations=0).similarity
        np.testing.assert_allclose(sim, 1.0)

    def test_matching_strategies_close(self, random_pair):
        graph, _ = random_pair
        greedy = rolesim(graph, iterations=2, matching="greedy").similarity
        exact = rolesim(graph, iterations=2, matching="exact").similarity
        # Greedy matching under-weights at most modestly.
        assert np.abs(greedy - exact).max() < 0.2

    def test_exact_matching_at_least_greedy_weight(self):
        # Exact assignment weight >= greedy weight => exact sim >= greedy
        # after ONE iteration (both start from the same all-ones state).
        g = Graph.from_edges(
            6, [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 5), (5, 3)]
        )
        greedy = rolesim(g, iterations=1, matching="greedy").similarity
        exact = rolesim(g, iterations=1, matching="exact").similarity
        assert (exact >= greedy - 1e-12).all()

    def test_bad_matching_rejected(self, path_graph):
        with pytest.raises(ValueError, match="matching"):
            rolesim(path_graph, matching="quantum")

    def test_beta_validated(self, path_graph):
        with pytest.raises(ValueError):
            rolesim(path_graph, beta=1.5)

    def test_iceberg_freezes_low_pairs(self, random_pair):
        graph, _ = random_pair
        pruned = rolesim(
            graph, iterations=3, beta=0.15, iceberg_threshold=0.6
        ).similarity
        # Pairs below the threshold are clamped exactly to beta.
        below = pruned[pruned < 0.6]
        off_diagonal = below[below != 1.0]
        assert np.allclose(off_diagonal, 0.15)

    def test_deadline_enforced(self, random_pair):
        graph, _ = random_pair
        with pytest.raises(DeadlineExceeded):
            rolesim(
                graph, iterations=3,
                context=ExecutionContext(deadline=WallClockDeadline(1e-9)),
            )


class TestRoleSimQuery:
    def test_block_shape(self, path_graph, cycle_graph):
        block = rolesim_query(path_graph, cycle_graph, [0, 1], [2], iterations=2)
        assert block.shape == (2, 1)

    def test_matches_union_matrix(self, path_graph, cycle_graph):
        union = path_graph.union_disjoint(cycle_graph)
        full = rolesim(union, iterations=2).similarity
        block = rolesim_query(path_graph, cycle_graph, [1], [0], iterations=2)
        assert block[0, 0] == pytest.approx(full[1, 4])

    def test_out_of_range_queries(self, path_graph, cycle_graph):
        with pytest.raises(IndexError):
            rolesim_query(path_graph, cycle_graph, [99], [0])
