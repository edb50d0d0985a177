"""Unit tests for the StructSim (SS-BC*) baseline."""

import numpy as np
import pytest

from repro import Graph
from repro.baselines import StructSimIndex, structsim_query
from repro.baselines.structsim import _degree_bin
from repro.runtime import DeadlineExceeded, ExecutionContext, WallClockDeadline


class TestDegreeBins:
    def test_isolated_in_bin_zero(self):
        assert _degree_bin(0) == 0

    def test_logarithmic_bins(self):
        assert _degree_bin(1) == 1
        assert _degree_bin(2) == 2
        assert _degree_bin(3) == 2
        assert _degree_bin(4) == 3
        assert _degree_bin(1024) == 11


class TestIndexConstruction:
    def test_signature_shape(self, random_pair):
        graph, _ = random_pair
        index = StructSimIndex(graph, levels=4, max_bins=8)
        assert index.signature(0, 0).shape == (8,)

    def test_level_zero_is_one_hot(self, star_graph):
        index = StructSimIndex(star_graph, levels=1)
        sig = index.signature(0, 0)
        assert sig.sum() == 1.0

    def test_level_counts_grow_with_neighbourhood(self, random_pair):
        graph, _ = random_pair
        index = StructSimIndex(graph, levels=3)
        totals = [index.signature(0, level).sum() for level in range(4)]
        assert totals[0] == 1.0
        # Level-l mass counts l-step walks: non-decreasing for this graph.
        assert totals[-1] >= totals[0]

    def test_node_range_checked(self, star_graph):
        index = StructSimIndex(star_graph, levels=1)
        with pytest.raises(IndexError):
            index.signature(99, 0)

    def test_level_range_checked(self, star_graph):
        index = StructSimIndex(star_graph, levels=1)
        with pytest.raises(IndexError):
            index.signature(0, 5)

    def test_memory_scales_with_levels(self, random_pair):
        graph, _ = random_pair
        small = StructSimIndex(graph, levels=2).memory_bytes()
        large = StructSimIndex(graph, levels=8).memory_bytes()
        assert large > small

    def test_max_bins_validated(self, star_graph):
        with pytest.raises(ValueError, match="max_bins"):
            StructSimIndex(star_graph, levels=1, max_bins=0)


class TestPairSimilarity:
    def test_self_similarity_is_one(self, random_pair):
        graph, _ = random_pair
        index = StructSimIndex(graph, levels=4)
        assert index.pair_similarity(index, 3, 3) == pytest.approx(1.0)

    def test_range(self, random_pair):
        graph_a, graph_b = random_pair
        index_a = StructSimIndex(graph_a, levels=4)
        index_b = StructSimIndex(graph_b, levels=4)
        value = index_a.pair_similarity(index_b, 0, 0)
        assert 0.0 <= value <= 1.0

    def test_automorphic_nodes_score_one(self):
        cycle = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        index = StructSimIndex(cycle, levels=3)
        assert index.pair_similarity(index, 0, 2) == pytest.approx(1.0)

    def test_hub_vs_leaf_below_one(self, star_graph):
        index = StructSimIndex(star_graph, levels=2)
        assert index.pair_similarity(index, 0, 1) < 1.0

    def test_parameter_mismatch_rejected(self, star_graph):
        a = StructSimIndex(star_graph, levels=2)
        b = StructSimIndex(star_graph, levels=3)
        with pytest.raises(ValueError, match="different parameters"):
            a.pair_similarity(b, 0, 0)

    def test_isolated_nodes_match_perfectly(self):
        g = Graph.empty(3)
        index = StructSimIndex(g, levels=3)
        assert index.pair_similarity(index, 0, 1) == pytest.approx(1.0)


class TestQuery:
    def test_block_shape(self, random_pair):
        graph_a, graph_b = random_pair
        block = structsim_query(graph_a, graph_b, [0, 1, 2], [3, 4], levels=3)
        assert block.shape == (3, 2)

    def test_prebuilt_indexes_reused(self, random_pair):
        graph_a, graph_b = random_pair
        index_a = StructSimIndex(graph_a, levels=3)
        index_b = StructSimIndex(graph_b, levels=3)
        via_prebuilt = structsim_query(
            graph_a, graph_b, [0], [0], levels=3,
            index_a=index_a, index_b=index_b,
        )
        fresh = structsim_query(graph_a, graph_b, [0], [0], levels=3)
        np.testing.assert_allclose(via_prebuilt, fresh)

    def test_deadline_enforced(self, random_pair):
        graph_a, graph_b = random_pair
        with pytest.raises(DeadlineExceeded):
            structsim_query(
                graph_a, graph_b, [0, 1], [0, 1], levels=3,
                context=ExecutionContext(deadline=WallClockDeadline(1e-9)),
            )
