"""Tests for the extended generators."""

import pytest

from repro.errors import GraphError
from repro.graphs import (
    barbell_graph,
    greedy_mis,
    hypercube_graph,
    planted_independent_set_graph,
    torus_graph,
)


class TestTorus:
    def test_four_regular(self):
        graph = torus_graph(4, 5)
        assert all(graph.degree(node) == 4 for node in graph.nodes)
        assert graph.num_edges == 2 * 20

    def test_too_small_rejected(self):
        with pytest.raises(GraphError):
            torus_graph(2, 5)


class TestHypercube:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 5])
    def test_structure(self, d):
        graph = hypercube_graph(d)
        assert graph.num_nodes == 1 << d
        assert all(graph.degree(node) == d for node in graph.nodes)
        assert graph.num_edges == d * (1 << d) // 2

    def test_negative_rejected(self):
        with pytest.raises(GraphError):
            hypercube_graph(-1)

    def test_bipartite_no_triangles(self):
        graph = hypercube_graph(4)
        assert not any(
            graph.neighbor_set(u) & graph.neighbor_set(v) for u, v in graph.edges
        )


class TestBarbell:
    def test_structure(self):
        graph = barbell_graph(4, 3)
        # Two K4 (6 edges each) + 3 path edges.
        assert graph.num_edges == 6 + 6 + 3
        assert graph.num_nodes == 4 + 2 + 4

    def test_path_length_one_joins_cliques_directly(self):
        graph = barbell_graph(3, 1)
        assert graph.num_nodes == 6
        assert graph.has_edge(2, 3)

    def test_validation(self):
        with pytest.raises(GraphError):
            barbell_graph(0, 2)
        with pytest.raises(GraphError):
            barbell_graph(3, 0)


class TestPlanted:
    def test_planted_set_is_independent(self):
        graph = planted_independent_set_graph(40, 15, 0.4, seed=1)
        assert graph.is_independent_set(range(15))

    def test_rest_has_edges(self):
        graph = planted_independent_set_graph(40, 15, 0.4, seed=1)
        assert graph.num_edges > 0

    def test_p_one_everything_outside_connected(self):
        graph = planted_independent_set_graph(10, 4, 1.0, seed=1)
        assert graph.has_edge(4, 5)
        assert graph.has_edge(0, 9)
        assert not graph.has_edge(0, 1)

    def test_validation(self):
        with pytest.raises(GraphError):
            planted_independent_set_graph(10, 11, 0.5)
        with pytest.raises(GraphError):
            planted_independent_set_graph(10, 3, 1.5)

    def test_greedy_mis_at_least_decent(self):
        graph = planted_independent_set_graph(60, 20, 0.3, seed=3)
        mis = greedy_mis(graph, order=list(range(60)))
        assert len(mis) >= 20  # natural order starts inside the planted set
