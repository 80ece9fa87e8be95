"""Tests for graph property analyzers and the greedy MIS reference."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    complete_graph,
    domination_violations,
    empty_graph,
    gnp_random_graph,
    greedy_mis,
    independence_violations,
    mis_size_bounds,
    path_graph,
)


class TestViolations:
    def test_independence_violations_found(self):
        graph = path_graph(4)
        assert independence_violations(graph, [0, 1, 3]) == [(0, 1)]

    def test_independence_clean(self):
        graph = path_graph(4)
        assert independence_violations(graph, [0, 2]) == []

    def test_domination_violations_found(self):
        graph = path_graph(5)
        assert domination_violations(graph, [0]) == [2, 3, 4]

    def test_domination_clean(self):
        graph = path_graph(5)
        assert domination_violations(graph, [1, 3]) == []

    def test_is_valid_mis(self):
        graph = path_graph(5)
        assert graph.is_maximal_independent_set([0, 2, 4])
        assert not graph.is_maximal_independent_set([0, 1])
        assert not graph.is_maximal_independent_set([0])


class TestGreedyMIS:
    def test_natural_order_on_path(self):
        assert greedy_mis(path_graph(5)) == {0, 2, 4}

    def test_respects_given_order(self):
        assert greedy_mis(path_graph(3), order=[1, 0, 2]) == {1}

    def test_clique_picks_single_node(self):
        assert len(greedy_mis(complete_graph(8))) == 1

    def test_empty_graph_takes_all(self):
        assert greedy_mis(empty_graph(5)) == {0, 1, 2, 3, 4}

    def test_random_order_still_valid(self):
        graph = gnp_random_graph(40, 0.15, seed=2)
        mis = greedy_mis(graph, rng=random.Random(4))
        assert graph.is_maximal_independent_set(mis)

    @given(st.integers(2, 30), st.floats(0.05, 0.9), st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_always_produces_valid_mis(self, n, p, seed):
        graph = gnp_random_graph(n, p, seed=seed)
        mis = greedy_mis(graph, rng=random.Random(seed))
        assert graph.is_maximal_independent_set(mis)


class TestSizeBounds:
    def test_bounds_bracket_greedy(self):
        graph = gnp_random_graph(50, 0.1, seed=1)
        lower, upper = mis_size_bounds(graph)
        size = len(greedy_mis(graph))
        assert lower <= size <= upper

    def test_empty_graph_bounds(self):
        assert mis_size_bounds(empty_graph(7)) == (7, 7)

    def test_zero_node_graph(self):
        assert mis_size_bounds(Graph(0)) == (0, 0)

    def test_clique_lower_bound_is_one(self):
        lower, _ = mis_size_bounds(complete_graph(9))
        assert lower == 1
