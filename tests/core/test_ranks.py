"""Tests for rank bitstring helpers."""

import random
from collections import Counter

from repro.core.ranks import (
    draw_rank,
    is_local_maximum,
    rank_to_int,
)
from repro.graphs import Graph, path_graph


class TestConversions:
    def test_rank_to_int_msb_first(self):
        assert rank_to_int([1, 0, 1]) == 5
        assert rank_to_int([0, 0, 0]) == 0
        assert rank_to_int([]) == 0



class TestDrawRank:
    def test_length(self):
        rank = draw_rank(random.Random(0), 12)
        assert len(rank) == 12
        assert set(rank) <= {0, 1}

    def test_zero_bits(self):
        assert draw_rank(random.Random(0), 0) == []

    def test_roughly_uniform_bits(self):
        rng = random.Random(1)
        counts = Counter()
        for _ in range(500):
            counts.update(draw_rank(rng, 8))
        total = sum(counts.values())
        assert abs(counts[1] / total - 0.5) < 0.05

    def test_deterministic_per_seed(self):
        assert draw_rank(random.Random(5), 16) == draw_rank(random.Random(5), 16)


class TestLocalMaxima:
    def test_path_maxima(self):
        graph = path_graph(4)
        ranks = {0: 5, 1: 9, 2: 2, 3: 7}
        assert is_local_maximum(graph, 1, ranks)
        assert is_local_maximum(graph, 3, ranks)
        assert not is_local_maximum(graph, 0, ranks)
        assert not is_local_maximum(graph, 2, ranks)

    def test_ties_are_not_maxima(self):
        graph = path_graph(2)
        ranks = {0: 4, 1: 4}
        assert not is_local_maximum(graph, 0, ranks)
        assert not is_local_maximum(graph, 1, ranks)

    def test_non_participating_neighbors_ignored(self):
        graph = path_graph(3)
        ranks = {0: 1, 1: 2}  # node 2 absent
        assert is_local_maximum(graph, 1, ranks)

    def test_isolated_node_is_maximum(self):
        graph = Graph(2, [])
        assert is_local_maximum(graph, 0, {0: 0, 1: 5})

    def test_maxima_form_independent_set(self):
        rng = random.Random(3)
        from repro.graphs import gnp_random_graph

        graph = gnp_random_graph(30, 0.2, seed=2)
        ranks = {v: rng.randrange(1 << 20) for v in graph.nodes}
        maxima = [v for v in ranks if is_local_maximum(graph, v, ranks)]
        assert graph.is_independent_set(maxima)
