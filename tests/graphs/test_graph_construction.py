"""``Graph.__init__``: one constructor, two bodies, one graph.

With numpy the constructor folds the edge iterable straight into CSR;
without it, a set-based body builds the Python views eagerly.  The
numpy-less body is the reference: every accessor must agree between
the two on arbitrary edge lists.  The golden digests pin the random
generators to the graphs they produced before the constructor was
unified (same seed, same graph), so cache keys and experiment inputs
cannot drift silently.
"""

import hashlib
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.workloads import build_workload
from repro.errors import GraphError
from repro.graphs import (
    Graph,
    gnp_random_graph,
    matching_plus_isolated_graph,
    random_regularish_graph,
)
from repro.graphs import graph as graph_module

try:
    import numpy as np
except ImportError:  # the no-numpy CI job runs the set-based body only
    np = None

needs_numpy = pytest.mark.skipif(np is None, reason="the CSR fold needs numpy")


def fallback(build, *args, **kwargs) -> Graph:
    """Call ``build`` with the numpy-less constructor body forced."""
    with mock.patch.object(graph_module, "_np", None):
        return build(*args, **kwargs)


def assert_graphs_equal(folded: Graph, reference: Graph):
    """Full structural equality, checked through every accessor."""
    n = reference.num_nodes
    assert folded.num_nodes == n
    assert folded.num_edges == reference.num_edges
    assert folded.max_degree() == reference.max_degree()
    assert folded.name == reference.name
    assert tuple(folded.iter_edges()) == reference.edges
    assert folded.edges == reference.edges
    assert [folded.degree(v) for v in range(n)] == [
        reference.degree(v) for v in range(n)
    ]
    assert [folded.neighbors(v) for v in range(n)] == [
        reference.neighbors(v) for v in range(n)
    ]
    assert folded.adjacency == reference.adjacency
    assert folded.neighbor_sets == reference.neighbor_sets
    assert all(folded.has_edge(u, v) for u, v in reference.edges)
    assert folded == reference
    assert hash(folded) == hash(reference)


def assert_csr_invariants(graph: Graph):
    """CSR structure: sorted rows, no self-loops, symmetric."""
    indptr, indices = graph.csr()
    n = graph.num_nodes
    assert indptr[0] == 0
    assert indptr[-1] == indices.size
    assert np.all(np.diff(indptr) >= 0)
    if indices.size:
        assert indices.min() >= 0 and indices.max() < n
    rows = np.repeat(np.arange(n), np.diff(indptr))
    # No self-loops.
    assert not np.any(rows == indices)
    # Each row sorted strictly increasing (sorted + deduplicated).
    interior = np.setdiff1d(np.arange(1, indices.size), indptr[1:-1])
    if interior.size:
        assert np.all(indices[interior] > indices[interior - 1])
    # Symmetry: the directed edge set equals its own reverse.
    forward = np.sort(rows.astype(np.int64) * n + indices)
    backward = np.sort(indices.astype(np.int64) * n + rows)
    assert np.array_equal(forward, backward)


# ----------------------------------------------------------------------
# The CSR fold equals the set-based body
# ----------------------------------------------------------------------


@st.composite
def edge_lists(draw):
    """``(n, edges)``: duplicates, both orientations, isolated nodes, n=0."""
    n = draw(st.integers(min_value=0, max_value=60))
    if n < 2:
        return n, []
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=4 * n))
    edges = [(u, v) for u, v in pairs if u != v]
    # Re-emit some edges reversed so both orientations and duplicates occur.
    edges += [(v, u) for u, v in edges[: draw(st.integers(0, len(edges)))]]
    return n, edges


@needs_numpy
@settings(max_examples=80)
@given(case=edge_lists())
def test_numpy_fold_equals_set_based_body(case):
    n, edges = case
    folded = Graph(n, iter(edges), name="g")
    assert_graphs_equal(folded, fallback(Graph, n, iter(edges), name="g"))
    assert_csr_invariants(folded)


@needs_numpy
@settings(max_examples=40)
@given(
    n=st.integers(min_value=0, max_value=80),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p_percent=st.integers(min_value=0, max_value=100),
)
def test_gnp_fold_equals_fallback(n, seed, p_percent):
    p = p_percent / 100.0
    assert_graphs_equal(
        gnp_random_graph(n, p, seed=seed),
        fallback(gnp_random_graph, n, p, seed=seed),
    )


@needs_numpy
@settings(max_examples=25)
@given(
    n=st.integers(min_value=0, max_value=60),
    degree=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_regularish_fold_equals_fallback(n, degree, seed):
    assume(n == 0 or degree < n)
    graph = random_regularish_graph(n, degree, seed=seed)
    assert_graphs_equal(graph, fallback(random_regularish_graph, n, degree, seed=seed))
    assert_csr_invariants(graph)


@needs_numpy
@settings(max_examples=25)
@given(n=st.integers(min_value=0, max_value=200))
def test_matching_plus_isolated_fold_equals_fallback(n):
    n = 4 * (n // 4)
    assert_graphs_equal(
        matching_plus_isolated_graph(n),
        fallback(matching_plus_isolated_graph, n),
    )


@needs_numpy
def test_gnp_edge_probability_boundaries():
    for p in (0.0, 1.0):
        for n in (0, 1, 2, 7):
            assert_graphs_equal(
                gnp_random_graph(n, p, seed=3),
                fallback(gnp_random_graph, n, p, seed=3),
            )


@needs_numpy
def test_gnp_equivalence_at_a_larger_size():
    graph = gnp_random_graph(3000, 8.0 / 2999, seed=11)
    assert_graphs_equal(graph, fallback(gnp_random_graph, 3000, 8.0 / 2999, seed=11))
    assert_csr_invariants(graph)


@needs_numpy
def test_graph_dedups_and_symmetrizes():
    graph = Graph(4, iter([(0, 1), (1, 0), (2, 3), (0, 1)]), name="dup")
    assert tuple(graph.iter_edges()) == ((0, 1), (2, 3))
    assert graph.csr()[1].tolist() == [1, 0, 3, 2]
    assert_csr_invariants(graph)


BAD_EDGES = [
    ([(0, 3)], "edge (0, 3) out of range for graph on 3 nodes"),
    ([(-1, 2)], "edge (-1, 2) out of range for graph on 3 nodes"),
    ([(0, 1), (1, 1), (0, 5)], "self-loop (1, 1) is not allowed"),
    ([(0, 1), (0, 5), (1, 1)], "edge (0, 5) out of range for graph on 3 nodes"),
    ([(0.5, 1)], "edge (0.5, 1) must be a pair of integer node ids"),
    ([(0, "1")], "edge (0, '1') must be a pair of integer node ids"),
    ([(0, 1, 2)], "edge (0, 1, 2) must be a pair of integer node ids"),
    ([(0,)], "edge (0,) must be a pair of integer node ids"),
    ([7], "edge 7 must be a pair of integer node ids"),
]


def test_graph_rejects_bad_input():
    # The fold (when numpy is present) and the set-based body reject the
    # first bad edge in input order with the same message.
    bodies = [Graph] if np is None else [Graph, lambda *a: fallback(Graph, *a)]
    for edges, message in BAD_EDGES:
        for build in bodies:
            with pytest.raises(GraphError) as excinfo:
                build(3, iter(edges))
            assert str(excinfo.value) == message


def test_graph_rejects_non_integer_node_count_and_huge_ids():
    with pytest.raises(GraphError, match="num_nodes must be an integer"):
        Graph(3.0)
    with pytest.raises(GraphError, match="out of range"):
        Graph(3, [(0, 2**70)])


@needs_numpy
def test_gnp_graph_is_lazy_until_edges_are_asked_for():
    # Building via the CSR fold must not materialize the adjacency
    # tuples.  Touching them afterwards still works.
    graph = gnp_random_graph(500, 0.01, seed=9)
    assert graph._adjacency is None
    assert graph._edges is None
    degree_sum = sum(graph.degree(v) for v in range(graph.num_nodes))
    assert degree_sum == 2 * graph.num_edges
    assert graph._adjacency is None  # degrees answered from CSR
    reference = fallback(gnp_random_graph, 500, 0.01, seed=9)
    assert graph.edges == reference.edges  # materializes, still equal


def test_set_based_graph_has_no_csr():
    graph = fallback(Graph, 3, [(0, 1)])
    assert graph.edges == ((0, 1),)
    with pytest.raises(ImportError):
        graph.csr()


# ----------------------------------------------------------------------
# Same seed, same graph: digests recorded before the constructor was
# unified, when graphs of 8192+ nodes came from a separate CSR builder
# ----------------------------------------------------------------------


def digest(graph: Graph) -> str:
    h = hashlib.sha256(f"{graph.name}|{graph.num_nodes}|".encode())
    for u, v in graph.iter_edges():
        h.update(b"%d,%d;" % (u, v))
    return h.hexdigest()[:16]


GOLDEN = {
    "gnp-96": (lambda: build_workload("gnp", 96, 7), "e637f4a4f81a7918"),
    "gnp-3000": (lambda: build_workload("gnp", 3000, 7), "1afd5c6e93ce0df1"),
    "gnp-8192": (lambda: build_workload("gnp", 8192, 7), "6d06fc1ee6ce24b1"),
    "gnp-20000": (lambda: build_workload("gnp", 20000, 7), "ba15a48634b340f6"),
    "gnp-p0": (lambda: gnp_random_graph(40, 0.0, seed=3), "a733986156820a20"),
    "gnp-p1": (lambda: gnp_random_graph(40, 1.0, seed=3), "d83b3e729f192a6f"),
    "gnp-p1e-300": (lambda: gnp_random_graph(40, 1e-300, seed=3), "66eddec58fd29cf3"),
    "regularish": (lambda: random_regularish_graph(500, 6, seed=9), "5548126dbba1b81f"),
    "udg": (lambda: build_workload("udg", 300, 5), "f6553f46b7b63ae7"),
    "bounded": (lambda: build_workload("bounded", 300, 5), "2bbc39dd53ba9760"),
    "tree": (lambda: build_workload("tree", 300, 5), "e57f7e3a6e291d0c"),
    "planted": (lambda: build_workload("planted", 300, 5), "fc90afe245287694"),
    "hard-2": (lambda: build_workload("hard", 2), "4f944ab397caf60c"),
    "hard-96": (lambda: build_workload("hard", 96), "c19fa84abeddb07b"),
    "hard-8192": (lambda: build_workload("hard", 8192), "db14e3e29f6d3a58"),
    "hard-20000": (lambda: build_workload("hard", 20000), "56f0eb9dd6a95991"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digest(case):
    build, expected = GOLDEN[case]
    assert digest(build()) == expected


@pytest.mark.parametrize(
    "build, seed, expected_digest, expected_next_draw",
    [
        (lambda rng: gnp_random_graph(300, 0.03, rng=rng), 21,
         "f3feaade0112c831", 0.8077106059814947),
        (lambda rng: random_regularish_graph(100, 4, rng=rng), 22,
         "da3b982c15dd0d29", 0.4490244430088596),
    ],
    ids=["gnp", "regularish"],
)
def test_caller_rng_ends_where_it_did(build, seed, expected_digest, expected_next_draw):
    # A caller-passed RNG is left one draw past the last edge, exactly
    # as before, so code that keeps drawing from it sees the same stream.
    rng = random.Random(seed)
    assert digest(build(rng)) == expected_digest
    assert rng.random() == expected_next_draw
