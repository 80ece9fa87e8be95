"""``Graph.__init__``: one constructor, two bodies, one graph.

With numpy the constructor folds the edge iterable straight into CSR;
without it, a set-based body builds the Python views eagerly.  The
numpy-less body is the reference: every accessor must agree between
the two on arbitrary edge lists.  ``gnp_random_graph`` likewise has a
vectorised walk (numpy) and the edge-by-edge Python walk it is checked
against.  The golden digests pin the random generators to the graphs
they produced before the constructor was unified (same seed, same
graph), so cache keys and experiment inputs cannot drift silently.
"""

import hashlib
import math
import random
import sys
import threading
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
from repro.graphs import generators
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


@st.composite
def gnp_cases(draw):
    """``(n, p)``: any p up to n=80, p within 1e-3 of 0 or 1, and the
    sparse workload's p = 8/(n-1) up to n=3000."""
    kind = draw(st.sampled_from(["percent", "near-0", "near-1", "sparse"]))
    if kind == "sparse":
        n = draw(st.integers(min_value=2, max_value=3000))
        return n, min(1.0, 8.0 / (n - 1))
    n = draw(st.integers(min_value=0, max_value=80))
    if kind == "percent":
        return n, draw(st.integers(min_value=0, max_value=100)) / 100.0
    tiny = draw(st.floats(min_value=0.0, max_value=1e-3))
    return n, tiny if kind == "near-0" else 1.0 - tiny


@needs_numpy
@settings(max_examples=80, deadline=None)  # a 1-draw block at n=3000 takes ~0.5 s
@given(
    case=gnp_cases(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    block=st.sampled_from([1, 2, 7, 64, generators._GNP_BLOCK]),
    caller_rng=st.booleans(),
)
def test_gnp_fold_equals_fallback(case, seed, block, caller_rng):
    # The vectorised walk against the Python walk, over one or many
    # blocks; a caller's rng must end in the same state after both.
    n, p = case
    rngs = [random.Random(seed), random.Random(seed)] if caller_rng else [None, None]
    with mock.patch.object(generators, "_GNP_BLOCK", block):
        graph = gnp_random_graph(n, p, rng=rngs[0], seed=seed)
    assert_graphs_equal(graph, fallback(gnp_random_graph, n, p, rng=rngs[1], seed=seed))
    assert_csr_invariants(graph)
    if caller_rng:
        assert rngs[0].getstate() == rngs[1].getstate()


@needs_numpy
@pytest.mark.parametrize("log", ["np.log", "one ulp low", "one ulp high"])
def test_gnp_skips_equal_the_python_quotient_next_to_integers(monkeypatch, log):
    # u = 1 - q**k puts log(1-u)/log(q) within a few ulps of the integer
    # k, where a log one ulp off moves the floor.  The patched logs stand
    # in for platforms whose vectorised log rounds differently.
    if log != "np.log":
        exact = np.log
        toward = -np.inf if log == "one ulp low" else np.inf
        monkeypatch.setattr(np, "log", lambda x: np.nextafter(exact(x), toward))
    for p in (1e-4, 8.0 / 2999, 0.05, 0.3, 0.9):
        log_q = math.log(1.0 - p)
        base = 1.0 - np.exp(np.arange(3000) * log_q)
        u = np.concatenate([base, np.nextafter(base, 0.0), np.nextafter(base, 1.0)])
        u = u[(u >= 0.0) & (u < 1.0)]
        expected = [int(math.log(1.0 - x) / log_q) for x in u.tolist()]
        assert generators._gnp_skips(u, log_q, 2**40).tolist() == expected


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


@needs_numpy
def test_triangular_indices_unrank_exactly_at_large_node_ids():
    # At these ids the float sqrt rounds v up for w = v - 1.
    ids = [1, 2, 3, 1000, 2**25 + 1, 134218519, 628366340, 1392227896, 2**31 - 1]
    pairs = [(w, v) for v in ids for w in {0, 1, v - 2, v - 1} if 0 <= w < v]
    t = np.array([v * (v - 1) // 2 + w for w, v in pairs], dtype=np.int64)
    w, v = generators._unrank_pairs(t)
    assert list(zip(w.tolist(), v.tolist())) == pairs


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


@pytest.mark.parametrize(
    "n, p, message",
    [
        (100.0, 0.1, "num_nodes must be an integer, got 100.0"),
        ("7", 0.5, "num_nodes must be an integer, got '7'"),
        (-3, 0.5, "num_nodes must be non-negative, got -3"),
    ],
)
def test_gnp_rejects_bad_node_counts_on_both_walks(n, p, message):
    bodies = [gnp_random_graph]
    if np is not None:
        bodies.append(lambda *a: fallback(gnp_random_graph, *a))
    for build in bodies:
        with pytest.raises(GraphError) as excinfo:
            build(n, p)
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
    # The n=10^5 sweep's graph and a dense (p=0.3) one, recorded with
    # the edge-by-edge walk before the vectorised walk replaced it.
    "gnp-100000": (lambda: build_workload("gnp", 100000, 0), "24d3e9a2fe18be75"),
    "gnp-dense-512": (lambda: build_workload("gnp-dense", 512, 0), "34ccb063949cd78d"),
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


def test_concurrent_gnp_builds_match_single_threaded_ones():
    # Graphs are built from worker threads (the service runs trials in
    # asyncio.to_thread); a walk must share no state with another
    # thread's walk.  Four threads and a tiny switch interval make the
    # walks interleave often.
    cases = {
        "seed": [(lambda s=s: gnp_random_graph(2000, 8.0 / 1999, seed=s)) for s in range(6)],
        "rng": [(lambda s=s: gnp_random_graph(400, 0.05, rng=random.Random(s))) for s in range(6)],
    }
    expected = {name: [digest(build()) for build in builds] for name, builds in cases.items()}
    seen = {name: [] for name in cases}

    def worker(name):
        for _ in range(5):
            seen[name].append([digest(build()) for build in cases[name]])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(name,)) for name in cases for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for name in cases:
        assert seen[name] == [expected[name]] * 10
