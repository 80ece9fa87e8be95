"""Phase-based (sleep-set compressed) execution vs the flat batch path.

The phased kernel rebuilds a compressed residual graph as nodes go to
sleep; its contract is *exactness*, not approximation: transmitters are
always live, so live-live edges are never dropped and every collision
count matches the flat kernel's bit for bit.  This suite locks that
down (every :class:`BatchResult` field identical), re-checks MIS
validity against the graph itself on every Hypothesis example, and
keeps the phased path statistically tied to the scalar engine.

The degree-sampled sparsification cap is the one *approximation* knob;
its exactness boundary (``cap >= Delta`` is a no-op) is pinned here
too.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import ConstantsProfile
from repro.core.cd_mis import CDMISProtocol
from repro.baselines import NaiveBackoffMISProtocol
from repro.graphs import gnp_random_graph, star_graph
from repro.radio.batch.engine import (
    DENSE_NODE_LIMIT,
    MAX_RANK_WIDTH,
    run_batch,
)
from repro.radio.engine import run_protocol
from repro.radio.models import CD

from .test_batch_engine import assert_same_distribution

PROTOCOL = CDMISProtocol(constants=ConstantsProfile.practical())


def assert_results_identical(a, b):
    """Every BatchResult field bit-identical."""
    assert a.seeds == b.seeds
    assert a.protocol_name == b.protocol_name
    assert a.model_name == b.model_name
    assert a.num_nodes == b.num_nodes
    for name in (
        "valid",
        "mis_size",
        "rounds",
        "max_energy",
        "mean_energy",
        "undecided",
        "independence",
        "domination",
        "mis",
    ):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def assert_valid_mis_against_graph(result, graph):
    """Re-derive the MIS invariants from the graph, trusting nothing."""
    neighbor_sets = graph.neighbor_sets
    for trial in range(result.trials):
        assert bool(result.valid[trial]), result.failure_kinds(trial)
        mis = {v for v in range(graph.num_nodes) if result.mis[trial, v]}
        assert result.mis_size[trial] == len(mis)
        for v in mis:
            assert not (neighbor_sets[v] & mis), "independence violated"
        for v in range(graph.num_nodes):
            assert v in mis or (neighbor_sets[v] & mis), "domination violated"


# ----------------------------------------------------------------------
# Bit-identity: phased == non-phased
# ----------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    graph_seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=512),
    batch=st.integers(min_value=1, max_value=8),
)
def test_phased_identical_to_flat_and_valid(graph_seed, n, batch):
    graph = gnp_random_graph(n, min(1.0, 8.0 / max(1, n - 1)), seed=graph_seed)
    seeds = list(range(batch))
    flat = run_batch(graph, PROTOCOL, CD, seeds, phased=False)
    phased = run_batch(graph, PROTOCOL, CD, seeds, phased=True)
    assert_results_identical(phased, flat)
    assert_valid_mis_against_graph(phased, graph)


def test_phased_identical_on_per_trial_graphs():
    graphs = [gnp_random_graph(120, 0.05, seed=s) for s in (1, 2, 3, 4)]
    seeds = [10, 11, 12, 13]
    flat = run_batch(graphs, PROTOCOL, CD, seeds, phased=False)
    phased = run_batch(graphs, PROTOCOL, CD, seeds, phased=True)
    assert_results_identical(phased, flat)


def test_phased_identical_on_star_graph():
    # Maximal contention: one hub, every leaf competing through it.
    graph = star_graph(64)
    seeds = list(range(16))
    flat = run_batch(graph, PROTOCOL, CD, seeds, phased=False)
    phased = run_batch(graph, PROTOCOL, CD, seeds, phased=True)
    assert_results_identical(phased, flat)
    assert_valid_mis_against_graph(phased, graph)


def test_phased_identical_for_nocd_protocol():
    protocol = NaiveBackoffMISProtocol(constants=ConstantsProfile.practical())
    graph = gnp_random_graph(80, 0.08, seed=21)
    seeds = list(range(6))
    flat = run_batch(graph, protocol, CD, seeds, phased=False)
    phased = run_batch(graph, protocol, CD, seeds, phased=True)
    assert_results_identical(phased, flat)


def test_auto_phasing_engages_past_the_dense_limit():
    # Above DENSE_NODE_LIMIT the engine must pick the phased kernel on
    # its own and still agree with the explicit flat path.
    n = DENSE_NODE_LIMIT + 100
    graph = gnp_random_graph(n, 4.0 / (n - 1), seed=5)
    seeds = [0, 1]
    auto = run_batch(graph, PROTOCOL, CD, seeds)
    flat = run_batch(graph, PROTOCOL, CD, seeds, phased=False)
    assert_results_identical(auto, flat)
    assert_valid_mis_against_graph(auto, graph)


def test_wide_rank_phased_identity():
    # Past MAX_RANK_WIDTH the engine switches rank registers to the
    # stream-anchored representation; n here forces width > 62 while
    # staying small enough for the flat kernel to double-check.
    constants = ConstantsProfile.practical()
    n = 100_000
    assert constants.rank_bits(n) > MAX_RANK_WIDTH
    graph = gnp_random_graph(n, 4.0 / (n - 1), seed=8)
    seeds = [3]
    flat = run_batch(graph, PROTOCOL, CD, seeds, phased=False)
    phased = run_batch(graph, PROTOCOL, CD, seeds, phased=True)
    assert_results_identical(phased, flat)
    assert bool(phased.valid.all())


# ----------------------------------------------------------------------
# Scalar equivalence: the phased path stays on-distribution
# ----------------------------------------------------------------------


def test_phased_distributions_match_scalar():
    graph = gnp_random_graph(100, 0.1, seed=5)
    trials = 80
    phased = run_batch(graph, PROTOCOL, CD, list(range(trials)), phased=True)
    scalar = [
        run_protocol(graph, PROTOCOL, CD, seed=seed + 10_000)
        for seed in range(trials)
    ]
    assert bool(phased.valid.all())
    assert all(r.is_valid_mis() for r in scalar)
    assert_same_distribution(
        phased.mis_size.tolist(),
        [len(r.mis) for r in scalar],
        "mis_size",
    )
    assert_same_distribution(
        phased.rounds.tolist(), [r.rounds for r in scalar], "rounds"
    )
    assert_same_distribution(
        phased.max_energy.tolist(), [r.max_energy for r in scalar],
        "max_energy",
    )
    assert_same_distribution(
        phased.mean_energy.tolist(), [r.mean_energy for r in scalar],
        "mean_energy",
    )


# ----------------------------------------------------------------------
# Sparsification: exact at cap >= Delta, keyed off trial identity
# ----------------------------------------------------------------------


def test_sparsify_at_max_degree_is_a_noop():
    graph = gnp_random_graph(200, 0.08, seed=13)
    seeds = list(range(8))
    for phased in (False, True):
        exact = run_batch(graph, PROTOCOL, CD, seeds, phased=phased)
        capped = run_batch(
            graph, PROTOCOL, CD, seeds, phased=phased,
            sparsify=graph.max_degree(),
        )
        assert_results_identical(capped, exact)


def test_sparsify_below_max_degree_changes_counts_deterministically():
    graph = gnp_random_graph(200, 0.15, seed=17)
    seeds = list(range(8))
    once = run_batch(graph, PROTOCOL, CD, seeds, sparsify=4)
    again = run_batch(graph, PROTOCOL, CD, seeds, sparsify=4)
    assert_results_identical(once, again)  # pure function of identity
    # Composition independence: the same seed alone sees the same trial.
    alone = run_batch(graph, PROTOCOL, CD, [seeds[3]], sparsify=4)
    assert np.array_equal(alone.mis[0], once.mis[3])


def test_sparsify_rejects_nonpositive_cap():
    graph = gnp_random_graph(50, 0.1, seed=1)
    from repro.errors import ProtocolError

    with pytest.raises(ProtocolError):
        run_batch(graph, PROTOCOL, CD, [0], sparsify=0)
