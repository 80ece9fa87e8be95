"""Exactness of the batch engine's residual (sleep-set compressed) kernel.

The kernel rebuilds a compressed residual graph as nodes halt; its
contract is *exactness*, not approximation: transmitters are always
live, so live-live edges are never dropped and every collision count at
a live listener equals the full-graph count.  This suite locks that
down three ways:

* a Hypothesis test drives the kernel through random shrinking live
  sets (at least two rebuilds) and compares its counts against an
  ``np.bincount`` computed here from each trial graph's own CSR;
* golden digests of every :class:`BatchResult` field, recorded before
  the engine had a single kernel, compared with ``==``; each row also
  re-checks MIS validity against the graph itself;
* a scalar-equivalence check keeps the engine on-distribution.

The degree-sampled sparsification cap is the one *approximation* knob;
its exactness boundary (``cap >= Delta`` is a no-op) and its
independence from batch composition are pinned here too.
"""

import hashlib

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.runner import run_trials
from repro.constants import ConstantsProfile
from repro.core.cd_mis import CDMISProtocol
from repro.baselines import NaiveBackoffMISProtocol
from repro.exec.cache import ResultCache
from repro.graphs import gnp_random_graph, star_graph
from repro.radio.batch.engine import MAX_RANK_WIDTH, _ResidualCSR, run_batch
from repro.radio.batch.rng import node_keys
from repro.radio.engine import run_protocol
from repro.radio.models import CD

from .test_batch_engine import assert_same_distribution

PROTOCOL = CDMISProtocol(constants=ConstantsProfile.practical())

RESULT_FIELDS = (
    "valid",
    "mis_size",
    "rounds",
    "max_energy",
    "mean_energy",
    "undecided",
    "independence",
    "domination",
    "mis",
)


def assert_results_identical(a, b):
    """Every BatchResult field bit-identical."""
    assert a.seeds == b.seeds
    assert a.protocol_name == b.protocol_name
    assert a.model_name == b.model_name
    assert a.num_nodes == b.num_nodes
    for name in RESULT_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def result_digest(result):
    """Short sha256 over every BatchResult field (dtype and shape too)."""
    hasher = hashlib.sha256()
    identity = (
        result.seeds, result.protocol_name, result.model_name, result.num_nodes
    )
    hasher.update(repr(identity).encode())
    for name in RESULT_FIELDS:
        array = np.ascontiguousarray(getattr(result, name))
        hasher.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()[:16]


def assert_valid_mis_against_graph(result, graphs):
    """Re-derive the MIS invariants from each trial's graph, trusting
    nothing; ``graphs`` is one shared graph or one per trial."""
    if not isinstance(graphs, (list, tuple)):
        graphs = [graphs] * result.trials
    for trial, graph in enumerate(graphs):
        neighbor_sets = graph.neighbor_sets
        assert bool(result.valid[trial]), result.failure_kinds(trial)
        mis = {v for v in range(graph.num_nodes) if result.mis[trial, v]}
        assert result.mis_size[trial] == len(mis)
        for v in mis:
            assert not (neighbor_sets[v] & mis), "independence violated"
        for v in range(graph.num_nodes):
            assert v in mis or (neighbor_sets[v] & mis), "domination violated"


# ----------------------------------------------------------------------
# Kernel exactness through rebuilds
# ----------------------------------------------------------------------


def reference_counts(graphs, tx, n):
    """Transmitter counts per flat slot, from each graph's own CSR."""
    targets = []
    for slot in tx.tolist():
        trial, node = divmod(slot, n)
        indptr, indices = graphs[trial].csr()
        row = indices[indptr[node] : indptr[node + 1]]
        targets.append(row.astype(np.int64) + trial * n)
    flat = np.concatenate(targets) if targets else np.zeros(0, np.int64)
    return np.bincount(flat, minlength=len(graphs) * n)


@settings(max_examples=40, deadline=None)
@given(
    graph_seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=16, max_value=80),
    batch=st.integers(min_value=1, max_value=4),
    shared=st.booleans(),
    cap=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    steps=st.lists(
        st.sampled_from(("halve", "trim")), min_size=2, max_size=6
    ).filter(lambda steps: steps.count("halve") >= 2),
    draw_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_residual_counts_match_bincount_through_rebuilds(
    graph_seed, n, batch, shared, cap, steps, draw_seed
):
    p = min(1.0, 10.0 / (n - 1))
    if shared:
        graphs = [gnp_random_graph(n, p, seed=graph_seed)] * batch
    else:
        graphs = [
            gnp_random_graph(n, p, seed=graph_seed + t) for t in range(batch)
        ]
    keys = node_keys(np.arange(batch, dtype=np.int64), n)
    kernel = _ResidualCSR(graphs, cap, keys)
    rng = np.random.default_rng(draw_seed)
    live = np.arange(batch * n, dtype=np.int64)
    for salt, step in enumerate(["none"] + steps):
        if step == "halve":
            live = np.sort(rng.choice(live, live.size // 2, replace=False))
        elif step == "trim":
            drop = max(1, live.size // 10)
            live = np.sort(rng.choice(live, live.size - drop, replace=False))
        kernel.refresh(live)
        # Disjoint random transmitter and listener subsets of the live
        # set, as one vector round's emission pass produces them.
        roles = rng.integers(0, 3, size=live.size)
        tx, listeners = live[roles == 0], live[roles == 1]
        counts = kernel.counts_at(tx, listeners, salt)
        if cap is None:
            expected = reference_counts(graphs, tx, n)[listeners]
        else:
            fresh = _ResidualCSR(graphs, cap, keys)
            expected = fresh.counts_at(tx, listeners, salt)
        assert np.array_equal(counts, expected), (step, salt)
    assert kernel.rebuilds >= 2


# ----------------------------------------------------------------------
# Golden BatchResult digests
# ----------------------------------------------------------------------

# Digests of every BatchResult field, recorded before the batch engine
# collapsed to one kernel (all three old kernels agreed on each row).
GOLDEN_CASES = {
    "per-trial-gnp": (
        lambda: [gnp_random_graph(120, 0.05, seed=s) for s in (1, 2, 3, 4)],
        PROTOCOL,
        [10, 11, 12, 13],
        "1d6c3f425388772d",
    ),
    # Maximal contention: one hub, every leaf competing through it.
    "star-64": (lambda: star_graph(64), PROTOCOL, list(range(16)), "fef7a0ebd02cd0b8"),
    "naive-backoff": (
        lambda: gnp_random_graph(80, 0.08, seed=21),
        NaiveBackoffMISProtocol(constants=ConstantsProfile.practical()),
        list(range(6)),
        "b2ccd3008d773867",
    ),
    "gnp-2148": (
        lambda: gnp_random_graph(2148, 4.0 / 2147, seed=5),
        PROTOCOL,
        [0, 1],
        "31f6780d5b121173",
    ),
    # Past MAX_RANK_WIDTH rank registers hold stream anchors instead.
    "wide-rank-1e5": (
        lambda: gnp_random_graph(100_000, 4.0 / 99_999, seed=8),
        PROTOCOL,
        [3],
        "904f9d92a77d9b5a",
    ),
    "shared-gnp-64": (
        lambda: gnp_random_graph(64, 8.0 / 63, seed=7),
        PROTOCOL,
        list(range(8)),
        "d71b3f4d1a2ba9d7",
    ),
    "shared-gnp-512": (
        lambda: gnp_random_graph(512, 8.0 / 511, seed=7),
        PROTOCOL,
        list(range(8)),
        "e1654c8cbda140b5",
    ),
}


def test_wide_rank_case_really_is_wide():
    assert PROTOCOL.constants.rank_bits(100_000) > MAX_RANK_WIDTH


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_batch_result_digest_matches_golden(case):
    make_graphs, protocol, seeds, golden = GOLDEN_CASES[case]
    graphs = make_graphs()
    result = run_batch(graphs, protocol, CD, seeds)
    assert result_digest(result) == golden
    assert_valid_mis_against_graph(result, graphs)


# ----------------------------------------------------------------------
# Scalar equivalence: the batch engine stays on-distribution
# ----------------------------------------------------------------------


def test_phased_distributions_match_scalar():
    graph = gnp_random_graph(100, 0.1, seed=5)
    trials = 80
    batched = run_batch(graph, PROTOCOL, CD, list(range(trials)))
    scalar = [
        run_protocol(graph, PROTOCOL, CD, seed=seed + 10_000)
        for seed in range(trials)
    ]
    assert bool(batched.valid.all())
    assert all(r.is_valid_mis() for r in scalar)
    assert_same_distribution(
        batched.mis_size.tolist(),
        [len(r.mis) for r in scalar],
        "mis_size",
    )
    assert_same_distribution(
        batched.rounds.tolist(), [r.rounds for r in scalar], "rounds"
    )
    assert_same_distribution(
        batched.max_energy.tolist(), [r.max_energy for r in scalar],
        "max_energy",
    )
    assert_same_distribution(
        batched.mean_energy.tolist(), [r.mean_energy for r in scalar],
        "mean_energy",
    )


# ----------------------------------------------------------------------
# Sparsification: exact at cap >= Delta, keyed off trial identity
# ----------------------------------------------------------------------


def test_sparsify_at_max_degree_is_a_noop():
    graph = gnp_random_graph(200, 0.08, seed=13)
    seeds = list(range(8))
    exact = run_batch(graph, PROTOCOL, CD, seeds)
    capped = run_batch(
        graph, PROTOCOL, CD, seeds, sparsify=graph.max_degree()
    )
    assert_results_identical(capped, exact)


def test_sparsify_below_max_degree_changes_counts_deterministically():
    # Digests recorded from the full-row window rule before the engine
    # had one kernel.  The n=2100 row sits past the old automatic switch
    # to the residual kernel, where windows once came from residual rows
    # and a trial's MIS depended on the other seeds in its battery.
    cases = [
        (gnp_random_graph(200, 0.15, seed=17), 4, "d28b9429930ef652"),
        (gnp_random_graph(2100, 60.0 / 2099, seed=17), 8, "4146d567a40cad6b"),
    ]
    seeds = list(range(8))
    for graph, cap, golden in cases:
        once = run_batch(graph, PROTOCOL, CD, seeds, sparsify=cap)
        again = run_batch(graph, PROTOCOL, CD, seeds, sparsify=cap)
        assert_results_identical(once, again)  # pure function of identity
        assert result_digest(once) == golden
        # Composition independence: each seed alone sees the same trial.
        for index, seed in enumerate(seeds):
            alone = run_batch(graph, PROTOCOL, CD, [seed], sparsify=cap)
            assert np.array_equal(alone.mis[0], once.mis[index]), seed


def test_sparsified_cache_is_independent_of_battery_makeup(tmp_path):
    graph = gnp_random_graph(2100, 60.0 / 2099, seed=17)
    seeds = list(range(6))

    def outcomes(run_seeds, cache):
        summary = run_trials(
            graph, PROTOCOL, CD, run_seeds, engine="batch", sparsify=8,
            cache=cache,
        )
        return {outcome.seed: outcome for outcome in summary.outcomes}

    cold = outcomes(seeds, ResultCache(tmp_path / "cold"))
    partial = ResultCache(tmp_path / "partial")
    outcomes(seeds[:3], partial)
    warm = outcomes(seeds, partial)
    assert partial.stats.hits == 3
    assert warm == cold


def test_sparsify_rejects_nonpositive_cap():
    graph = gnp_random_graph(50, 0.1, seed=1)
    from repro.errors import ProtocolError

    with pytest.raises(ProtocolError):
        run_batch(graph, PROTOCOL, CD, [0], sparsify=0)
