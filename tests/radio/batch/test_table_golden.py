"""Golden tests: transition tables are bit-identical to their coroutines.

Every registered table builder is run through the **scalar** engine,
wrapped as an ordinary protocol, and compared against the coroutine
implementation on the same graph/model/seed.  The contract is exact
equality — rounds, per-node stats, and per-node info — because the
table interpreter consumes the trial RNG in precisely the coroutine's
draw positions.  This is what lets the batch backend's statistical
tests anchor on the coroutine semantics: table == coroutine (bitwise),
batch == table (distributionally).
"""

import pytest

from repro.analysis.experiments.backoff_probe import BackoffProbe
from repro.baselines.backoff_sim_mis import NaiveBackoffMISProtocol
from repro.baselines.naive_cd_luby import NaiveCDLubyProtocol
from repro.constants import ConstantsProfile
from repro.core.cd_mis import BeepingMISProtocol, CDMISProtocol
from repro.graphs import gnp_random_graph, star_graph
from repro.radio._engine_reference import run_protocol_reference
from repro.radio.batch import as_table_protocol, compile_table_for
from repro.radio.engine import run_protocol
from repro.radio.models import BEEPING, CD, NO_CD


def assert_bit_identical(graph, protocol, model, seeds, engine=run_protocol):
    """Table form through ``engine`` must equal the coroutine exactly."""
    table = as_table_protocol(protocol, graph.num_nodes, graph.max_degree())
    assert table is not None, f"no table for {protocol.name}"
    for seed in seeds:
        expected = engine(graph, protocol, model, seed=seed)
        actual = engine(graph, table, model, seed=seed)
        assert actual.rounds == expected.rounds, (protocol.name, seed)
        assert actual.node_stats == expected.node_stats, (protocol.name, seed)
        assert actual.node_info == expected.node_info, (protocol.name, seed)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_cd_mis_table_bit_identical(seed):
    graph = gnp_random_graph(60, 0.15, seed=2)
    protocol = CDMISProtocol(constants=ConstantsProfile.practical())
    assert_bit_identical(graph, protocol, CD, [seed])


def test_cd_mis_table_beeping_model():
    # Same table, different collision model: the heard/silence mapping
    # comes from the model, not the program.
    graph = gnp_random_graph(40, 0.2, seed=4)
    protocol = CDMISProtocol(constants=ConstantsProfile.practical())
    assert_bit_identical(graph, protocol, BEEPING, [3, 11])


def test_beeping_mis_table_bit_identical():
    graph = gnp_random_graph(50, 0.15, seed=5)
    protocol = BeepingMISProtocol(constants=ConstantsProfile.practical())
    assert_bit_identical(graph, protocol, BEEPING, [0, 5, 9])


def test_naive_cd_luby_table_bit_identical():
    graph = gnp_random_graph(50, 0.15, seed=6)
    assert_bit_identical(graph, NaiveCDLubyProtocol(), CD, [0, 2, 13])


def test_naive_backoff_table_bit_identical():
    # Small graph: the simulated-backoff baseline runs thousands of
    # rounds per trial.
    graph = gnp_random_graph(30, 0.2, seed=7)
    protocol = NaiveBackoffMISProtocol(
        constants=ConstantsProfile.practical()
    )
    assert_bit_identical(graph, protocol, NO_CD, [1, 8])


def test_backoff_probe_table_bit_identical():
    # Exercises the info side channel ("heard") and the geometric-slot
    # draw positions on a hub-and-spokes topology.
    graph = star_graph(17)
    protocol = BackoffProbe(k=4, delta=16, senders=5)
    assert_bit_identical(graph, protocol, NO_CD, list(range(6)))


def test_table_matches_through_reference_engine():
    # The specification oracle agrees too: bit-identity is a property of
    # the table, not of one engine's scheduling.
    graph = gnp_random_graph(40, 0.15, seed=9)
    protocol = CDMISProtocol(constants=ConstantsProfile.practical())
    assert_bit_identical(
        graph, protocol, CD, [0, 4], engine=run_protocol_reference
    )


def test_instrumented_protocol_has_no_table():
    # The instrumented coroutine records per-phase diagnostics through
    # ctx.info; the table ABI deliberately does not model that, so the
    # builder declines and the scalar engine remains the only backend.
    protocol = CDMISProtocol(
        constants=ConstantsProfile.practical(), instrument=True
    )
    assert compile_table_for(protocol, 60, 10) is None
    assert as_table_protocol(protocol, 60, 10) is None


def test_has_table_builder_is_exact_class_keyed():
    protocol = CDMISProtocol(ConstantsProfile.practical())
    assert compile_table_for(protocol, 60, 10) is not None
    assert compile_table_for(NaiveCDLubyProtocol(), 60, 10) is not None

    class Custom(CDMISProtocol):
        pass

    # Subclasses may override run(); never serve the parent's table.
    assert compile_table_for(Custom(ConstantsProfile.practical()), 60, 10) is None
