"""Property-based engine tests: random scripts and real protocols.

Two layers of Hypothesis coverage:

1. Arbitrary per-node action scripts — the engine's accounting and
   collision resolution must satisfy model-level invariants regardless
   of the script (the original suite).
2. Random graphs × real MIS protocols × crash/wake schedules — the
   optimized engine must stay bit-identical to the specification
   oracle, produce valid MIS outputs, and report telemetry whose
   per-component energy ledger sums exactly to the measured energy,
   while leaving the run byte-identical when telemetry is disabled.

The suite runs under the deterministic ``repro-ci`` Hypothesis profile
(see ``tests/conftest.py``), so tier-1 explores the same examples on
every run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.validation import validate_run
from repro.constants import ConstantsProfile
from repro.core import BeepingMISProtocol, CDMISProtocol, NoCDEnergyMISProtocol
from repro.faults import FaultPlan
from repro.graphs import gnp_random_graph
from repro.radio import (
    BEEPING,
    CD,
    NO_CD,
    Listen,
    Sleep,
    TraceRecorder,
    Transmit,
    run_protocol,
)
from repro.radio._engine_reference import run_protocol_reference
from tests.radio.test_engine import ScriptProtocol

action_strategy = st.one_of(
    st.just(Transmit()),
    st.just(Listen()),
    st.integers(1, 4).map(Sleep),
)

scripts_strategy = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(action_strategy, max_size=8),
            min_size=n,
            max_size=n,
        ),
    )
)


def run_scripted(n, scripts, model, seed=0, trace=None):
    graph = gnp_random_graph(n, 0.5, seed=seed)
    protocol = ScriptProtocol(dict(enumerate(scripts)))
    return graph, run_protocol(graph, protocol, model, seed=seed, trace=trace)


class TestAccountingInvariants:
    @given(scripts_strategy)
    @settings(max_examples=40, deadline=None)
    def test_energy_equals_awake_actions(self, data):
        n, scripts = data
        _, result = run_scripted(n, scripts, CD)
        for node, stats in enumerate(result.node_stats):
            script = scripts[node]
            transmits = sum(1 for action in script if isinstance(action, Transmit))
            listens = sum(1 for action in script if isinstance(action, Listen))
            assert stats.transmit_rounds == transmits
            assert stats.listen_rounds == listens

    @given(scripts_strategy)
    @settings(max_examples=40, deadline=None)
    def test_finish_round_equals_script_duration(self, data):
        n, scripts = data
        _, result = run_scripted(n, scripts, CD)
        for node, stats in enumerate(result.node_stats):
            duration = sum(
                action.rounds if isinstance(action, Sleep) else 1
                for action in scripts[node]
            )
            assert stats.finish_round == duration

    @given(scripts_strategy)
    @settings(max_examples=40, deadline=None)
    def test_rounds_is_max_duration(self, data):
        n, scripts = data
        _, result = run_scripted(n, scripts, CD)
        assert result.rounds == max(
            stats.finish_round for stats in result.node_stats
        )


class TestObservationInvariants:
    @given(scripts_strategy)
    @settings(max_examples=30, deadline=None)
    def test_observations_match_transmitter_sets(self, data):
        n, scripts = data
        trace = TraceRecorder()
        graph, _ = run_scripted(n, scripts, CD, trace=trace)
        # Reconstruct the transmitter set per round and re-derive every
        # listen observation from first principles.
        transmitters_by_round = {}
        for event in trace.transmissions():
            transmitters_by_round.setdefault(event.round, set()).add(event.node)
        for event in trace.events:
            if event.action != "listen":
                continue
            talking = transmitters_by_round.get(event.round, set()) & set(
                graph.neighbors(event.node)
            )
            if len(talking) == 0:
                assert event.observed == "silence"
            elif len(talking) == 1:
                assert event.observed.startswith("message")
            else:
                assert event.observed == "collision"

    @given(scripts_strategy)
    @settings(max_examples=20, deadline=None)
    def test_nocd_never_observes_collision(self, data):
        n, scripts = data
        trace = TraceRecorder()
        run_scripted(n, scripts, NO_CD, trace=trace)
        assert all(
            event.observed in (None, "silence") or event.observed.startswith("message")
            for event in trace.events
        )

    @given(scripts_strategy)
    @settings(max_examples=20, deadline=None)
    def test_beeping_never_carries_payloads(self, data):
        n, scripts = data
        trace = TraceRecorder()
        run_scripted(n, scripts, BEEPING, trace=trace)
        for event in trace.events:
            if event.action == "listen":
                assert event.observed in ("silence", "beep")


class TestSeedInvariance:
    @given(scripts_strategy, st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_repeatability(self, data, seed):
        n, scripts = data
        _, a = run_scripted(n, scripts, CD, seed=seed)
        _, b = run_scripted(n, scripts, CD, seed=seed)
        assert [s.awake_rounds for s in a.node_stats] == [
            s.awake_rounds for s in b.node_stats
        ]
        assert a.rounds == b.rounds


# ----------------------------------------------------------------------
# Real protocols on random graphs: equivalence, validity, telemetry
# ----------------------------------------------------------------------

FAST = ConstantsProfile.fast()

#: (protocol factory, collision model) pairs covering all three model
#: families; factories so every example gets a fresh protocol object.
PROTOCOL_CASES = (
    (lambda: CDMISProtocol(constants=FAST), CD),
    (lambda: BeepingMISProtocol(constants=FAST), BEEPING),
    (lambda: NoCDEnergyMISProtocol(constants=FAST), NO_CD),
)


@st.composite
def engine_cases(draw, schedules=True):
    """A random (graph, protocol, model, seed, crash, wake) engine case."""
    n = draw(st.integers(4, 20))
    p = draw(st.sampled_from([0.1, 0.3, 0.6]))
    graph_seed = draw(st.integers(0, 40))
    graph = gnp_random_graph(n, p, seed=graph_seed)
    protocol_factory, model = draw(st.sampled_from(PROTOCOL_CASES))
    seed = draw(st.integers(0, 40))
    crashes = None
    wake_schedule = None
    if schedules:
        node_ids = st.integers(0, n - 1)
        crashes = draw(
            st.none()
            | st.dictionaries(node_ids, st.integers(0, 30), max_size=3)
        )
        if model is not NO_CD:
            # NoCDEnergyMISProtocol requires synchronized wake-up (it
            # raises SynchronizationError otherwise, by design).
            wake_schedule = draw(
                st.none()
                | st.dictionaries(node_ids, st.integers(0, 10), max_size=3)
            )
    return graph, protocol_factory, model, seed, crashes, wake_schedule


class TestEngineEquivalence:
    """Optimized engine == the specification oracle, property-based.

    The golden suite pins a fixed grid of cases; this extends the same
    bit-identity contract to Hypothesis-drawn graphs, protocols, seeds,
    and crash/wake schedules (traced and untraced).
    """

    @given(engine_cases())
    @settings(max_examples=25, deadline=None)
    def test_optimized_matches_reference(self, case):
        graph, protocol_factory, model, seed, crash, wake = case
        kwargs = dict(
            seed=seed, faults=FaultPlan(crashes=crash or {}), wake_schedule=wake
        )
        reference = run_protocol_reference(
            graph, protocol_factory(), model, **kwargs
        )
        optimized = run_protocol(graph, protocol_factory(), model, **kwargs)
        assert optimized == reference

    @given(engine_cases())
    @settings(max_examples=15, deadline=None)
    def test_traces_match_reference(self, case):
        graph, protocol_factory, model, seed, crash, wake = case
        kwargs = dict(
            seed=seed, faults=FaultPlan(crashes=crash or {}), wake_schedule=wake
        )
        ref_trace, opt_trace = TraceRecorder(), TraceRecorder()
        reference = run_protocol_reference(
            graph, protocol_factory(), model, trace=ref_trace, **kwargs
        )
        optimized = run_protocol(
            graph, protocol_factory(), model, trace=opt_trace, **kwargs
        )
        assert optimized == reference
        assert opt_trace.events == ref_trace.events


class TestMISValidity:
    """Fault-free runs of the paper's protocols output a valid MIS."""

    @given(engine_cases(schedules=False))
    @settings(max_examples=25, deadline=None)
    def test_output_is_valid_mis(self, case):
        graph, protocol_factory, model, seed, _, _ = case
        result = run_protocol(graph, protocol_factory(), model, seed=seed)
        report = validate_run(result)
        assert report.valid, report.describe()


class TestTelemetryInvariants:
    """EngineTelemetry is consistent with the run it describes."""

    @given(engine_cases())
    @settings(max_examples=25, deadline=None)
    def test_round_partition_and_energy(self, case):
        graph, protocol_factory, model, seed, crash, wake = case
        result = run_protocol(
            graph,
            protocol_factory(),
            model,
            seed=seed,
            faults=FaultPlan(crashes=crash or {}),
            wake_schedule=wake,
            telemetry=True,
        )
        tel = result.telemetry
        assert tel is not None
        # Every processed round took exactly one resolution path.
        assert tel.rounds_processed == (
            tel.zero_tx_rounds
            + tel.one_tx_rounds
            + tel.scatter_dict_rounds
        )
        assert tel.rounds_skipped >= 0
        assert tel.wall_s >= 0.0
        # The per-component energy ledger is exact, not sampled: it sums
        # to the measured energy globally and per node.
        assert tel.total_energy == sum(
            stats.awake_rounds for stats in result.node_stats
        )
        assert dict(tel.energy_by_component) == _merged_node_ledgers(result)
        for stats in result.node_stats:
            assert sum(stats.energy_by_component.values()) == stats.awake_rounds

    @given(engine_cases())
    @settings(max_examples=15, deadline=None)
    def test_telemetry_does_not_change_the_run(self, case):
        graph, protocol_factory, model, seed, crash, wake = case
        kwargs = dict(
            seed=seed, faults=FaultPlan(crashes=crash or {}), wake_schedule=wake
        )
        plain = run_protocol(graph, protocol_factory(), model, **kwargs)
        instrumented = run_protocol(
            graph, protocol_factory(), model, telemetry=True, **kwargs
        )
        assert plain.telemetry is None
        assert instrumented.telemetry is not None
        # telemetry is excluded from equality; everything else is equal.
        assert plain == instrumented


def _merged_node_ledgers(result):
    """Sum the per-node energy ledgers into one component → rounds map."""
    totals = {}
    for stats in result.node_stats:
        for component, rounds in stats.energy_by_component.items():
            totals[component] = totals.get(component, 0) + rounds
    return totals
