"""Deterministic fuzz: random fault plans × random graphs × both engines.

Two properties, checked on every generated case:

1. **bit identity** — the optimized engine and the specification
   oracle produce equal results (or raise the same watchdog error) for
   every fault plan, extending the golden contract to faulty runs;
2. **MIS validity on survivors** — for *crash-stop-only* plans (no
   channel faults, no recovery, no wake skew) the surviving MIS is
   independent.  Channel faults and recovery are allowed to violate it —
   that degradation is measured, not asserted away.

Runs under the ``repro-ci`` Hypothesis profile (derandomized) in CI, so
the explored cases are reproducible; a failing example's plan prints via
``FaultPlan.describe`` in the Hypothesis falsifying-example output.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import ConstantsProfile
from repro.core import CDMISProtocol, NoCDEnergyMISProtocol
from repro.errors import SimulationError
from repro.faults import CrashEvent, FaultPlan, JamWindow
from repro.graphs import gnp_random_graph
from repro.radio import CD, NO_CD, run_protocol
from repro.radio._engine_reference import run_protocol_reference

FAST = ConstantsProfile.fast()

crash_events = st.lists(
    st.builds(
        CrashEvent,
        round=st.integers(min_value=0, max_value=60),
        recovery_delay=st.one_of(st.none(), st.integers(1, 12)),
    ),
    min_size=1,
    max_size=2,
)

fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**32),
    drop_p=st.sampled_from([0.0, 0.02, 0.1]),
    jams=st.lists(
        st.builds(
            JamWindow,
            start=st.integers(0, 30),
            stop=st.integers(31, 80),
            probability=st.sampled_from([0.3, 1.0]),
        ),
        max_size=2,
    ).map(tuple),
    crashes=st.dictionaries(
        st.integers(min_value=0, max_value=30), crash_events, max_size=3
    ),
    crash_fraction=st.sampled_from([0.0, 0.15]),
    crash_round=st.integers(0, 40),
    crash_recovery=st.one_of(st.none(), st.sampled_from([4, 16])),
    max_wake_skew=st.integers(0, 3),
)

graphs = st.builds(
    gnp_random_graph,
    st.integers(min_value=6, max_value=24),
    st.sampled_from([0.12, 0.25, 0.4]),
    seed=st.integers(0, 1000),
)


def run_or_watchdog(engine, graph, protocol, model, seed, plan, budget):
    try:
        return engine(
            graph, protocol, model, seed=seed, max_rounds=budget, faults=plan
        )
    except SimulationError:
        # Faults may legitimately stall a protocol; both engines must
        # stall identically.
        return "watchdog"


@settings(max_examples=40, deadline=None)
@given(graph=graphs, plan=fault_plans, seed=st.integers(0, 50))
def test_fuzzed_plans_bit_identical(graph, plan, seed):
    protocol = CDMISProtocol(constants=FAST)
    hint = protocol.max_rounds_hint(graph.num_nodes, max(graph.max_degree(), 1))
    budget = 6 * (hint or 200) + 200
    reference = run_or_watchdog(
        run_protocol_reference, graph, protocol, CD, seed, plan, budget
    )
    optimized = run_or_watchdog(
        run_protocol, graph, protocol, CD, seed, plan, budget
    )
    assert optimized == reference, plan.describe()


crash_stop_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**32),
    crashes=st.dictionaries(
        st.integers(min_value=0, max_value=30),
        st.builds(CrashEvent, round=st.integers(0, 60)),
        max_size=4,
    ),
    crash_fraction=st.sampled_from([0.0, 0.2]),
    crash_round=st.integers(0, 40),
)


@settings(max_examples=25, deadline=None)
@given(graph=graphs, plan=crash_stop_plans, seed=st.integers(0, 50))
def test_crash_stop_preserves_survivor_independence(graph, plan, seed):
    for protocol, model in (
        (CDMISProtocol(constants=FAST), CD),
        (NoCDEnergyMISProtocol(constants=FAST), NO_CD),
    ):
        result = run_protocol(graph, protocol, model, seed=seed, faults=plan)
        assert result.surviving_mis_independent(), plan.describe()
