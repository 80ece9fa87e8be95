"""Golden-equivalence tests: the optimized engine vs the specification oracle.

:func:`repro.radio.engine.run_protocol` resolves collisions with a
per-round tally, a bucketed round calendar, interned observations and
one resume loop.  Its contract is *bit identity*: for every protocol,
collision model, seed, trace setting, fault plan and wake schedule, it
must produce a :class:`~repro.radio.metrics.RunResult` (and trace event
stream) equal to the small, independently written oracle
:func:`repro.radio._engine_reference.run_protocol_reference`, which
scans each perceiver's neighbours against the round's transmitters and
shares no round-loop code with the engine.

These tests are the enforcement.  If an engine change breaks one, the
change is wrong — the oracle is the specification.
"""

import pytest

from repro.baselines import SenderCDBeepingMISProtocol
from repro.constants import ConstantsProfile
from repro.core import (
    BeepingMISProtocol,
    CDMISProtocol,
    LowDegreeMISProtocol,
    NoCDEnergyMISProtocol,
    UnknownDeltaMISProtocol,
)
from repro.faults import CrashEvent, FaultPlan, JamWindow
from repro.graphs import gnp_random_graph
from repro.radio import BEEPING, BEEPING_SENDER_CD, CD, NO_CD, Listen, Protocol, Sleep, Transmit, run_protocol
from repro.radio._engine_reference import run_protocol_reference
from repro.radio.trace import TraceRecorder

FAST = ConstantsProfile.fast()

GRAPH_MEDIUM = gnp_random_graph(60, 0.15, seed=7)
GRAPH_SMALL = gnp_random_graph(40, 0.3, seed=11)
GRAPH_DENSE = gnp_random_graph(200, 0.1, seed=1)


def assert_bit_identical(graph, protocol, model, seed, **kwargs):
    """Run both engines, untraced and traced, and compare everything."""
    reference = run_protocol_reference(graph, protocol, model, seed=seed, **kwargs)
    optimized = run_protocol(graph, protocol, model, seed=seed, **kwargs)
    assert optimized == reference

    ref_trace, opt_trace = TraceRecorder(), TraceRecorder()
    reference_traced = run_protocol_reference(
        graph, protocol, model, seed=seed, trace=ref_trace, **kwargs
    )
    optimized_traced = run_protocol(
        graph, protocol, model, seed=seed, trace=opt_trace, **kwargs
    )
    assert optimized_traced == reference_traced
    assert opt_trace.events == ref_trace.events


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize(
    "graph, protocol_factory, model",
    [
        (GRAPH_MEDIUM, lambda: CDMISProtocol(constants=FAST), CD),
        (GRAPH_MEDIUM, lambda: CDMISProtocol(constants=FAST), BEEPING),
        (GRAPH_SMALL, lambda: BeepingMISProtocol(constants=FAST), BEEPING),
        (GRAPH_SMALL, lambda: NoCDEnergyMISProtocol(constants=FAST), NO_CD),
        (GRAPH_SMALL, lambda: LowDegreeMISProtocol(constants=FAST), NO_CD),
        (GRAPH_SMALL, lambda: UnknownDeltaMISProtocol(constants=FAST), NO_CD),
    ],
    ids=["cd-mis/cd", "cd-mis/beep", "beep-mis/beep", "nocd-mis/no-cd",
         "lowdeg/no-cd", "unknown-delta/no-cd"],
)
def test_protocols_bit_identical(graph, protocol_factory, model, seed):
    assert_bit_identical(graph, protocol_factory(), model, seed)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_sender_side_detection_bit_identical(seed):
    """The sender-side beeping model: transmitters perceive too, and
    this protocol acts on what its transmitters perceive."""
    assert_bit_identical(
        GRAPH_SMALL,
        SenderCDBeepingMISProtocol(constants=FAST),
        BEEPING_SENDER_CD,
        seed=seed,
    )


def test_crash_stop_plan_bit_identical():
    assert_bit_identical(
        GRAPH_MEDIUM,
        CDMISProtocol(constants=FAST),
        CD,
        seed=3,
        faults=FaultPlan(crashes={0: 5, 7: 12, 20: 1}),
    )


def test_wake_schedule_bit_identical():
    assert_bit_identical(
        GRAPH_MEDIUM,
        CDMISProtocol(constants=FAST),
        CD,
        seed=3,
        wake_schedule={node: node % 4 for node in GRAPH_MEDIUM.nodes},
    )


def test_crash_and_wake_combined_bit_identical():
    assert_bit_identical(
        GRAPH_MEDIUM,
        CDMISProtocol(constants=FAST),
        CD,
        seed=4,
        faults=FaultPlan(crashes={1: 9}),
        wake_schedule={node: (node * 3) % 5 for node in GRAPH_MEDIUM.nodes},
    )


# ----------------------------------------------------------------------
# Fault plans: the bit-identity contract covers faulty runs too.
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "plan",
    [
        FaultPlan(seed=3, drop_p=0.05),
        FaultPlan(seed=3, jams=(JamWindow(5, 15), JamWindow(30, 40, 0.4))),
        FaultPlan(seed=3, crashes={2: CrashEvent(10, 8), 7: 15}),
        FaultPlan(seed=3, crash_fraction=0.2, crash_round=12, crash_recovery=6),
        FaultPlan(seed=3, max_wake_skew=4),
        FaultPlan(
            seed=3,
            drop_p=0.02,
            jams=(JamWindow(8, 12),),
            crashes={1: [CrashEvent(6, 4), CrashEvent(25)]},
            crash_fraction=0.1,
            crash_round=20,
            max_wake_skew=2,
        ),
    ],
    ids=["drop", "jam", "crash-recovery", "fraction", "wake-skew", "kitchen-sink"],
)
@pytest.mark.parametrize("model", [CD, BEEPING], ids=lambda m: m.name)
def test_fault_plans_bit_identical(plan, model):
    # Generous budget: faults legitimately stretch runs past the
    # fault-free watchdog, and watchdog errors are not what is under
    # test here.
    assert_bit_identical(
        GRAPH_SMALL,
        CDMISProtocol(constants=FAST),
        model,
        seed=6,
        faults=plan,
        max_rounds=50_000,
    )


def test_fault_plan_composes_with_legacy_schedules_bit_identical():
    assert_bit_identical(
        GRAPH_SMALL,
        CDMISProtocol(constants=FAST),
        CD,
        seed=2,
        faults=FaultPlan(
            seed=1,
            drop_p=0.03,
            crashes={4: CrashEvent(7, 5), 0: 5, 9: 12},
        ),
        wake_schedule={node: node % 3 for node in GRAPH_SMALL.nodes},
        max_rounds=50_000,
    )


def test_noop_fault_plan_bit_identical_to_none():
    protocol = CDMISProtocol(constants=FAST)
    baseline = run_protocol(GRAPH_SMALL, protocol, CD, seed=8)
    with_noop = run_protocol(GRAPH_SMALL, protocol, CD, seed=8, faults=FaultPlan())
    assert with_noop == baseline


@pytest.mark.parametrize("model", [CD, NO_CD, BEEPING], ids=lambda m: m.name)
def test_dense_traffic_faults_bit_identical(model):
    # Fixed-length scripts terminate under any channel, so this covers
    # the no-CD perturbation path (where jam reads as silence) without
    # depending on an MIS protocol converging under noise.
    plan = FaultPlan(
        seed=4,
        drop_p=0.1,
        jams=(JamWindow(3, 9, 0.5),),
        crashes={5: CrashEvent(4, 3), 11: 8},
    )
    assert_bit_identical(GRAPH_DENSE, DenseTraffic(rounds=20), model, 9, faults=plan)


class DenseTraffic(Protocol):
    """Every node alternates transmit/listen — drives the scatter path,
    including the heavy-round (numpy-accelerated, when available) branch."""

    name = "dense-traffic"
    compatible_models = ("cd", "no-cd", "beep")

    def __init__(self, rounds: int):
        self.rounds = rounds

    def run(self, ctx):
        for index in range(self.rounds):
            if (index + ctx.node) % 2:
                yield Transmit()
            else:
                yield Listen()


class SparseTraffic(Protocol):
    """Long sleeps between listens — drives the calendar fast-forward."""

    name = "sparse-traffic"
    compatible_models = ("cd", "no-cd", "beep")

    def __init__(self, beats: int):
        self.beats = beats

    def run(self, ctx):
        for _ in range(self.beats):
            yield Sleep(100_000)
            yield Listen()


@pytest.mark.parametrize("model", [CD, NO_CD, BEEPING], ids=lambda m: m.name)
@pytest.mark.parametrize("seed", [1, 9])
def test_dense_traffic_bit_identical(model, seed):
    assert_bit_identical(GRAPH_DENSE, DenseTraffic(rounds=20), model, seed)


def test_sparse_traffic_bit_identical():
    assert_bit_identical(
        gnp_random_graph(100, 0.1, seed=2), SparseTraffic(beats=5), CD, seed=2
    )
