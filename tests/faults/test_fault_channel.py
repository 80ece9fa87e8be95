"""Channel-fault semantics and fault-plan compilation."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    CrashEvent,
    FaultPlan,
    JamWindow,
    compile_fault_plan,
    restart_rng,
)
from repro.radio.models import BEEPING, CD, NO_CD
from repro.radio.observations import BEEP, COLLISION, SILENCE, message


def channel_for(plan, model):
    compiled = compile_fault_plan(plan, model, num_nodes=8)
    assert compiled.channel is not None
    return compiled.channel


class TestJamming:
    def test_jam_forces_model_many_outcome(self):
        plan = FaultPlan(jams=(JamWindow(5, 10),))
        # A certain jam reads as "many transmitters" under every model:
        # collision under CD, beep under beeping — and, faithfully to
        # the model, silence under no-CD.
        assert channel_for(plan, CD)(7, 0, SILENCE) is COLLISION
        assert channel_for(plan, BEEPING)(7, 0, message(3)) is BEEP
        assert channel_for(plan, NO_CD)(7, 0, message(3)) is SILENCE

    def test_jam_window_is_half_open(self):
        plan = FaultPlan(jams=(JamWindow(5, 10),))
        channel = channel_for(plan, CD)
        observation = message(1)
        assert channel(4, 0, observation) is observation
        assert channel(5, 0, observation) is COLLISION
        assert channel(9, 0, observation) is COLLISION
        assert channel(10, 0, observation) is observation

    def test_jam_node_subset(self):
        plan = FaultPlan(jams=(JamWindow(0, 100, nodes=frozenset({2})),))
        channel = channel_for(plan, CD)
        observation = message(1)
        assert channel(3, 2, observation) is COLLISION
        assert channel(3, 1, observation) is observation

    def test_probabilistic_jam_fires_at_plan_rate(self):
        plan = FaultPlan(seed=11, jams=(JamWindow(0, 2000, 0.3),))
        channel = channel_for(plan, CD)
        jammed = sum(
            channel(round_, 0, SILENCE) is COLLISION for round_ in range(2000)
        )
        assert 0.25 < jammed / 2000 < 0.35

    def test_zero_probability_jam_never_fires(self):
        plan = FaultPlan(jams=(JamWindow(0, 100, 0.0),))
        channel = channel_for(plan, CD)
        assert all(channel(r, 0, SILENCE) is SILENCE for r in range(100))


class TestMessageLoss:
    def test_certain_drop_erases_everything_heard(self):
        channel = channel_for(FaultPlan(drop_p=1.0), CD)
        assert channel(0, 0, message(7)) is SILENCE
        assert channel(0, 0, COLLISION) is SILENCE

    def test_silence_cannot_be_dropped(self):
        channel = channel_for(FaultPlan(drop_p=1.0), CD)
        assert channel(0, 0, SILENCE) is SILENCE

    def test_drop_rate_matches_probability(self):
        channel = channel_for(FaultPlan(seed=3, drop_p=0.2), CD)
        observation = message(1)
        dropped = sum(
            channel(round_, 1, observation) is SILENCE for round_ in range(2000)
        )
        assert 0.15 < dropped / 2000 < 0.25

    def test_jam_wins_over_drop(self):
        plan = FaultPlan(drop_p=1.0, jams=(JamWindow(0, 10),))
        channel = channel_for(plan, CD)
        assert channel(5, 0, message(1)) is COLLISION

    def test_draws_are_order_independent(self):
        # Stateless hashing: perturbing (round, node) pairs in any order
        # yields identical outcomes — the property that lets two engines
        # with different perceiver visit orders stay bit-identical.
        channel_a = channel_for(FaultPlan(seed=3, drop_p=0.5), CD)
        channel_b = channel_for(FaultPlan(seed=3, drop_p=0.5), CD)
        observation = message(1)
        pairs = [(r, n) for r in range(50) for n in range(8)]
        forward = {p: channel_a(p[0], p[1], observation) for p in pairs}
        backward = {p: channel_b(p[0], p[1], observation)
                    for p in reversed(pairs)}
        assert forward == backward


class TestCompilation:
    def test_channel_free_plan_compiles_to_no_hook(self):
        plan = FaultPlan(crashes={0: 5})
        compiled = compile_fault_plan(plan, CD, num_nodes=4)
        assert compiled.channel is None
        assert compiled.crashes == {0: [(5, None)]}
        assert compiled.wake is None

    def test_int_crash_entries_compile_as_crash_stop(self):
        plan = FaultPlan(crashes={0: [CrashEvent(9, 4), CrashEvent(2)], 3: 7})
        compiled = compile_fault_plan(plan, CD, num_nodes=4)
        assert compiled.crashes == {0: [(2, None), (9, 4)], 3: [(7, None)]}

    def test_explicit_wake_schedule_overrides_plan_offsets(self):
        plan = FaultPlan(seed=1, max_wake_skew=4)
        generated = plan.wake_schedule_for(6)
        compiled = compile_fault_plan(
            plan, CD, num_nodes=6, wake_schedule={2: 99}
        )
        assert compiled.wake[2] == 99
        for node in (0, 1, 3, 4, 5):
            assert compiled.wake[node] == generated[node]

    def test_noop_parts_compile_to_none(self):
        compiled = compile_fault_plan(FaultPlan(), CD, num_nodes=4)
        assert compiled.channel is None
        assert compiled.crashes is None
        assert compiled.wake is None


class TestRestartRng:
    def test_deterministic_per_incarnation(self):
        first = restart_rng(3, 5, 1).random()
        assert first == restart_rng(3, 5, 1).random()

    def test_incarnations_draw_independent_streams(self):
        draws = {restart_rng(3, 5, k).random() for k in range(4)}
        assert len(draws) == 4

    def test_nodes_draw_independent_streams(self):
        assert restart_rng(3, 5, 1).random() != restart_rng(3, 6, 1).random()


class TestCrashScheduleValidation:
    """Crash rounds given as plain ints are validated naming the node."""

    def test_accepts_well_formed_schedule(self):
        plan = FaultPlan(crashes={0: 0, 3: 17})
        assert plan.crashes == ((0, (CrashEvent(0),)), (3, (CrashEvent(17),)))

    @pytest.mark.parametrize("bad", [2.5, "7", None, True])
    def test_non_int_round_rejected(self, bad):
        with pytest.raises(
            ConfigurationError, match="crash round for node 4 must be an int"
        ):
            FaultPlan(crashes={4: bad})

    def test_negative_round_rejected(self):
        with pytest.raises(
            ConfigurationError,
            match="crash round for node 2 must be non-negative",
        ):
            FaultPlan(crashes={2: -1})
