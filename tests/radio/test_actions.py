"""Validation tests for actions and node-context plumbing."""

import random

import pytest

from repro.errors import ProtocolError
from repro.radio import Decision, Listen, Sleep, SleepUntil, Transmit
from repro.radio.node import NodeContext


class TestActions:
    def test_transmit_default_payload_is_unary(self):
        assert Transmit().payload == 1

    def test_sleep_validates_duration(self):
        assert Sleep(0).rounds == 0
        assert Sleep(5).rounds == 5
        with pytest.raises(ProtocolError):
            Sleep(-1)

    def test_sleep_until_validates_target(self):
        assert SleepUntil(0).target == 0
        with pytest.raises(ProtocolError):
            SleepUntil(-3)

    @pytest.mark.parametrize("value", [2.5, True, "3"], ids=repr)
    def test_sleeps_reject_non_int_rounds(self, value):
        # Sleep(2.5) once gave a run 3.5 rounds long, Sleep(True) slept one
        # round and Sleep("3") raised a bare TypeError.
        with pytest.raises(ProtocolError, match=f"got {value!r}"):
            Sleep(value)
        with pytest.raises(ProtocolError, match=f"got {value!r}"):
            SleepUntil(value)

    def test_actions_are_frozen(self):
        with pytest.raises(AttributeError):
            Transmit().payload = 2
        with pytest.raises(AttributeError):
            Sleep(1).rounds = 2

    def test_listen_is_stateless(self):
        assert Listen() == Listen()


class TestNodeContext:
    def make_ctx(self):
        return NodeContext(node=3, rng=random.Random(0), n=16, delta=4)

    def test_exposes_model_knowledge(self):
        ctx = self.make_ctx()
        assert ctx.n == 16
        assert ctx.delta == 4
        assert ctx.node == 3

    def test_initial_state(self):
        ctx = self.make_ctx()
        assert ctx.decision is Decision.UNDECIDED
        assert ctx.now == 0
        assert ctx.info == {}
        assert ctx.energy_by_component == {}

    def test_charge_attributes_to_component(self):
        ctx = self.make_ctx()
        ctx._charge_awake_round()
        ctx.set_component("phase-2")
        ctx._charge_awake_round()
        ctx._charge_awake_round()
        assert ctx.energy_by_component == {"default": 1, "phase-2": 2}

    def test_decide_is_irrevocable(self):
        ctx = self.make_ctx()
        ctx.decide(Decision.OUT_MIS)
        ctx.decide(Decision.OUT_MIS)  # idempotent ok
        with pytest.raises(ProtocolError):
            ctx.decide(Decision.IN_MIS)

    def test_repr(self):
        assert "node=3" in repr(self.make_ctx())
