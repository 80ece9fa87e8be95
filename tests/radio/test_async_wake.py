"""Tests for the asynchronous wake-up knob.

The paper assumes synchronous wake-up (Section 1.1, following [18, 36]).
The engine's ``wake_schedule`` lets experiments quantify that
assumption: Algorithm 1 keeps producing independent sets under skew
(losers still hear winners that are ahead of them only if their phases
overlap), but maximality can break — exactly why the assumption exists.
"""

import pytest

from repro.core import CDMISProtocol, NoCDEnergyMISProtocol
from repro.errors import ProtocolError, SynchronizationError
from repro.graphs import empty_graph, gnp_random_graph, path_graph
from repro.radio import CD, NO_CD, Listen, run_protocol
from repro.radio._engine_reference import run_protocol_reference
from tests.radio.test_engine import ScriptProtocol


class TestWakeMechanics:
    def test_delayed_start(self):
        protocol = ScriptProtocol({0: [Listen()]})
        result = run_protocol(
            empty_graph(1), protocol, CD, seed=0, wake_schedule={0: 10}
        )
        assert result.node_stats[0].finish_round == 11
        assert result.node_stats[0].awake_rounds == 1

    def test_default_wake_is_zero(self):
        protocol = ScriptProtocol({0: [Listen()], 1: [Listen()]})
        result = run_protocol(
            empty_graph(2), protocol, CD, seed=0, wake_schedule={1: 5}
        )
        assert result.node_stats[0].finish_round == 1
        assert result.node_stats[1].finish_round == 6

    @pytest.mark.parametrize(
        "engine", [run_protocol, run_protocol_reference],
        ids=["optimized", "reference"],
    )
    @pytest.mark.parametrize("bad_round", [-1, 2.5, True, "3"])
    def test_negative_wake_rejected(self, engine, bad_round):
        # Regression: a float round ran (fractional rounds in the
        # result), True was read as round 1, and a string raised a bare
        # TypeError.
        protocol = ScriptProtocol({0: [Listen()]})
        with pytest.raises(
            ProtocolError, match="wake round for node 0 must be a non-negative int"
        ):
            engine(
                empty_graph(1), protocol, CD, seed=0,
                wake_schedule={0: bad_round},
            )

    def test_skew_shifts_interaction(self):
        # With node 1 delayed past node 0's transmissions, 0 is unheard.
        from repro.radio import Transmit

        protocol = ScriptProtocol({0: [Transmit()], 1: [Listen()]})
        aligned = run_protocol(path_graph(2), protocol, CD, seed=0)
        skewed = run_protocol(
            path_graph(2), protocol, CD, seed=0, wake_schedule={1: 3}
        )
        assert aligned.node_info[1]["seen"] == ["message(1)"]
        assert skewed.node_info[1]["seen"] == ["silence"]


class TestAlgorithmSensitivity:
    def test_algorithm1_synchronous_is_baseline(self, fast_constants):
        graph = gnp_random_graph(32, 0.15, seed=1)
        result = run_protocol(
            graph, CDMISProtocol(constants=fast_constants), CD, seed=1,
            wake_schedule={},
        )
        assert result.is_valid_mis()

    def test_algorithm1_breaks_under_phase_skew(self, fast_constants):
        # The negative result that justifies the paper's synchronous
        # wake-up assumption: a node skewed by a whole phase never hears
        # an early winner (it was asleep while the winner competed and
        # confirmed, and the winner then terminated), so both join —
        # independence breaks essentially always.
        graph = gnp_random_graph(32, 0.15, seed=2)
        phase = fast_constants.rank_bits(32) + 1
        wake = {node: phase * (node % 3) for node in graph.nodes}
        failures = 0
        for seed in range(10):
            result = run_protocol(
                graph,
                CDMISProtocol(constants=fast_constants),
                CD,
                seed=seed,
                wake_schedule=wake,
            )
            if not graph.is_independent_set(result.mis):
                failures += 1
        assert failures >= 8

    def test_algorithm1_breaks_under_arbitrary_skew(self, fast_constants):
        graph = gnp_random_graph(32, 0.15, seed=3)
        validity_failures = 0
        for seed in range(10):
            wake = {
                node: (seed * 7 + node * 13) % 29 for node in graph.nodes
            }
            result = run_protocol(
                graph,
                CDMISProtocol(constants=fast_constants),
                CD,
                seed=seed,
                wake_schedule=wake,
            )
            if not result.is_valid_mis():
                validity_failures += 1
        assert validity_failures >= 8

    def test_algorithm2_requires_synchronous_start(self, fast_constants):
        # Algorithm 2's barrier arithmetic assumes a shared round 0; a
        # skewed node trips the synchronization guard immediately —
        # documenting (not hiding) the assumption.
        graph = path_graph(6)
        with pytest.raises(SynchronizationError):
            run_protocol(
                graph,
                NoCDEnergyMISProtocol(constants=fast_constants),
                NO_CD,
                seed=0,
                wake_schedule={2: 7},
            )
