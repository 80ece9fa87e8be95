"""End-to-end pipeline integration tests.

One scenario per test: simulate -> validate -> build downstream
artifact -> check its contract — across models and topologies, the way
a user composes the pieces.
"""

import pytest

from repro import (
    BEEPING,
    CD,
    NO_CD,
    BeepingMISProtocol,
    CDMISProtocol,
    ConstantsProfile,
    NoCDEnergyMISProtocol,
    run_protocol,
)
from repro.analysis import validate_run
from repro.analysis.workloads import build_workload
from repro.applications import (
    build_backbone,
    is_proper_coloring,
    iterated_mis_coloring,
    radio_mis_solver,
)
from repro.baselines import SenderCDBeepingMISProtocol
from repro.core import UnknownDeltaMISProtocol
from repro.radio import BEEPING_SENDER_CD, TraceRecorder


@pytest.fixture(scope="module")
def constants():
    return ConstantsProfile.fast()


class TestMISToBackbonePipeline:
    @pytest.mark.parametrize("workload", ["udg", "gnp", "grid", "tree"])
    def test_cd_mis_to_backbone(self, constants, workload):
        graph = build_workload(workload, 48, seed=3)
        result = run_protocol(
            graph, CDMISProtocol(constants=constants), CD, seed=3
        )
        report = validate_run(result, strict=True)
        backbone = build_backbone(graph, result.mis)
        assert backbone.cluster_radius_is_one()
        assert backbone.overlay_connected_within_components()
        assert len(backbone.heads) == report.mis_size

    def test_nocd_mis_to_backbone(self, constants):
        graph = build_workload("udg", 40, seed=5)
        result = run_protocol(
            graph, NoCDEnergyMISProtocol(constants=constants), NO_CD, seed=5
        )
        validate_run(result, strict=True)
        backbone = build_backbone(graph, result.mis)
        assert backbone.overlay_connected_within_components()


class TestMISToColoringPipeline:
    def test_beeping_mis_colors_a_network(self, constants):
        graph = build_workload("gnp", 32, seed=7)
        solver = radio_mis_solver(
            lambda: BeepingMISProtocol(constants=constants), BEEPING
        )
        colors = iterated_mis_coloring(graph, solver, seed=7)
        assert is_proper_coloring(graph, colors)
        assert max(colors.values()) + 1 <= graph.max_degree() + 1

    def test_sender_cd_mis_colors_a_network(self, constants):
        graph = build_workload("gnp", 32, seed=8)
        solver = radio_mis_solver(
            lambda: SenderCDBeepingMISProtocol(constants=constants),
            BEEPING_SENDER_CD,
        )
        colors = iterated_mis_coloring(graph, solver, seed=8)
        assert is_proper_coloring(graph, colors)


class TestObservabilityPipeline:
    def test_trace_export_dict_roundtrip(self, constants, tmp_path):
        graph = build_workload("gnp", 24, seed=10)
        trace = TraceRecorder()
        result = run_protocol(
            graph, CDMISProtocol(constants=constants), CD, seed=10, trace=trace
        )
        # The exported trace must be consistent with the in-memory
        # accounting.
        trace_path = tmp_path / "run.jsonl"
        trace.save_jsonl(trace_path)
        lines = trace_path.read_text().strip().splitlines()
        assert len(lines) == result.total_energy  # one event per awake round


class TestUnknownDeltaPipeline:
    def test_unknown_delta_feeds_backbone(self, constants):
        graph = build_workload("udg", 36, seed=11)
        result = run_protocol(
            graph, UnknownDeltaMISProtocol(constants=constants), NO_CD, seed=11
        )
        validate_run(result, strict=True)
        backbone = build_backbone(graph, result.mis)
        assert backbone.cluster_radius_is_one()
