"""Integration tests for the experiment harnesses (quick-scale)."""

import pytest

from repro.analysis.experiments import (
    get_experiment,
    run_backoff_experiment,
    run_correctness_battery,
    run_delta_sweep,
    run_energy_breakdown,
    run_headline_table,
    run_luby_phase_properties,
    run_residual_shrinkage,
    run_scaling_comparison,
)
from repro.analysis.experiments.energy_breakdown import (
    COMPONENT_CLASSES,
    ComponentRow,
    fold_energy_breakdown,
)
from repro.analysis.experiments.luby_phase_props import (
    PhasePropertyCounts,
    fold_luby_phase_properties,
)
from repro.analysis.experiments.registry import EXPERIMENTS
from repro.analysis.experiments.scaling import (
    cd_protocol_suite,
    default_graph_factory,
    nocd_protocol_suite,
)
from repro.constants import ConstantsProfile
from repro.graphs import gnp_random_graph
from repro.radio import CD, NO_CD


@pytest.fixture(scope="module")
def constants():
    return ConstantsProfile.fast()


@pytest.fixture(scope="module")
def tiny_graphs():
    return [gnp_random_graph(32, 0.15, seed=s) for s in (1, 2)]


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        assert {f"E{i}" for i in range(1, 13)} <= set(EXPERIMENTS)
        assert set(EXPERIMENTS) == {
            spec.experiment_id for spec in EXPERIMENTS.values()
        }

    def test_extension_experiments_registered(self):
        assert {"A1", "A2", "A3", "A7"} <= set(EXPERIMENTS)

    def test_quick_a_experiments_render(self):
        for experiment_id in ("A1", "A3", "A7"):
            output = get_experiment(experiment_id).run()
            assert experiment_id in output

    def test_lookup_case_insensitive(self):
        assert get_experiment("e6").experiment_id == "E6"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("E99")


class TestHeadline:
    def test_report(self, constants):
        report = run_headline_table(n=16, trials=2, constants=constants)
        names = [row.protocol for row in report.rows]
        assert "cd-mis" in names and "nocd-energy-mis" in names
        table = report.to_table()
        assert "paper energy" in table

    def test_cd_beats_naive_energy(self, constants):
        report = run_headline_table(n=32, trials=3, constants=constants)
        by_name = {row.protocol: row for row in report.rows}
        assert (
            by_name["cd-mis"].max_energy_mean
            < by_name["naive-cd-luby"].max_energy_mean
        )


class TestScaling:
    def test_cd_suite(self, constants):
        report = run_scaling_comparison(
            (16, 32, 64), cd_protocol_suite(constants), CD, trials=3
        )
        assert set(report.sweeps) == {"cd-mis", "naive-cd-luby"}
        table = report.metric_table("max_energy_mean", "energy")
        assert "cd-mis" in table
        fits = report.fits_table()
        assert "fit exponent" in fits

    def test_ratio_series_grows(self, constants):
        report = run_scaling_comparison(
            (32, 256), cd_protocol_suite(constants), CD, trials=4
        )
        ratios = report.ratio_series("naive-cd-luby", "cd-mis")
        assert ratios[-1] > ratios[0]  # ~log n growth

    def test_nocd_suite_smoke(self, constants):
        suite = nocd_protocol_suite(constants, include_naive=False)
        report = run_scaling_comparison((16, 32), suite, NO_CD, trials=2)
        assert len(report.sweeps) == 2

    def test_default_graph_factory_keeps_degree(self):
        graph = default_graph_factory(256, 1)
        # Expected average degree ~8; allow wide slack.
        average = 2 * graph.num_edges / graph.num_nodes
        assert 4 <= average <= 13


class TestCorrectnessBattery:
    def test_battery(self, constants):
        report = run_correctness_battery(n=24, trials=4, constants=constants)
        assert report.cells
        assert report.worst_rate <= 0.5
        assert "E7" in report.to_table()

    def test_kind_counts_sum(self, constants):
        report = run_correctness_battery(n=16, trials=3, constants=constants)
        for cell in report.cells:
            assert sum(cell.kind_counts.values()) >= cell.failures * 0 # kinds may overlap


class TestResidual:
    def test_shrinkage_measured(self, constants, tiny_graphs):
        report = run_residual_shrinkage(
            tiny_graphs, seeds=range(2), constants=constants
        )
        assert report.mean_ratio("cd-mis") < 0.8
        assert report.mean_ratio("luby-ideal") < 0.8
        nocd_ratio = report.mean_ratio("nocd-energy-mis")
        assert 0 < nocd_ratio < 1.0
        assert "E8" in report.to_table()

    def test_series_start_at_full_edge_count(self, constants, tiny_graphs):
        report = run_residual_shrinkage(
            tiny_graphs[:1], seeds=[0], constants=constants
        )
        for series in report.series:
            assert series.edges[0] == tiny_graphs[0].num_edges


class TestBackoffProbe:
    def test_report(self):
        report = run_backoff_experiment(
            delta=8, k_values=(1, 4), sender_counts=(1, 8), trials=30
        )
        assert len(report.points) == 4
        for point in report.points:
            assert point.heard_rate >= point.lemma9_bound - 0.25
            assert point.sender_energy == point.k
        assert "E9" in report.to_table()

    def test_receiver_energy_exceeds_sender(self):
        report = run_backoff_experiment(
            delta=32, k_values=(8,), sender_counts=(32,), trials=20
        )
        point = report.points[0]
        assert point.receiver_energy > point.sender_energy


class TestEnergyBreakdown:
    def test_components_covered(self, constants, tiny_graphs):
        report = run_energy_breakdown(tiny_graphs, seeds=[0], constants=constants)
        components = {row.component for row in report.rows}
        assert "competition-listen" in components
        assert "shallow-check" in components
        assert abs(sum(row.share_of_total for row in report.rows) - 1.0) < 1e-9
        assert "E10" in report.to_table()


class TestDeltaSweep:
    def test_rounds_grow_with_delta(self, constants):
        report = run_delta_sweep(
            n=32, deltas=(4, 16), trials=2, constants=constants
        )
        rounds = report.series("nocd-energy-mis", "rounds_mean")
        assert rounds[1] > rounds[0]
        assert report.deltas("nocd-energy-mis") == [4, 16]
        assert "E11" in report.to_table()


class TestLubyPhaseProps:
    def test_counts(self, constants, tiny_graphs):
        report = run_luby_phase_properties(
            tiny_graphs, seeds=[0], constants=constants
        )
        counts = report.counts
        assert counts.phases > 0
        assert counts.participants > 0
        assert counts.local_maxima > 0
        assert counts.max_committed_degree <= report.kappa_log_n
        assert "E12" in report.to_table()

    def test_mute_ablation_improves_lemma14(self, constants, tiny_graphs):
        plain = run_luby_phase_properties(
            tiny_graphs, seeds=[0, 1], constants=constants
        )
        muted = run_luby_phase_properties(
            tiny_graphs, seeds=[0, 1], constants=constants, mute_committed_on_hear=True
        )
        rate = lambda counts: (  # noqa: E731
            counts.local_maxima_that_won / counts.local_maxima
        )
        assert rate(muted.counts) >= rate(plain.counts)


class TestHarnessPins:
    """E8/E10/E12 reports on a fixed input, recorded before the harnesses
    were split into per-run records and folds; compared exactly."""

    @pytest.fixture(scope="class")
    def graphs(self):
        return [gnp_random_graph(24, 0.25, seed=1), gnp_random_graph(40, 0.15, seed=2)]

    def test_residual_mean_ratios(self, constants, graphs):
        report = run_residual_shrinkage(graphs, seeds=range(2), constants=constants)
        assert {
            label: report.mean_ratio(label)
            for label in ("cd-mis", "luby-ideal", "nocd-energy-mis")
        } == {
            "cd-mis": 0.014705882352941175,
            "luby-ideal": 0.05174812821871646,
            "nocd-energy-mis": 0.060399972164678045,
        }

    def test_energy_breakdown_rows(self, constants, graphs):
        report = run_energy_breakdown(graphs, seeds=range(2), constants=constants)
        assert (report.n, report.runs, report.worst_total) == (40, 4, 1445)
        classes = COMPONENT_CLASSES
        assert report.rows == [
            ComponentRow("competition-listen", classes["competition-listen"],
                         676, 171.5, 0.37445414847161573),
            ComponentRow("mis-announce-deep", classes["mis-announce-deep"],
                         585, 183.046875, 0.39966566593886466),
            ComponentRow("low-degree-mis", classes["low-degree-mis"],
                         375, 14.484375, 0.03162527292576419),
            ComponentRow("competition-send", classes["competition-send"],
                         180, 56.8359375, 0.12409593340611354),
            ComponentRow("deep-check", classes["deep-check"],
                         75, 23.515625, 0.05134415938864629),
            ComponentRow("mis-announce-shallow", classes["mis-announce-shallow"],
                         20, 6.28125, 0.013714519650655023),
            ComponentRow("shallow-check", classes["shallow-check"],
                         11, 2.3359375, 0.0051003002183406115),
        ]

    @pytest.mark.parametrize(
        "mute, expected",
        [
            (False, PhasePropertyCounts(
                phases=10, participants=163, local_maxima=37,
                local_maxima_that_won=32, adjacent_winner_pairs=0,
                committed_nodes=53, committed_degree_violations=0,
                max_committed_degree=1, adjacent_committed_pairs=5,
                adjacent_committed_same_bit=5,
            )),
            (True, PhasePropertyCounts(
                phases=10, participants=156, local_maxima=39,
                local_maxima_that_won=39, adjacent_winner_pairs=0,
                committed_nodes=52, committed_degree_violations=0,
                max_committed_degree=1, adjacent_committed_pairs=5,
                adjacent_committed_same_bit=5,
            )),
        ],
    )
    def test_luby_phase_counts(self, constants, graphs, mute, expected):
        report = run_luby_phase_properties(
            graphs, seeds=range(2), constants=constants,
            mute_committed_on_hear=mute,
        )
        assert (report.n, report.kappa_log_n) == (40, 15)
        assert report.counts == expected


class TestHarnessFolds:
    def test_kappa_comes_from_the_largest_graph(self, constants):
        small, large = 8, 4096
        assert constants.committed_degree(small) < constants.committed_degree(large)
        kappa = constants.committed_degree(large)
        zeros = {name: 0 for name in (
            "phases", "participants", "local_maxima", "local_maxima_that_won",
            "adjacent_winner_pairs", "committed_nodes",
            "adjacent_committed_pairs", "adjacent_committed_same_bit",
        )}
        records = [
            dict(zeros, num_nodes=small, committed_degrees=[[kappa, 3]]),
            dict(zeros, num_nodes=large,
                 committed_degrees=[[0, 5], [kappa + 1, 2]]),
        ]
        report = fold_luby_phase_properties(records, constants)
        assert report.n == large
        assert report.kappa_log_n == kappa
        assert report.counts.committed_degree_violations == 2
        assert report.counts.max_committed_degree == kappa + 1

    def test_breakdown_ties_keep_first_seen_order(self):
        records = [
            {"num_nodes": 2, "max_energy": 5, "components": [["b", 4, 4]]},
            {"num_nodes": 2, "max_energy": 7,
             "components": [["a", 4, 6], ["b", 1, 1]]},
        ]
        report = fold_energy_breakdown(records)
        assert [row.component for row in report.rows] == ["b", "a"]
        assert (report.n, report.runs, report.worst_total) == (2, 2, 7)
        assert report.rows[0].mean_node_rounds == 5 / 4
