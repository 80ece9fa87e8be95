"""Tests for complexity fitting, table rendering, and MIS validation."""

import math

import pytest

from repro.analysis.complexity_fit import fit_polylog, loglog_regression
from repro.analysis.experiments.scaling import ScalingReport
from repro.analysis.sweep import SweepPoint, SweepResult
from repro.analysis.tables import format_cell, render_table
from repro.analysis.validation import validate_mis, validate_run
from repro.errors import ConfigurationError, ValidationError
from repro.graphs import path_graph


class TestLogPowerFit:
    """The sweeps' fit: :func:`fit_polylog` without a ``loglog`` factor."""

    @pytest.mark.parametrize("true_p", [1.0, 2.0, 3.0])
    def test_recovers_exact_exponent(self, true_p):
        sizes = [64, 128, 256, 512, 1024, 2048]
        values = [3.0 * math.log2(n) ** true_p for n in sizes]
        fit = fit_polylog(sizes, values, loglog_powers=(0,))
        assert fit.exponent == pytest.approx(true_p, abs=0.01)
        assert fit.model.log_power == true_p
        assert fit.coefficient == pytest.approx(3.0, rel=0.05)
        assert loglog_regression(sizes, values)[1] == pytest.approx(3.0, rel=0.05)

    def test_predict(self):
        sizes = [64, 256, 1024]
        values = [2.0 * math.log2(n) for n in sizes]
        slope, coefficient = loglog_regression(sizes, values)
        assert coefficient * math.log2(512) ** slope == pytest.approx(
            2.0 * math.log2(512), rel=0.05
        )

    def test_noise_tolerance(self):
        sizes = [64, 128, 256, 512, 1024]
        values = [
            5.0 * math.log2(n) ** 2 * (1.1 if i % 2 else 0.9)
            for i, n in enumerate(sizes)
        ]
        fit = fit_polylog(sizes, values, loglog_powers=(0,))
        assert fit.model.log_power == 2.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fit_polylog([64], [1.0])
        with pytest.raises(ConfigurationError):
            fit_polylog([64, 128], [1.0])
        with pytest.raises(ConfigurationError):
            fit_polylog([64, 128], [1.0, -2.0])
        with pytest.raises(ConfigurationError):
            fit_polylog([1, 128], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            fit_polylog([64, 64], [1.0, 2.0])


def _sweep(name, energies, rounds):
    return SweepResult(
        name,
        "cd",
        [
            SweepPoint(n, 4, 0.0, e, e + 3.0, e / 2, r, r + 10.0)
            for n, e, r in zip((64, 128, 256, 512), energies, rounds)
        ],
    )


class TestFitsTable:
    """The E2-E5 fits table: continuous exponent, best grid power and the
    continuous fit's coefficient, pinned on a hand-built report."""

    REPORT = ScalingReport(
        "cd",
        [64, 128, 256, 512],
        {
            "fast": _sweep(
                "fast", [12.5, 14.0, 16.25, 17.75], [300.0, 420.0, 610.0, 800.0]
            ),
            "slow": _sweep(
                "slow", [40.0, 61.5, 90.0, 131.0], [90.0, 95.0, 99.0, 104.0]
            ),
        },
    )

    def test_max_energy(self):
        assert self.REPORT.fits_table() == (
            "log-power fits of max_energy_mean\n"
            "protocol  fit exponent  best log-power  coefficient\n"
            "--------  ------------  --------------  -----------\n"
            "    fast        0.8887               1        2.526\n"
            "    slow         2.913               3        0.214"
        )

    def test_rounds(self):
        assert self.REPORT.fits_table("rounds_mean") == (
            "log-power fits of rounds_mean\n"
            "protocol  fit exponent  best log-power  coefficient\n"
            "--------  ------------  --------------  -----------\n"
            "    fast         2.453             2.5        3.651\n"
            "    slow        0.3511             0.5        47.93"
        )


class TestTables:
    def test_format_cell(self):
        assert format_cell(True) == "yes"
        assert format_cell(0.0) == "0"
        assert format_cell(1234567.0) == "1.235e+06"
        assert format_cell(0.12345) == "0.1235"
        assert format_cell("abc") == "abc"
        assert format_cell(42) == "42"

    def test_render_table_aligned(self):
        table = render_table(["a", "bb"], [(1, 2), (30, 400)], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[1:])
        assert "400" in table


class TestValidation:
    def test_valid_report(self):
        graph = path_graph(5)
        report = validate_mis(graph, {0, 2, 4})
        assert report.valid
        assert report.mis_size == 3
        assert report.failure_kinds == []
        assert "valid MIS" in report.describe()

    def test_invalid_reports_kinds(self):
        graph = path_graph(5)
        report = validate_mis(graph, {0, 1}, undecided=[4])
        assert not report.valid
        assert set(report.failure_kinds) == {"undecided", "independence", "domination"}
        assert "INVALID" in report.describe()

    def test_validate_run_strict_raises(self, fast_constants):
        from repro.core import CDMISProtocol
        from repro.radio import CD, run_protocol
        from repro.radio.metrics import RunResult

        graph = path_graph(5)
        result = run_protocol(
            graph, CDMISProtocol(constants=fast_constants), CD, seed=0
        )
        report = validate_run(result, strict=True)  # should be valid
        assert report.valid
        # Build a corrupted result to exercise the strict path.
        bad = RunResult(
            graph=graph,
            protocol_name="bad",
            model_name="cd",
            seed=0,
            rounds=1,
            node_stats=(),
            node_info=(),
        )
        # Empty stats -> empty MIS -> domination violations.
        with pytest.raises(ValidationError):
            validate_run(bad, strict=True)


class TestFormatCellConsistency:
    """One ``%.4g`` rule for floats, everywhere (claims report tables
    reuse ``format_cell``, so drift here would desynchronize the
    benchmark tables from the regenerated E1/E2/E4 tables)."""

    def test_integral_float_matches_int_rendering(self):
        assert format_cell(5200.0) == format_cell(5200) == "5200"
        assert format_cell(-17.0) == format_cell(-17) == "-17"

    def test_scientific_notation_threshold(self):
        # %.4g switches to scientific only past 4 significant digits.
        assert format_cell(9999.0) == "9999"
        assert format_cell(10830.0) == "1.083e+04"
        assert format_cell(0.0001234) == "0.0001234"
        assert format_cell(0.00001234) == "1.234e-05"

    def test_zero_and_negative_zero(self):
        assert format_cell(0.0) == "0"
        assert format_cell(-0.0) == "0"

    def test_bools_never_hit_numeric_path(self):
        assert format_cell(False) == "no"
        assert format_cell(True) == "yes"

    def test_same_magnitude_same_rendering(self):
        # The property the report generator depends on: equal float
        # values render identically regardless of which table emits them.
        assert format_cell(446960.0) == "4.47e+05"
        assert format_cell(446960.00000001) == "4.47e+05"
