"""The arithmetic of ``benchmarks/bench_perf_engine.py --check``.

The bench module is loaded by path and its ``check`` is run on small
synthetic reports, so a gate that silently stops failing is caught
without timing anything.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_perf_engine.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_perf_engine", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scenarios(**normalised):
    return {"scenarios": {name: {"normalised": value} for name, value in normalised.items()}}


def overhead(frac):
    return {"variant": "telemetry=True", "pairs": 31, "overhead_frac": frac}


@pytest.mark.parametrize("factor, passes", [(1.29, True), (1.31, False)])
def test_scenario_allowance(bench, factor, passes):
    baseline = scenarios(dense=0.2, sleep=0.08)
    report = scenarios(dense=0.2 * factor, sleep=0.08)
    failures = bench.check(report, baseline, 0.30)
    assert (failures == []) is passes
    if not passes:
        assert len(failures) == 1 and failures[0].startswith("dense:")


def test_faster_run_passes(bench):
    assert bench.check(scenarios(dense=0.1), scenarios(dense=0.2), 0.30) == []


def test_missing_scenario_fails(bench):
    failures = bench.check(scenarios(dense=0.2), scenarios(dense=0.2, sleep=0.08), 0.30)
    assert failures == ["sleep: missing from current run"]


@pytest.mark.parametrize(
    "section, flag",
    [
        ("telemetry_overhead", "max_overhead"),
        ("fault_overhead", "max_fault_overhead"),
        ("churn_overhead", "max_fault_overhead"),
        ("multichannel_overhead", None),
    ],
)
@pytest.mark.parametrize("frac, passes", [(0.049, True), (0.051, False)])
def test_overhead_gate_at_five_percent(bench, section, flag, frac, passes):
    report = {**scenarios(dense=0.2), section: overhead(frac)}
    limits = {flag: 0.05} if flag else {}
    failures = bench.check(report, scenarios(dense=0.2), 0.30, **limits)
    assert (failures == []) is passes
    if not passes:
        assert failures[0].startswith(f"{section}:")


def test_overhead_flags_unset_skip_their_sections(bench):
    report = {
        **scenarios(dense=0.2),
        "telemetry_overhead": overhead(0.5),
        "fault_overhead": overhead(0.5),
        "churn_overhead": overhead(0.5),
    }
    assert bench.check(report, scenarios(dense=0.2), 0.30) == []


def test_gate_noise_sets_each_iqr_beside_its_limit(bench):
    report = {
        "scenarios": {"dense": {"normalised": 0.2, "iqr": 0.02}},
        "telemetry_overhead": {**overhead(0.0), "iqr": 0.03},
        "multichannel_overhead": {**overhead(0.0), "iqr": 0.08},
    }
    rows = bench.gate_noise(report, scenarios(dense=0.2), 0.30, max_overhead=0.05)
    assert rows == [
        ("dense", pytest.approx(0.1), 0.30),
        ("telemetry_overhead", 0.03, 0.05),
        ("multichannel_overhead", 0.08, bench.MULTICHANNEL_OVERHEAD_LIMIT),
    ]
    narrower = [gate for gate, iqr, limit in rows if limit < iqr]
    assert narrower == ["multichannel_overhead"]
