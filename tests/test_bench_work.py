"""``benchmarks/bench_work.py``: the engine work counters gate.

The script is loaded by path and run on small telemetry files written
here, so a gate that stops telling a moved counter apart is caught
without running the quick claims tier.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.graphs import path_graph
from repro.obs.export import summary_record
from repro.obs.registry import Registry
from repro.radio import NO_CD, ListenFor, TransmitSchedule, run_protocol

from .radio.test_schedule_index import Scripted

BENCH_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_work.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_work", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_telemetry(path, *results):
    registry = Registry()
    for result in results:
        result.telemetry.publish(registry)
    path.write_text(json.dumps(summary_record(registry)) + "\n")


def test_counters_read_back_from_telemetry(bench, tmp_path):
    protocol = Scripted({0: [TransmitSchedule((1, 2, 2, 0))], 1: [ListenFor(9)]})
    result = run_protocol(path_graph(3), protocol, NO_CD, telemetry=True)
    write_telemetry(tmp_path / "t.jsonl", result, result)
    counters = bench.read_counters(tmp_path / "t.jsonl")
    assert list(counters) == list(bench.COUNTERS)
    assert counters["runs"] == 2
    assert counters["rounds processed"] == 2 * result.telemetry.rounds_processed
    assert counters["scheduled transmit rounds"] == 2 * 2
    assert bench.compare(counters, dict(counters)) == []
    moved = {**counters, "coroutine resumes": counters["coroutine resumes"] + 1}
    assert bench.compare(counters, moved) == [
        f"coroutine resumes: {counters['coroutine resumes']} measured, "
        f"{counters['coroutine resumes'] + 1} recorded"
    ]


def test_the_checked_in_file_records_both_cases(bench):
    report = json.loads(bench.BASELINE.read_text())
    assert report["schema"] == bench.SCHEMA
    assert set(report["cases"]) == {"numpy", "no-numpy"}
    for counters in report["cases"].values():
        assert list(counters) == list(bench.COUNTERS)
        assert counters["rounds processed"] > 0
