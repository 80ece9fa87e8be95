"""Deterministic engine work counters of the quick claims tier.

``repro claims verify --quick --telemetry T`` run cold (every trial
computed) records how much work the scalar engine did: runs, rounds
processed and skipped, how each round's collisions were resolved,
coroutine resumes, listen-window and scheduled transmit rounds, and
multichannel rounds.  These counts are exact and do not depend on the
host or on ``--jobs``, so unlike a timed gate they cannot flake: a
change that moves one changes what the engine does, and must re-record
``benchmarks/results/BENCH_work.json`` and say why.

They do depend on whether numpy is installed: without it the battery
trials the batch engine would take run on the scalar engine, so it
makes more runs.  The file holds one set of counters for each case, and
a check reads the one that matches the interpreter it runs under, which
must be the one that wrote ``T``.

Usage::

    PYTHONPATH=src python -m repro claims verify --quick --jobs 2 \\
        --no-cache --json cold.json --telemetry cold.jsonl
    python benchmarks/bench_work.py cold.jsonl          # compare, exit 1 on a difference
    python benchmarks/bench_work.py cold.jsonl --write  # re-record this case
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.obs.export import read_jsonl, records_to_registry  # noqa: E402

BASELINE = Path(__file__).parent / "results" / "BENCH_work.json"

SCHEMA = "bench-work/1"

#: What the counters count.
WORKLOAD = "repro claims verify --quick, master seed 0, cold (every trial computed)"

#: The counters, by their ``obs summarize`` label, in its order.
COUNTERS = {
    "runs": "engine.runs",
    "rounds processed": "engine.rounds.processed",
    "rounds skipped (clock jump)": "engine.rounds.skipped",
    "zero-transmitter fast path": "engine.rounds.zero_tx",
    "lone-transmitter fast path": "engine.rounds.one_tx",
    "dict scatter": "engine.rounds.scatter_dict",
    "coroutine resumes": "engine.resumes",
    "listen-window rounds": "engine.rounds.window",
    "scheduled transmit rounds": "engine.rounds.scheduled",
    "multichannel rounds": "engine.channels.rounds",
}


def numpy_case():
    """``"numpy"`` or ``"no-numpy"``: which counters this interpreter gives."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return "no-numpy"
    return "numpy"


def read_counters(path):
    """The engine counters of one telemetry file, by summary label."""
    counters = records_to_registry(read_jsonl(path, strict=True)).counter_values()
    return {label: counters.get(name, 0) for label, name in COUNTERS.items()}


def compare(measured, recorded):
    """One line per counter whose value differs (empty = equal)."""
    return [
        f"{label}: {measured.get(label)} measured, {recorded.get(label)} recorded"
        for label in COUNTERS
        if measured.get(label) != recorded.get(label)
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("telemetry", type=Path,
                        help="telemetry JSONL of a cold claims verify --quick")
    parser.add_argument("--write", action="store_true",
                        help=f"re-record this interpreter's case in {BASELINE}")
    args = parser.parse_args(argv)

    case = numpy_case()
    measured = read_counters(args.telemetry)
    report = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    if args.write:
        cases = {**report.get("cases", {}), case: measured}
        report = {
            "schema": SCHEMA,
            "workload": WORKLOAD,
            "cases": dict(sorted(cases.items())),
        }
        BASELINE.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote the {case} counters to {BASELINE}")
        return 0
    recorded = report.get("cases", {}).get(case)
    if recorded is None:
        print(f"{BASELINE} records no {case} counters", file=sys.stderr)
        return 1
    differences = compare(measured, recorded)
    for line in differences:
        print(f"MOVED {line}", file=sys.stderr)
    if differences:
        print(
            f"{len(differences)} engine counter(s) differ from {BASELINE.name} "
            f"({case}); a change that moves them re-records the file with "
            f"--write and says why",
            file=sys.stderr,
        )
        return 1
    print(f"all {len(COUNTERS)} engine counters equal {BASELINE.name} ({case})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
