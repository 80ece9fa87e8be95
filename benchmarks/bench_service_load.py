"""Campaign-service load benchmark (and CI gate).

Starts a real ``repro-mis serve`` subprocess on an ephemeral port with a
fresh cache, then measures the three service-level acceptance criteria:

1. **warm-path throughput** — concurrent clients submitting duplicate
   jobs must be served >= ``--min-throughput`` cached-or-deduped trial
   units per second (default 1000/s);
2. **duplicate-sweep speedup** — a second identical sweep must finish
   >= ``--min-speedup`` times faster than the cold run (default 10x),
   with every unit served from cache;
3. **bit-identity** — the service's outcome records must be
   byte-for-byte what the in-process ``run_trials`` path produces for
   the same cells.

Exits non-zero if any gate fails; writes the measurements to
``benchmarks/results/BENCH_service.json``.

Run:  PYTHONPATH=src python benchmarks/bench_service_load.py [--quick]
"""

import argparse
import json
import re
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
RESULTS_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_service.json"

sys.path.insert(0, str(SRC))

from repro.service.client import ServiceClient  # noqa: E402

READY_PATTERN = re.compile(r"listening on http://([\d.]+):(\d+)")


class ServeProcess:
    """A ``repro-mis serve`` subprocess on an ephemeral port."""

    def __init__(self, cache_dir: Path, workers: int):
        env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--cache-dir",
                str(cache_dir),
                "--workers",
                str(workers),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        deadline = time.monotonic() + 30
        self.url = None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = READY_PATTERN.search(line)
            if match:
                self.url = f"http://{match.group(1)}:{match.group(2)}"
                return
        self.stop()
        raise RuntimeError("service did not print its readiness line")

    def stop(self):
        if self.proc.poll() is None:
            try:
                ServiceClient(self.url, timeout=5).shutdown()
                self.proc.wait(timeout=10)
            except Exception:
                self.proc.kill()
                self.proc.wait(timeout=10)


def phase_cold_and_duplicate(client, spec):
    """Cold sweep, then the identical sweep; returns both timings."""
    start = time.perf_counter()
    job = client.submit("sweep", spec, client="bench-cold")
    cold_result = client.wait(job["id"], timeout=600)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    dup = client.submit("sweep", spec, client="bench-dup")
    dup_result = client.wait(dup["id"], timeout=60)
    dup_s = time.perf_counter() - start

    descriptor = client.status(dup["id"])
    total = descriptor["total_units"]
    served_warm = descriptor["cached_units"] + descriptor["deduped_units"]
    return {
        "cold_s": cold_s,
        "duplicate_s": dup_s,
        "speedup": cold_s / dup_s if dup_s > 0 else float("inf"),
        "total_units": total,
        "warm_units": served_warm,
        "cold_result": cold_result,
        "duplicate_result": dup_result,
    }


def phase_throughput(url, spec, submissions, threads):
    """Concurrent duplicate submissions; returns units/s served warm."""

    def one(i):
        client = ServiceClient(url, timeout=60)
        job = client.submit("sweep", spec, client=f"bench-tp-{i % 8}")
        result_job = client.wait(job["id"], timeout=60)["job"]
        return (
            result_job["total_units"],
            result_job["cached_units"] + result_job["deduped_units"],
        )

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        outcomes = list(pool.map(one, range(submissions)))
    elapsed = time.perf_counter() - start
    units = sum(total for total, _ in outcomes)
    warm = sum(w for _, w in outcomes)
    return {
        "submissions": submissions,
        "threads": threads,
        "elapsed_s": elapsed,
        "units": units,
        "warm_units": warm,
        "units_per_s": units / elapsed if elapsed > 0 else float("inf"),
    }


def phase_bit_identity(service_result, spec):
    """Recompute one cell in-process and compare records byte-for-byte."""
    from repro.analysis.runner import _outcome_to_record, run_trials
    from repro.analysis.workloads import build_workload
    from repro.catalog import DEFAULT_MODEL, PROFILES, PROTOCOLS
    from repro.radio.models import model_by_name

    protocol = PROTOCOLS[spec["algorithm"]](PROFILES["practical"]())
    model = model_by_name(DEFAULT_MODEL[spec["algorithm"]])
    mismatches = 0
    for cell in service_result["cells"]:
        n = cell["n"]
        summary = run_trials(
            lambda g, n=n: build_workload(spec["topology"], n, g),
            protocol,
            model,
            cell["seeds"],
            jobs=1,
            cache=False,
            graph_spec=f"workload:{spec['topology']}/n={n}",
            faults=False,
            policy=False,
        )
        local = [_outcome_to_record(o) for o in summary.outcomes]
        remote = cell["outcomes"]
        if json.dumps(local, sort_keys=True) != json.dumps(
            remote, sort_keys=True
        ):
            mismatches += 1
    return {"cells": len(service_result["cells"]), "mismatches": mismatches}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI scale: small sweep, fewer submissions"
    )
    parser.add_argument("--min-throughput", type=float, default=1000.0)
    parser.add_argument("--min-speedup", type=float, default=10.0)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    if args.quick:
        spec = {
            "algorithm": "beeping-mis",
            "topology": "gnp",
            "sizes": [16, 24],
            "trials": 5,
            "seed": 0,
        }
        submissions, threads = 40, 8
    else:
        spec = {
            "algorithm": "beeping-mis",
            "topology": "gnp",
            "sizes": [32, 64, 96],
            "trials": 10,
            "seed": 0,
        }
        submissions, threads = 150, 12

    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as tmp:
        server = ServeProcess(Path(tmp) / "cache", args.workers)
        try:
            client = ServiceClient(server.url, timeout=120)
            warm = phase_cold_and_duplicate(client, spec)
            throughput = phase_throughput(server.url, spec, submissions, threads)
            identity = phase_bit_identity(warm["cold_result"], spec)
            stats = client.stats()
        finally:
            server.stop()

    report = {
        "spec": spec,
        "cold_s": round(warm["cold_s"], 4),
        "duplicate_s": round(warm["duplicate_s"], 4),
        "speedup": round(warm["speedup"], 2),
        "throughput": {
            k: round(v, 4) if isinstance(v, float) else v
            for k, v in throughput.items()
        },
        "bit_identity": identity,
        "service_counters": {
            k: v
            for k, v in stats["counters"].items()
            if k.startswith("service.")
        },
        "gates": {
            "min_throughput_units_per_s": args.min_throughput,
            "min_duplicate_speedup": args.min_speedup,
        },
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"cold sweep          : {report['cold_s']:.3f}s ({warm['total_units']} units)")
    print(f"duplicate sweep     : {report['duplicate_s']:.3f}s "
          f"({warm['warm_units']}/{warm['total_units']} served warm)")
    print(f"duplicate speedup   : {report['speedup']:.1f}x (gate: >={args.min_speedup}x)")
    print(f"warm throughput     : {throughput['units_per_s']:.0f} units/s "
          f"(gate: >={args.min_throughput:.0f}/s; {throughput['units']} units "
          f"over {throughput['elapsed_s']:.2f}s, {threads} client threads)")
    print(f"bit identity        : {identity['cells'] - identity['mismatches']}"
          f"/{identity['cells']} cells identical to in-process run_trials")
    print(f"results written to  : {RESULTS_PATH.relative_to(REPO_ROOT)}")

    failures = []
    if warm["warm_units"] != warm["total_units"]:
        failures.append(
            f"duplicate sweep computed {warm['total_units'] - warm['warm_units']} "
            "unit(s) instead of serving them warm"
        )
    if warm["speedup"] < args.min_speedup:
        failures.append(
            f"duplicate speedup {warm['speedup']:.1f}x < {args.min_speedup}x"
        )
    if throughput["units_per_s"] < args.min_throughput:
        failures.append(
            f"throughput {throughput['units_per_s']:.0f}/s < {args.min_throughput:.0f}/s"
        )
    if identity["mismatches"]:
        failures.append(
            f"{identity['mismatches']} cell(s) not bit-identical to run_trials"
        )
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
