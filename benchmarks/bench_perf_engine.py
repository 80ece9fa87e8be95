"""Simulator throughput micro-benchmarks and the engine perf baseline.

Unlike the experiment benches (single pedantic runs of full studies),
these measure the engine's hot path repeatedly, so regressions in the
event loop show up as timing changes:

* dense awake traffic (every node transmits/listens every round) —
  stresses collision resolution;
* sparse awake traffic with huge sleeps — stresses the fast-forward
  scheduler (cost must track awake events, not elapsed rounds);
* a full Algorithm 1 run — the end-to-end common case;
* a full Theorem 10 run (``nocd-energy-mis`` under no-CD) — listen
  windows, transmit schedules and the off-calendar paths, where most of
  ``claims verify --quick``'s engine time goes.

The tracked metric is each scenario's **normalised per-trial time**: the
CPU time of one :func:`repro.radio.engine.run_protocol` call divided by
the CPU time of a fixed pure-Python calibration loop (the body of
``calibrate()`` in ``benchmarks/e2e/run.py``), expressed in units of one
million loop iterations.  Engine and calibration runs alternate in at
least 31 interleaved pairs; the report keeps the median of the per-pair
ratios and their interquartile range as the noise band.  Dividing by the
calibration loop cancels most of the difference between hosts, so a
checked-in baseline can gate CI runners.  The zero-cost promises
(telemetry, no-op fault and churn plans, a C=1 channel wrapper) are
measured the same way, as the median of per-pair ``variant / bare - 1``.

Two entry points:

* ``pytest benchmarks/bench_perf_engine.py`` — the ``test_perf_*``
  functions below, using pytest-benchmark when installed or the plain
  timed-loop fallback fixture from ``conftest.py`` otherwise;
* ``python benchmarks/bench_perf_engine.py [--quick] [--output PATH]
  [--baseline PATH] [--check]`` — standalone CLI that writes
  ``benchmarks/results/BENCH_engine.json`` and can fail when a scenario's
  normalised time rises past the checked-in baseline's by more than
  ``--max-regression``, or an overhead median exceeds its limit.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.analysis.workloads import build_workload
from repro.constants import ConstantsProfile
from repro.core import CDMISProtocol, NoCDEnergyMISProtocol
from repro.faults import ChurnPlan, FaultPlan
from repro.graphs import gnp_random_graph
from repro.radio import CD, NO_CD, Listen, Protocol, Sleep, Transmit, run_protocol
from repro.radio.models import MultichannelModel

RESULTS_DIR = Path(__file__).parent / "results"
DEFAULT_OUTPUT = RESULTS_DIR / "BENCH_engine.json"

#: JSON schema tag, bumped on layout changes.
#: /2 adds the ``telemetry_overhead`` section (obs instrumentation cost).
#: /3 adds the ``fault_overhead`` section (no-op FaultPlan fast-path cost).
#: /4 adds the ``batch_throughput`` section (vectorized batch backend vs
#:    per-trial scalar execution on a dense same-cell battery).
#: /5 adds the ``large_n`` section (an E1 cell at n=10^5 on the
#:    batch engine, gated on wall time and peak RSS per node).
#: /6 adds the ``churn_overhead`` section (no-op ChurnPlan static-path
#:    cost: the dynamic-topology layer must not slow churn-free runs).
#: /7 adds the ``multichannel_overhead`` section (a C=1
#:    MultichannelModel wrapper must keep the single-channel fast path).
#: /8 replaces the speedup over the old reference engine with a
#:    normalised per-trial time, and every timed section reports the
#:    median and IQR of interleaved per-pair ratios.
SCHEMA = "bench-engine/8"

#: Interleaved pairs per timed measurement.  The gates read the median
#: of per-pair ratios, so the pair count sets how much host noise
#: reaches them: on a 2-vCPU host, five repeats of the four overhead
#: sections read medians from -4.9% to +5.1% at 15 pairs, and from
#: -1.6% to +0.8% at 31, well inside the 5% limits.
PAIRS_QUICK = 31
PAIRS_FULL = 63

#: Normalised times are in units of this many calibration-loop
#: iterations: one call of the e2e harness's ``calibrate()``.
CALIBRATION_UNIT = 1_000_000

#: Re-measurable report sections (--section re-runs exactly one of these
#: and splices it into the existing report, leaving the rest untouched).
SECTIONS = (
    "scenarios",
    "telemetry_overhead",
    "fault_overhead",
    "churn_overhead",
    "multichannel_overhead",
    "batch_throughput",
    "large_n",
)

#: Ceiling on what the channel dimension may cost single-channel runs:
#: a C=1 :class:`~repro.radio.models.MultichannelModel` wrapper (and,
#: transitively, the channel plumbing in the round loop) must stay
#: within this fraction of the bare single-channel time.  Gated under
#: ``--check`` as an absolute budget, like the large-n limits.
MULTICHANNEL_OVERHEAD_LIMIT = 0.05

#: Acceptance floor for the batched backend: >= 10x single-thread
#: throughput over the scalar engine on the dense same-cell battery
#: (gated under --check with the --max-regression allowance).
BATCH_SPEEDUP_TARGET = 10.0

#: The large-n E1 cell: Algorithm 1 on the sparse gnp workload at
#: n=10^5, run as one batched battery through ``run_trials`` — the same
#: path the claims sweeps take.  The section runs in a subprocess so
#: ``ru_maxrss`` measures exactly this cell's high-water mark.
LARGE_N_NODES = 100_000
LARGE_N_TRIALS = 4
#: Wall-time ceiling for the cell (graph generation + simulation +
#: validation), gated under ``--check``.  Budget chosen ~4x over the
#: measured time on a dev container so slow CI runners pass.
LARGE_N_WALL_LIMIT_S = 240.0
#: Peak incremental memory per node-trial slot, gated under ``--check``.
#: The batch engine's state is a fixed set of int64/uint64 arrays per
#: slot plus the CSR graphs; the budget is ~3x the measured footprint so
#: a Python-object-per-node regression (kilobytes per node) still trips.
LARGE_N_BYTES_PER_SLOT_LIMIT = 2048.0


class DenseTraffic(Protocol):
    """Every node alternates transmit/listen for ``rounds`` rounds."""

    name = "dense-traffic"

    def __init__(self, rounds: int):
        self.rounds = rounds

    def run(self, ctx):
        for index in range(self.rounds):
            if (index + ctx.node) % 2:
                yield Transmit()
            else:
                yield Listen()


class SparseTraffic(Protocol):
    """Each node wakes ``beats`` times, sleeping 10^5 rounds between."""

    name = "sparse-traffic"

    def __init__(self, beats: int):
        self.beats = beats

    def run(self, ctx):
        for _ in range(self.beats):
            yield Sleep(100_000)
            yield Listen()


# ----------------------------------------------------------------------
# Scenario definitions (shared by the pytest functions and the CLI)
# ----------------------------------------------------------------------

def _dense_scenario():
    graph = gnp_random_graph(200, 0.1, seed=1)
    protocol = DenseTraffic(rounds=50)
    params = {"graph": "gnp(200, 0.1, seed=1)", "protocol": "dense-traffic(50)",
              "model": "cd", "seed": 1}
    return graph, protocol, CD, 1, params


def _sparse_scenario():
    graph = gnp_random_graph(100, 0.1, seed=2)
    protocol = SparseTraffic(beats=20)
    params = {"graph": "gnp(100, 0.1, seed=2)", "protocol": "sparse-traffic(20)",
              "model": "cd", "seed": 2}
    return graph, protocol, CD, 2, params


def _algorithm1_scenario():
    graph = gnp_random_graph(256, 8.0 / 255.0, seed=3)
    protocol = CDMISProtocol(constants=ConstantsProfile.practical())
    params = {"graph": "gnp(256, 8/255, seed=3)", "protocol": "cd-mis(practical)",
              "model": "cd", "seed": 3}
    return graph, protocol, CD, 3, params


def _nocd_scenario():
    graph = build_workload("gnp", 96, seed=0)
    protocol = NoCDEnergyMISProtocol(constants=ConstantsProfile.practical())
    params = {"graph": "gnp workload, n=96, seed=0",
              "protocol": "nocd-energy-mis(practical)", "model": "no-cd", "seed": 2}
    return graph, protocol, NO_CD, 2, params


#: name -> (factory, calibration-loop iterations).  Each count is sized
#: so one calibration call takes about as long as one run of the
#: scenario (2-vCPU x86-64 host, Python 3.11), so both sides of a pair
#: see the same stretch of host noise.
SCENARIOS = {
    "dense_collision_resolution": (_dense_scenario, 200_000),
    "sleep_fast_forward": (_sparse_scenario, 50_000),
    "algorithm1_end_to_end": (_algorithm1_scenario, 150_000),
    "nocd_end_to_end": (_nocd_scenario, 600_000),
}

#: The scenario whose variants the overhead sections time.
OVERHEAD_SCENARIO = "dense_collision_resolution"

#: The zero-cost promises: section -> (label, ``run_protocol`` keywords
#: that differ from the bare dense run).  Each must cost at most its
#: limit (see ``check``) over the bare run.
OVERHEAD_VARIANTS = {
    "telemetry_overhead": ("telemetry=True", {"telemetry": True}),
    "fault_overhead": ("faults=FaultPlan()", {"faults": FaultPlan()}),
    "churn_overhead": (
        "faults=FaultPlan(churn=ChurnPlan())",
        {"faults": FaultPlan(churn=ChurnPlan())},
    ),
    "multichannel_overhead": (
        "model=MultichannelModel(CD, 1)",
        {"model": MultichannelModel(CD, 1)},
    ),
}


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

def test_perf_dense_collision_resolution(benchmark):
    graph, protocol, model, seed, _ = _dense_scenario()

    result = benchmark(lambda: run_protocol(graph, protocol, model, seed=seed))
    assert result.rounds == 50
    # 200 nodes x 50 awake rounds, all accounted.
    assert result.total_energy == 200 * 50


def test_perf_sleep_fast_forward(benchmark):
    graph, protocol, model, seed, _ = _sparse_scenario()

    result = benchmark(lambda: run_protocol(graph, protocol, model, seed=seed))
    # 2 million simulated rounds, only 20 awake each.
    assert result.rounds == 20 * 100_001
    assert result.max_energy == 20


def test_perf_algorithm1_end_to_end(benchmark, constants):
    graph = gnp_random_graph(256, 8.0 / 255.0, seed=3)
    protocol = CDMISProtocol(constants=constants)

    result = benchmark(lambda: run_protocol(graph, protocol, CD, seed=3))
    assert result.is_valid_mis()


def test_perf_nocd_end_to_end(benchmark):
    graph, protocol, model, seed, _ = _nocd_scenario()

    result = benchmark(lambda: run_protocol(graph, protocol, model, seed=seed))
    assert result.is_valid_mis()


def test_perf_noop_fault_plan(benchmark):
    """Dense traffic with an empty FaultPlan — the fault layer promises
    a zero-overhead fast path (a no-op plan normalizes away before the
    round loop; the CLI bench gates it at --max-fault-overhead)."""
    graph, protocol, model, seed, _ = _dense_scenario()
    plan = FaultPlan()

    result = benchmark(
        lambda: run_protocol(graph, protocol, model, seed=seed, faults=plan)
    )
    assert result.rounds == 50
    assert result == run_protocol(graph, protocol, model, seed=seed)


def test_perf_noop_churn_plan(benchmark):
    """Dense traffic with a default ChurnPlan in the FaultPlan — the
    dynamic-topology layer promises the same zero-overhead fast path as
    the other fault knobs (a churn plan that changes nothing normalizes
    away before the round loop; the CLI bench gates it together with
    --max-fault-overhead)."""
    graph, protocol, model, seed, _ = _dense_scenario()
    plan = FaultPlan(churn=ChurnPlan())

    result = benchmark(
        lambda: run_protocol(graph, protocol, model, seed=seed, faults=plan)
    )
    assert result.rounds == 50
    assert result == run_protocol(graph, protocol, model, seed=seed)


def test_perf_multichannel_single_channel(benchmark):
    """Dense traffic through a C=1 MultichannelModel wrapper — the
    channel layer promises single-channel transparency: same result,
    and near-zero cost (the CLI bench gates the measured fraction)."""
    graph, protocol, model, seed, _ = _dense_scenario()
    wrapped = MultichannelModel(model, 1)

    result = benchmark(lambda: run_protocol(graph, protocol, wrapped, seed=seed))
    assert result.rounds == 50
    assert result == run_protocol(graph, protocol, model, seed=seed)


def test_perf_telemetry_enabled(benchmark):
    """Dense traffic with telemetry on — compare against the plain
    dense scenario to see the instrumentation cost (the CLI bench gates
    it at --max-overhead)."""
    graph, protocol, model, seed, _ = _dense_scenario()

    result = benchmark(
        lambda: run_protocol(graph, protocol, model, seed=seed, telemetry=True)
    )
    tel = result.telemetry
    assert tel is not None
    assert tel.rounds_processed == (
        tel.zero_tx_rounds + tel.one_tx_rounds + tel.scatter_dict_rounds
    )


# ----------------------------------------------------------------------
# Standalone CLI
# ----------------------------------------------------------------------

def _calibration_loop(iterations):
    """The body of ``calibrate()`` in ``benchmarks/e2e/run.py``, scaled."""
    total = 0
    for value in range(iterations):
        total += value * value % 7
    return total


def _paired_times(base, other, pairs):
    """CPU seconds of ``base()`` and ``other()`` over interleaved pairs.

    Each pair runs both callables back to back, alternating which goes
    first, so a drift in host speed lands on both sides of a pair.
    Returns ``[(base_s, other_s), ...]``, one tuple per pair.
    """
    base()  # warm: imports, lazy scatter arrays, allocator
    other()
    times = []
    for index in range(pairs):
        elapsed = {}
        for fn in (base, other) if index % 2 == 0 else (other, base):
            start = time.process_time()
            fn()
            elapsed[fn] = time.process_time() - start
        times.append((elapsed[base], elapsed[other]))
    return times


def _ratio_stats(times, scale=1.0):
    """Median and IQR of the per-pair ratios ``other / base``, times
    ``scale``, with the median CPU seconds of each side."""
    ratios = [scale * other / base for base, other in times]
    first, _, third = statistics.quantiles(ratios, n=4)
    return {
        "pairs": len(times),
        "median": statistics.median(ratios),
        "iqr": third - first,
        "base_s": statistics.median(base for base, _ in times),
        "other_s": statistics.median(other for _, other in times),
    }


def measure_scenarios(pairs):
    """Normalised per-trial time of every scenario; return the section.

    ``normalised`` is the median over interleaved pairs of one engine
    run's CPU time divided by one calibration call's, in units of
    :data:`CALIBRATION_UNIT` loop iterations; ``iqr`` is the spread of
    the same per-pair ratios.
    """
    return {name: measure_scenario(name, pairs) for name in SCENARIOS}


def measure_scenario(name, pairs):
    """One scenario's entry of the ``scenarios`` section."""
    factory, iterations = SCENARIOS[name]
    graph, protocol, model, seed, params = factory()
    stats = _ratio_stats(
        _paired_times(
            lambda: _calibration_loop(iterations),
            lambda: run_protocol(graph, protocol, model, seed=seed),
            pairs,
        ),
        scale=iterations / CALIBRATION_UNIT,
    )
    return {
        "params": params,
        "pairs": stats["pairs"],
        "calibration_iterations": iterations,
        "engine_cpu_s": round(stats["other_s"], 6),
        "calibration_cpu_s": round(stats["base_s"], 6),
        "normalised": round(stats["median"], 4),
        "iqr": round(stats["iqr"], 4),
    }


def measure_overhead(section, pairs):
    """Median per-pair cost of one zero-cost promise on the dense scenario.

    The variant (see :data:`OVERHEAD_VARIANTS`) must normalise to the
    bare run's fast path: a no-op fault or churn plan becomes
    ``faults=None``, a C=1 channel wrapper keeps the single-channel
    round loop, and telemetry is a few per-round integer increments.
    ``overhead_frac`` is the median of per-pair ``variant / bare - 1``.
    """
    label, changes = OVERHEAD_VARIANTS[section]
    graph, protocol, model, seed, _ = _dense_scenario()
    variant = {"model": model, "seed": seed, **changes}
    stats = _ratio_stats(
        _paired_times(
            lambda: run_protocol(graph, protocol, model, seed=seed),
            lambda: run_protocol(graph, protocol, **variant),
            pairs,
        )
    )
    return {
        "scenario": OVERHEAD_SCENARIO,
        "variant": label,
        "pairs": stats["pairs"],
        "bare_cpu_s": round(stats["base_s"], 6),
        "variant_cpu_s": round(stats["other_s"], 6),
        "overhead_frac": round(stats["median"] - 1.0, 4),
        "iqr": round(stats["iqr"], 4),
    }


def measure(quick=False, sections=None):
    """Measure the requested sections (all by default); return the report."""
    pairs = PAIRS_QUICK if quick else PAIRS_FULL
    chosen = SECTIONS if sections is None else tuple(sections)
    report = {
        "schema": SCHEMA,
        "mode": "quick" if quick else "full",
        "python": sys.version.split()[0],
    }
    if "scenarios" in chosen:
        report["scenarios"] = measure_scenarios(pairs)
    for section in OVERHEAD_VARIANTS:
        if section in chosen:
            report[section] = measure_overhead(section, pairs)
    if "batch_throughput" in chosen:
        report["batch_throughput"] = measure_batch_throughput(quick=quick)
    if "large_n" in chosen:
        report["large_n"] = measure_large_n(quick=quick)
    return report


def _best_of(fn, repetitions):
    """Minimum wall time over ``repetitions`` calls (min rejects noise)."""
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def measure_batch_throughput(quick=False):
    """Batched-backend throughput vs per-trial scalar execution.

    One dense same-cell battery — Algorithm 1 (practical constants) on a
    shared gnp(200, 0.1) topology — is run both ways: the scalar engine
    trial by trial (with validation, as ``run_trials`` would), and the
    vectorized batch engine over the whole battery at once (validation
    included in :func:`repro.radio.batch.engine.run_batch`).  The
    headline is the per-trial throughput ratio, gated at
    ``BATCH_SPEEDUP_TARGET`` under ``--check``.  The section also
    captures one recorded run's ``engine.batch.*`` telemetry counters.
    """
    try:
        import numpy  # noqa: F401
    except ImportError:
        return {"skipped": "numpy unavailable"}
    from repro.analysis.validation import validate_run
    from repro.obs.registry import Registry, recording
    from repro.radio.batch.engine import run_batch

    graph = gnp_random_graph(200, 0.1, seed=7)
    protocol = CDMISProtocol(constants=ConstantsProfile.practical())
    batch_size = 64 if quick else 256
    scalar_trials = 8 if quick else 16
    seeds = list(range(batch_size))

    def scalar_battery():
        for seed in seeds[:scalar_trials]:
            validate_run(run_protocol(graph, protocol, CD, seed=seed))

    def batch_battery():
        run_batch(graph, protocol, CD, seeds)

    batch_battery()  # warm: table compilation, kernel buffers
    scalar_s = _best_of(scalar_battery, 1 if quick else 2)
    batch_s = _best_of(batch_battery, 2 if quick else 3)
    with recording(Registry()) as registry:
        batch_battery()
    counters = {
        name: value
        for name, value in registry.snapshot().get("counters", {}).items()
        if name.startswith("engine.batch.")
    }
    scalar_per_trial = scalar_s / scalar_trials
    batch_per_trial = batch_s / batch_size
    return {
        "params": {
            "graph": "gnp(200, 0.1, seed=7)",
            "protocol": "cd-mis(practical)",
            "model": "cd",
        },
        "batch_size": batch_size,
        "scalar_trials": scalar_trials,
        "scalar_per_trial_s": round(scalar_per_trial, 6),
        "batch_per_trial_s": round(batch_per_trial, 6),
        "speedup": round(scalar_per_trial / batch_per_trial, 3),
        "target_speedup": BATCH_SPEEDUP_TARGET,
        "counters": counters,
    }


def _large_n_worker(payload):
    """Child-process body of the ``large_n`` section.

    Runs one E1-style cell and prints a JSON record including its own
    ``ru_maxrss`` high-water mark.  Running in a fresh interpreter keeps
    the measurement honest: the parent's other sections (dense
    batteries, timing pairs) never inflate the peak.
    """
    import resource

    from repro.analysis.runner import run_trials
    from repro.analysis.workloads import build_workload
    from repro.radio.models import CD

    spec = json.loads(payload)
    n, trials = spec["n"], spec["trials"]
    # High-water mark after imports but before any graph exists: the
    # interpreter + numpy baseline, subtracted out of the per-slot cost.
    baseline_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    protocol = CDMISProtocol(constants=ConstantsProfile.practical())
    seeds = list(range(trials))
    start = time.perf_counter()
    summary = run_trials(
        lambda seed: build_workload("gnp", n, seed),
        protocol,
        CD,
        seeds,
        engine="batch",
    )
    wall_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "wall_s": round(wall_s, 3),
                "baseline_rss_kb": baseline_kb,
                "peak_rss_kb": peak_kb,
                "trials": summary.trials,
                "failures": summary.failures,
            }
        )
    )
    return 0


def measure_large_n(quick=False):
    """The million-node regime's CI anchor: one E1 cell at n=10^5.

    Spawns a subprocess (see :func:`_large_n_worker`) so peak RSS is the
    cell's own.  Reports wall time, incremental peak memory per
    node-trial slot, and the validation outcome; ``--check`` gates the
    first two against :data:`LARGE_N_WALL_LIMIT_S` and
    :data:`LARGE_N_BYTES_PER_SLOT_LIMIT` and fails on any invalid MIS.
    """
    import subprocess

    n = LARGE_N_NODES
    trials = 2 if quick else LARGE_N_TRIALS
    payload = json.dumps({"n": n, "trials": trials})
    proc = subprocess.run(
        [sys.executable, __file__, "--_large-n-worker", payload],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return {
            "params": {"n": n, "trials": trials},
            "error": (proc.stderr or proc.stdout).strip()[-2000:],
        }
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    incremental_kb = record["peak_rss_kb"] - record["baseline_rss_kb"]
    bytes_per_slot = 1024.0 * incremental_kb / (n * trials)
    return {
        "params": {
            "workload": f"gnp(n={n}, expected degree 8)",
            "protocol": "cd-mis(practical)",
            "model": "cd",
            "engine": "batch",
            "n": n,
            "trials": trials,
        },
        "wall_s": record["wall_s"],
        "baseline_rss_kb": record["baseline_rss_kb"],
        "peak_rss_kb": record["peak_rss_kb"],
        "bytes_per_slot": round(bytes_per_slot, 1),
        "failures": record["failures"],
        "wall_limit_s": LARGE_N_WALL_LIMIT_S,
        "bytes_per_slot_limit": LARGE_N_BYTES_PER_SLOT_LIMIT,
    }


def _overhead_limits(max_overhead, max_fault_overhead):
    """Each overhead section's limit (``None``: not gated)."""
    return {
        "telemetry_overhead": max_overhead,
        "fault_overhead": max_fault_overhead,
        "churn_overhead": max_fault_overhead,
        "multichannel_overhead": MULTICHANNEL_OVERHEAD_LIMIT,
    }


def check(report, baseline, max_regression, max_overhead=None,
          max_fault_overhead=None):
    """Every gate of ``--check``; returns failure messages (empty = pass).

    * A baseline scenario fails when it is missing from ``report`` or its
      normalised time exceeds the baseline's by more than
      ``max_regression`` (a fraction).
    * An overhead section fails when its median exceeds its limit:
      ``max_overhead`` for telemetry, ``max_fault_overhead`` for the
      no-op fault and churn plans (either skipped when ``None``), and
      :data:`MULTICHANNEL_OVERHEAD_LIMIT` for the C=1 wrapper.
    * ``batch_throughput`` and ``large_n`` have absolute budgets.
    """
    failures = []
    scenarios = report.get("scenarios", {})
    for name, entry in baseline.get("scenarios", {}).items():
        current = scenarios.get(name)
        if current is None:
            failures.append(f"{name}: missing from current run")
            continue
        ceiling = entry["normalised"] * (1.0 + max_regression)
        if current["normalised"] > ceiling:
            failures.append(
                f"{name}: normalised time {current['normalised']:.4f} exceeds "
                f"{ceiling:.4f} (baseline {entry['normalised']:.4f} "
                f"+ {max_regression:.0%} allowance)"
            )
    limits = _overhead_limits(max_overhead, max_fault_overhead)
    for section, limit in limits.items():
        entry = report.get(section)
        if limit is not None and entry is not None and (
            entry["overhead_frac"] > limit
        ):
            failures.append(
                f"{section}: {entry['variant']} costs "
                f"{entry['overhead_frac']:+.1%} (median of {entry['pairs']} "
                f"pairs), over the {limit:.0%} limit"
            )
    batch = report.get("batch_throughput")
    if batch is not None and "speedup" in batch:
        # An absolute floor, not a baseline delta: the batched
        # backend's acceptance criterion is >= 10x single-thread
        # throughput, softened by the regression allowance.
        floor = BATCH_SPEEDUP_TARGET * (1.0 - max_regression)
        if batch["speedup"] < floor:
            failures.append(
                f"batch_throughput: speedup {batch['speedup']:.2f}x fell "
                f"below {floor:.2f}x (target "
                f"{BATCH_SPEEDUP_TARGET:.0f}x - "
                f"{max_regression:.0%} allowance)"
            )
    large_n = report.get("large_n")
    if large_n is not None:
        # Absolute budgets: the section exists to keep the n=10^5 regime
        # affordable, so a silently slower or fatter path must fail CI
        # rather than drift.
        if "wall_s" not in large_n:
            failures.append(
                f"large_n: cell crashed: {large_n.get('error', '?')[:500]}"
            )
        else:
            if large_n["wall_s"] > LARGE_N_WALL_LIMIT_S:
                failures.append(
                    f"large_n: wall {large_n['wall_s']:.1f}s exceeds "
                    f"{LARGE_N_WALL_LIMIT_S:.0f}s budget"
                )
            if large_n["bytes_per_slot"] > LARGE_N_BYTES_PER_SLOT_LIMIT:
                failures.append(
                    f"large_n: peak {large_n['bytes_per_slot']:.0f} "
                    f"bytes/slot exceeds "
                    f"{LARGE_N_BYTES_PER_SLOT_LIMIT:.0f} budget"
                )
            if large_n["failures"]:
                failures.append(
                    f"large_n: {large_n['failures']} invalid MIS "
                    f"trial(s) at n={large_n['params']['n']}"
                )
    return failures


def gate_noise(report, baseline, max_regression, max_overhead=None,
               max_fault_overhead=None):
    """Each timed gate's noise beside its limit, as fractions.

    Returns ``[(gate, iqr, limit), ...]``: for a scenario, this run's
    IQR over its median against ``max_regression``; for an overhead
    section, its IQR against its limit (sections whose limit is unset
    are left out).  A gate whose limit is below its own IQR cannot tell
    a regression from noise, so ``main`` names it.
    """
    rows = []
    scenarios = report.get("scenarios", {})
    for name in baseline.get("scenarios", {}):
        entry = scenarios.get(name)
        if entry is not None and entry.get("normalised"):
            rows.append((name, entry["iqr"] / entry["normalised"], max_regression))
    for section, limit in _overhead_limits(max_overhead, max_fault_overhead).items():
        entry = report.get(section)
        if limit is not None and entry is not None:
            rows.append((section, entry["iqr"], limit))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--_large-n-worker"]:
        return _large_n_worker(argv[1])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"{PAIRS_QUICK} timing pairs instead of "
                             f"{PAIRS_FULL}, smaller batch and large-n "
                             f"cells; CI smoke mode")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"report path (default: {DEFAULT_OUTPUT})")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_OUTPUT,
                        help="baseline report to compare against with --check")
    parser.add_argument("--check", action="store_true",
                        help="fail if any scenario's normalised time rises "
                             "past --max-regression over the baseline's, or "
                             "an overhead median exceeds its limit")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed fractional rise in normalised time "
                             "(default 0.30)")
    parser.add_argument("--max-overhead", type=float, default=None,
                        metavar="FRAC",
                        help="with --check, also fail if telemetry overhead "
                             "exceeds this fraction (e.g. 0.05 for 5%%)")
    parser.add_argument("--max-fault-overhead", type=float, default=None,
                        metavar="FRAC",
                        help="with --check, also fail if a no-op FaultPlan "
                             "costs more than this fraction over faults=None")
    parser.add_argument("--section", choices=SECTIONS, default=None,
                        help="re-measure only this report section and splice "
                             "it into the existing --output file, leaving the "
                             "other sections untouched")
    args = parser.parse_args(argv)

    baseline = None
    if args.check:
        # Read before writing: output and baseline may be the same file.
        baseline = json.loads(args.baseline.read_text())

    if args.section is not None:
        if not args.output.exists():
            print(
                f"--section requires an existing report at {args.output} "
                f"to splice into; run once without --section first",
                file=sys.stderr,
            )
            return 2
        report = json.loads(args.output.read_text())
        fresh = measure(quick=args.quick, sections=[args.section])
        report[args.section] = fresh[args.section]
        report["schema"] = SCHEMA
    else:
        report = measure(quick=args.quick)

    for name, entry in report.get("scenarios", {}).items():
        print(
            f"{name}: engine {entry['engine_cpu_s'] * 1e3:.2f}ms  "
            f"normalised {entry['normalised']:.4f} "
            f"(IQR {entry['iqr']:.4f}, {entry['pairs']} pairs)"
        )
    for section in OVERHEAD_VARIANTS:
        entry = report.get(section)
        if entry is not None:
            print(
                f"{section}: bare {entry['bare_cpu_s'] * 1e3:.2f}ms  "
                f"{entry['variant']} {entry['variant_cpu_s'] * 1e3:.2f}ms  "
                f"overhead {entry['overhead_frac']:+.1%} "
                f"(IQR {entry['iqr']:.1%}, {entry['pairs']} pairs)"
            )
    batch = report.get("batch_throughput")
    if batch is not None and "speedup" in batch:
        print(
            f"batch throughput: scalar "
            f"{batch['scalar_per_trial_s'] * 1e3:.2f}ms/trial  batch "
            f"{batch['batch_per_trial_s'] * 1e3:.2f}ms/trial "
            f"(B={batch['batch_size']})  speedup {batch['speedup']:.2f}x "
            f"(target {batch['target_speedup']:.0f}x)"
        )
    large_n = report.get("large_n")
    if large_n is not None and "wall_s" in large_n:
        print(
            f"large_n: n={large_n['params']['n']} x "
            f"{large_n['params']['trials']} trials in "
            f"{large_n['wall_s']:.1f}s (limit {large_n['wall_limit_s']:.0f}s)"
            f"  peak {large_n['bytes_per_slot']:.0f} B/slot "
            f"(limit {large_n['bytes_per_slot_limit']:.0f})  "
            f"failures {large_n['failures']}"
        )
    elif large_n is not None and "error" in large_n:
        print(f"large_n: FAILED\n{large_n['error']}", file=sys.stderr)

    args.output.parent.mkdir(exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if baseline is not None:
        noise = gate_noise(
            report,
            baseline,
            args.max_regression,
            max_overhead=args.max_overhead,
            max_fault_overhead=args.max_fault_overhead,
        )
        print("gate noise (this run's IQR beside each limit):")
        for gate, iqr, limit in noise:
            flag = "  limit narrower than its noise" if limit < iqr else ""
            print(f"  {gate:<28} IQR {iqr:6.1%}  limit {limit:4.0%}{flag}")
        noisy = [gate for gate, iqr, limit in noise if limit < iqr]
        if noisy:
            print(
                f"{len(noisy)} gate(s) narrower than their own noise, so a "
                f"pass or failure there does not tell: {', '.join(noisy)}"
            )
        failures = check(
            report,
            baseline,
            args.max_regression,
            max_overhead=args.max_overhead,
            max_fault_overhead=args.max_fault_overhead,
        )
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}", file=sys.stderr)
            return 1
        print(f"regression check passed (allowance {args.max_regression:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
