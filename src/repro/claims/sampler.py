"""Adaptive measurement collection for claims.

Each workload kind has a collector that pulls one *batch* of trials
through the existing :mod:`repro.exec` stack (process pool, content-
addressed result cache, retry policy all apply), folds the outcomes
into a :class:`~repro.claims.spec.Measurements` container, and returns
how many new trials ran.  :func:`collect_measurements` then loops:
evaluate every predicate of every claim sharing the workload, stop when
all are decided (converged), when the workload's batch cap is reached,
or when the trial budget is exhausted.

Seed discipline: a trial's seed depends only on its (workload, cell,
trial-index) labels via :func:`repro.exec.seeds.derive_seed` — never on
batch boundaries — so re-running with a larger budget resumes from the
result cache instead of resampling, and ``--resume`` is free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.runner import TrialSummary, run_trials
from ..analysis.workloads import build_workload
from ..catalog import DEFAULT_MODEL, make_protocol
from ..constants import ConstantsProfile
from ..errors import ConfigurationError
from ..exec.cache import trial_key
from ..exec.executor import (
    ProgressCallback,
    get_execution_defaults,
    make_executor,
)
from ..exec.seeds import derive_seed
from ..obs.registry import get_registry
from ..radio.models import model_by_name
from .spec import (
    BackoffWorkload,
    BudgetWorkload,
    ChannelSweepWorkload,
    ChurnWorkload,
    Claim,
    EvalContext,
    HarnessWorkload,
    Measurements,
    PairedWorkload,
    RateWorkload,
    SweepWorkload,
)

__all__ = ["SamplerConfig", "collect_measurements"]


@dataclass
class SamplerConfig:
    """Sampling settings shared by every collector (execution settings
    come from the installed :class:`~repro.exec.executor.ExecutionDefaults`)."""

    constants: ConstantsProfile
    budget: Optional[int] = None  # max trials per workload group
    base_seed: int = 0
    progress: Optional[ProgressCallback] = None


def _protocol(name: str, constants: ConstantsProfile):
    return make_protocol(name, constants), DEFAULT_MODEL[name]


def _cell_seeds(
    config: SamplerConfig, label: str, start: int, stop: int
) -> List[int]:
    return [
        derive_seed(config.base_seed, f"claims/{label}/t={index}")
        for index in range(start, stop)
    ]


def _batch_range(first: int, batch: int, index: int) -> Tuple[int, int]:
    """Trial-index window [start, stop) of batch ``index``."""
    if index == 0:
        return 0, first
    return first + (index - 1) * batch, first + index * batch


def _fold_sweep_summary(
    measurements: Measurements, protocol: str, n: int, summary: TrialSummary
) -> None:
    measurements.add_sweep_values(
        protocol,
        n,
        {
            "max_energy": [o.max_energy for o in summary.outcomes],
            "mean_energy": [o.mean_energy for o in summary.outcomes],
            "rounds": [o.rounds for o in summary.outcomes],
        },
    )
    measurements.trials_used += len(summary.outcomes)


def _collect_sweep_batch(
    workload: SweepWorkload,
    measurements: Measurements,
    batch_index: int,
    config: SamplerConfig,
) -> int:
    start, stop = _batch_range(workload.trials, workload.batch, batch_index)
    added = 0
    for name in workload.protocols:
        protocol, model_name = _protocol(name, config.constants)
        measurements.models[name] = model_name
        model = model_by_name(model_name)
        for n in workload.sizes:
            label = f"sweep/{workload.topology}/{name}/n={n}"
            seeds = _cell_seeds(config, label, start, stop)
            if not seeds:
                continue
            summary = run_trials(
                lambda seed, n=n: build_workload(workload.topology, n, seed),
                protocol,
                model,
                seeds,
                graph_spec=f"claims:{workload.topology}/n={n}",
                progress=config.progress,
            )
            _fold_sweep_summary(measurements, name, n, summary)
            added += len(summary.outcomes)
    return added


def _collect_rate_batch(
    workload: RateWorkload,
    measurements: Measurements,
    batch_index: int,
    config: SamplerConfig,
) -> int:
    start, stop = _batch_range(workload.trials, workload.batch, batch_index)
    added = 0
    for name in workload.protocols:
        protocol, model_name = _protocol(name, config.constants)
        measurements.models[name] = model_name
        model = model_by_name(model_name)
        label = f"rate/{workload.topology}/{name}/n={workload.n}"
        seeds = _cell_seeds(config, label, start, stop)
        if not seeds:
            continue
        summary = run_trials(
            lambda seed: build_workload(workload.topology, workload.n, seed),
            protocol,
            model,
            seeds,
            graph_spec=f"claims:{workload.topology}/n={workload.n}",
            progress=config.progress,
        )
        cell = measurements.cell(f"rate/{name}")
        cell["events"] = cell.get("events", 0) + summary.failures
        cell["trials"] = cell.get("trials", 0) + summary.trials
        cell["n"] = workload.n
        measurements.trials_used += summary.trials
        added += summary.trials
    return added


def _collect_budget_batch(
    workload: BudgetWorkload,
    measurements: Measurements,
    batch_index: int,
    config: SamplerConfig,
) -> int:
    from ..lowerbound import SynchronizedCoinStrategy
    from ..lowerbound.analytic import (
        sync_coin_failure,
        theorem1_failure_lower_bound,
    )
    from ..lowerbound.hard_instance import hard_instance
    from ..radio.models import CD

    start, stop = _batch_range(workload.trials, workload.batch, batch_index)
    graph = hard_instance(workload.n)
    added = 0
    for budget in workload.budgets:
        label = f"thm1/n={workload.n}/b={budget}"
        seeds = _cell_seeds(config, label, start, stop)
        if not seeds:
            continue
        summary = run_trials(
            lambda seed: graph,
            SynchronizedCoinStrategy(budget),
            CD,
            seeds,
            graph_spec=f"claims:hard/n={workload.n}",
            progress=config.progress,
        )
        cell = measurements.cell(f"thm1/b={budget}")
        cell["events"] = cell.get("events", 0) + summary.failures
        cell["trials"] = cell.get("trials", 0) + summary.trials
        cell["b"] = budget
        cell["n"] = workload.n
        cell["bound"] = theorem1_failure_lower_bound(workload.n, budget)
        cell["coin_exact"] = sync_coin_failure(workload.n, budget)
        measurements.trials_used += summary.trials
        added += summary.trials
    return added


def _collect_backoff_batch(
    workload: BackoffWorkload,
    measurements: Measurements,
    batch_index: int,
    config: SamplerConfig,
) -> int:
    from ..analysis.experiments.backoff_probe import BackoffProbe
    from ..core.backoff import backoff_slots
    from ..graphs.generators import star_graph
    from ..radio.engine import run_protocol
    from ..radio.models import NO_CD

    start, stop = _batch_range(workload.trials, workload.batch, batch_index)
    graph = star_graph(workload.delta + 1)
    defaults = get_execution_defaults()
    executor = make_executor(defaults.jobs)
    added = 0
    for k in workload.k_values:
        for senders in workload.sender_counts:
            if senders > workload.delta:
                continue
            probe = BackoffProbe(k=k, delta=workload.delta, senders=senders)

            def run_one(seed, probe=probe, senders=senders):
                result = run_protocol(graph, probe, NO_CD, seed=seed)
                sender_awake = [
                    result.node_stats[node].awake_rounds
                    for node in range(1, senders + 1)
                ]
                return {
                    "heard": bool(result.node_info[0].get("heard")),
                    "receiver_energy": result.node_stats[0].awake_rounds,
                    "sender_energy_max": max(sender_awake, default=0),
                    "sender_energy_min": min(sender_awake, default=0),
                }

            label = f"backoff/d={workload.delta}/k={k}/s={senders}"
            seeds = _cell_seeds(config, label, start, stop)
            if not seeds:
                continue
            records = executor.execute(
                run_one,
                seeds,
                cache=defaults.cache,
                key_for=lambda seed, probe=probe: trial_key(
                    protocol=probe,
                    model_name="no-cd",
                    graph_spec=f"claims:star/delta={workload.delta}",
                    seed=seed,
                ),
                encode=lambda record: dict(record),
                decode=lambda record: dict(record),
                progress=config.progress,
            )
            records = [r for r in records if isinstance(r, dict)]
            cell = measurements.cell(f"backoff/k={k}/s={senders}")
            cell["k"] = k
            cell["senders"] = senders
            cell["events"] = cell.get("events", 0) + sum(
                1 for r in records if r["heard"]
            )
            cell["trials"] = cell.get("trials", 0) + len(records)
            cell["bound"] = 1.0 - (7.0 / 8.0) ** k
            cell["receiver_cap"] = k * backoff_slots(workload.delta)
            cell["sender_energy_max"] = max(
                int(cell.get("sender_energy_max", 0)),
                max((r["sender_energy_max"] for r in records), default=0),
            )
            previous_min = cell.get("sender_energy_min")
            batch_min = min(
                (r["sender_energy_min"] for r in records), default=None
            )
            if batch_min is not None:
                cell["sender_energy_min"] = (
                    batch_min
                    if previous_min is None
                    else min(int(previous_min), batch_min)
                )
            cell["receiver_energy_max"] = max(
                int(cell.get("receiver_energy_max", 0)),
                max((r["receiver_energy"] for r in records), default=0),
            )
            measurements.trials_used += len(records)
            added += len(records)
    return added


def _collect_churn_batch(
    workload: ChurnWorkload,
    measurements: Measurements,
    batch_index: int,
    config: SamplerConfig,
) -> int:
    """One batch of churned trials per rate cell.

    Plans are built per trial seed (not per battery), so every trial
    draws its own churn event stream; records cache under keys carrying
    the full churn identity in the graph spec.  ``events`` counts runs
    whose output re-derives as a valid MIS of the final graph, so
    :class:`~repro.claims.spec.RateBound` cells read the restabilization
    rate directly.
    """
    from ..errors import SimulationError
    from ..faults import ChurnPlan, FaultPlan
    from ..radio.engine import run_protocol

    start, stop = _batch_range(workload.trials, workload.batch, batch_index)
    defaults = get_execution_defaults()
    executor = make_executor(defaults.jobs)
    protocol, model_name = _protocol(workload.protocol, config.constants)
    measurements.models[workload.protocol] = model_name
    model = model_by_name(model_name)
    added = 0
    for rate in workload.rates:
        label = (
            f"churn/{workload.topology}/{workload.protocol}"
            f"/n={workload.n}/p={rate:g}"
        )

        def run_one(seed, rate=rate):
            graph = build_workload(workload.topology, workload.n, seed)
            plan = FaultPlan(
                seed=seed,
                churn=ChurnPlan(
                    edge_p=rate, start=workload.start, stop=workload.stop
                ),
            )
            try:
                result = run_protocol(
                    graph, protocol, model, seed=seed, faults=plan
                )
            except SimulationError:
                return {
                    "valid": False,
                    "restabilized": False,
                    "repair_rounds": 0,
                    "repair_energy": 0,
                    "violation": 0,
                    "churn_events": 0,
                }
            return {
                "valid": result.is_valid_mis(),
                "restabilized": result.time_to_stabilize() is not None,
                "repair_rounds": result.repair_rounds,
                "repair_energy": result.repair_energy,
                "violation": result.mis_violation_window,
                "churn_events": sum(c for _, c in result.churn_events),
            }

        seeds = _cell_seeds(config, label, start, stop)
        if not seeds:
            continue
        records = executor.execute(
            run_one,
            seeds,
            cache=defaults.cache,
            key_for=lambda seed, rate=rate: trial_key(
                protocol=protocol,
                model_name=model_name,
                graph_spec=(
                    f"claims:churn/{workload.topology}/n={workload.n}"
                    f"/p={rate:g}/w={workload.start}..{workload.stop}"
                ),
                seed=seed,
            ),
            encode=lambda record: dict(record),
            decode=lambda record: dict(record),
            progress=config.progress,
        )
        records = [r for r in records if isinstance(r, dict)]
        cell = measurements.cell(f"churn/p={rate:g}")
        cell["rate_p"] = rate
        cell["events"] = cell.get("events", 0) + sum(
            1 for r in records if r["valid"] and r["restabilized"]
        )
        cell["trials"] = cell.get("trials", 0) + len(records)
        for field_name in (
            "repair_rounds",
            "repair_energy",
            "violation",
            "churn_events",
        ):
            cell[field_name] = cell.get(field_name, 0) + sum(
                r.get(field_name, 0) for r in records
            )
        measurements.trials_used += len(records)
        added += len(records)
    return added


def _collect_channels_batch(
    workload: ChannelSweepWorkload,
    measurements: Measurements,
    batch_index: int,
    config: SamplerConfig,
) -> int:
    """One batch of channel-sweep trials per (C, n) cell.

    Cells fold into the sweeps container under per-C labels
    (``mc-luby@c4``); ``run_trials`` receives ``channels=C``, which
    lifts the CD model per cell and keys the cache under the suffixed
    model name — single- and multichannel cells never collide.
    """
    from ..baselines import MultichannelMISProtocol
    from ..radio.models import CD

    start, stop = _batch_range(workload.trials, workload.batch, batch_index)
    added = 0
    for channels in workload.channel_counts:
        protocol = MultichannelMISProtocol(
            constants=config.constants, channels=channels
        )
        name = f"mc-luby@c{channels}"
        for n in workload.sizes:
            label = f"channels/{workload.topology}/c={channels}/n={n}"
            seeds = _cell_seeds(config, label, start, stop)
            if not seeds:
                continue
            summary = run_trials(
                lambda seed, n=n: build_workload(workload.topology, n, seed),
                protocol,
                CD,
                seeds,
                channels=channels,
                graph_spec=f"claims:{workload.topology}/n={n}",
                progress=config.progress,
            )
            measurements.models[name] = summary.model_name
            _fold_sweep_summary(measurements, name, n, summary)
            added += len(summary.outcomes)
    return added


def _collect_paired_batch(
    workload: PairedWorkload,
    measurements: Measurements,
    batch_index: int,
    config: SamplerConfig,
) -> int:
    start, stop = _batch_range(workload.trials, workload.batch, batch_index)
    label = f"paired/{workload.topology}/n={workload.n}"
    seeds = _cell_seeds(config, label, start, stop)
    if not seeds:
        return 0
    summaries = {}
    for name, model_name in (
        (workload.protocol_a, workload.model_a),
        (workload.protocol_b, workload.model_b),
    ):
        protocol, _default = _protocol(name, config.constants)
        measurements.models[name] = model_name
        # Decoupled seeding draws the topology from the master seed
        # alone, so both protocols see identical graphs per seed.
        summaries[name] = run_trials(
            lambda seed: build_workload(workload.topology, workload.n, seed),
            protocol,
            model_by_name(model_name),
            seeds,
            graph_spec=f"claims:{workload.topology}/n={workload.n}",
            progress=config.progress,
        )
    by_seed_a = {
        o.seed: o for o in summaries[workload.protocol_a].outcomes
    }
    by_seed_b = {
        o.seed: o for o in summaries[workload.protocol_b].outcomes
    }
    added = 0
    for seed in seeds:
        outcome_a = by_seed_a.get(seed)
        outcome_b = by_seed_b.get(seed)
        if outcome_a is None or outcome_b is None:
            continue  # quarantined on one side: no pair to compare
        measurements.paired.append(
            {
                "seed": seed,
                "a": {
                    "valid": outcome_a.valid,
                    "mis_size": outcome_a.mis_size,
                    "rounds": outcome_a.rounds,
                    "max_energy": outcome_a.max_energy,
                    "mean_energy": outcome_a.mean_energy,
                },
                "b": {
                    "valid": outcome_b.valid,
                    "mis_size": outcome_b.mis_size,
                    "rounds": outcome_b.rounds,
                    "max_energy": outcome_b.max_energy,
                    "mean_energy": outcome_b.mean_energy,
                },
            }
        )
        measurements.trials_used += 2
        added += 2
    return added


def _collect_harness(
    workload: HarnessWorkload,
    measurements: Measurements,
    batch_index: int,
    config: SamplerConfig,
) -> int:
    """Structured harnesses run once; later batches add nothing."""
    if batch_index > 0:
        return 0
    graphs = [
        build_workload("gnp", workload.n, seed)
        for seed in range(workload.graphs)
    ]
    seeds = list(range(workload.seeds))
    runs = 0
    if workload.harness == "residual":
        from ..analysis.experiments.residual import run_residual_shrinkage

        report = run_residual_shrinkage(graphs, seeds, config.constants)
        labels = sorted({series.label for series in report.series})
        for series_label in labels:
            measurements.scalars[
                f"residual/{series_label}/mean_ratio"
            ] = report.mean_ratio(series_label)
        runs = len(graphs) * len(seeds) * 2  # one CD + one no-CD run each
    elif workload.harness == "luby-phase-props":
        from ..analysis.experiments.luby_phase_props import (
            run_luby_phase_properties,
        )

        report = run_luby_phase_properties(graphs, seeds, config.constants)
        counts = report.counts
        cell = measurements.cell("luby/local-maxima")
        cell["events"] = counts.local_maxima_that_won
        cell["trials"] = counts.local_maxima
        measurements.scalars.update(
            {
                "luby/phases": counts.phases,
                "luby/adjacent_winner_pairs": counts.adjacent_winner_pairs,
                "luby/committed_degree_violations": (
                    counts.committed_degree_violations
                ),
                "luby/max_committed_degree": counts.max_committed_degree,
                "luby/adjacent_committed_same_bit": (
                    counts.adjacent_committed_same_bit
                ),
            }
        )
        runs = len(graphs) * len(seeds)
    elif workload.harness == "energy-breakdown":
        from ..analysis.experiments.energy_breakdown import run_energy_breakdown

        report = run_energy_breakdown(graphs, seeds, config.constants)
        total_mean = sum(row.mean_node_rounds for row in report.rows) or 1.0
        for row in report.rows:
            measurements.scalars[
                f"breakdown/share/{row.component}"
            ] = row.share_of_total
            measurements.scalars[
                f"breakdown/worst/{row.component}"
            ] = row.worst_node_rounds
        measurements.scalars["breakdown/worst_total"] = report.worst_total
        measurements.scalars["breakdown/mean_total"] = total_mean
        runs = report.runs
    else:
        raise ConfigurationError(
            f"unknown harness workload {workload.harness!r}"
        )
    measurements.trials_used += runs
    return runs


_COLLECTORS = {
    SweepWorkload: _collect_sweep_batch,
    RateWorkload: _collect_rate_batch,
    BudgetWorkload: _collect_budget_batch,
    BackoffWorkload: _collect_backoff_batch,
    ChurnWorkload: _collect_churn_batch,
    ChannelSweepWorkload: _collect_channels_batch,
    PairedWorkload: _collect_paired_batch,
    HarnessWorkload: _collect_harness,
}


def collect_measurements(
    workload,
    claims: Sequence[Claim],
    context: EvalContext,
    config: SamplerConfig,
) -> Tuple[Measurements, bool]:
    """Adaptively sample one workload until its claims are decided.

    Returns ``(measurements, budget_exhausted)``.  ``budget_exhausted``
    is True when sampling stopped with undecided predicates remaining —
    because the trial budget ran out, the workload's batch cap was hit,
    or the workload had no more data to offer (one-shot harnesses).
    """
    collector = _COLLECTORS.get(type(workload))
    if collector is None:
        raise ConfigurationError(
            f"no collector for workload type {type(workload).__name__}"
        )
    registry = get_registry()
    measurements = Measurements()
    max_batches = getattr(workload, "max_batches", 1)
    batch_index = 0
    converged = False
    while True:
        added = collector(workload, measurements, batch_index, config)
        batch_index += 1
        registry.counter("claims.batches").inc()
        registry.counter("claims.trials").inc(added)
        results = [
            predicate.evaluate(measurements, context)
            for claim in claims
            for predicate in claim.predicates()
        ]
        if results and all(result.decided for result in results):
            converged = True
            break
        if added == 0 and batch_index > 1:
            break  # the workload has nothing more to offer
        if batch_index >= max_batches:
            break
        if (
            config.budget is not None
            and measurements.trials_used >= config.budget
        ):
            break
    if converged:
        registry.counter("claims.converged").inc()
    else:
        registry.counter("claims.budget_exhausted").inc()
    return measurements, not converged
