"""Adaptive measurement collection for claims.

A workload is a list of *cells*.  A cell has a seed label, a
``run(seeds)`` and a ``fold(measurements, result)`` that records the
result in a :class:`~repro.claims.spec.Measurements` container and
returns how many trials it added.  ``run`` is one of two batteries,
both through the :mod:`repro.exec` stack (process pool, content-
addressed result cache and retry policy all apply): a
:func:`~repro.analysis.runner.run_trials` battery for protocol cells,
or a :func:`~repro.analysis.runner.run_records` battery of JSON records
for the backoff, churn and harness cells (the experiments run the same
record functions through it).

:func:`collect_measurements` runs every workload kind through one
loop: each batch runs every cell over the batch's trial-index window,
then evaluates every predicate of every claim sharing the workload,
and stops when all are decided (converged), when the workload's batch
cap is reached, or when the trial budget is exhausted.

Seed discipline: a trial's seed depends only on its (workload, cell,
trial-index) labels via :func:`repro.exec.seeds.derive_seed` — never on
batch boundaries — so re-running with a larger budget resumes from the
result cache instead of resampling, and ``--resume`` is free.  A
harness's trials are run once, in batch 0, and its trial indices are
its seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..analysis.runner import _harness_records, _record_keys, run_records, run_trials
from ..analysis.workloads import build_workload
from ..catalog import DEFAULT_MODEL, make_protocol
from ..constants import ConstantsProfile
from ..errors import ConfigurationError
from ..exec.seeds import derive_seed
from ..obs.registry import get_registry
from ..radio.models import CD, MultichannelModel, model_by_name
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
    """Sampling settings shared by every workload (execution settings
    come from the installed :class:`~repro.exec.executor.ExecutionDefaults`)."""

    constants: ConstantsProfile
    budget: Optional[int] = None  # max trials per workload group
    base_seed: int = 0


@dataclass(frozen=True)
class _Cell:
    """One cell: ``label`` derives its seeds (``None``: the trial
    indices are the seeds), ``run(seeds)`` runs them, and
    ``fold(measurements, result)`` records the result and returns the
    trials it adds."""

    label: Optional[str]
    run: Callable[[List[int]], Any]
    fold: Callable[[Measurements, Any], int]


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


def _window(workload, batch_index: int) -> range:
    """Trial indices of batch ``batch_index``; a harness runs all of its
    ``graphs * seeds`` trials in batch 0."""
    if isinstance(workload, HarnessWorkload):
        return range(0 if batch_index else workload.graphs * workload.seeds)
    return range(*_batch_range(workload.trials, workload.batch, batch_index))


def _add(cell: dict, **amounts) -> None:
    for name, amount in amounts.items():
        cell[name] = cell.get(name, 0) + amount


_SWEEP_METRICS = ("max_energy", "mean_energy", "rounds")
_PAIR_FIELDS = ("valid", "mis_size", "rounds", "max_energy", "mean_energy")


def _sweep_fold(name: str, n: int):
    def fold(measurements: Measurements, summary) -> int:
        values = {
            metric: [getattr(o, metric) for o in summary.outcomes]
            for metric in _SWEEP_METRICS
        }
        measurements.add_sweep_values(name, n, values)
        return summary.trials

    return fold


def _rate_fold(label: str, **fields):
    """Failures per trial into cell ``label``, plus constant fields."""

    def fold(measurements: Measurements, summary) -> int:
        cell = measurements.cell(label)
        _add(cell, events=summary.failures, trials=summary.trials)
        cell.update(fields)
        return summary.trials

    return fold


def _paired_fold(measurements: Measurements, summaries) -> int:
    """Per-seed outcome pairs; a seed quarantined on either side has no
    pair to compare."""
    first, second = summaries
    by_seed = {outcome.seed: outcome for outcome in second.outcomes}
    pairs = [(a, by_seed[a.seed]) for a in first.outcomes if a.seed in by_seed]
    for a, b in pairs:
        measurements.paired.append(
            {
                "seed": a.seed,
                "a": {name: getattr(a, name) for name in _PAIR_FIELDS},
                "b": {name: getattr(b, name) for name in _PAIR_FIELDS},
            }
        )
    return 2 * len(pairs)


def _backoff_fold(k: int, senders: int, receiver_cap: int):
    def fold(measurements: Measurements, records) -> int:
        cell = measurements.cell(f"backoff/k={k}/s={senders}")
        _add(cell, events=sum(r["heard"] for r in records), trials=len(records))
        cell.update(
            k=k,
            senders=senders,
            bound=1.0 - (7.0 / 8.0) ** k,
            receiver_cap=receiver_cap,
        )
        for name, field in (
            ("sender_energy_max", "sender_energy_max"),
            ("receiver_energy_max", "receiver_energy"),
        ):
            cell[name] = max([cell.get(name, 0)] + [r[field] for r in records])
        lows = [r["sender_energy_min"] for r in records]
        if "sender_energy_min" in cell:
            lows.append(cell["sender_energy_min"])
        if lows:
            cell["sender_energy_min"] = min(lows)
        return len(records)

    return fold


def _churn_fold(rate: float):
    """``events`` counts runs that restabilized to a valid MIS of the
    final graph, so :class:`~repro.claims.spec.RateBound` reads the
    restabilization rate directly."""
    from ..analysis.experiments.churn import _CHURN_COSTS

    def fold(measurements: Measurements, records) -> int:
        cell = measurements.cell(f"churn/p={rate:g}")
        cell["rate_p"] = rate
        _add(
            cell,
            events=sum(r["valid"] and r["restabilized"] for r in records),
            trials=len(records),
            **{name: sum(r[name] for r in records) for name in _CHURN_COSTS},
        )
        return len(records)

    return fold


def _residual_harness(constants: ConstantsProfile):
    from ..analysis.experiments.residual import fold_residual, residual_record
    from ..core import CDMISProtocol

    def fold(measurements: Measurements, records) -> int:
        report = fold_residual(records)
        for label in sorted({series.label for series in report.series}):
            measurements.scalars[f"residual/{label}/mean_ratio"] = (
                report.mean_ratio(label)
            )
        return 2 * len(records)  # one CD + one no-CD run each

    protocol = CDMISProtocol(constants=constants, instrument=True)
    return residual_record, protocol, fold


def _luby_phase_harness(constants: ConstantsProfile):
    from ..analysis.experiments.luby_phase_props import (
        fold_luby_phase_properties,
        luby_phase_record,
    )
    from ..core import NoCDEnergyMISProtocol

    def fold(measurements: Measurements, records) -> int:
        counts = fold_luby_phase_properties(records, constants).counts
        cell = measurements.cell("luby/local-maxima")
        cell["events"] = counts.local_maxima_that_won
        cell["trials"] = counts.local_maxima
        for name in (
            "phases",
            "adjacent_winner_pairs",
            "committed_degree_violations",
            "max_committed_degree",
            "adjacent_committed_same_bit",
        ):
            measurements.scalars[f"luby/{name}"] = getattr(counts, name)
        return len(records)

    protocol = NoCDEnergyMISProtocol(constants=constants, instrument=True)
    return luby_phase_record, protocol, fold


def _energy_breakdown_harness(constants: ConstantsProfile):
    from ..analysis.experiments.energy_breakdown import (
        energy_breakdown_record,
        fold_energy_breakdown,
    )
    from ..core import NoCDEnergyMISProtocol

    def fold(measurements: Measurements, records) -> int:
        report = fold_energy_breakdown(records)
        scalars = measurements.scalars
        for row in report.rows:
            scalars[f"breakdown/share/{row.component}"] = row.share_of_total
            scalars[f"breakdown/worst/{row.component}"] = row.worst_node_rounds
        scalars["breakdown/worst_total"] = report.worst_total
        scalars["breakdown/mean_total"] = (
            sum(row.mean_node_rounds for row in report.rows) or 1.0
        )
        return report.runs

    protocol = NoCDEnergyMISProtocol(constants=constants)
    return energy_breakdown_record, protocol, fold


#: harness name -> constants -> (per-run record function, the protocol
#: keying its trials, fold of the records into measurements -> runs).
_HARNESSES = {
    "residual": _residual_harness,
    "luby-phase-props": _luby_phase_harness,
    "energy-breakdown": _energy_breakdown_harness,
}


def _cells(
    workload, config: SamplerConfig, measurements: Measurements
) -> List[_Cell]:
    """The workload's cells, in the order every batch runs them."""
    constants = config.constants

    def trials(graph, protocol, model, graph_spec: str, **options):
        """A ``run_trials`` battery."""
        return lambda seeds: run_trials(
            graph,
            protocol,
            model,
            seeds,
            graph_spec=graph_spec,
            **options,
        )

    def on(topology: str, n: int, protocol, model, **options):
        """A ``run_trials`` battery on fresh ``topology`` graphs."""
        return trials(
            lambda seed: build_workload(topology, n, seed),
            protocol,
            model,
            f"claims:{topology}/n={n}",
            **options,
        )

    def default(name: str):
        """``name``'s protocol and default model, noted in the models."""
        model_name = measurements.models[name] = DEFAULT_MODEL[name]
        return make_protocol(name, constants), model_by_name(model_name)

    if isinstance(workload, SweepWorkload):
        topology = workload.topology
        protocols = {name: default(name) for name in workload.protocols}
        return [
            _Cell(
                f"sweep/{topology}/{name}/n={n}",
                on(topology, n, protocol, model),
                _sweep_fold(name, n),
            )
            for name, (protocol, model) in protocols.items()
            for n in workload.sizes
        ]

    if isinstance(workload, RateWorkload):
        topology, n = workload.topology, workload.n
        return [
            _Cell(
                f"rate/{topology}/{name}/n={n}",
                on(topology, n, *default(name)),
                _rate_fold(f"rate/{name}", n=n),
            )
            for name in workload.protocols
        ]

    if isinstance(workload, BudgetWorkload):
        from ..lowerbound import SynchronizedCoinStrategy
        from ..lowerbound.analytic import (
            sync_coin_failure,
            theorem1_failure_lower_bound,
        )
        from ..lowerbound.hard_instance import hard_instance

        n = workload.n
        graph = hard_instance(n)
        return [
            _Cell(
                f"thm1/n={n}/b={b}",
                trials(
                    lambda seed: graph,  # a factory: decoupled trial seeds
                    SynchronizedCoinStrategy(b),
                    CD,
                    f"claims:hard/n={n}",
                ),
                _rate_fold(
                    f"thm1/b={b}",
                    b=b,
                    n=n,
                    bound=theorem1_failure_lower_bound(n, b),
                    coin_exact=sync_coin_failure(n, b),
                ),
            )
            for b in workload.budgets
        ]

    if isinstance(workload, ChannelSweepWorkload):
        from ..baselines import MultichannelMISProtocol

        topology = workload.topology
        cells = []
        for c in workload.channel_counts:
            protocol = MultichannelMISProtocol(constants=constants, channels=c)
            name = f"mc-luby@c{c}"
            measurements.models[name] = MultichannelModel(CD, c).name
            cells += [
                _Cell(
                    f"channels/{topology}/c={c}/n={n}",
                    on(topology, n, protocol, CD, channels=c),
                    _sweep_fold(name, n),
                )
                for n in workload.sizes
            ]
        return cells

    if isinstance(workload, PairedWorkload):
        # Decoupled seeding draws the topology from the master seed
        # alone, so both protocols see identical graphs per seed.
        sides = []
        for name, model_name in (
            (workload.protocol_a, workload.model_a),
            (workload.protocol_b, workload.model_b),
        ):
            measurements.models[name] = model_name
            protocol = make_protocol(name, constants)
            model = model_by_name(model_name)
            sides.append(on(workload.topology, workload.n, protocol, model))
        return [
            _Cell(
                f"paired/{workload.topology}/n={workload.n}",
                lambda seeds: [side(seeds) for side in sides],
                _paired_fold,
            )
        ]

    if isinstance(workload, BackoffWorkload):
        from ..analysis.experiments.backoff_probe import (
            BackoffProbe,
            backoff_record,
        )
        from ..core.backoff import backoff_slots
        from ..graphs.generators import star_graph

        delta = workload.delta
        graph = star_graph(delta + 1)
        cells = []
        for k in workload.k_values:
            for senders in workload.sender_counts:
                if senders > delta:
                    continue
                probe = BackoffProbe(k=k, delta=delta, senders=senders)
                run = partial(
                    run_records,
                    lambda seed, probe=probe: backoff_record(
                        graph, probe, seed
                    ),
                    key_for=_record_keys(
                        probe, "no-cd", f"claims:star/delta={delta}"
                    ),
                )
                fold = _backoff_fold(k, senders, k * backoff_slots(delta))
                cells.append(
                    _Cell(f"backoff/d={delta}/k={k}/s={senders}", run, fold)
                )
        return cells

    if isinstance(workload, ChurnWorkload):
        from ..analysis.experiments.churn import churn_record
        from ..faults import ChurnPlan, FaultPlan

        topology, n = workload.topology, workload.n
        span = f"{workload.start}..{workload.stop}"
        protocol, model = default(workload.protocol)
        cells = []
        for rate in workload.rates:
            churn = ChurnPlan(
                edge_p=rate, start=workload.start, stop=workload.stop
            )
            spec = f"claims:churn/{topology}/n={n}/p={rate:g}/w={span}"
            run = partial(
                run_records,
                lambda seed, churn=churn: churn_record(
                    build_workload(topology, n, seed),
                    protocol,
                    model,
                    seed,
                    FaultPlan(seed=seed, churn=churn),
                ),
                key_for=_record_keys(protocol, model.name, spec),
            )
            label = f"churn/{topology}/{workload.protocol}/n={n}/p={rate:g}"
            cells.append(_Cell(label, run, _churn_fold(rate)))
        return cells

    if isinstance(workload, HarnessWorkload):
        # Trial ``i`` is run seed ``s`` on gnp graph ``g``, with ``g, s =
        # divmod(i, seeds)``; its record caches like any other trial, so
        # a warm run builds no graph and runs no engine.  The battery
        # numbers its trials itself: they are the batch-0 window.
        per_run, protocol, fold = _HARNESSES[workload.harness](constants)
        graph_of = lru_cache(maxsize=None)(
            lambda g: build_workload("gnp", workload.n, g)
        )
        specs = [
            f"claims:gnp/n={workload.n}/graph={g}" for g in range(workload.graphs)
        ]
        return [
            _Cell(
                None,
                lambda indices: _harness_records(
                    workload.harness,
                    protocol,
                    lambda g, seed: per_run(graph_of(g), seed, constants),
                    specs,
                    range(workload.seeds),
                ),
                # Every trial quarantined: nothing to fold.
                lambda measurements, found: (
                    fold(measurements, found) if found else 0
                ),
            )
        ]

    raise ConfigurationError(
        f"no cells for workload type {type(workload).__name__}"
    )


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
    registry = get_registry()
    measurements = Measurements()
    cells = _cells(workload, config, measurements)
    max_batches = getattr(workload, "max_batches", 1)
    batch_index = 0
    converged = False
    while True:
        window = _window(workload, batch_index)
        added = 0
        for cell in cells:
            seeds = (
                list(window)
                if cell.label is None
                else _cell_seeds(config, cell.label, window.start, window.stop)
            )
            if seeds:
                added += cell.fold(measurements, cell.run(seeds))
        measurements.trials_used += added
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
