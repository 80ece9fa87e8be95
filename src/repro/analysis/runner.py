"""Multi-trial experiment runner.

Wraps :func:`repro.radio.engine.run_protocol` with the bookkeeping every
experiment repeats: run a protocol many times (different seeds, and
optionally a fresh random topology per trial), validate each output, and
aggregate energy/round/failure statistics.

Execution is delegated to the :mod:`repro.exec` subsystem and
configured by the installed :class:`~repro.exec.executor.ExecutionDefaults`:
``jobs=N`` fans trials out over a process pool (bit-identical to
sequential execution, because each trial depends only on its own master
seed), and a :class:`~repro.exec.cache.ResultCache` serves repeated
trials from disk — a second identical battery completes with 100% cache
hits, and an interrupted one resumes where it stopped.

Every battery takes one path: :func:`_batch_plan` decides whether the
vectorized batch engine or the scalar coroutine engine computes it, and
either way one :meth:`~repro.exec.executor.TrialExecutor.execute` call
owns cache lookups, write-back, progress and ``exec.*`` telemetry.  The
batch engine computes all cache misses in one ``run_many`` call; the
scalar engine runs them one seed at a time.

Seed discipline: a factory-built topology's master seed is split into
independent sub-seeds for topology drawing and for the protocol RNG (see
:mod:`repro.exec.seeds`), so "which graph" and "which coins" are
uncorrelated.  The factory is called once per trial.

A trial that is not one validated run of one protocol (a harness run,
a probe, a run under its own fault plan) is a *record*: a JSON-safe
dict.  :func:`run_records` runs a battery of them through the same
executor, cache and retry policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..exec.cache import graph_fingerprint, trial_key
from ..exec.executor import (
    ExecutionDefaults,
    get_execution_defaults,
    make_executor,
)
from ..exec.resilience import QuarantinedTrial
from ..exec.seeds import graph_seed, protocol_seed
from ..faults.plan import FaultPlan
from ..graphs.graph import Graph
from ..obs.registry import get_registry
from ..radio.engine import run_protocol
from ..radio.metrics import RunResult
from ..radio.models import CollisionModel, MultichannelModel
from ..radio.node import Protocol
from .stats import Summary, summarize, wilson_interval
from .validation import ValidationReport, validate_run

__all__ = ["TrialOutcome", "TrialSummary", "run_records", "run_trials"]

GraphFactory = Callable[[int], Graph]  # seed -> graph

#: Smallest battery the "auto" engine bothers batching.  Keyed on the
#: battery size, not the cache-miss count, so a fully-cached battery
#: re-runs through the same (batch) keys it was written with instead of
#: silently flipping to scalar keys and recomputing everything.
_MIN_AUTO_BATCH = 32

#: Graphs at least this large batch under "auto" even for small
#: batteries: at large n the vectorized engine's per-trial advantage
#: dwarfs the batching overhead, and the scalar engine's per-node
#: Python objects are exactly what the CSR path exists to avoid.
_LARGE_N_AUTO = 4096


@dataclass(frozen=True)
class TrialOutcome:
    """One trial's headline numbers."""

    seed: int
    valid: bool
    mis_size: int
    rounds: int
    max_energy: int
    mean_energy: float
    failure_kinds: Tuple[str, ...]
    #: Rounds processed while a churn violation window was open.
    repair_rounds: int = 0
    #: Awake rounds charged to churn-repair restarts.
    repair_energy: int = 0
    #: Rounds during which the decided set detectably violated MIS.
    mis_violation_window: int = 0
    #: Rounds the last restarted node needed to re-terminate; ``None``
    #: when the run never restabilized (a restarted node never
    #: re-finished).  0 for runs without restarts.
    time_to_stabilize: Optional[int] = 0


def _outcome_to_record(outcome: TrialOutcome) -> Dict:
    """JSON-serializable cache record for one outcome."""
    return {
        "seed": outcome.seed,
        "valid": outcome.valid,
        "mis_size": outcome.mis_size,
        "rounds": outcome.rounds,
        "max_energy": outcome.max_energy,
        "mean_energy": outcome.mean_energy,
        "failure_kinds": list(outcome.failure_kinds),
        "repair_rounds": outcome.repair_rounds,
        "repair_energy": outcome.repair_energy,
        "mis_violation_window": outcome.mis_violation_window,
        "time_to_stabilize": outcome.time_to_stabilize,
    }


def _outcome_from_record(record: Dict) -> TrialOutcome:
    """Inverse of :func:`_outcome_to_record`.

    The churn fields decode with ``.get`` defaults so records written
    before they existed still load (cache entries are never migrated).
    """
    stabilize = record.get("time_to_stabilize", 0)
    return TrialOutcome(
        seed=int(record["seed"]),
        valid=bool(record["valid"]),
        mis_size=int(record["mis_size"]),
        rounds=int(record["rounds"]),
        max_energy=int(record["max_energy"]),
        mean_energy=float(record["mean_energy"]),
        failure_kinds=tuple(record["failure_kinds"]),
        repair_rounds=int(record.get("repair_rounds", 0)),
        repair_energy=int(record.get("repair_energy", 0)),
        mis_violation_window=int(record.get("mis_violation_window", 0)),
        time_to_stabilize=None if stabilize is None else int(stabilize),
    )


@dataclass
class TrialSummary:
    """Aggregated statistics over a battery of trials."""

    protocol_name: str
    model_name: str
    graph_name: str
    outcomes: List[TrialOutcome]
    #: Seeds the retry policy gave up on (empty without quarantines) —
    #: explicit partial-failure accounting for resilient batteries.
    quarantined: List[QuarantinedTrial] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.valid)

    @property
    def failure_rate(self) -> float:
        return self.failures / self.trials if self.trials else 0.0

    def failure_rate_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Wilson interval on the failure rate."""
        return wilson_interval(self.failures, max(1, self.trials), z)

    def max_energy_summary(self) -> Summary:
        """Distribution of per-run worst-case energy."""
        return summarize([outcome.max_energy for outcome in self.outcomes])

    def mean_energy_summary(self) -> Summary:
        """Distribution of per-run node-averaged energy."""
        return summarize([outcome.mean_energy for outcome in self.outcomes])

    def rounds_summary(self) -> Summary:
        """Distribution of per-run round complexity."""
        return summarize([outcome.rounds for outcome in self.outcomes])

    def mis_size_summary(self) -> Summary:
        """Distribution of output MIS sizes (valid and invalid runs)."""
        return summarize([outcome.mis_size for outcome in self.outcomes])

    def describe(self) -> str:
        """Multi-line human-readable report."""
        low, high = self.failure_rate_interval()
        report = (
            f"{self.protocol_name}@{self.model_name} on {self.graph_name}: "
            f"{self.trials} trials, {self.failures} failures "
            f"(rate {self.failure_rate:.3f}, 95% CI [{low:.3f}, {high:.3f}])"
        )
        if self.outcomes:
            report += (
                f"\n  max-energy  {self.max_energy_summary()}"
                f"\n  mean-energy {self.mean_energy_summary()}"
                f"\n  rounds      {self.rounds_summary()}"
            )
            restarted = [
                outcome
                for outcome in self.outcomes
                if outcome.time_to_stabilize is None
                or outcome.time_to_stabilize > 0
            ]
            if restarted:
                # "—" marks runs that never restabilized (satellite of
                # the churn work: None must not render as a number).
                settle = ", ".join(
                    "—"
                    if outcome.time_to_stabilize is None
                    else str(outcome.time_to_stabilize)
                    for outcome in restarted
                )
                report += f"\n  stabilize   {settle}"
            repair = sum(outcome.repair_rounds for outcome in self.outcomes)
            violation = sum(
                outcome.mis_violation_window for outcome in self.outcomes
            )
            if repair or violation:
                report += (
                    f"\n  churn       repair-rounds {repair}, "
                    f"violation-window {violation}"
                )
        if self.quarantined:
            lines = "\n".join(
                f"    {trial.record.describe()}"
                f"{' [cached]' if trial.from_cache else ''}"
                for trial in self.quarantined
            )
            report += (
                f"\n  quarantined {len(self.quarantined)} seed"
                f"{'s' if len(self.quarantined) != 1 else ''}:\n{lines}"
            )
        return report


def _result_to_outcome(
    seed: int, report: "ValidationReport", result: RunResult
) -> TrialOutcome:
    """Fold one validated run into its headline outcome."""
    return TrialOutcome(
        seed=seed,
        valid=report.valid,
        mis_size=report.mis_size,
        rounds=result.rounds,
        max_energy=result.max_energy,
        mean_energy=result.mean_energy,
        failure_kinds=tuple(report.failure_kinds),
        repair_rounds=result.repair_rounds,
        repair_energy=result.repair_energy,
        mis_violation_window=result.mis_violation_window,
        time_to_stabilize=result.time_to_stabilize(),
    )


def _publish_churn_counters(registry, result: RunResult) -> None:
    """Publish ``faults.churn.*`` counters for one churned run.

    No-op for static runs (no churn events) and when telemetry is off,
    so fault-free batteries record nothing new.
    """
    if not registry.enabled or not result.churn_events:
        return
    for kind, count in result.churn_events:
        registry.counter(f"faults.churn.events.{kind}").inc(count)
    registry.counter("faults.churn.repair_rounds").inc(result.repair_rounds)
    registry.counter("faults.churn.repair_energy").inc(result.repair_energy)
    registry.counter("faults.churn.violation_window").inc(
        result.mis_violation_window
    )
    restarted = sum(1 for stats in result.node_stats if stats.restarts)
    if restarted:
        registry.counter("faults.churn.restarted_nodes").inc(restarted)
    unresolved = sum(
        1 for _, settle in result.time_to_restabilize if settle is None
    )
    if unresolved:
        registry.counter("faults.churn.unresolved_events").inc(unresolved)


def run_records(
    run_one: Callable[[int], Dict[str, Any]],
    seeds: Sequence[int],
    key_for: Callable[[int], str],
) -> List[Dict[str, Any]]:
    """Run a record battery: ``run_one(seed)`` for every seed, in order.

    One :meth:`~repro.exec.executor.TrialExecutor.execute` call under
    the installed :class:`~repro.exec.executor.ExecutionDefaults` (jobs,
    cache, retry policy, progress); ``key_for(seed)`` names each record
    in the cache, so it must cover every input that changes the record.
    Quarantined trials drop out of the returned list.
    """
    defaults = get_execution_defaults()
    results = make_executor(defaults.jobs).execute(
        run_one,
        seeds,
        cache=defaults.cache,
        key_for=key_for,
        encode=dict,
        decode=dict,
        progress=defaults.progress,
        policy=defaults.policy,
    )
    return [result for result in results if isinstance(result, dict)]


def _record_keys(
    protocol: Protocol,
    model_name: str,
    graph_spec: str,
    plan_of: Optional[Callable[[int], FaultPlan]] = None,
) -> Callable[[int], str]:
    """``key_for`` of a record battery: the trial key of each seed, with
    ``plan_of(seed)`` as its fault plan when given.  ``graph_spec``
    should name the record kind too, so that a record never shares a
    key with a ``run_trials`` outcome."""
    return lambda seed: trial_key(
        protocol=protocol,
        model_name=model_name,
        graph_spec=graph_spec,
        seed=seed,
        faults=None if plan_of is None else plan_of(seed),
    )


#: Version of the harness record schemas (E8/E10/E12); part of each
#: harness trial's cache key, so a record whose fields change is never
#: read back.
_HARNESS_RECORD_VERSION = 1


def _harness_records(
    harness: str,
    protocol: Protocol,
    run: Callable[[int, int], Dict[str, Any]],
    specs: Sequence[str],
    seeds: Sequence[int],
) -> List[Dict[str, Any]]:
    """A harness battery over graphs x seeds, graph-major: trial ``i`` is
    ``run(g, seeds[s])`` with ``g, s = divmod(i, len(seeds))``, keyed by
    ``protocol``, the harness name and graph ``g``'s spec ``specs[g]``.
    ``run`` builds graph ``g`` itself, so a cached trial builds none."""
    seeds = list(seeds)
    model_name = f"harness/{harness}/{_HARNESS_RECORD_VERSION}"

    def trial(index: int) -> Tuple[int, int]:
        g, s = divmod(index, len(seeds))
        return g, seeds[s]

    def key_for(index: int) -> str:
        g, seed = trial(index)
        return _record_keys(protocol, model_name, specs[g])(seed)

    return run_records(
        lambda index: run(*trial(index)),
        range(len(specs) * len(seeds)),
        key_for,
    )


def _batch_plan(
    settings: ExecutionDefaults,
    graph_at: Callable[[int], Graph],
    protocol: Protocol,
    model: CollisionModel,
    seeds: Sequence[int],
):
    """Decide whether a battery runs on the batch engine.

    Returns ``((graphs, program), None)`` when it does — the trial
    graphs in seed order and one compiled table program — else
    ``(None, reason)`` with a stable fallback-reason slug.  The reasons
    are checked cheapest first; only the last two build the trial
    graphs beyond the first.
    """
    if settings.faults is not None:
        # Churny plans get their own named reason so operators can
        # tell "batching skipped because of topology churn" apart
        # from plain channel/crash faults in `obs summarize`.
        return None, "churn" if settings.faults.has_churn else "faults"
    if settings.policy is not None and settings.policy.active:
        return None, "retry-policy"
    if getattr(model, "channels", 1) > 1:
        # The batch backend's transition tables encode a single shared
        # medium; multichannel batteries stay scalar.
        return None, "multichannel"
    if getattr(model, "sender_side_detection", False):
        return None, "model"
    if (
        settings.engine == "auto"
        and len(seeds) < _MIN_AUTO_BATCH
        and graph_at(seeds[0]).num_nodes < _LARGE_N_AUTO
        and settings.sparsify is None
    ):
        return None, "too-few-trials"
    try:
        import numpy  # noqa: F401
    except ImportError:
        return None, "no-numpy"
    from ..radio.batch.engine import compile_batch_program
    from ..radio.batch.registry import compile_table_for

    graphs = [graph_at(seed) for seed in seeds]
    n = graphs[0].num_nodes
    if n == 0 or any(sample.num_nodes != n for sample in graphs):
        return None, "shape"
    if compile_table_for(protocol, n, graphs[0].max_degree()) is None:
        return None, "no-table"
    program = compile_batch_program(protocol, graphs)
    if program is None:
        # A table exists but differs across the battery's (n, Delta)
        # cells (sampled graphs with unequal max degree on a
        # Delta-dependent table).
        return None, "shape"
    # Any rank width is batchable: widths past MAX_RANK_WIDTH run in
    # the engine's wide-rank (stream-anchored) representation.
    return (graphs, program), None


def run_trials(
    graph: Union[Graph, GraphFactory],
    protocol: Protocol,
    model: CollisionModel,
    seeds: Sequence[int],
    max_rounds: Optional[int] = None,
    *,
    graph_spec: Optional[str] = None,
    **settings: Any,
) -> TrialSummary:
    """Run ``protocol`` for every seed and aggregate.

    ``graph`` may be a fixed :class:`~repro.graphs.graph.Graph` or a
    factory ``seed -> Graph`` for fresh-topology-per-trial batteries.
    A factory is called once per trial; the first trial's graph also
    names the battery and sizes the engine decision.  ``graph_spec`` is
    a stable name of the topology (e.g. ``"workload:gnp/n=128"``) that
    keys a factory's trials in the cache; fixed graphs are fingerprinted
    automatically.

    Execution settings come from the installed
    :class:`~repro.exec.executor.ExecutionDefaults` (see
    :func:`~repro.exec.executor.execution_defaults`).  Each keyword in
    ``settings`` names one of its fields and overrides it for this
    battery: ``None`` keeps the installed value and ``False`` turns off
    the cache, the faults or the retry policy.  The overridden value is
    validated like an installed one.

    Every non-empty battery runs through one
    :meth:`~repro.exec.executor.TrialExecutor.execute` call, whichever
    engine computes its cache misses, so cache, progress and telemetry
    behave the same on both.  Under ``engine="auto"`` a battery batches
    when it qualifies (a compiled transition table, uniform graph size,
    no faults, retry policy or extra channels) and either has at least
    ``_MIN_AUTO_BATCH`` seeds or graphs of at least ``_LARGE_N_AUTO``
    nodes.  Batch results are statistically equivalent but not
    bit-identical to scalar runs (counter-based RNG), so they cache
    under engine-tagged keys.  A battery that must batch (``engine=
    "batch"`` or a ``sparsify`` cap) and cannot raises
    :class:`~repro.errors.ConfigurationError`.  Above one channel the
    collision model is lifted with
    :class:`~repro.radio.models.MultichannelModel`, whose name
    (``cd@c4``) keeps multichannel batteries under their own keys.
    """
    settings = replace(
        get_execution_defaults(),
        **{
            name: None if value is False else value
            for name, value in settings.items()
            if value is not None
        },
    )
    if settings.channels > 1 and not isinstance(model, MultichannelModel):
        model = MultichannelModel(model, settings.channels)
    seeds = list(seeds)
    model_name = model.name

    # A factory's master seed splits into independent topology and
    # protocol sub-seeds; a fixed graph's trials use the master seed.
    if callable(graph):
        first = graph(graph_seed(seeds[0])) if seeds else None
        graph_name = first.name if seeds else "graph"
        trial_seed = protocol_seed

        def graph_at(seed: int) -> Graph:
            return first if seed == seeds[0] else graph(graph_seed(seed))

    else:
        graph_name = graph.name
        if graph_spec is None:
            graph_spec = graph_fingerprint(graph)

        def trial_seed(seed: int) -> int:
            return seed

        def graph_at(seed: int) -> Graph:
            return graph

    plan = None
    if settings.engine != "scalar" and seeds:
        plan, reason = _batch_plan(settings, graph_at, protocol, model, seeds)
        if plan is None:
            if settings.engine == "batch":
                raise ConfigurationError(
                    f"engine='batch' requested but battery is not "
                    f"batchable: {reason}"
                )
            if settings.sparsify is not None:
                raise ConfigurationError(
                    f"sparsify requires the batch engine, but this battery "
                    f"is not batchable: {reason}"
                )
            registry = get_registry()
            if registry.enabled:
                registry.counter("engine.batch.fallback").inc()
                registry.counter(f"engine.batch.fallback.{reason}").inc()

    def run_one(seed: int) -> TrialOutcome:
        # The registry is resolved per call, not per battery: the
        # executor installs a fresh recording registry around each trial
        # (including inside fork-pool workers) when telemetry is on.
        registry = get_registry()
        result = run_protocol(
            graph_at(seed),
            protocol,
            model,
            seed=trial_seed(seed),
            max_rounds=max_rounds,
            telemetry=registry.enabled,
            faults=settings.faults,
        )
        report: ValidationReport = validate_run(result)
        if result.telemetry is not None:
            result.telemetry.publish(registry)
            if not report.valid:
                registry.counter("trials.invalid").inc()
        _publish_churn_counters(registry, result)
        return _result_to_outcome(seed, report, result)

    run_many = None
    if plan is not None:
        from ..radio.batch.engine import run_batch

        graphs, program = plan
        graph_of = dict(zip(seeds, graphs))

        def run_many(batch_seeds: List[int]) -> List[TrialOutcome]:
            result = run_batch(
                [graph_of[seed] for seed in batch_seeds]
                if callable(graph)
                else graph,
                protocol,
                model,
                [trial_seed(seed) for seed in batch_seeds],
                program=program,
                max_rounds=max_rounds,
                sparsify=settings.sparsify,
            )
            registry = get_registry()
            outcomes = []
            for offset, seed in enumerate(batch_seeds):
                outcome = TrialOutcome(
                    seed=seed,
                    valid=bool(result.valid[offset]),
                    mis_size=int(result.mis_size[offset]),
                    rounds=int(result.rounds[offset]),
                    max_energy=int(result.max_energy[offset]),
                    mean_energy=float(result.mean_energy[offset]),
                    failure_kinds=tuple(result.failure_kinds(offset)),
                )
                if registry.enabled and not outcome.valid:
                    registry.counter("trials.invalid").inc()
                outcomes.append(outcome)
            return outcomes

    key_for = None
    if settings.cache is not None and graph_spec is not None:
        engine_tag = "scalar" if plan is None else "batch"

        def key_for(seed: int) -> str:
            # faults is always None on the batch path and sparsify always
            # None on the scalar path, so both engines share one key rule.
            return trial_key(
                protocol=protocol,
                model_name=model_name,
                graph_spec=graph_spec,
                seed=seed,
                max_rounds=max_rounds,
                faults=settings.faults,
                engine=engine_tag,
                sparsify=settings.sparsify,
            )

    raw = make_executor(settings.jobs).execute(
        run_one,
        seeds,
        cache=settings.cache,
        key_for=key_for,
        encode=_outcome_to_record,
        decode=_outcome_from_record,
        progress=settings.progress,
        policy=settings.policy,
        run_many=run_many,
    )
    outcomes: List[TrialOutcome] = []
    quarantined: List[QuarantinedTrial] = []
    for entry in raw:
        if isinstance(entry, QuarantinedTrial):
            quarantined.append(entry)
        else:
            outcomes.append(entry)
    return TrialSummary(
        protocol_name=protocol.name,
        model_name=model_name,
        graph_name=graph_name,
        outcomes=outcomes,
        quarantined=quarantined,
    )
