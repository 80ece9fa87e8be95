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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..exec.cache import ResultCache, graph_fingerprint, trial_key
from ..exec.executor import (
    ExecutionDefaults,
    ProgressCallback,
    get_execution_defaults,
    make_executor,
)
from ..exec.resilience import QuarantinedTrial, RetryPolicy
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

__all__ = ["TrialOutcome", "TrialSummary", "run_trials"]

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
    jobs: Optional[int] = None,
    cache: Union[ResultCache, None, bool] = None,
    graph_spec: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    faults: Union[FaultPlan, None, bool] = None,
    policy: Union[RetryPolicy, None, bool] = None,
    engine: Optional[str] = None,
    sparsify: Optional[int] = None,
    channels: Optional[int] = None,
) -> TrialSummary:
    """Run ``protocol`` for every seed and aggregate.

    ``graph`` may be a fixed :class:`~repro.graphs.graph.Graph` or a
    factory ``seed -> Graph`` for fresh-topology-per-trial batteries.
    A factory is called once per trial; the first trial's graph also
    names the battery and sizes the engine decision.

    The seven execution settings (``jobs``, ``cache``, ``faults``,
    ``policy``, ``engine``, ``sparsify``, ``channels``) come from the
    installed :class:`~repro.exec.executor.ExecutionDefaults` (see
    :func:`~repro.exec.executor.execution_defaults`).  Each keyword here
    overrides its field for this battery: ``None`` keeps the installed
    value and ``False`` turns off the cache, the faults or the retry
    policy.  The overridden value is validated like an installed one.

    Every non-empty battery runs through one
    :meth:`~repro.exec.executor.TrialExecutor.execute` call, whichever
    engine computes its cache misses, so cache, progress and telemetry
    behave the same on both.

    Parameters
    ----------
    jobs:
        Worker processes; 1 runs sequentially.  Outcomes are identical
        for every job count.
    cache:
        A :class:`~repro.exec.cache.ResultCache` to serve/persist trial
        outcomes.  Caching a factory-built topology requires
        ``graph_spec`` (a stable description of the family); fixed
        graphs are fingerprinted automatically.
    graph_spec:
        Stable identity of the topology (e.g. ``"workload:gnp/n=128"``)
        for cache keying when ``graph`` is a factory.
    progress:
        Optional callback receiving
        :class:`~repro.exec.executor.ProgressEvent` updates.
    faults:
        Optional :class:`~repro.faults.FaultPlan` applied to every
        trial.  The plan joins the cache key, so faulty and fault-free
        batteries never collide.
    policy:
        Optional :class:`~repro.exec.resilience.RetryPolicy`.  With an
        active policy a failing or hanging seed is retried, then
        quarantined — the battery completes with the surviving trials
        and the summary lists the quarantined seeds.
    engine:
        Backend selection: ``"auto"`` (the default) runs qualifying
        batteries — a compiled transition table, uniform graph size, no
        faults or retry policy, and at least ``_MIN_AUTO_BATCH`` seeds —
        through the vectorized batch engine and everything else through
        the scalar coroutine engine; ``"scalar"`` forces the coroutine
        engine; ``"batch"`` forces the batch engine and raises
        :class:`~repro.errors.ConfigurationError` when the battery is
        not batchable.  Batch results are statistically equivalent but
        not bit-identical to scalar runs (counter-based RNG), so they
        cache under engine-tagged keys.  Under ``"auto"``, batteries on
        graphs of at least ``_LARGE_N_AUTO`` nodes batch regardless of
        battery size (the scalar engine's per-node objects are the
        large-n bottleneck).
    sparsify:
        Batch-engine fan-out cap (see
        :func:`repro.radio.batch.engine.run_batch`).  An approximation
        knob for large-n no-CD sweeps; requires a batchable battery —
        a scalar fallback raises
        :class:`~repro.errors.ConfigurationError` instead of silently
        computing something else — and joins the cache key.
    channels:
        Radio channel count (normally 1).  Above 1 the collision model
        is lifted with :class:`~repro.radio.models.MultichannelModel`,
        which suffixes
        the model name (``cd@c4``) so multichannel batteries cache under
        their own keys; at 1 the model — and every cache key — is
        untouched.  Multichannel batteries always run the scalar engine
        (the batch backend's transition tables are single-channel).
    """
    overrides = dict(
        jobs=jobs,
        cache=cache,
        faults=faults,
        policy=policy,
        engine=engine,
        sparsify=sparsify,
        channels=channels,
    )
    settings = replace(
        get_execution_defaults(),
        **{
            name: None if value is False else value
            for name, value in overrides.items()
            if value is not None
        },
    )
    jobs, cache, faults, policy, engine, sparsify, channels = (
        getattr(settings, name) for name in overrides
    )
    if channels > 1 and not isinstance(model, MultichannelModel):
        model = MultichannelModel(model, channels)
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
    if engine != "scalar" and seeds:
        plan, reason = _batch_plan(settings, graph_at, protocol, model, seeds)
        if plan is None:
            if engine == "batch":
                raise ConfigurationError(
                    f"engine='batch' requested but battery is not "
                    f"batchable: {reason}"
                )
            if sparsify is not None:
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
            faults=faults,
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
                sparsify=sparsify,
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
    if cache is not None and graph_spec is not None:
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
                faults=faults,
                engine=engine_tag,
                sparsify=sparsify,
            )

    raw = make_executor(jobs).execute(
        run_one,
        seeds,
        cache=cache,
        key_for=key_for,
        encode=_outcome_to_record,
        decode=_outcome_from_record,
        progress=progress,
        policy=policy,
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
