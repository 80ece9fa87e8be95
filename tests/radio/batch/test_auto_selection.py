"""Engine auto-selection in ``run_trials`` (batch vs scalar dispatch).

The "auto" engine must batch exactly the batteries the vectorized
backend supports, fall back to the scalar path *silently* (correct
results, plus an ``engine.batch.fallback`` counter naming the reason
when telemetry is on), and never let the two backends' cache entries
alias (batch trials carry an engine-tagged key).
"""

import pytest

np = pytest.importorskip("numpy")

from repro.analysis.experiments.scaling import run_scaling_comparison
from repro.analysis.runner import TrialSummary, run_trials
from repro.analysis.sweep import run_size_sweep
from repro.constants import ConstantsProfile
from repro.core.cd_mis import CDMISProtocol
from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache, trial_key
from repro.exec.executor import execution_defaults
from repro.exec.resilience import RetryPolicy
from repro.faults import parse_fault_spec
from repro.faults.plan import FaultPlan
from repro.graphs import gnp_random_graph
from repro.obs.registry import Registry, recording
from repro.baselines.beep_sender_cd_mis import SenderCDBeepingMISProtocol
from repro.radio.actions import Listen
from repro.radio.models import BEEPING_SENDER_CD, CD
from repro.radio.node import Decision, Protocol

GRAPH = gnp_random_graph(80, 0.12, seed=9)
PROTOCOL = CDMISProtocol(constants=ConstantsProfile.practical())
SEEDS = list(range(48))  # >= _MIN_AUTO_BATCH, so "auto" batches


class TablelessProtocol(Protocol):
    """A coroutine-only protocol: no registered table builder."""

    name = "tableless"

    def run(self, ctx):
        yield Listen()
        ctx.decide(Decision.IN_MIS if ctx.node == 0 else Decision.OUT_MIS)


def batch_counters(summary_fn):
    """Run ``summary_fn`` under a recording registry; return counters."""
    with recording(Registry()) as registry:
        summary = summary_fn()
    counters = {
        name: value
        for name, value in registry.snapshot().get("counters", {}).items()
        if name.startswith("engine.batch.")
    }
    return summary, counters


def test_auto_batches_qualifying_battery():
    summary, counters = batch_counters(
        lambda: run_trials(GRAPH, PROTOCOL, CD, SEEDS, cache=False)
    )
    assert counters.get("engine.batch.batches") == 1
    assert counters.get("engine.batch.trials") == len(SEEDS)
    assert "engine.batch.fallback" not in counters
    # Nodes halt along the way, so the live set halves at least once
    # and the (only) kernel recompresses.
    assert counters.get("engine.batch.residual_rebuilds", 0) >= 1
    assert "engine.batch.phased_batches" not in counters
    assert summary.trials == len(SEEDS)
    assert summary.failures == 0


def test_forced_scalar_never_batches():
    _, counters = batch_counters(
        lambda: run_trials(
            GRAPH, PROTOCOL, CD, SEEDS, cache=False, engine="scalar"
        )
    )
    assert counters == {}


@pytest.mark.parametrize(
    "kwargs, reason",
    [
        ({"seeds": list(range(4))}, "too-few-trials"),
        ({"faults": parse_fault_spec("churn=0.1@5..20,seed=3")}, "churn"),
        ({"faults": FaultPlan(max_wake_skew=4)}, "faults"),
        ({"policy": RetryPolicy(max_retries=1)}, "retry-policy"),
        ({"model": BEEPING_SENDER_CD}, "model"),
    ],
)
def test_auto_falls_back_silently_with_reason(kwargs, reason):
    kwargs = dict(kwargs)
    seeds = kwargs.pop("seeds", SEEDS)
    model = kwargs.pop("model", CD)
    protocol = (
        SenderCDBeepingMISProtocol(constants=ConstantsProfile.practical())
        if model is BEEPING_SENDER_CD
        else PROTOCOL
    )
    summary, counters = batch_counters(
        lambda: run_trials(
            GRAPH, protocol, model, seeds, cache=False, **kwargs
        )
    )
    assert counters.get("engine.batch.fallback") == 1
    assert counters.get(f"engine.batch.fallback.{reason}") == 1
    assert "engine.batch.batches" not in counters
    assert isinstance(summary, TrialSummary)
    assert summary.trials == len(seeds)


def test_auto_falls_back_on_tableless_protocol():
    _, counters = batch_counters(
        lambda: run_trials(GRAPH, TablelessProtocol(), CD, SEEDS, cache=False)
    )
    assert counters.get("engine.batch.fallback.no-table") == 1


def test_forced_batch_on_unbatchable_battery_raises():
    with pytest.raises(ConfigurationError, match="not batchable"):
        run_trials(
            GRAPH, TablelessProtocol(), CD, SEEDS, cache=False, engine="batch"
        )


def test_unknown_engine_name_raises():
    with pytest.raises(ConfigurationError, match="unknown engine"):
        run_trials(GRAPH, PROTOCOL, CD, SEEDS, cache=False, engine="turbo")


@pytest.mark.parametrize(
    "entry_point",
    [
        lambda: run_trials(GRAPH, PROTOCOL, CD, SEEDS),
        lambda: run_size_sweep(
            [GRAPH.num_nodes], lambda n, seed: GRAPH, lambda n: PROTOCOL, CD,
            trials=len(SEEDS),
        ),
        lambda: run_scaling_comparison(
            [GRAPH.num_nodes], {"cd-mis": lambda n: PROTOCOL}, CD,
            trials=len(SEEDS),
        ),
    ],
    ids=["run_trials", "run_size_sweep", "run_scaling_comparison"],
)
def test_engine_inherited_from_execution_defaults(entry_point):
    with execution_defaults(engine="scalar"):
        _, counters = batch_counters(entry_point)
    assert counters == {}


def test_summaries_expose_identical_statistics_fields():
    batch = run_trials(GRAPH, PROTOCOL, CD, SEEDS, cache=False, engine="batch")
    scalar = run_trials(
        GRAPH, PROTOCOL, CD, SEEDS[:8], cache=False, engine="scalar"
    )
    for summary in (batch, scalar):
        assert summary.protocol_name == PROTOCOL.name
        assert summary.model_name == CD.name
        assert summary.graph_name == GRAPH.name
        assert summary.quarantined == []
        summary.describe()  # full statistics surface renders
    for outcome in batch.outcomes + scalar.outcomes:
        assert isinstance(outcome.valid, bool)
        assert isinstance(outcome.mis_size, int)
        assert isinstance(outcome.rounds, int)
        assert isinstance(outcome.max_energy, int)
        assert isinstance(outcome.mean_energy, float)
        assert isinstance(outcome.failure_kinds, tuple)
    assert [o.seed for o in batch.outcomes] == SEEDS


def test_batch_cache_keys_are_engine_tagged(tmp_path):
    cache = ResultCache(tmp_path)
    first = run_trials(GRAPH, PROTOCOL, CD, SEEDS, cache=cache)
    writes = cache.stats.writes
    second = run_trials(GRAPH, PROTOCOL, CD, SEEDS, cache=cache)
    assert cache.stats.writes == writes  # fully served from cache
    assert first.outcomes == second.outcomes
    # Scalar runs of the same cell must not see the batch entries.
    scalar = run_trials(
        GRAPH, PROTOCOL, CD, SEEDS[:4], cache=cache, engine="scalar"
    )
    assert cache.stats.writes == writes + 4
    assert scalar.trials == 4


def test_batched_battery_is_counted_by_the_executor(tmp_path):
    cache = ResultCache(tmp_path)
    with recording(Registry()) as registry:
        run_trials(GRAPH, PROTOCOL, CD, SEEDS, cache=cache)
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    assert counters["engine.batch.trials"] == len(SEEDS)
    assert counters["exec.batteries"] == 1
    assert counters["exec.trials.total"] == len(SEEDS)
    assert counters["exec.trials.computed"] == len(SEEDS)
    assert snapshot["histograms"]["exec.trial_wall_s"]["count"] == len(SEEDS)

    with recording(Registry()) as registry:
        run_trials(GRAPH, PROTOCOL, CD, SEEDS, cache=cache)
    counters = registry.snapshot()["counters"]
    assert counters["exec.trials.cache_hits"] == len(SEEDS)
    assert "engine.batch.batches" not in counters


def test_trial_key_scalar_default_unchanged():
    base = dict(
        protocol=PROTOCOL,
        model_name="cd",
        graph_spec="graph:test",
        seed=1,
    )
    assert trial_key(**base) == trial_key(**base, engine="scalar")
    assert trial_key(**base) != trial_key(**base, engine="batch")
