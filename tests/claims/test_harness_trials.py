"""Harness workloads (E8/E10/E12) run as cached executor trials."""

import pytest

from repro.claims.sampler import SamplerConfig, collect_measurements
from repro.claims.spec import (
    Claim,
    EvalContext,
    HarnessWorkload,
    PaperRef,
    ScalarBound,
)
from repro.constants import ConstantsProfile
from repro.core import NoCDEnergyMISProtocol
from repro.exec.cache import ResultCache, trial_key
from repro.exec.executor import execution_defaults
from repro.obs.registry import Registry, recording

FAST = ConstantsProfile.fast()
REF = PaperRef("Lemma", "§5", ("E8",), "s")

WORKLOADS = [
    HarnessWorkload("residual", n=12, graphs=2, seeds=2),
    HarnessWorkload("luby-phase-props", n=12, graphs=2, seeds=2),
    HarnessWorkload("energy-breakdown", n=12, graphs=1, seeds=2),
]

#: Every module attribute through which a harness run reaches the engine.
ENGINE_SITES = [
    "repro.radio.engine.run_protocol",
    "repro.analysis.experiments.residual.run_protocol",
    "repro.analysis.experiments.energy_breakdown.run_protocol",
    "repro.analysis.experiments.luby_phase_props.run_protocol",
]


class KeyLog(ResultCache):
    """A result cache that remembers every key it was asked for."""

    def __init__(self, root):
        super().__init__(root)
        self.keys = []

    def get(self, key):
        self.keys.append(key)
        return super().get(key)


def collect(workload, constants=FAST):
    claim = Claim(
        claim_id="c",
        title="t",
        ref=REF,
        workload=workload,
        strict=(ScalarBound(name="undecidable", key="no", bound=1),),
    )
    measurements, _ = collect_measurements(
        workload,
        [claim],
        EvalContext(constants=constants),
        SamplerConfig(constants=constants),
    )
    return measurements


def harness_keys(tmp_path, workload, constants=FAST):
    cache = KeyLog(tmp_path / f"keys-{len(list(tmp_path.iterdir()))}")
    with execution_defaults(cache=cache):
        collect(workload, constants)
    return cache.keys


def refuse(*args, **kwargs):
    raise AssertionError("a warm harness collect reached the engine")


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.harness)
class TestWarmCollect:
    def test_warm_collect_runs_no_engine(self, tmp_path, monkeypatch, workload):
        with execution_defaults(cache=ResultCache(tmp_path / "cache")):
            cold = collect(workload)
        for site in ENGINE_SITES:
            monkeypatch.setattr(site, refuse)
        monkeypatch.setattr("repro.claims.sampler.build_workload", refuse)
        warm_cache = ResultCache(tmp_path / "cache")
        with execution_defaults(cache=warm_cache):
            warm = collect(workload)
        assert warm_cache.stats.lookups == workload.graphs * workload.seeds
        assert warm_cache.stats.hits == warm_cache.stats.lookups
        assert warm.scalars == cold.scalars
        assert warm.cells == cold.cells
        assert warm.trials_used == cold.trials_used

    def test_warm_trials_show_in_telemetry(self, tmp_path, workload):
        with execution_defaults(cache=ResultCache(tmp_path / "cache")):
            collect(workload)
            with recording(Registry()) as registry:
                collect(workload)
        counters = registry.counter_values()
        assert counters["exec.trials.total"] == workload.graphs * workload.seeds
        assert counters["exec.trials.cache_hits"] == counters["exec.trials.total"]
        assert counters.get("exec.trials.computed", 0) == 0


class TestTrialsUsed:
    def test_counts_engine_runs_per_harness(self):
        residual, luby, breakdown = WORKLOADS
        assert collect(residual).trials_used == 2 * 2 * 2  # CD + no-CD
        assert collect(luby).trials_used == 2 * 2
        assert collect(breakdown).trials_used == 1 * 2


class TestHarnessKeys:
    BASE = HarnessWorkload("residual", n=10, graphs=2, seeds=2)

    def test_one_key_per_graph_and_run_seed(self, tmp_path):
        keys = harness_keys(tmp_path, self.BASE)
        assert len(keys) == len(set(keys)) == 4

    def test_keys_differ_across_identity(self, tmp_path):
        base = set(harness_keys(tmp_path, self.BASE))
        variants = [
            harness_keys(tmp_path, HarnessWorkload("luby-phase-props", n=10)),
            harness_keys(tmp_path, HarnessWorkload("energy-breakdown", n=10)),
            harness_keys(tmp_path, HarnessWorkload("residual", n=11)),
            harness_keys(
                tmp_path, self.BASE, constants=ConstantsProfile.practical()
            ),
        ]
        seen = set(base)
        for keys in variants:
            assert not seen & set(keys)
            seen.update(keys)

    def test_never_a_sweep_key(self, tmp_path):
        workload = HarnessWorkload("luby-phase-props", n=10)
        keys = set(harness_keys(tmp_path, workload))
        for protocol in (
            NoCDEnergyMISProtocol(constants=FAST),
            NoCDEnergyMISProtocol(constants=FAST, instrument=True),
        ):
            for seed in range(workload.seeds):
                sweep_key = trial_key(
                    protocol=protocol,
                    model_name="no-cd",
                    graph_spec=f"claims:gnp/n={workload.n}",
                    seed=seed,
                )
                assert sweep_key not in keys
