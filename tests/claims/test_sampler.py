"""Tests for the adaptive sampler: batching, seed discipline, budgets."""

import pytest

from repro.claims.sampler import (
    SamplerConfig,
    _batch_range,
    _cell_seeds,
    collect_measurements,
)
from repro.claims.spec import (
    CeilingPredicate,
    Claim,
    EvalContext,
    HarnessWorkload,
    PairedBitIdentity,
    PaperRef,
    PairedWorkload,
    ScalarBound,
    SweepWorkload,
)
from repro.constants import ConstantsProfile
from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.executor import execution_defaults
from repro.obs.registry import Registry, set_registry

REF = PaperRef("Thm", "§1", ("E1",), "s")
FAST = ConstantsProfile.fast()

# A strict predicate that is decided as soon as any sweep data exists:
# the sampler converges after the first batch.
ALWAYS_DECIDED = CeilingPredicate(
    name="huge-cap",
    protocol="cd-mis",
    metric="max_energy",
    ceiling=lambda n, constants: 1e9,
)


def config(**overrides):
    settings = {"constants": FAST}
    settings.update(overrides)
    return SamplerConfig(**settings)


def sweep_claim(workload, strict=None):
    return Claim(
        claim_id="c",
        title="t",
        ref=REF,
        workload=workload,
        strict=strict or (ScalarBound(name="undecidable", key="no", bound=1),),
    )


class TestBatchRange:
    def test_first_batch_is_initial_trials(self):
        assert _batch_range(3, 2, 0) == (0, 3)

    def test_later_batches_are_contiguous(self):
        assert _batch_range(3, 2, 1) == (3, 5)
        assert _batch_range(3, 2, 2) == (5, 7)

    def test_windows_tile_without_gaps(self):
        stops = [_batch_range(4, 3, i) for i in range(5)]
        for (first_start, first_stop), (next_start, _) in zip(stops, stops[1:]):
            assert first_stop == next_start
        assert stops[0][0] == 0


class TestCellSeeds:
    def test_seed_depends_only_on_label_and_index(self):
        # Seeds for [0, 5) must equal seeds for [0, 3) + [3, 5): batch
        # boundaries never shift a trial's seed (cache resume is free).
        settings = config(base_seed=42)
        whole = _cell_seeds(settings, "cell", 0, 5)
        split = _cell_seeds(settings, "cell", 0, 3) + _cell_seeds(
            settings, "cell", 3, 5
        )
        assert whole == split

    def test_distinct_labels_decorrelate(self):
        settings = config(base_seed=42)
        assert _cell_seeds(settings, "a", 0, 3) != _cell_seeds(
            settings, "b", 0, 3
        )

    def test_base_seed_changes_everything(self):
        assert _cell_seeds(config(base_seed=1), "a", 0, 3) != _cell_seeds(
            config(base_seed=2), "a", 0, 3
        )


class TestCollectSweep:
    WORKLOAD = SweepWorkload(
        protocols=("cd-mis",), sizes=(16,), trials=2, batch=1, max_batches=2
    )

    def test_measurements_structure(self):
        claim = sweep_claim(self.WORKLOAD)
        measurements, exhausted = collect_measurements(
            self.WORKLOAD, [claim], EvalContext(constants=FAST), config()
        )
        samples = measurements.sweep_samples("cd-mis", "max_energy")
        assert list(samples) == [16]
        # ScalarBound on a missing key never decides: the sampler runs
        # every batch (2 + 1 trials) and reports the budget exhausted.
        assert len(samples[16]) == 3
        assert exhausted
        assert measurements.trials_used == 3
        assert measurements.models["cd-mis"] == "cd"

    def test_converges_after_first_batch_when_decided(self):
        claim = sweep_claim(self.WORKLOAD, strict=(ALWAYS_DECIDED,))
        measurements, exhausted = collect_measurements(
            self.WORKLOAD, [claim], EvalContext(constants=FAST), config()
        )
        assert not exhausted
        samples = measurements.sweep_samples("cd-mis", "max_energy")
        assert len(samples[16]) == 2  # first batch only

    def test_deterministic_across_runs(self):
        claim = sweep_claim(self.WORKLOAD)
        first, _ = collect_measurements(
            self.WORKLOAD, [claim], EvalContext(constants=FAST), config()
        )
        second, _ = collect_measurements(
            self.WORKLOAD, [claim], EvalContext(constants=FAST), config()
        )
        assert first.sweeps == second.sweeps

    def test_budget_stops_batching(self):
        claim = sweep_claim(self.WORKLOAD)
        measurements, exhausted = collect_measurements(
            self.WORKLOAD,
            [claim],
            EvalContext(constants=FAST),
            config(budget=1),
        )
        assert exhausted
        samples = measurements.sweep_samples("cd-mis", "max_energy")
        assert len(samples[16]) == 2  # batch 0 ran; budget blocked batch 1

    def test_cache_serves_second_run(self, tmp_path):
        claim = sweep_claim(self.WORKLOAD, strict=(ALWAYS_DECIDED,))
        cache = ResultCache(tmp_path / "cache")
        with execution_defaults(cache=cache):
            collect_measurements(
                self.WORKLOAD, [claim], EvalContext(constants=FAST), config()
            )
        assert cache.stats.writes > 0
        resumed = ResultCache(tmp_path / "cache")
        with execution_defaults(cache=resumed):
            second, _ = collect_measurements(
                self.WORKLOAD, [claim], EvalContext(constants=FAST), config()
            )
        assert resumed.stats.hits == resumed.stats.lookups
        assert second.sweep_samples("cd-mis", "max_energy")[16]

    def test_counters_incremented(self):
        registry = Registry()
        previous = set_registry(registry)
        try:
            claim = sweep_claim(self.WORKLOAD, strict=(ALWAYS_DECIDED,))
            collect_measurements(
                self.WORKLOAD, [claim], EvalContext(constants=FAST), config()
            )
        finally:
            set_registry(previous)
        counters = registry.counter_values()
        assert counters["claims.batches"] == 1
        assert counters["claims.trials"] == 2
        assert counters["claims.converged"] == 1


class TestCollectPaired:
    WORKLOAD = PairedWorkload(
        protocol_a="cd-mis",
        model_a="cd",
        protocol_b="beeping-mis",
        model_b="beep",
        n=16,
        trials=2,
        batch=1,
        max_batches=1,
    )

    def test_pairs_share_seeds_and_agree(self):
        claim = Claim(
            claim_id="pair",
            title="t",
            ref=REF,
            workload=self.WORKLOAD,
            strict=(PairedBitIdentity(name="bit", min_pairs=2),),
        )
        measurements, exhausted = collect_measurements(
            self.WORKLOAD, [claim], EvalContext(constants=FAST), config()
        )
        assert not exhausted
        assert len(measurements.paired) == 2
        for pair in measurements.paired:
            assert pair["a"] == pair["b"]  # beeping variant is bit-identical
        assert measurements.trials_used == 4  # two protocols per pair


class TestCollectHarness:
    def test_unknown_harness_rejected(self):
        # Rejected at construction, before any graph is built.
        with pytest.raises(ConfigurationError) as excinfo:
            HarnessWorkload(harness="nonsense", n=16)
        for name in ("residual", "luby-phase-props", "energy-breakdown"):
            assert name in str(excinfo.value)

    @pytest.mark.parametrize("field", ["n", "graphs", "seeds"])
    def test_non_positive_sizes_rejected(self, field):
        settings = {"harness": "residual", "n": 16, "graphs": 1, "seeds": 1}
        settings[field] = 0
        with pytest.raises(ConfigurationError, match=field):
            HarnessWorkload(**settings)

    def test_residual_harness_is_one_shot(self):
        workload = HarnessWorkload(harness="residual", n=16, graphs=1, seeds=1)
        claim = sweep_claim(workload)  # undecidable -> would loop if it could
        measurements, exhausted = collect_measurements(
            workload, [claim], EvalContext(constants=FAST), config()
        )
        assert exhausted  # nothing more to offer, predicate still open
        assert any(
            key.startswith("residual/") for key in measurements.scalars
        )


class TestCollectorDispatch:
    def test_unknown_workload_type_rejected(self):
        with pytest.raises(ConfigurationError):
            collect_measurements(
                object(), [], EvalContext(constants=FAST), config()
            )
