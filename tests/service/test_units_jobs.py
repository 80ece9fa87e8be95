"""Unit/job spec validation, key parity, and result assembly."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache, trial_key
from repro.service.jobs import (
    JOB_KINDS,
    assemble_cell_result,
    normalize_job,
)
from repro.service.units import (
    TrialUnitSpec,
    execute_unit,
    normalize_unit,
    unit_key,
)


class TestNormalizeUnit:
    def test_defaults(self):
        unit = normalize_unit({"algorithm": "beeping-mis"})
        assert unit.topology == "gnp"
        assert unit.n == 128
        assert unit.seed == 0
        assert unit.profile == "practical"
        assert unit.model  # the algorithm's default model
        assert unit.max_rounds is None
        assert unit.faults is None

    def test_graph_spec_matches_cli_shape(self):
        unit = normalize_unit(
            {"algorithm": "beeping-mis", "topology": "udg", "n": 64}
        )
        assert unit.graph_spec == "workload:udg/n=64"

    @pytest.mark.parametrize(
        "fragment",
        [
            {"algorithm": "no-such-algorithm"},
            {"algorithm": "beeping-mis", "profile": "nope"},
            {"algorithm": "beeping-mis", "model": "nope"},
            {"algorithm": "beeping-mis", "topology": "nope"},
            {"algorithm": "beeping-mis", "n": 0},
            {"algorithm": "beeping-mis", "n": "big"},
            {"algorithm": "beeping-mis", "seed": "zero"},
            {"algorithm": "beeping-mis", "max_rounds": 0},
            {"algorithm": "beeping-mis", "faults": "bogus=x"},
        ],
    )
    def test_rejects_bad_fragments(self, fragment):
        with pytest.raises(ConfigurationError):
            normalize_unit(fragment)

    def test_round_trips_through_record(self):
        unit = normalize_unit(
            {"algorithm": "beeping-mis", "n": 32, "seed": 7, "max_rounds": 500}
        )
        assert TrialUnitSpec.from_record(unit.to_record()) == unit


class TestUnitKeyParity:
    """unit_key must equal what run_trials derives for the same cell."""

    def test_matches_runner_trial_key(self):
        from repro.catalog import DEFAULT_MODEL, PROFILES, PROTOCOLS

        unit = normalize_unit(
            {"algorithm": "beeping-mis", "topology": "gnp", "n": 24, "seed": 5}
        )
        protocol = PROTOCOLS["beeping-mis"](PROFILES["practical"]())
        expected = trial_key(
            protocol=protocol,
            model_name=DEFAULT_MODEL["beeping-mis"],
            graph_spec="workload:gnp/n=24",
            seed=5,
            max_rounds=None,
            faults=None,
        )
        assert unit_key(unit) == expected

    def test_noop_faults_key_equals_no_faults_key(self):
        base = {"algorithm": "beeping-mis", "n": 16, "seed": 1}
        plain = normalize_unit(base)
        noop = normalize_unit({**base, "faults": "drop=0"})
        assert unit_key(noop) == unit_key(plain)

    def test_distinct_cells_get_distinct_keys(self):
        keys = {
            unit_key(normalize_unit({"algorithm": "beeping-mis", "n": n, "seed": s}))
            for n in (16, 24)
            for s in (0, 1)
        }
        assert len(keys) == 4


class TestExecuteUnit:
    def test_record_is_bit_identical_to_cli_cache_path(self, tmp_path):
        """The acceptance criterion: service results == CLI results."""
        from repro.analysis.runner import run_trials
        from repro.analysis.workloads import build_workload
        from repro.catalog import DEFAULT_MODEL, PROFILES, PROTOCOLS
        from repro.radio.models import model_by_name

        cache = ResultCache(tmp_path)
        protocol = PROTOCOLS["beeping-mis"](PROFILES["practical"]())
        model = model_by_name(DEFAULT_MODEL["beeping-mis"])
        seeds = [5, 6, 7]
        run_trials(
            lambda g: build_workload("gnp", 24, g),
            protocol,
            model,
            seeds,
            jobs=1,
            cache=cache,
            graph_spec="workload:gnp/n=24",
            faults=False,
            policy=False,
        )
        for seed in seeds:
            unit = normalize_unit(
                {"algorithm": "beeping-mis", "topology": "gnp", "n": 24, "seed": seed}
            )
            cli_record = cache.get(unit_key(unit))
            assert cli_record is not None
            service_record = execute_unit(unit)
            assert json.dumps(cli_record, sort_keys=True) == json.dumps(
                service_record, sort_keys=True
            )

    def test_large_unit_runs_on_the_scalar_engine(self, tmp_path):
        """At n >= 4096, ``auto`` would batch; the unit's key is scalar."""
        from repro.analysis.runner import run_trials
        from repro.analysis.workloads import build_workload
        from repro.catalog import PROFILES, PROTOCOLS
        from repro.radio.models import CD

        cache = ResultCache(tmp_path)
        run_trials(
            lambda g: build_workload("gnp", 4096, g),
            PROTOCOLS["cd-mis"](PROFILES["practical"]()),
            CD,
            [3],
            cache=cache,
            graph_spec="workload:gnp/n=4096",
            engine="scalar",
        )
        unit = normalize_unit({"algorithm": "cd-mis", "n": 4096, "seed": 3})
        assert execute_unit(unit) == cache.get(unit_key(unit))

    def test_determinism_across_calls(self):
        unit = normalize_unit({"algorithm": "beeping-mis", "n": 16, "seed": 3})
        assert execute_unit(unit) == execute_unit(unit)


class TestNormalizeJob:
    def test_kinds(self):
        assert JOB_KINDS == ("run", "sweep", "batch", "claims")
        with pytest.raises(ConfigurationError):
            normalize_job("nope", {})
        with pytest.raises(ConfigurationError):
            normalize_job("run", "not an object")

    def test_run_seed_derivation_matches_cli(self):
        """repro-mis run: seeds = seed + trial."""
        job = normalize_job(
            "run", {"algorithm": "beeping-mis", "trials": 3, "seed": 10}
        )
        assert len(job.cells) == 1
        assert job.cells[0].seeds == (10, 11, 12)
        assert job.total_units == 3

    def test_sweep_seed_derivation_matches_run_size_sweep(self):
        """run_size_sweep: seeds = base_seed + 7919*trial + n, per size."""
        job = normalize_job(
            "sweep",
            {"algorithm": "beeping-mis", "sizes": [16, 24], "trials": 2, "seed": 1},
        )
        assert [cell.seeds for cell in job.cells] == [
            (1 + 16, 1 + 7919 + 16),
            (1 + 24, 1 + 7919 + 24),
        ]
        assert job.total_units == 4

    def test_sweep_requires_sizes(self):
        for bad in (None, [], [0], ["x"], "16"):
            with pytest.raises(ConfigurationError):
                normalize_job(
                    "sweep", {"algorithm": "beeping-mis", "sizes": bad}
                )

    def test_batch_decomposes_each_cell(self):
        job = normalize_job(
            "batch",
            {
                "cells": [
                    {"algorithm": "beeping-mis", "n": 16, "trials": 2},
                    {"algorithm": "beeping-mis", "n": 24, "seed": 4},
                ]
            },
        )
        assert [cell.seeds for cell in job.cells] == [(0, 1), (4,)]

    def test_batch_rejects_empty_and_malformed(self):
        with pytest.raises(ConfigurationError):
            normalize_job("batch", {"cells": []})
        with pytest.raises(ConfigurationError):
            normalize_job("batch", {"cells": ["nope"]})

    def test_claims_validation(self):
        job = normalize_job("claims", {"tier": "quick"})
        assert job.cells == ()
        assert job.spec["profile"] == "practical"
        with pytest.raises(ConfigurationError):
            normalize_job("claims", {"tier": "extreme"})
        with pytest.raises(ConfigurationError):
            normalize_job("claims", {"claim_ids": ["no-such-claim"]})
        with pytest.raises(ConfigurationError):
            normalize_job("claims", {"budget": 0})

    def test_units_align_with_cells(self):
        job = normalize_job(
            "sweep",
            {"algorithm": "beeping-mis", "sizes": [16, 24], "trials": 2},
        )
        units = job.units()
        assert len(units) == 4
        assert [u.n for u in units] == [16, 16, 24, 24]
        assert all(u.seed == s for u, s in zip(units[:2], job.cells[0].seeds))


class TestAssembleCellResult:
    def _records(self):
        good = {
            "seed": 1,
            "valid": True,
            "rounds": 10,
            "max_energy": 4,
            "mean_energy": 2.5,
            "mis_size": 6,
            "failure_kinds": [],
        }
        bad = {**good, "seed": 2, "valid": False, "rounds": 12}
        quarantined = {
            "quarantined": True,
            "seed": 3,
            "attempts": 2,
            "error_type": "TrialTimeoutError",
            "message": "too slow",
            "traceback": "",
        }
        return [good, bad, quarantined]

    def test_separates_quarantines_and_aggregates(self):
        job = normalize_job(
            "run", {"algorithm": "beeping-mis", "n": 16, "trials": 3, "seed": 1}
        )
        result = assemble_cell_result(job.cells[0], self._records())
        assert len(result["outcomes"]) == 2
        assert len(result["quarantined"]) == 1
        stats = result["stats"]
        assert stats["trials"] == 2
        assert stats["failures"] == 1
        assert stats["failure_rate"] == 0.5
        assert stats["rounds"]["mean"] == 11.0
        assert result["graph_spec"] == "workload:gnp/n=16"

    def test_all_quarantined_cell(self):
        job = normalize_job(
            "run", {"algorithm": "beeping-mis", "n": 16, "seed": 3}
        )
        result = assemble_cell_result(job.cells[0], [self._records()[2]])
        assert result["stats"]["trials"] == 0
        assert result["stats"]["failure_rate"] == 0.0
        assert "rounds" not in result["stats"]
