"""Tests for the declarative campaign runner."""

import json

import pytest

from repro.analysis.campaign import (
    CampaignSpec,
    load_campaign,
    run_campaign,
)
from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.executor import execution_defaults


def small_spec(**overrides):
    data = {
        "name": "test-campaign",
        "protocols": ["cd-mis"],
        "workloads": ["gnp", "path"],
        "sizes": [16, 24],
        "trials": 2,
        "profile": "fast",
        "seed": 1,
    }
    data.update(overrides)
    return CampaignSpec.from_dict(data)


class TestSpecValidation:
    def test_valid(self):
        spec = small_spec()
        assert spec.name == "test-campaign"
        assert spec.sizes == (16, 24)

    def test_missing_key(self):
        with pytest.raises(ConfigurationError, match="missing required key"):
            CampaignSpec.from_dict({"name": "x", "protocols": ["cd-mis"]})

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            small_spec(protocols=[])
        with pytest.raises(ConfigurationError):
            small_spec(sizes=[])

    def test_bad_profile(self):
        with pytest.raises(ConfigurationError):
            small_spec(profile="turbo")

    def test_bad_trials(self):
        with pytest.raises(ConfigurationError):
            small_spec(trials=0)


class TestExecution:
    def test_grid_shape(self):
        result = run_campaign(small_spec())
        assert len(result.cells) == 1 * 2 * 2  # protocols x workloads x sizes
        assert {cell.workload for cell in result.cells} == {"gnp", "path"}
        assert {cell.n for cell in result.cells} == {16, 24}

    def test_all_cells_succeed(self):
        result = run_campaign(small_spec())
        assert result.total_failures == 0
        for cell in result.cells:
            assert cell.mis_size_mean >= 1

    def test_deterministic(self):
        a = run_campaign(small_spec())
        b = run_campaign(small_spec())
        assert a.cells == b.cells

    def test_model_override(self):
        spec = small_spec(model="beep")
        result = run_campaign(spec)
        assert all(cell.model == "beep" for cell in result.cells)

    def test_table_and_csv(self):
        result = run_campaign(small_spec())
        table = result.to_table()
        assert "test-campaign" in table
        csv_text = result.to_csv()
        assert csv_text.splitlines()[0].startswith("protocol,model,workload")
        assert len(csv_text.strip().splitlines()) == 1 + len(result.cells)


class TestLoadFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(
            json.dumps(
                {
                    "name": "file-campaign",
                    "protocols": ["cd-mis"],
                    "workloads": ["path"],
                    "sizes": [12],
                }
            )
        )
        spec = load_campaign(path)
        assert spec.name == "file-campaign"
        assert spec.trials == 5  # default

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_campaign(path)

    def test_example_campaign_file_is_valid(self):
        from pathlib import Path

        example = (
            Path(__file__).parents[2] / "examples" / "campaign_cd_vs_naive.json"
        )
        spec = load_campaign(example)
        assert spec.name == "cd-vs-naive"
        assert "cd-mis" in spec.protocols


class TestCLICampaign:
    def test_cli_runs_campaign(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli-campaign",
                    "protocols": ["cd-mis"],
                    "workloads": ["path"],
                    "sizes": [12],
                    "trials": 2,
                    "profile": "fast",
                }
            )
        )
        csv_path = tmp_path / "out.csv"
        code = main(["campaign", str(path), "--csv", str(csv_path)])
        assert code == 0
        assert "cli-campaign" in capsys.readouterr().out
        assert csv_path.exists()


class TestErrorPaths:
    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError, match="unknown protocol.*choose from"):
            small_spec(protocols=["warp-mis"])

    def test_unknown_workload(self):
        with pytest.raises(ConfigurationError, match="unknown workload.*choose from"):
            small_spec(workloads=["moebius"])

    def test_unknown_model_override(self):
        with pytest.raises(ConfigurationError, match="unknown collision model"):
            small_spec(model="quantum")

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x", "protocols": [')
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_campaign(path)

    def test_run_campaign_validates_direct_constructions(self):
        # Specs built via the constructor (bypassing from_dict) are
        # re-validated before any trial runs.
        spec = CampaignSpec(
            name="bad", protocols=("no-such-proto",), workloads=("path",),
            sizes=(8,),
        )
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            run_campaign(spec)


class TestParallelAndCache:
    def test_parallel_campaign_matches_sequential(self):
        sequential = run_campaign(small_spec())
        with execution_defaults(jobs=4):
            parallel = run_campaign(small_spec())
        assert parallel.cells == sequential.cells

    def test_repeat_campaign_is_all_cache_hits(self, tmp_path):
        spec = small_spec()
        root = tmp_path / "cache"
        with execution_defaults(cache=ResultCache(root)):
            first = run_campaign(spec)
        cache = ResultCache(root)
        with execution_defaults(cache=cache):
            second = run_campaign(spec)
        total_trials = spec.trials * len(first.cells)
        assert cache.stats.hits == total_trials
        assert cache.stats.misses == 0
        assert second.cells == first.cells

    def test_changed_grid_reuses_overlap(self, tmp_path):
        root = tmp_path / "cache"
        with execution_defaults(cache=ResultCache(root)):
            run_campaign(small_spec())
        cache = ResultCache(root)
        grown = small_spec(sizes=[16, 24, 32])
        with execution_defaults(cache=cache):
            run_campaign(grown)
        # The 16/24 cells are served from cache; only n=32 is computed.
        assert cache.stats.hits == 2 * 2 * 2  # protocols x workloads(2) x trials
        assert cache.stats.writes == 2 * 1 * 2  # the new size only

    def test_cli_campaign_jobs_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli-parallel",
                    "protocols": ["cd-mis"],
                    "workloads": ["path"],
                    "sizes": [12],
                    "trials": 2,
                    "profile": "fast",
                }
            )
        )
        cache_dir = tmp_path / "cache"
        argv = ["campaign", str(path), "--jobs", "2", "--resume",
                "--cache-dir", str(cache_dir)]
        assert main(list(argv)) == 0
        assert main(list(argv)) == 0  # resumed entirely from cache
        assert "cli-parallel" in capsys.readouterr().out
        assert list(cache_dir.glob("*.jsonl"))
