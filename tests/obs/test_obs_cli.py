"""End-to-end CLI tests: ``--telemetry`` / ``--cprofile`` on real
commands, then ``repro-mis obs summarize`` on the produced file."""

import pytest

from repro.cli import main
from repro.obs.export import read_jsonl
from repro.obs.registry import NULL_REGISTRY, get_registry


def run_with_telemetry(path, extra=()):
    argv = [
        "--profile", "fast", "run", "cd-mis",
        "--n", "12", "--trials", "2", "--telemetry", str(path), *extra,
    ]
    assert main(argv) == 0
    return read_jsonl(path, strict=True)  # strict: schema must validate


class TestTelemetryOption:
    def test_run_writes_valid_jsonl(self, tmp_path):
        records = run_with_telemetry(tmp_path / "t.jsonl")
        types = [record["type"] for record in records]
        assert types[0] == "meta"
        assert types[-1] == "summary"
        assert "progress" in types
        summary = records[-1]
        assert summary["counters"]["engine.runs"] == 2
        assert summary["counters"]["exec.trials.total"] == 2
        # The fast-path breakdown partitions the processed rounds.
        counters = summary["counters"]
        assert counters["engine.rounds.processed"] == (
            counters.get("engine.rounds.zero_tx", 0)
            + counters.get("engine.rounds.one_tx", 0)
            + counters.get("engine.rounds.scatter_dict", 0)
        )
        assert summary["histograms"]["engine.wall_s"]["count"] == 2

    def test_session_restores_null_registry(self, tmp_path):
        assert get_registry() is NULL_REGISTRY
        run_with_telemetry(tmp_path / "t.jsonl")
        assert get_registry() is NULL_REGISTRY

    def test_cache_stats_land_in_summary(self, tmp_path):
        extra = ("--cache", "--cache-dir", str(tmp_path / "cache"))
        run_with_telemetry(tmp_path / "one.jsonl", extra)
        records = run_with_telemetry(tmp_path / "two.jsonl", extra)
        cache = records[-1]["cache"]
        assert cache["hits"] == 2 and cache["misses"] == 0
        assert records[-1]["counters"]["exec.trials.cache_hits"] == 2

    def test_experiment_writes_progress_records(self, tmp_path):
        # Experiments run their batteries under the execution settings
        # main() installs, so they report to the session like run/sweep.
        path = tmp_path / "t.jsonl"
        argv = ["--profile", "fast", "experiment", "E9"]
        assert main([*argv, "--telemetry", str(path)]) == 0
        records = read_jsonl(path, strict=True)
        assert any(record["type"] == "progress" for record in records)

    def test_pooled_run_merges_worker_counters(self, tmp_path):
        records = run_with_telemetry(tmp_path / "t.jsonl", ("--jobs", "2"))
        counters = records[-1]["counters"]
        assert counters["engine.runs"] == 2
        assert counters["exec.trials.computed"] == 2


class TestObsSummarize:
    def test_renders_report(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        run_with_telemetry(path)
        capsys.readouterr()
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine" in out
        assert "rounds processed" in out
        assert "energy by component" in out
        assert "trials: 2 total" in out

    def test_batched_sweep_renders_execution_section(self, tmp_path, capsys):
        pytest.importorskip("numpy")
        path = tmp_path / "t.jsonl"
        argv = [
            "--profile", "fast", "sweep", "cd-mis", "--sizes", "64",
            "--trials", "40", "--telemetry", str(path),
        ]
        assert main(argv) == 0
        counters = read_jsonl(path, strict=True)[-1]["counters"]
        assert counters["engine.batch.trials"] == 40
        capsys.readouterr()
        assert main(["obs", "summarize", str(path)]) == 0
        assert "trials: 40 total" in capsys.readouterr().out

    def test_cache_report_includes_hit_rate(self, tmp_path, capsys):
        extra = ("--cache", "--cache-dir", str(tmp_path / "cache"))
        run_with_telemetry(tmp_path / "one.jsonl", extra)
        run_with_telemetry(tmp_path / "two.jsonl", extra)
        capsys.readouterr()
        assert main(["obs", "summarize", str(tmp_path / "two.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "result cache" in out
        # Second run: 2 lookups, 2 hits, 0 writes — rate 1.0.
        assert "lookups: 2 (2 hits, 0 misses), writes: 0" in out
        assert "hit rate: 1.0000 (100.0%)" in out

    def test_cache_report_zero_lookups(self, tmp_path, capsys):
        # A session whose cache was never consulted (no trials) still
        # reports a well-defined 0.0 hit rate, not NaN or a crash.
        from repro.obs.export import JsonlWriter, meta_record, summary_record
        from repro.obs.registry import Registry

        path = tmp_path / "t.jsonl"
        with JsonlWriter(path) as writer:
            writer.write(meta_record("run", []))
            writer.write(
                summary_record(
                    Registry(),
                    cache_stats={
                        "hits": 0, "misses": 0, "writes": 0, "hit_rate": 0.0,
                    },
                )
            )
        capsys.readouterr()
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "hit rate: 0.0000 (n/a)" in out

    def test_churned_run_renders_faults_section(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        records = run_with_telemetry(
            path, ("--faults", "churn=1.0@30..32,seed=1")
        )
        counters = records[-1]["counters"]
        assert counters["faults.churn.events.toggle"] >= 1
        capsys.readouterr()
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "faults & churn" in out
        assert "toggle events" in out
        assert "repair rounds" in out
        assert "violation-window rounds" in out

    def test_static_run_omits_faults_section(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        run_with_telemetry(path)
        capsys.readouterr()
        assert main(["obs", "summarize", str(path)]) == 0
        assert "faults & churn" not in capsys.readouterr().out

    def test_multiple_files(self, tmp_path, capsys):
        one, two = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_with_telemetry(one)
        run_with_telemetry(two)
        capsys.readouterr()
        assert main(["obs", "summarize", str(one), str(two)]) == 0
        out = capsys.readouterr().out
        assert str(one) in out and str(two) in out

    def test_missing_file_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["obs", "summarize", str(tmp_path / "nope.jsonl")])

    def test_strict_mode_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(SystemExit):
            main(["obs", "summarize", "--strict", str(path)])
        # Tolerant mode renders (exit 1: no usable records).
        assert main(["obs", "summarize", str(path)]) == 1


class TestChannelsSummarize:
    def run_multichannel(self, path, extra=()):
        argv = [
            "--profile", "fast", "run", "mc-luby", "--n", "12", "--trials", "2",
            "--channels", "4", "--telemetry", str(path), *extra,
        ]
        assert main(argv) == 0
        return read_jsonl(path, strict=True)

    def test_multichannel_run_renders_channels_section(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        records = self.run_multichannel(path)
        counters = records[-1]["counters"]
        assert counters["engine.channels.rounds"] >= 1
        assert counters["engine.batch.fallback.multichannel"] == 1
        capsys.readouterr()
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "channels" in out
        assert "multichannel rounds:" in out
        assert "tx rounds" in out
        assert "batch fallbacks (multichannel): 1" in out

    def test_channel_jam_renders_per_channel_row(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        records = self.run_multichannel(
            path, ("--faults", "jam=0..200@0.9:2,seed=1")
        )
        counters = records[-1]["counters"]
        assert counters["faults.jam.applied.2"] >= 1
        capsys.readouterr()
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "faults & churn" in out
        assert "jams applied (channel 2)" in out

    def test_single_channel_run_omits_channels_section(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        run_with_telemetry(path)
        capsys.readouterr()
        assert main(["obs", "summarize", str(path)]) == 0
        assert "multichannel rounds:" not in capsys.readouterr().out


class TestCProfileOption:
    def test_writes_profile_table(self, tmp_path):
        out_dir = tmp_path / "profiles"
        argv = [
            "--profile", "fast", "run", "cd-mis",
            "--n", "10", "--trials", "1", "--cprofile", str(out_dir),
        ]
        assert main(argv) == 0
        table = out_dir / "profile_cli_run.txt"
        assert table.exists()
        content = table.read_text()
        assert "cProfile: cli_run" in content
        assert "cumulative" in content

    def test_combines_with_telemetry(self, tmp_path):
        argv = [
            "--profile", "fast", "run", "cd-mis", "--n", "10", "--trials", "1",
            "--telemetry", str(tmp_path / "t.jsonl"),
            "--cprofile", str(tmp_path / "profiles"),
        ]
        assert main(argv) == 0
        assert (tmp_path / "profiles" / "profile_cli_run.txt").exists()
        records = read_jsonl(tmp_path / "t.jsonl", strict=True)
        assert records[-1]["type"] == "summary"
