"""Tests for the telemetry JSONL schema, writer/reader, and progress
emitter."""

import json
from dataclasses import dataclass

import pytest

from repro.obs.export import (
    OBS_SCHEMA,
    JsonlProgressEmitter,
    JsonlWriter,
    SchemaError,
    meta_record,
    progress_record,
    read_jsonl,
    records_to_registry,
    summary_record,
    validate_record,
)
from repro.obs.registry import Registry


@dataclass
class FakeProgressEvent:
    done: int
    total: int
    cache_hits: int
    elapsed_s: float
    eta_s: float = None


class TestValidation:
    def test_builders_produce_valid_records(self):
        registry = Registry()
        registry.counter("c").inc()
        registry.histogram("h").observe(1.0)
        for record in (
            meta_record("run", ["--trials", "3"]),
            progress_record(1, 3, 0, 0.5),
            summary_record(registry),
            summary_record(registry, cache_stats={"hits": 1}),
        ):
            assert validate_record(record) is record

    def test_rejects_non_object(self):
        with pytest.raises(SchemaError):
            validate_record([1, 2, 3])

    def test_rejects_unknown_schema_tag(self):
        with pytest.raises(SchemaError, match="schema tag"):
            validate_record({"schema": "bogus/9", "type": "meta"})

    def test_rejects_unknown_record_type(self):
        with pytest.raises(SchemaError, match="record type"):
            validate_record({"schema": OBS_SCHEMA, "type": "mystery"})

    def test_rejects_missing_required_fields(self):
        with pytest.raises(SchemaError, match="missing field"):
            validate_record({"schema": OBS_SCHEMA, "type": "meta"})

    def test_rejects_malformed_summary_instruments(self):
        base = {"schema": OBS_SCHEMA, "type": "summary"}
        with pytest.raises(SchemaError, match="counters"):
            validate_record({**base, "counters": {"x": "NaN"}, "histograms": {}})
        with pytest.raises(SchemaError, match="histogram"):
            validate_record(
                {**base, "counters": {}, "histograms": {"h": {"count": 1}}}
            )


class TestJsonlRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        registry = Registry()
        registry.counter("engine.runs").inc(3)
        registry.histogram("wall").observe(0.5)
        with JsonlWriter(path) as writer:
            writer.write(meta_record("run", ["x"]))
            writer.write(progress_record(3, 3, 1, 0.9, eta_s=0.0))
            writer.write(summary_record(registry))
        records = read_jsonl(path)
        assert [r["type"] for r in records] == ["meta", "progress", "summary"]
        assert records[1]["cache_hits"] == 1
        assert records[2]["counters"] == {"engine.runs": 3}

    def test_writer_rejects_invalid_records(self, tmp_path):
        writer = JsonlWriter(tmp_path / "t.jsonl")
        with pytest.raises(SchemaError):
            writer.write({"type": "meta"})
        writer.close()

    def test_tolerant_read_skips_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = json.dumps(meta_record("run", []))
        path.write_text(
            good + "\n"
            + '{"torn": \n'  # invalid JSON (interrupted write)
            + json.dumps({"schema": "other/1", "type": "meta"}) + "\n"
        )
        records = read_jsonl(path)
        assert len(records) == 1
        assert records[0]["type"] == "meta"

    def test_strict_read_raises_with_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(meta_record("run", [])) + "\nnot json\n")
        with pytest.raises(SchemaError, match=":2:"):
            read_jsonl(path, strict=True)

    def test_records_to_registry_merges_summaries(self, tmp_path):
        one, two = Registry(), Registry()
        one.counter("trials").inc(2)
        two.counter("trials").inc(3)
        two.histogram("wall").observe(1.0)
        records = [
            meta_record("run", []),
            summary_record(one),
            summary_record(two),
        ]
        merged = records_to_registry(records)
        assert merged.counter("trials").value == 5
        assert merged.histogram("wall").count == 1


class TestProgressEmitter:
    def test_throttles_but_always_emits_terminal(self, tmp_path):
        writer = JsonlWriter(tmp_path / "t.jsonl")
        emitter = JsonlProgressEmitter(writer.write, min_interval_s=3600.0)
        for done in range(1, 6):
            emitter(FakeProgressEvent(done, 5, 0, done * 0.1))
        writer.close()
        records = read_jsonl(tmp_path / "t.jsonl")
        # First event emits, 2..4 are throttled, terminal always emits.
        assert [r["done"] for r in records] == [1, 5]

    def test_no_throttle_emits_everything(self, tmp_path):
        writer = JsonlWriter(tmp_path / "t.jsonl")
        emitter = JsonlProgressEmitter(writer.write, min_interval_s=0.0)
        for done in range(1, 4):
            emitter(FakeProgressEvent(done, 3, done - 1, 0.1))
        writer.close()
        records = read_jsonl(tmp_path / "t.jsonl")
        assert [r["done"] for r in records] == [1, 2, 3]
        assert [r["cache_hits"] for r in records] == [0, 1, 2]

    def test_terminal_off_throttles_terminal_but_not_forced(self):
        records = []
        emitter = JsonlProgressEmitter(
            records.append, min_interval_s=3600.0, terminal=False
        )
        emitter(FakeProgressEvent(0, 2, 0, 0.0))
        emitter(FakeProgressEvent(2, 2, 0, 0.1))  # battery end: throttled
        emitter(FakeProgressEvent(2, 2, 0, 0.2), force=True)
        assert [(r["done"], r["elapsed_s"]) for r in records] == [
            (0, 0.0), (2, 0.2)
        ]
