"""Render a human-readable report from telemetry JSONL files.

Backs the ``repro-mis obs summarize`` CLI: load one or more telemetry
files (see :mod:`repro.obs.export` for the schema), merge their summary
snapshots, and print counters, histogram statistics, and the derived
quantities operators actually ask about — engine fast-path breakdown,
coroutine resumes, per-component energy, cache hit rate, and worker
utilization.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .export import read_jsonl, records_to_registry
from .registry import Registry

__all__ = ["summarize_records", "summarize_files"]


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Minimal aligned-column renderer (obs stays dependency-free)."""

    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    text_rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in text_rows))
        if text_rows
        else len(headers[col])
        for col in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in text_rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _percentage(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole else "n/a"


def _engine_section(counters: Dict[str, int]) -> Optional[str]:
    processed = counters.get("engine.rounds.processed", 0)
    if not counters.get("engine.runs") and not processed:
        return None
    rows = [
        ("runs", counters.get("engine.runs", 0), ""),
        ("rounds processed", processed, ""),
        ("rounds skipped (clock jump)", counters.get("engine.rounds.skipped", 0), ""),
        (
            "  zero-transmitter fast path",
            counters.get("engine.rounds.zero_tx", 0),
            _percentage(counters.get("engine.rounds.zero_tx", 0), processed),
        ),
        (
            "  lone-transmitter fast path",
            counters.get("engine.rounds.one_tx", 0),
            _percentage(counters.get("engine.rounds.one_tx", 0), processed),
        ),
        (
            "  dict scatter",
            counters.get("engine.rounds.scatter_dict", 0),
            _percentage(counters.get("engine.rounds.scatter_dict", 0), processed),
        ),
        (
            "coroutine resumes",
            counters.get("engine.resumes", 0),
            f"{counters.get('engine.resumes', 0) / processed:.2f}/round"
            if processed
            else "n/a",
        ),
        ("  listen-window rounds", counters.get("engine.rounds.window", 0), ""),
        (
            "  scheduled transmit rounds",
            counters.get("engine.rounds.scheduled", 0),
            "",
        ),
    ]
    return "engine\n" + _format_table(
        ["metric", "value", "share"], [list(row) for row in rows]
    )


def _energy_section(counters: Dict[str, int]) -> Optional[str]:
    components = {
        name[len("engine.energy.") :]: value
        for name, value in counters.items()
        if name.startswith("engine.energy.")
    }
    if not components:
        return None
    total = sum(components.values())
    rows = [
        [component, value, _percentage(value, total)]
        for component, value in sorted(
            components.items(), key=lambda item: -item[1]
        )
    ]
    rows.append(["total", total, ""])
    return "energy by component (awake node-rounds)\n" + _format_table(
        ["component", "rounds", "share"], rows
    )


def _exec_section(
    counters: Dict[str, int], histograms: Dict[str, Dict[str, float]]
) -> Optional[str]:
    total = counters.get("exec.trials.total", 0)
    if not total:
        return None
    hits = counters.get("exec.trials.cache_hits", 0)
    computed = counters.get("exec.trials.computed", 0)
    lines = [
        "execution",
        f"  trials: {total} total, {computed} computed, {hits} cache hits "
        f"(hit rate {_percentage(hits, total)})",
    ]
    invalid = counters.get("trials.invalid", 0)
    if invalid:
        lines.append(f"  invalid runs: {invalid} ({_percentage(invalid, total)})")
    trial_wall = histograms.get("exec.trial_wall_s")
    if trial_wall and trial_wall["count"]:
        lines.append(
            f"  trial wall time: mean "
            f"{trial_wall['sum'] / trial_wall['count']:.4f}s "
            f"(min {trial_wall['min']:.4f}s, max {trial_wall['max']:.4f}s)"
        )
    battery_wall = histograms.get("exec.battery_wall_s")
    jobs_hist = histograms.get("exec.jobs")
    if battery_wall and battery_wall["count"] and trial_wall and trial_wall["count"]:
        jobs = int(jobs_hist["max"]) if jobs_hist and jobs_hist["count"] else 1
        busy = trial_wall["sum"]
        capacity = battery_wall["sum"] * max(1, jobs)
        if capacity > 0:
            lines.append(
                f"  worker utilization: {100.0 * busy / capacity:.1f}% "
                f"({jobs} worker(s), {battery_wall['count']} batteries, "
                f"{battery_wall['sum']:.4f}s elapsed)"
            )
    return "\n".join(lines)


def _cache_section(records: List[Dict[str, Any]]) -> Optional[str]:
    """Result-cache report from the summary records' ``cache`` stats."""
    snapshots = [
        record["cache"]
        for record in records
        if record["type"] == "summary" and isinstance(record.get("cache"), dict)
    ]
    if not snapshots:
        return None
    hits = sum(int(snap.get("hits", 0)) for snap in snapshots)
    misses = sum(int(snap.get("misses", 0)) for snap in snapshots)
    writes = sum(int(snap.get("writes", 0)) for snap in snapshots)
    lookups = hits + misses
    hit_rate = hits / lookups if lookups else 0.0
    return (
        "result cache\n"
        f"  lookups: {lookups} ({hits} hits, {misses} misses), "
        f"writes: {writes}\n"
        f"  hit rate: {hit_rate:.4f} ({_percentage(hits, lookups)})"
    )


def _faults_section(counters: Dict[str, int]) -> Optional[str]:
    """Fault/churn report: event mix, repair cost, batch fallbacks."""
    churn = {
        name[len("faults.churn.") :]: value
        for name, value in sorted(counters.items())
        if name.startswith("faults.churn.")
    }
    jams = {
        name[len("faults.jam.applied.") :]: value
        for name, value in sorted(counters.items())
        if name.startswith("faults.jam.applied.")
    }
    fallback_churn = counters.get("engine.batch.fallback.churn", 0)
    fallback_faults = counters.get("engine.batch.fallback.faults", 0)
    if not churn and not jams and not fallback_churn and not fallback_faults:
        return None
    rows = []
    for kind, value in sorted(churn.items()):
        if kind.startswith("events."):
            rows.append([f"{kind[len('events.') :]} events", value])
    for key, label in (
        ("repair_rounds", "repair rounds"),
        ("repair_energy", "repair energy"),
        ("violation_window", "violation-window rounds"),
        ("restarted_nodes", "repair-restarted nodes"),
        ("unresolved_events", "unresolved events"),
    ):
        if key in churn:
            rows.append([label, churn[key]])
    for channel, value in sorted(jams.items(), key=lambda item: int(item[0])):
        rows.append([f"jams applied (channel {channel})", value])
    if fallback_churn:
        rows.append(["batch fallbacks (churn)", fallback_churn])
    if fallback_faults:
        rows.append(["batch fallbacks (faults)", fallback_faults])
    return "faults & churn\n" + _format_table(["metric", "value"], rows)


def _channels_section(counters: Dict[str, int]) -> Optional[str]:
    """Multichannel report: active channels, per-channel traffic mix."""
    mc_rounds = counters.get("engine.channels.rounds", 0)
    tx = {
        int(name[len("engine.channels.tx.") :]): value
        for name, value in counters.items()
        if name.startswith("engine.channels.tx.")
    }
    collisions = {
        int(name[len("engine.channels.collisions.") :]): value
        for name, value in counters.items()
        if name.startswith("engine.channels.collisions.")
    }
    if not mc_rounds and not tx and not collisions:
        return None
    channels = sorted(set(tx) | set(collisions))
    lines = [
        "channels",
        f"  multichannel rounds: {mc_rounds}, active channels: {len(channels)}",
    ]
    rows = [
        [channel, tx.get(channel, 0), collisions.get(channel, 0)]
        for channel in channels
    ]
    lines.append(_format_table(["channel", "tx rounds", "collisions"], rows))
    fallback = counters.get("engine.batch.fallback.multichannel", 0)
    if fallback:
        lines.append(f"  batch fallbacks (multichannel): {fallback}")
    return "\n".join(lines)


def _service_section(counters: Dict[str, int]) -> Optional[str]:
    service = {
        name: value
        for name, value in sorted(counters.items())
        if name.startswith("service.")
    }
    if not service:
        return None
    return "campaign service\n" + _format_table(
        ["counter", "value"], [[name, value] for name, value in service.items()]
    )


def _histogram_section(histograms: Dict[str, Dict[str, float]]) -> Optional[str]:
    populated = {
        name: hist for name, hist in sorted(histograms.items()) if hist["count"]
    }
    if not populated:
        return None
    rows = [
        [
            name,
            int(hist["count"]),
            hist["sum"] / hist["count"],
            hist["min"],
            hist["max"],
            hist["sum"],
        ]
        for name, hist in populated.items()
    ]
    return "histograms\n" + _format_table(
        ["name", "count", "mean", "min", "max", "sum"], rows
    )


def summarize_records(
    records: List[Dict[str, Any]], title: str = "telemetry"
) -> str:
    """Render a report over parsed, validated telemetry records."""
    registry: Registry = records_to_registry(records)
    counters = registry.counter_values()
    histograms = registry.histogram_records()

    metas = [record for record in records if record["type"] == "meta"]
    progress = [record for record in records if record["type"] == "progress"]

    sections: List[str] = [f"== {title} =="]
    for meta in metas:
        sections.append(
            f"session: {meta['command']} "
            f"(argv: {' '.join(map(str, meta['argv']))})"
        )
    if progress:
        last = progress[-1]
        sections.append(
            f"progress records: {len(progress)} "
            f"(last: {last['done']}/{last['total']} trials, "
            f"{last['elapsed_s']:.2f}s elapsed)"
        )

    for section in (
        _exec_section(counters, histograms),
        _cache_section(records),
        _service_section(counters),
        _faults_section(counters),
        _channels_section(counters),
        _engine_section(counters),
        _energy_section(counters),
        _histogram_section(histograms),
    ):
        if section is not None:
            sections.append(section)

    if not counters and not histograms:
        sections.append("no summary records found (empty or truncated session?)")
    else:
        other = {
            name: value
            for name, value in counters.items()
            if not name.startswith(
                ("engine.", "exec.", "trials.", "service.", "faults.")
            )
        }
        if other:
            sections.append(
                "other counters\n"
                + _format_table(
                    ["name", "value"], [[name, value] for name, value in other.items()]
                )
            )
    return "\n\n".join(sections)


def summarize_files(
    paths: Sequence[Union[str, Path]], strict: bool = False
) -> Tuple[str, int]:
    """Summarize one or more JSONL files.

    Returns ``(report, records_seen)``.  Non-strict mode skips bad
    lines (matching :func:`repro.obs.export.read_jsonl`); strict mode
    propagates :class:`~repro.obs.export.SchemaError`.
    """
    records: List[Dict[str, Any]] = []
    for path in paths:
        records.extend(read_jsonl(path, strict=strict))
    title = ", ".join(str(path) for path in paths)
    return summarize_records(records, title=title), len(records)
