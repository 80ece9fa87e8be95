"""Export size sweeps to CSV / JSON.

These helpers serialize a sweep for external analysis (spreadsheets,
notebooks, plotting), as ``repro sweep --csv/--json`` writes it.  The
format is deliberately flat: one row per size point with scalar columns
only.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Dict, List, Union

from .sweep import SweepResult

__all__ = [
    "sweep_to_rows",
    "sweep_to_csv",
    "sweep_to_json",
    "save_text",
]

PathLike = Union[str, Path]


def sweep_to_rows(sweep: SweepResult) -> List[Dict[str, object]]:
    """Flatten a sweep into one dict per size point."""
    return [
        {
            "protocol": sweep.protocol_name,
            "model": sweep.model_name,
            "n": point.n,
            "trials": point.trials,
            "failure_rate": point.failure_rate,
            "max_energy_mean": point.max_energy_mean,
            "max_energy_max": point.max_energy_max,
            "mean_energy_mean": point.mean_energy_mean,
            "rounds_mean": point.rounds_mean,
            "rounds_max": point.rounds_max,
        }
        for point in sweep.points
    ]


def _rows_to_csv(rows: List[Dict[str, object]]) -> str:
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def sweep_to_csv(sweep: SweepResult) -> str:
    """CSV with one row per swept size."""
    return _rows_to_csv(sweep_to_rows(sweep))


def sweep_to_json(sweep: SweepResult) -> str:
    """JSON array of the sweep's rows."""
    return json.dumps(sweep_to_rows(sweep), indent=2)


def save_text(text: str, path: PathLike) -> None:
    """Write exported text to ``path`` (creating parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
