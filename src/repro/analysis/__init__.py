"""Experiment support: validation, trial batteries, sweeps, fitting, tables."""

from .complexity_fit import PolylogFit, fit_polylog
from .export import save_text, sweep_to_csv, sweep_to_json, sweep_to_rows
from .runner import TrialOutcome, TrialSummary, run_records, run_trials
from .stats import Summary, percentile, summarize, wilson_interval
from .sweep import SweepPoint, SweepResult, run_size_sweep
from .tables import format_cell, render_table
from .validation import ValidationReport, validate_mis, validate_run

__all__ = [
    "PolylogFit",
    "fit_polylog",
    "save_text",
    "sweep_to_csv",
    "sweep_to_json",
    "sweep_to_rows",
    "TrialOutcome",
    "TrialSummary",
    "run_records",
    "run_trials",
    "Summary",
    "percentile",
    "summarize",
    "wilson_interval",
    "SweepPoint",
    "SweepResult",
    "run_size_sweep",
    "format_cell",
    "render_table",
    "ValidationReport",
    "validate_mis",
    "validate_run",
]
