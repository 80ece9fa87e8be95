"""Experiment support: validation, trial batteries, sweeps, fitting, tables."""

from .complexity_fit import LogPowerFit, doubling_ratios, fit_log_power
from .export import (
    run_result_to_dict,
    save_text,
    sweep_to_csv,
    sweep_to_json,
    sweep_to_rows,
    trials_to_csv,
    trials_to_rows,
)
from .runner import TrialOutcome, TrialSummary, run_records, run_trials
from .stats import (
    Summary,
    bootstrap_ci,
    geometric_mean,
    percentile,
    summarize,
    wilson_interval,
)
from .sweep import SweepPoint, SweepResult, run_size_sweep
from .tables import format_cell, render_series, render_table
from .validation import ValidationReport, validate_mis, validate_run

__all__ = [
    "LogPowerFit",
    "doubling_ratios",
    "fit_log_power",
    "run_result_to_dict",
    "save_text",
    "sweep_to_csv",
    "sweep_to_json",
    "sweep_to_rows",
    "trials_to_csv",
    "trials_to_rows",
    "TrialOutcome",
    "TrialSummary",
    "run_records",
    "run_trials",
    "Summary",
    "bootstrap_ci",
    "geometric_mean",
    "percentile",
    "summarize",
    "wilson_interval",
    "SweepPoint",
    "SweepResult",
    "run_size_sweep",
    "format_cell",
    "render_series",
    "render_table",
    "ValidationReport",
    "validate_mis",
    "validate_run",
]
