"""Theorem 1: the Omega(log n) energy lower bound, made runnable."""

from .analytic import (
    SUCCESS_THRESHOLD,
    min_budget_for_success,
    sync_coin_failure,
    sync_coin_pair_failure,
    theorem1_exact_pair_bound,
    theorem1_failure_lower_bound,
)
from .experiment import BudgetPoint, LowerBoundReport, run_lower_bound_experiment
from .hard_instance import hard_instance
from .strategies import EnergyCappedCDMIS, SynchronizedCoinStrategy

__all__ = [
    "SUCCESS_THRESHOLD",
    "min_budget_for_success",
    "sync_coin_failure",
    "sync_coin_pair_failure",
    "theorem1_exact_pair_bound",
    "theorem1_failure_lower_bound",
    "BudgetPoint",
    "LowerBoundReport",
    "run_lower_bound_experiment",
    "hard_instance",
    "EnergyCappedCDMIS",
    "SynchronizedCoinStrategy",
]
