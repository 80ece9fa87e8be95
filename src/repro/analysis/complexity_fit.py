"""Fit measured complexities against poly-logarithmic models.

The paper's results are asymptotic classes: Theorem 2's ``O(log n)``
energy, and Theorem 10's ``O(log^2 n loglog n)`` carries a ``loglog``
factor.  One estimator serves the size sweeps, the scaling experiments
and the claim predicates:

1. the *continuous exponent*, the least-squares slope of ``log y``
   against ``log log2 n`` (:func:`loglog_regression`), which the claims'
   bootstrap CI targets;
2. a *model grid* over ``c * (log2 n)^p * (loglog2 n)^q``, ranked by
   log-space residual, which names the closest class.

With n spanning a few doublings the continuous exponent carries noise,
so experiments report both the best grid power and the raw slope, and
EXPERIMENTS.md compares *algorithms against each other* (ratios,
crossovers) rather than leaning on any single fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = [
    "PolylogModel",
    "PolylogFit",
    "fit_polylog",
    "loglog_regression",
    "validate_sweep",
]

#: default grid of log powers
DEFAULT_LOG_POWERS: Tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
#: loglog factors considered per log power (0 = none, 1 = one factor)
DEFAULT_LOGLOG_POWERS: Tuple[int, ...] = (0, 1)


@dataclass(frozen=True)
class PolylogModel:
    """One candidate model ``c * (log2 n)^p * (loglog2 n)^q``."""

    log_power: float
    loglog_power: int = 0

    def basis(self, n: int) -> float:
        """The model's size-dependent factor at ``n`` (without ``c``)."""
        if n < 4:
            raise ConfigurationError(
                f"poly-log models need n >= 4 (loglog must be positive), got {n}"
            )
        log_n = math.log2(n)
        value = log_n**self.log_power
        if self.loglog_power:
            value *= math.log2(log_n) ** self.loglog_power
        return value

    @property
    def label(self) -> str:
        """Human-readable form, e.g. ``log^2 n loglog n``."""
        power = (
            f"log^{self.log_power:g} n" if self.log_power != 1.0 else "log n"
        )
        if self.loglog_power == 0:
            return power
        if self.loglog_power == 1:
            return f"{power} loglog n"
        return f"{power} (loglog n)^{self.loglog_power}"


@dataclass(frozen=True)
class PolylogFit:
    """Grid-fit result over a size sweep.

    ``exponent`` is the continuous slope of :func:`loglog_regression`;
    ``model`` is the best grid candidate by residual, used for table
    labels, and ``coefficient`` is that candidate's ``c``.
    """

    exponent: float
    coefficient: float
    model: PolylogModel
    residual: float
    candidates: Tuple[Tuple[str, float], ...]


def validate_sweep(sizes: Sequence[int], values: Sequence[float]) -> None:
    """Reject a sweep outside the fit's domain: it needs at least two
    distinct sizes, all ``>= 4``, and positive values."""
    if len(sizes) != len(values):
        raise ConfigurationError(
            f"sizes and values must align, got {len(sizes)} vs {len(values)}"
        )
    if len(set(sizes)) < 2:
        raise ConfigurationError("need at least two distinct sizes to fit")
    if any(n < 4 for n in sizes):
        raise ConfigurationError("poly-log fits need sizes >= 4")
    if any(not value > 0 for value in values):
        raise ConfigurationError("poly-log fits need positive values")


def loglog_regression(
    sizes: Sequence[int], values: Sequence[float]
) -> Tuple[float, float]:
    """Least-squares fit of ``log y = a + b log log2 n``: ``(b, exp(a))``."""
    xs = [math.log(math.log2(n)) for n in sizes]
    ys = [math.log(value) for value in values]
    count = len(xs)
    mean_x = sum(xs) / count
    mean_y = sum(ys) / count
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        raise ConfigurationError("need at least two distinct sizes to fit")
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / denominator
    intercept = mean_y - slope * mean_x
    return slope, math.exp(intercept)


def fit_polylog(
    sizes: Sequence[int],
    values: Sequence[float],
    log_powers: Sequence[float] = DEFAULT_LOG_POWERS,
    loglog_powers: Sequence[int] = DEFAULT_LOGLOG_POWERS,
) -> PolylogFit:
    """Fit ``y ~ c * (log2 n)^p * (loglog2 n)^q`` over the grid.

    Each candidate's coefficient is the least-squares optimum in log
    space; candidates are ranked by log-space residual.
    """
    validate_sweep(sizes, values)
    exponent, _ = loglog_regression(sizes, values)

    log_values = [math.log(value) for value in values]
    best_model: PolylogModel = PolylogModel(log_powers[0], 0)
    best_residual = math.inf
    best_coefficient = 1.0
    candidates: List[Tuple[str, float]] = []
    for q in loglog_powers:
        for p in log_powers:
            model = PolylogModel(p, q)
            log_basis = [math.log(model.basis(n)) for n in sizes]
            log_c = sum(
                ly - lb for ly, lb in zip(log_values, log_basis)
            ) / len(sizes)
            residual = sum(
                (ly - log_c - lb) ** 2
                for ly, lb in zip(log_values, log_basis)
            )
            candidates.append((model.label, residual))
            if residual < best_residual:
                best_residual = residual
                best_model = model
                best_coefficient = math.exp(log_c)
    return PolylogFit(
        exponent=exponent,
        coefficient=best_coefficient,
        model=best_model,
        residual=best_residual,
        candidates=tuple(candidates),
    )
