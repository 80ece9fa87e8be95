"""Bootstrap confidence intervals on a fitted poly-log exponent.

The fit itself is :mod:`repro.analysis.complexity_fit`'s.  The claim
predicates add a seed-deterministic *bootstrap* confidence interval on
its continuous exponent, resampling trials within each size cell so the
CI reflects trial-to-trial noise rather than grid placement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from ..analysis.complexity_fit import loglog_regression, validate_sweep
from ..analysis.stats import percentile
from ..errors import ConfigurationError

__all__ = ["ExponentCI", "bootstrap_exponent_ci"]


@dataclass(frozen=True)
class ExponentCI:
    """Bootstrap percentile CI on a fitted continuous exponent."""

    estimate: float
    low: float
    high: float
    confidence: float
    resamples: int

    @property
    def width(self) -> float:
        return self.high - self.low

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def bootstrap_exponent_ci(
    samples: Mapping[int, Sequence[float]],
    confidence: float = 0.95,
    resamples: int = 300,
    seed: int = 0,
) -> ExponentCI:
    """Bootstrap CI on the continuous exponent of a size sweep.

    ``samples`` maps each size to its per-trial observations.  Each
    bootstrap replicate resamples trials *within* every size cell (with
    replacement), refits the continuous exponent on the resampled cell
    means, and the CI is the percentile interval of the replicate
    exponents — deterministic given ``seed``.
    """
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    if resamples < 1:
        raise ConfigurationError(f"resamples must be positive, got {resamples}")
    cells: Dict[int, List[float]] = {
        int(n): [float(v) for v in vs] for n, vs in samples.items() if vs
    }
    sizes = sorted(cells)
    cell_means = [sum(cells[n]) / len(cells[n]) for n in sizes]
    validate_sweep(sizes, cell_means)
    point, _ = loglog_regression(sizes, cell_means)
    rng = random.Random(seed)
    replicates: List[float] = []
    for _ in range(resamples):
        means = []
        for n in sizes:
            values = cells[n]
            means.append(
                sum(values[rng.randrange(len(values))] for _ in values)
                / len(values)
            )
        slope, _ = loglog_regression(sizes, means)
        replicates.append(slope)
    alpha = (1.0 - confidence) / 2.0
    return ExponentCI(
        estimate=point,
        low=percentile(replicates, 100.0 * alpha),
        high=percentile(replicates, 100.0 * (1.0 - alpha)),
        confidence=confidence,
        resamples=resamples,
    )
