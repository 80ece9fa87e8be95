"""Small statistics helpers (no external dependencies).

Everything the experiment harness needs: summary statistics, sample
percentiles, and Wilson confidence intervals for the failure-rate
experiments (E6, E7), where raw proportions over modest trial counts
would be misleading without intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..errors import ConfigurationError

__all__ = [
    "Summary",
    "summarize",
    "percentile",
    "wilson_interval",
]


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a sample."""

    count: int
    mean: float
    stdev: float
    minimum: float
    maximum: float
    median: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.2f} sd={self.stdev:.2f} "
            f"min={self.minimum:g} med={self.median:g} max={self.maximum:g}"
        )


def summarize(values: Sequence[float]) -> Summary:
    """Summary statistics of a non-empty sample."""
    if not values:
        raise ConfigurationError("cannot summarize an empty sample")
    ordered = sorted(float(value) for value in values)
    count = len(ordered)
    # Clamp against 1-ulp summation drift: the sample mean lies in
    # [min, max] mathematically, and downstream invariants rely on it.
    mean = min(ordered[-1], max(ordered[0], sum(ordered) / count))
    if count > 1:
        variance = sum((value - mean) ** 2 for value in ordered) / (count - 1)
    else:
        variance = 0.0
    return Summary(
        count=count,
        mean=mean,
        stdev=math.sqrt(variance),
        minimum=ordered[0],
        maximum=ordered[-1],
        median=percentile(ordered, 50.0),
    )


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation sample percentile, ``q`` in [0, 100]."""
    if not values:
        raise ConfigurationError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(float(value) for value in values)
    if len(ordered) == 1:
        return ordered[0]
    position = q / 100.0 * (len(ordered) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return ordered[low]
    weight = position - low
    # The "a + w*(b-a)" form is exact when a == b, unlike the symmetric
    # "(1-w)*a + w*b" which can drift below min(a, b) in floating point.
    return ordered[low] + weight * (ordered[high] - ordered[low])


def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ConfigurationError(
            f"successes {successes} out of range for {trials} trials"
        )
    proportion = successes / trials
    z_sq = z * z
    denominator = 1.0 + z_sq / trials
    center = (proportion + z_sq / (2.0 * trials)) / denominator
    margin = (
        z
        * math.sqrt(
            proportion * (1.0 - proportion) / trials
            + z_sq / (4.0 * trials * trials)
        )
        / denominator
    )
    low = max(0.0, center - margin)
    high = min(1.0, center + margin)
    # Floating-point drift can push an endpoint a few ulp past the point
    # estimate at the boundaries; the interval must always contain it.
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return (low, high)


