"""Declarative claim specs: workloads, measurements, and predicates.

A :class:`Claim` is a frozen record binding a :class:`PaperRef` (which
theorem/lemma/section, which EXPERIMENTS.md sections) to a *workload*
(what to run) and two predicate tuples:

``strict``
    the paper's guarantee as stated — all must hold (decidedly) for a
    ``reproduced`` verdict;
``shape``
    the qualitative form of the guarantee (orderings, wide exponent
    bands) — the fallback that turns an honest quantitative miss into
    ``shape-only`` instead of ``not-reproduced``.

Predicates evaluate against a :class:`Measurements` container and
return :class:`PredicateResult` records carrying both a boolean
``passed`` and a ``decided`` flag: an undecided predicate (confidence
interval still straddling the bound) signals the adaptive sampler to
collect more trials rather than force a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.stats import wilson_interval
from ..constants import ConstantsProfile
from ..errors import ConfigurationError
from .fitting import ExponentCI, PolylogFit, bootstrap_exponent_ci, fit_polylog

__all__ = [
    "PaperRef",
    "SweepWorkload",
    "RateWorkload",
    "BudgetWorkload",
    "BackoffWorkload",
    "PairedWorkload",
    "HarnessWorkload",
    "HARNESS_NAMES",
    "ChurnWorkload",
    "ChannelSweepWorkload",
    "Measurements",
    "EvalContext",
    "PredicateResult",
    "Predicate",
    "ExponentBand",
    "ExponentGap",
    "MeanDominance",
    "CeilingPredicate",
    "RateBound",
    "CellRateBounds",
    "CellTrend",
    "LowerBoundConsistency",
    "BackoffEnergyBounds",
    "PairedBitIdentity",
    "ScalarBound",
    "Claim",
]


@dataclass(frozen=True)
class PaperRef:
    """Where in the paper (and in EXPERIMENTS.md) a claim lives."""

    statement: str  # e.g. "Theorem 2"
    section: str  # e.g. "§3"
    experiments: Tuple[str, ...]  # e.g. ("E1", "E2")
    summary: str  # one-line paraphrase of the guarantee


# ----------------------------------------------------------------------
# Workloads — frozen, hashable: claims sharing an equal workload share
# one measurement collection (and therefore one trial budget).
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepWorkload:
    """Size sweep of one or more protocols on a topology family."""

    protocols: Tuple[str, ...]
    sizes: Tuple[int, ...]
    topology: str = "gnp"
    trials: int = 3  # first batch, per (protocol, size) cell
    batch: int = 2  # added per adaptive batch
    max_batches: int = 3

    kind = "sweep"


@dataclass(frozen=True)
class RateWorkload:
    """Failure-rate cells: many trials of each protocol at one size."""

    protocols: Tuple[str, ...]
    n: int
    topology: str = "gnp"
    trials: int = 40
    batch: int = 20
    max_batches: int = 3

    kind = "rate"


@dataclass(frozen=True)
class BudgetWorkload:
    """Theorem 1 budget sweep on the hard instance."""

    n: int
    budgets: Tuple[int, ...]
    trials: int = 60
    batch: int = 40
    max_batches: int = 3

    kind = "budget"


@dataclass(frozen=True)
class BackoffWorkload:
    """Lemma 8/9 probe cells on a star of ``delta`` leaves."""

    delta: int
    k_values: Tuple[int, ...]
    sender_counts: Tuple[int, ...]
    trials: int = 40
    batch: int = 40
    max_batches: int = 3

    kind = "backoff"


@dataclass(frozen=True)
class PairedWorkload:
    """Two protocols run on identical graphs with identical seeds."""

    protocol_a: str
    model_a: str
    protocol_b: str
    model_b: str
    n: int
    topology: str = "gnp"
    trials: int = 3
    batch: int = 2
    max_batches: int = 2

    kind = "paired"


#: The structured harnesses a :class:`HarnessWorkload` can name.
HARNESS_NAMES = ("residual", "luby-phase-props", "energy-breakdown")


@dataclass(frozen=True)
class HarnessWorkload:
    """One-shot structured harness (residual, luby-props, breakdown).

    Runs ``seeds`` run seeds on each of ``graphs`` gnp graphs of ``n``
    nodes (graph seeds ``range(graphs)``, run seeds ``range(seeds)``).
    """

    harness: str  # one of HARNESS_NAMES
    n: int
    graphs: int = 2
    seeds: int = 2

    kind = "harness"

    def __post_init__(self) -> None:
        if self.harness not in HARNESS_NAMES:
            raise ConfigurationError(
                f"unknown harness workload {self.harness!r}; expected one "
                f"of {', '.join(HARNESS_NAMES)}"
            )
        for name in ("n", "graphs", "seeds"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"harness workload {name} must be >= 1, got "
                    f"{getattr(self, name)}"
                )


@dataclass(frozen=True)
class ChurnWorkload:
    """Edge-churn rate sweep with MIS repair (dynamic topology).

    Each cell runs one protocol under a :class:`~repro.faults.churn.
    ChurnPlan` with edge-toggle probability ``rate`` per round over the
    ``[start, stop)`` window, and records repair cost (violation-window
    rounds, repair restart energy) plus whether the run converged to a
    valid MIS of the *final* graph.
    """

    protocol: str
    n: int
    rates: Tuple[float, ...]
    start: int = 8
    stop: int = 128
    topology: str = "gnp"
    trials: int = 6
    batch: int = 4
    max_batches: int = 3

    kind = "churn"


@dataclass(frozen=True)
class ChannelSweepWorkload:
    """Channel-count sweep of the channel-hopping MIS protocol.

    Each cell runs ``mc-luby`` lifted onto ``C`` radio channels over a
    size sweep on ``topology``.  Measurements land in the sweeps
    container under per-C pseudo-protocol labels (``mc-luby@c4``), so
    the ordinary sweep predicates — :class:`MeanDominance` across
    channel counts, :class:`ExponentBand` per count — apply unchanged.
    """

    channel_counts: Tuple[int, ...]
    sizes: Tuple[int, ...]
    topology: str = "gnp-dense"
    trials: int = 3
    batch: int = 2
    max_batches: int = 3

    kind = "channels"


# ----------------------------------------------------------------------
# Measurements — the mutable container predicates evaluate against.
# ----------------------------------------------------------------------


class Measurements:
    """Everything a workload has observed so far.

    ``sweeps``
        protocol -> size -> metric -> per-trial values
        (metrics: ``max_energy``, ``mean_energy``, ``rounds``)
    ``cells``
        labelled aggregate cells (rate, budget, and backoff cells); rate
        cells carry ``events``/``trials`` (plus ``bound`` where the
        bound is workload-dependent), backoff cells carry energy maxima.
    ``paired``
        per-seed outcome pairs for bit-identity checks.
    ``scalars``
        one-off named measurements from structured harnesses.
    """

    def __init__(self) -> None:
        self.sweeps: Dict[str, Dict[int, Dict[str, List[float]]]] = {}
        self.cells: Dict[str, Dict[str, float]] = {}
        self.paired: List[Dict[str, Dict[str, float]]] = []
        self.scalars: Dict[str, float] = {}
        self.models: Dict[str, str] = {}  # protocol -> model name
        self.trials_used = 0

    def add_sweep_values(
        self, protocol: str, n: int, metric_values: Mapping[str, Sequence[float]]
    ) -> None:
        cell = self.sweeps.setdefault(protocol, {}).setdefault(n, {})
        for metric, values in metric_values.items():
            cell.setdefault(metric, []).extend(float(v) for v in values)

    def sweep_samples(self, protocol: str, metric: str) -> Dict[int, List[float]]:
        """size -> per-trial values, sizes sorted, empty cells dropped."""
        per_size = self.sweeps.get(protocol, {})
        return {
            n: list(per_size[n].get(metric, []))
            for n in sorted(per_size)
            if per_size[n].get(metric)
        }

    def sweep_means(self, protocol: str, metric: str) -> Tuple[List[int], List[float]]:
        samples = self.sweep_samples(protocol, metric)
        sizes = sorted(samples)
        return sizes, [sum(samples[n]) / len(samples[n]) for n in sizes]

    def cell(self, label: str) -> Dict[str, float]:
        return self.cells.setdefault(label, {})

    def cells_with_prefix(self, prefix: str) -> Dict[str, Dict[str, float]]:
        return {
            label: cell
            for label, cell in sorted(self.cells.items())
            if label.startswith(prefix)
        }


@dataclass(frozen=True)
class EvalContext:
    """Statistical settings shared by every predicate evaluation."""

    constants: ConstantsProfile = field(default_factory=ConstantsProfile.practical)
    confidence: float = 0.95
    resamples: int = 300
    bootstrap_seed: int = 0
    #: an exponent CI no wider than this decides a band check by its
    #: point estimate even when the CI pokes past a band edge
    decide_ci_width: float = 1.5


@dataclass(frozen=True)
class PredicateResult:
    """One predicate's evaluation against the current measurements."""

    name: str
    kind: str
    passed: bool
    decided: bool
    detail: str
    data: Mapping[str, object] = field(default_factory=dict)

    def to_record(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "passed": self.passed,
            "decided": self.decided,
            "detail": self.detail,
            "data": dict(self.data),
        }


def _insufficient(name: str, kind: str, detail: str) -> PredicateResult:
    return PredicateResult(
        name=name, kind=kind, passed=False, decided=False, detail=detail
    )


class Predicate:
    """Base class: every predicate is a frozen dataclass with a name."""

    kind = "predicate"
    name: str

    def evaluate(
        self, measurements: Measurements, context: EvalContext
    ) -> PredicateResult:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Sweep predicates
# ----------------------------------------------------------------------


def _fit_with_ci(
    measurements: Measurements,
    protocol: str,
    metric: str,
    context: EvalContext,
) -> Optional[Tuple[PolylogFit, ExponentCI]]:
    samples = measurements.sweep_samples(protocol, metric)
    if len(samples) < 2:
        return None
    sizes, means = measurements.sweep_means(protocol, metric)
    if any(not mean > 0 for mean in means):
        return None
    fit = fit_polylog(sizes, means)
    ci = bootstrap_exponent_ci(
        samples,
        confidence=context.confidence,
        resamples=context.resamples,
        seed=context.bootstrap_seed,
    )
    return fit, ci


@dataclass(frozen=True)
class ExponentBand(Predicate):
    """Fitted log-power exponent of a sweep metric lies in [low, high].

    Decided when the bootstrap CI falls entirely inside or entirely
    outside the band, or is narrower than the context's decision width
    (in which case the point estimate decides).
    """

    name: str
    protocol: str
    metric: str
    low: float
    high: float

    kind = "exponent-band"

    def evaluate(self, measurements, context):
        fitted = _fit_with_ci(measurements, self.protocol, self.metric, context)
        if fitted is None:
            return _insufficient(
                self.name, self.kind, f"no sweep data for {self.protocol}"
            )
        fit, ci = fitted
        passed = self.low <= fit.exponent <= self.high
        inside = self.low <= ci.low and ci.high <= self.high
        outside = ci.high < self.low or ci.low > self.high
        decided = inside or outside or ci.width <= context.decide_ci_width
        detail = (
            f"{self.protocol} {self.metric} exponent {fit.exponent:.2f} "
            f"(CI [{ci.low:.2f}, {ci.high:.2f}]) vs band "
            f"[{self.low:g}, {self.high:g}]; best model {fit.model.label}"
        )
        return PredicateResult(
            name=self.name,
            kind=self.kind,
            passed=passed,
            decided=decided,
            detail=detail,
            data={
                "protocol": self.protocol,
                "metric": self.metric,
                "exponent": fit.exponent,
                "ci_low": ci.low,
                "ci_high": ci.high,
                "confidence": ci.confidence,
                "resamples": ci.resamples,
                "band": [self.low, self.high],
                "model": fit.model.label,
                "coefficient": fit.coefficient,
            },
        )


@dataclass(frozen=True)
class ExponentGap(Predicate):
    """slower's fitted exponent exceeds faster's by at least min_gap."""

    name: str
    faster: str
    slower: str
    metric: str
    min_gap: float = 0.0

    kind = "exponent-gap"

    def evaluate(self, measurements, context):
        fitted_fast = _fit_with_ci(measurements, self.faster, self.metric, context)
        fitted_slow = _fit_with_ci(measurements, self.slower, self.metric, context)
        if fitted_fast is None or fitted_slow is None:
            return _insufficient(
                self.name,
                self.kind,
                f"no sweep data for {self.faster} vs {self.slower}",
            )
        fit_fast, ci_fast = fitted_fast
        fit_slow, ci_slow = fitted_slow
        gap = fit_slow.exponent - fit_fast.exponent
        gap_low = ci_slow.low - ci_fast.high
        gap_high = ci_slow.high - ci_fast.low
        passed = gap >= self.min_gap
        decided = (
            gap_low >= self.min_gap
            or gap_high < self.min_gap
            or (
                ci_fast.width <= context.decide_ci_width
                and ci_slow.width <= context.decide_ci_width
            )
        )
        detail = (
            f"{self.slower} - {self.faster} {self.metric} exponent gap "
            f"{gap:.2f} (CI [{gap_low:.2f}, {gap_high:.2f}]) vs "
            f"min {self.min_gap:g}"
        )
        return PredicateResult(
            name=self.name,
            kind=self.kind,
            passed=passed,
            decided=decided,
            detail=detail,
            data={
                "faster": self.faster,
                "slower": self.slower,
                "metric": self.metric,
                "gap": gap,
                "gap_ci": [gap_low, gap_high],
                "min_gap": self.min_gap,
                "faster_exponent": fit_fast.exponent,
                "slower_exponent": fit_slow.exponent,
            },
        )


@dataclass(frozen=True)
class MeanDominance(Predicate):
    """worse's mean is at least margin x better's mean at every size."""

    name: str
    better: str
    worse: str
    metric: str
    margin: float = 1.0
    min_trials: int = 2

    kind = "mean-dominance"

    def evaluate(self, measurements, context):
        samples_better = measurements.sweep_samples(self.better, self.metric)
        samples_worse = measurements.sweep_samples(self.worse, self.metric)
        common = sorted(set(samples_better) & set(samples_worse))
        if not common:
            return _insufficient(
                self.name,
                self.kind,
                f"no common sizes for {self.better} vs {self.worse}",
            )
        ratios = []
        decided = True
        for n in common:
            mean_better = sum(samples_better[n]) / len(samples_better[n])
            mean_worse = sum(samples_worse[n]) / len(samples_worse[n])
            ratios.append(
                mean_worse / mean_better if mean_better > 0 else math.inf
            )
            if (
                len(samples_better[n]) < self.min_trials
                or len(samples_worse[n]) < self.min_trials
            ):
                decided = False
        passed = all(ratio >= self.margin for ratio in ratios)
        worst = min(ratios)
        detail = (
            f"{self.worse}/{self.better} {self.metric} mean ratio >= "
            f"{self.margin:g} at every size (worst ratio {worst:.2f} over "
            f"n={common})"
        )
        return PredicateResult(
            name=self.name,
            kind=self.kind,
            passed=passed,
            decided=decided,
            detail=detail,
            data={
                "better": self.better,
                "worse": self.worse,
                "metric": self.metric,
                "margin": self.margin,
                "sizes": list(common),
                "ratios": [round(r, 4) for r in ratios],
            },
        )


@dataclass(frozen=True)
class CeilingPredicate(Predicate):
    """Every observed trial value respects a hard analytic ceiling."""

    name: str
    protocol: str
    metric: str
    ceiling: Callable[[int, ConstantsProfile], float] = field(compare=False)
    ceiling_label: str = "analytic ceiling"
    min_trials: int = 1

    kind = "hard-ceiling"

    def evaluate(self, measurements, context):
        samples = measurements.sweep_samples(self.protocol, self.metric)
        if not samples:
            return _insufficient(
                self.name, self.kind, f"no sweep data for {self.protocol}"
            )
        violations = []
        tightest = math.inf
        decided = True
        for n, values in samples.items():
            limit = float(self.ceiling(n, context.constants))
            if len(values) < self.min_trials:
                decided = False
            for value in values:
                if value > limit:
                    violations.append({"n": n, "value": value, "ceiling": limit})
            if values and limit > 0:
                tightest = min(tightest, limit / max(values))
        passed = not violations
        detail = (
            f"{self.protocol} {self.metric} <= {self.ceiling_label} on all "
            f"trials"
            + (
                f" (tightest headroom {tightest:.2f}x)"
                if passed and tightest < math.inf
                else f"; {len(violations)} violation(s)"
            )
        )
        return PredicateResult(
            name=self.name,
            kind=self.kind,
            passed=passed,
            decided=decided,
            detail=detail,
            data={
                "protocol": self.protocol,
                "metric": self.metric,
                "ceiling": self.ceiling_label,
                "violations": violations[:10],
                "headroom": None if tightest == math.inf else round(tightest, 4),
            },
        )


# ----------------------------------------------------------------------
# Rate predicates (Wilson-interval driven)
# ----------------------------------------------------------------------


def _rate_verdict(
    events: int, trials: int, bound: float, direction: str, z: float
) -> Tuple[bool, bool, Tuple[float, float]]:
    """(passed, decided, interval) for one proportion vs a bound."""
    low, high = wilson_interval(events, trials, z)
    point = events / trials
    if direction == "at_most":
        if high <= bound:
            return True, True, (low, high)
        if low > bound:
            return False, True, (low, high)
        return point <= bound, False, (low, high)
    if low >= bound:
        return True, True, (low, high)
    if high < bound:
        return False, True, (low, high)
    return point >= bound, False, (low, high)


_Z95 = 1.96


@dataclass(frozen=True)
class RateBound(Predicate):
    """Wilson-decided bound on one rate cell's proportion.

    ``at_most``: decided-pass when the Wilson upper endpoint is below
    the bound; ``at_least``: decided-pass when the lower endpoint is
    above it.  A straddling interval leaves the predicate undecided
    (signalling the sampler for more trials).
    """

    name: str
    cell: str
    bound: float
    direction: str = "at_most"  # or "at_least"

    kind = "rate-bound"

    def evaluate(self, measurements, context):
        cell = measurements.cells.get(self.cell)
        if not cell or not cell.get("trials"):
            return _insufficient(
                self.name, self.kind, f"no data in cell {self.cell!r}"
            )
        events = int(cell.get("events", 0))
        trials = int(cell["trials"])
        passed, decided, (low, high) = _rate_verdict(
            events, trials, self.bound, self.direction, _Z95
        )
        comparator = "<=" if self.direction == "at_most" else ">="
        detail = (
            f"{self.cell}: rate {events}/{trials} = {events / trials:.3f} "
            f"(Wilson [{low:.3f}, {high:.3f}]) {comparator} {self.bound:g}"
        )
        return PredicateResult(
            name=self.name,
            kind=self.kind,
            passed=passed,
            decided=decided,
            detail=detail,
            data={
                "cell": self.cell,
                "events": events,
                "trials": trials,
                "rate": events / trials,
                "wilson": [low, high],
                "bound": self.bound,
                "direction": self.direction,
            },
        )


@dataclass(frozen=True)
class CellRateBounds(Predicate):
    """Per-cell Wilson bounds over every cell under a label prefix.

    Each cell carries its own ``bound`` (set by the collector, e.g.
    Lemma 9's ``1 - (7/8)^k``).  Cells whose bound is below
    ``trivial_below`` auto-pass: such bounds are statistically vacuous
    at any realistic trial count.
    """

    name: str
    prefix: str
    direction: str = "at_least"
    trivial_below: float = 0.0

    kind = "cell-rate-bounds"

    def evaluate(self, measurements, context):
        cells = measurements.cells_with_prefix(self.prefix)
        cells = {
            label: cell for label, cell in cells.items() if "bound" in cell
        }
        if not cells:
            return _insufficient(
                self.name, self.kind, f"no cells under {self.prefix!r}"
            )
        rows = []
        all_pass = True
        all_decided = True
        for label, cell in cells.items():
            events = int(cell.get("events", 0))
            trials = int(cell.get("trials", 0))
            bound = float(cell["bound"])
            if trials <= 0:
                all_decided = False
                continue
            if bound <= self.trivial_below:
                passed, decided = True, True
                low, high = wilson_interval(events, trials, _Z95)
            else:
                passed, decided, (low, high) = _rate_verdict(
                    events, trials, bound, self.direction, _Z95
                )
            rows.append(
                {
                    "cell": label,
                    "events": events,
                    "trials": trials,
                    "rate": events / trials,
                    "wilson": [round(low, 4), round(high, 4)],
                    "bound": bound,
                    "passed": passed,
                    "decided": decided,
                }
            )
            all_pass = all_pass and passed
            all_decided = all_decided and decided
        failing = [row["cell"] for row in rows if not row["passed"]]
        comparator = ">=" if self.direction == "at_least" else "<="
        detail = (
            f"{len(rows)} cell(s) under {self.prefix!r} each {comparator} "
            f"their bound"
            + (f"; failing: {failing}" if failing else "")
        )
        return PredicateResult(
            name=self.name,
            kind=self.kind,
            passed=all_pass,
            decided=all_decided,
            detail=detail,
            data={"prefix": self.prefix, "cells": rows},
        )


@dataclass(frozen=True)
class LowerBoundConsistency(Predicate):
    """Empirical failure rates are consistent with an analytic lower bound.

    A lower bound like Theorem 1's cannot be statistically *confirmed*
    by a near-optimal strategy — the strategy sits within noise of the
    bound by design — but it can be *refuted*: a Wilson upper endpoint
    below the bound means the strategy beats the impossible.  The
    predicate therefore fails (decidedly) on any refuted cell, and
    passes once every cell has ``min_trials`` without a refutation.
    Cells with bounds below ``trivial_below`` pass outright.
    """

    name: str
    prefix: str
    min_trials: int = 60
    trivial_below: float = 0.02

    kind = "lower-bound-consistency"

    def evaluate(self, measurements, context):
        cells = measurements.cells_with_prefix(self.prefix)
        cells = {
            label: cell for label, cell in cells.items() if "bound" in cell
        }
        if not cells:
            return _insufficient(
                self.name, self.kind, f"no cells under {self.prefix!r}"
            )
        rows = []
        refuted = []
        decided = True
        for label, cell in cells.items():
            events = int(cell.get("events", 0))
            trials = int(cell.get("trials", 0))
            bound = float(cell["bound"])
            if trials <= 0:
                decided = False
                continue
            low, high = wilson_interval(events, trials, _Z95)
            trivial = bound <= self.trivial_below
            cell_refuted = (not trivial) and high < bound
            if cell_refuted:
                refuted.append(label)
            if trials < self.min_trials and not cell_refuted:
                decided = False
            rows.append(
                {
                    "cell": label,
                    "events": events,
                    "trials": trials,
                    "rate": events / trials,
                    "wilson": [round(low, 4), round(high, 4)],
                    "bound": bound,
                    "trivial": trivial,
                    "refuted": cell_refuted,
                }
            )
        passed = not refuted
        detail = (
            f"{len(rows)} budget cell(s) consistent with the analytic "
            f"lower bound"
            if passed
            else f"lower bound refuted in cell(s): {refuted}"
        )
        return PredicateResult(
            name=self.name,
            kind=self.kind,
            passed=passed,
            decided=decided and bool(rows),
            detail=detail,
            data={"prefix": self.prefix, "cells": rows},
        )


@dataclass(frozen=True)
class CellTrend(Predicate):
    """Per-cell mean of ``metric`` grows along cells ordered by a key.

    Cells under ``prefix`` are ordered by their ``order_key`` field
    (e.g. the churn rate); each cell's per-trial mean
    (``metric / trials``) must end strictly above where it starts, and
    no consecutive step may dip below ``tolerance`` times its
    predecessor (a noise allowance — set 0 to require only overall
    growth).  Decided once every cell holds ``min_trials`` trials.
    """

    name: str
    prefix: str
    order_key: str
    metric: str
    tolerance: float = 0.5
    min_trials: int = 3

    kind = "cell-trend"

    def evaluate(self, measurements, context):
        cells = measurements.cells_with_prefix(self.prefix)
        rows = []
        decided = True
        for label, cell in cells.items():
            if self.order_key not in cell or self.metric not in cell:
                continue
            trials = int(cell.get("trials", 0))
            if trials <= 0:
                decided = False
                continue
            if trials < self.min_trials:
                decided = False
            rows.append(
                (
                    float(cell[self.order_key]),
                    label,
                    float(cell[self.metric]) / trials,
                )
            )
        if len(rows) < 2:
            return _insufficient(
                self.name,
                self.kind,
                f"fewer than two ordered cells under {self.prefix!r}",
            )
        rows.sort()
        means = [mean for _, _, mean in rows]
        grows = means[-1] > means[0]
        no_big_dips = all(
            later >= self.tolerance * earlier
            for earlier, later in zip(means, means[1:])
        )
        passed = grows and no_big_dips
        detail = (
            f"{self.metric} per-trial mean over {self.order_key}: "
            + " -> ".join(f"{mean:.2f}" for mean in means)
            + (" (growing)" if passed else " (not growing)")
        )
        return PredicateResult(
            name=self.name,
            kind=self.kind,
            passed=passed,
            decided=decided,
            detail=detail,
            data={
                "prefix": self.prefix,
                "order_key": self.order_key,
                "metric": self.metric,
                "cells": [label for _, label, _ in rows],
                "means": [round(mean, 4) for mean in means],
                "tolerance": self.tolerance,
            },
        )


# ----------------------------------------------------------------------
# Backoff, paired, and scalar predicates
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BackoffEnergyBounds(Predicate):
    """Lemma 8: sender energy is exactly k; receiver within its cap.

    Each backoff cell records the worst observed sender/receiver energy
    plus the cell's ``k`` and the receiver cap ``k * ceil(log delta)``
    (set by the collector).  Both checks are deterministic consequences
    of the algorithm, so one trial per cell decides.
    """

    name: str
    prefix: str = "backoff/"
    receiver_slack: float = 1.0  # multiplier on the receiver cap

    kind = "backoff-energy"

    def evaluate(self, measurements, context):
        cells = measurements.cells_with_prefix(self.prefix)
        cells = {
            label: cell
            for label, cell in cells.items()
            if "sender_energy_max" in cell
        }
        if not cells:
            return _insufficient(
                self.name, self.kind, f"no cells under {self.prefix!r}"
            )
        rows = []
        failures = []
        for label, cell in cells.items():
            k = int(cell["k"])
            sender = int(cell["sender_energy_max"])
            sender_min = int(cell.get("sender_energy_min", k))
            receiver = int(cell["receiver_energy_max"])
            cap = self.receiver_slack * float(cell["receiver_cap"])
            sender_ok = sender == k and sender_min == k
            receiver_ok = receiver <= cap
            if not (sender_ok and receiver_ok):
                failures.append(label)
            rows.append(
                {
                    "cell": label,
                    "k": k,
                    "sender_energy_max": sender,
                    "receiver_energy_max": receiver,
                    "receiver_cap": cap,
                    "sender_ok": sender_ok,
                    "receiver_ok": receiver_ok,
                }
            )
        passed = not failures
        detail = (
            f"sender energy exactly k and receiver energy within cap in "
            f"all {len(rows)} cell(s)"
            if passed
            else f"energy bound violated in cell(s): {failures}"
        )
        return PredicateResult(
            name=self.name,
            kind=self.kind,
            passed=passed,
            decided=True,
            detail=detail,
            data={"prefix": self.prefix, "cells": rows},
        )


@dataclass(frozen=True)
class PairedBitIdentity(Predicate):
    """Paired runs agree exactly on the listed outcome fields."""

    name: str
    fields: Tuple[str, ...] = (
        "valid",
        "mis_size",
        "rounds",
        "max_energy",
        "mean_energy",
    )
    min_pairs: int = 3

    kind = "paired-bit-identity"

    def evaluate(self, measurements, context):
        pairs = measurements.paired
        if not pairs:
            return _insufficient(self.name, self.kind, "no paired runs yet")
        mismatches = []
        for pair in pairs:
            for field_name in self.fields:
                if pair["a"].get(field_name) != pair["b"].get(field_name):
                    mismatches.append(
                        {
                            "seed": pair.get("seed"),
                            "field": field_name,
                            "a": pair["a"].get(field_name),
                            "b": pair["b"].get(field_name),
                        }
                    )
        passed = not mismatches
        # A single mismatch refutes bit-identity outright; agreement
        # needs min_pairs of evidence before we call it.
        decided = bool(mismatches) or len(pairs) >= self.min_pairs
        detail = (
            f"{len(pairs)} paired run(s) agree on {list(self.fields)}"
            if passed
            else f"{len(mismatches)} field mismatch(es) across pairs"
        )
        return PredicateResult(
            name=self.name,
            kind=self.kind,
            passed=passed,
            decided=decided,
            detail=detail,
            data={
                "pairs": len(pairs),
                "fields": list(self.fields),
                "mismatches": mismatches[:10],
            },
        )


@dataclass(frozen=True)
class ScalarBound(Predicate):
    """A named scalar measurement respects a bound."""

    name: str
    key: str
    bound: float
    direction: str = "at_most"  # or "at_least"

    kind = "scalar-bound"

    def evaluate(self, measurements, context):
        if self.key not in measurements.scalars:
            return _insufficient(
                self.name, self.kind, f"scalar {self.key!r} not measured"
            )
        value = measurements.scalars[self.key]
        if self.direction == "at_most":
            passed = value <= self.bound
            comparator = "<="
        else:
            passed = value >= self.bound
            comparator = ">="
        detail = f"{self.key} = {value:g} {comparator} {self.bound:g}"
        return PredicateResult(
            name=self.name,
            kind=self.kind,
            passed=passed,
            decided=True,
            detail=detail,
            data={
                "key": self.key,
                "value": value,
                "bound": self.bound,
                "direction": self.direction,
            },
        )


# ----------------------------------------------------------------------
# Claim
# ----------------------------------------------------------------------

Workload = object  # union of the frozen workload dataclasses above


@dataclass(frozen=True)
class Claim:
    """One executable paper claim.

    ``strict`` predicates encode the guarantee as stated; ``shape``
    predicates encode its qualitative form.  See
    :func:`repro.claims.verdict.decide_verdict` for how the two tuples
    map to a verdict.
    """

    claim_id: str
    title: str
    ref: PaperRef
    workload: Workload
    strict: Tuple[Predicate, ...]
    shape: Tuple[Predicate, ...] = ()
    notes: str = ""

    def predicates(self) -> Tuple[Predicate, ...]:
        return self.strict + self.shape
