"""Claims verification orchestration: registry -> sampler -> verdicts.

Claims that share an equal (frozen) workload share one adaptive
measurement collection — the registry deliberately reuses workload
values so e.g. Theorem 2's energy and rounds claims ride the same
sweep, and Lemmas 8 and 9 the same backoff cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..constants import ConstantsProfile
from ..obs.registry import get_registry
from .registry import registered_claims
from .sampler import SamplerConfig, collect_measurements
from .spec import Claim, EvalContext, Measurements
from .verdict import ClaimVerdict, evaluate_claim

__all__ = ["VerificationResult", "verify_claims"]


@dataclass
class VerificationResult:
    """Everything one verification run produced."""

    tier: str
    profile: str
    verdicts: List[ClaimVerdict]
    claims: Dict[str, Claim]
    measurements: Dict[str, Measurements] = field(default_factory=dict)

    def verdict(self, claim_id: str) -> ClaimVerdict:
        for verdict in self.verdicts:
            if verdict.claim_id == claim_id:
                return verdict
        raise KeyError(claim_id)

    @property
    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for verdict in self.verdicts:
            tally[verdict.verdict] = tally.get(verdict.verdict, 0) + 1
        return tally

    @property
    def total_trials(self) -> int:
        # Workload groups share measurements; count each group once.
        seen = set()
        total = 0
        for measurements in self.measurements.values():
            if id(measurements) not in seen:
                seen.add(id(measurements))
                total += measurements.trials_used
        return total


def verify_claims(
    claims: Optional[Sequence[Claim]] = None,
    *,
    tier: str = "quick",
    constants: Optional[ConstantsProfile] = None,
    profile: str = "practical",
    budget: Optional[int] = None,
    base_seed: int = 0,
    context: Optional[EvalContext] = None,
) -> VerificationResult:
    """Verify claims adaptively and return per-claim verdicts.

    Trials run under the installed execution defaults.  ``budget`` caps
    the trials spent per workload group (no new batch starts once a
    group has used its budget); an installed cache makes re-runs and
    interrupted runs resume from prior trials, since every trial's seed
    depends only on its position in the workload, never on batch
    boundaries.
    """
    constants = constants or ConstantsProfile.practical()
    if claims is None:
        claims = list(registered_claims(tier, constants).values())
    context = context or EvalContext(constants=constants)
    config = SamplerConfig(
        constants=constants, budget=budget, base_seed=base_seed
    )

    groups: List[tuple] = []  # (workload, [claims]) preserving order
    by_workload: Dict[object, List[Claim]] = {}
    for claim in claims:
        if claim.workload in by_workload:
            by_workload[claim.workload].append(claim)
        else:
            bucket = [claim]
            by_workload[claim.workload] = bucket
            groups.append((claim.workload, bucket))

    registry = get_registry()
    verdicts: List[ClaimVerdict] = []
    measurements_by_claim: Dict[str, Measurements] = {}
    for workload, group in groups:
        measurements, exhausted = collect_measurements(
            workload, group, context, config
        )
        for claim in group:
            verdict = evaluate_claim(
                claim, measurements, context, budget_exhausted=exhausted
            )
            verdicts.append(verdict)
            measurements_by_claim[claim.claim_id] = measurements
            registry.counter(f"claims.verdict.{verdict.verdict}").inc()
    return VerificationResult(
        tier=tier,
        profile=profile,
        verdicts=verdicts,
        claims={claim.claim_id: claim for claim in claims},
        measurements=measurements_by_claim,
    )
