"""The registered paper claims, in quick and full tiers.

Every quantitative guarantee the paper states — Theorem 1's energy
lower bound, Theorem 2's CD bounds (plus the §3.1 beeping
equivalence), Lemmas 8-9's backoff guarantees, Theorem 10's no-CD
bounds and the §4.2 Davies comparison, plus the supporting lemmas the
experiment suite already measures (Lemma 5 shrinkage, §5.1's energy
classes, Lemmas 14/15) — is encoded as a :class:`~repro.claims.spec.Claim`.

Tiers share claim ids and predicates; they differ only in workload
scale (sizes, trial counts) and in the strictness of failure-rate
bounds (wider bounds for the quick tier's smaller trial counts, since a
Wilson interval cannot certify a 3% failure ceiling from 40 trials).

Two claims are *expected* ``shape-only`` — honest caveats promoted from
EXPERIMENTS.md prose to machine-checked verdicts:

- ``thm10-nocd-energy``: Algorithm 2 beats the Davies-style baseline
  asymptotically, but its absolute energy at laptop sizes does not
  (E4/E11's crossover discussion);
- ``lemma14-15-competition``: the printed pseudocode's Lemma 14 rate is
  ~0.9, not 1 - 1/n^2 (E12's faithful-to-the-paper finding).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..constants import ConstantsProfile
from ..errors import ConfigurationError
from .spec import (
    BackoffEnergyBounds,
    BackoffWorkload,
    BudgetWorkload,
    CeilingPredicate,
    CellRateBounds,
    CellTrend,
    ChannelSweepWorkload,
    ChurnWorkload,
    Claim,
    ExponentBand,
    ExponentGap,
    HarnessWorkload,
    LowerBoundConsistency,
    MeanDominance,
    PairedBitIdentity,
    PairedWorkload,
    PaperRef,
    RateBound,
    RateWorkload,
    ScalarBound,
    SweepWorkload,
)

__all__ = ["registered_claims", "TIERS"]

TIERS = ("quick", "full")


def _cd_rounds_ceiling(n: int, constants: ConstantsProfile) -> float:
    """Theorem 2's hard round budget: C log n * (beta log n + 1)."""
    return constants.luby_phases(n) * (constants.rank_bits(n) + 1)


def registered_claims(
    tier: str = "quick", constants: Optional[ConstantsProfile] = None
) -> Dict[str, Claim]:
    """Build the claim registry for a tier, keyed by claim id."""
    if tier not in TIERS:
        raise ConfigurationError(
            f"unknown claims tier {tier!r}; choose from {TIERS}"
        )
    constants = constants or ConstantsProfile.practical()
    quick = tier == "quick"

    # ------------------------------------------------------------------
    # Shared workloads: claims with an equal workload share one adaptive
    # measurement collection (and its trial budget).
    # ------------------------------------------------------------------
    # The full tier reaches past the scalar engine's comfort zone: the
    # 4096/8192 cells extend the exponent-band fits by a decade of n and
    # run on the batch engine (the auto rule batches any cell at
    # n >= 4096).  Existing cells keep their sizes — and
    # therefore their cache keys — unchanged.
    cd_sweep = SweepWorkload(
        protocols=("cd-mis", "naive-cd-luby"),
        sizes=(32, 64, 128) if quick else (64, 128, 256, 512, 4096, 8192),
        trials=3 if quick else 5,
        batch=2 if quick else 3,
        max_batches=3,
    )
    nocd_sweep = SweepWorkload(
        protocols=(
            "nocd-energy-mis",
            "davies-low-degree-mis",
            "naive-backoff-mis",
        ),
        sizes=(32, 64, 96) if quick else (32, 64, 128, 256),
        trials=2 if quick else 3,
        batch=1 if quick else 2,
        max_batches=2 if quick else 3,
    )
    paired = PairedWorkload(
        protocol_a="cd-mis",
        model_a="cd",
        protocol_b="beeping-mis",
        model_b="beep",
        n=64 if quick else 128,
        trials=3 if quick else 5,
        batch=2 if quick else 3,
        max_batches=2,
    )
    budgets = BudgetWorkload(
        n=64 if quick else 128,
        budgets=(2, 3, 4, 6) if quick else (2, 3, 4, 6, 8),
        trials=60 if quick else 120,
        batch=40 if quick else 60,
        max_batches=3,
    )
    backoff = BackoffWorkload(
        delta=16 if quick else 64,
        k_values=(1, 2, 4, 8) if quick else (1, 2, 4, 8, 16),
        sender_counts=(1, 8, 16) if quick else (1, 4, 16, 32),
        trials=40 if quick else 150,
        batch=40 if quick else 80,
        max_batches=3,
    )
    failure_bound = 0.10 if quick else 0.03
    rates = RateWorkload(
        protocols=("cd-mis", "nocd-energy-mis"),
        n=64,
        trials=40 if quick else 160,
        batch=20 if quick else 80,
        max_batches=3,
    )
    residual = HarnessWorkload(
        "residual", n=64 if quick else 128, graphs=2 if quick else 3,
        seeds=2 if quick else 3,
    )
    luby = HarnessWorkload(
        "luby-phase-props", n=96 if quick else 192, graphs=2, seeds=2
    )
    breakdown = HarnessWorkload(
        "energy-breakdown", n=96 if quick else 192, graphs=1,
        seeds=2 if quick else 3,
    )
    # Trial counts are sized so an all-valid cell *decides* its Wilson
    # bound within the batch cap: 10 zero-failure trials put the lower
    # endpoint at 0.722 (> 0.7), 40 put it at 0.912 (> 0.9).
    churn = ChurnWorkload(
        protocol="cd-mis",
        n=48 if quick else 96,
        rates=(0.0, 0.05, 0.2) if quick else (0.0, 0.02, 0.08, 0.2),
        trials=4 if quick else 16,
        batch=3 if quick else 12,
        max_batches=3,
    )
    restab_bound = 0.7 if quick else 0.9
    channel_sweep = ChannelSweepWorkload(
        channel_counts=(1, 2, 4, 8, 16),
        sizes=(48, 96) if quick else (48, 96, 192),
        trials=3 if quick else 5,
        batch=2 if quick else 3,
        max_batches=3,
    )

    claims = [
        # ------------------------------------------------------- Thm 2
        Claim(
            claim_id="thm2-cd-energy",
            title="Algorithm 1 solves MIS with O(log n) max energy",
            ref=PaperRef(
                statement="Theorem 2",
                section="§3",
                experiments=("E1", "E2"),
                summary=(
                    "With collision detection, MIS is solved whp with "
                    "worst-case energy O(log n), beating Luby-style "
                    "O(log^2 n)."
                ),
            ),
            workload=cd_sweep,
            strict=(
                ExponentBand(
                    name="cd-energy-exponent",
                    protocol="cd-mis",
                    metric="max_energy",
                    low=0.3,
                    high=1.7,
                ),
                ExponentGap(
                    name="cd-vs-naive-exponent-gap",
                    faster="cd-mis",
                    slower="naive-cd-luby",
                    metric="max_energy",
                    min_gap=0.0,
                ),
                MeanDominance(
                    name="naive-energy-dominates",
                    better="cd-mis",
                    worse="naive-cd-luby",
                    metric="max_energy",
                    margin=1.3,
                ),
            ),
            shape=(
                ExponentBand(
                    name="cd-energy-exponent-loose",
                    protocol="cd-mis",
                    metric="max_energy",
                    low=0.0,
                    high=2.2,
                ),
                MeanDominance(
                    name="naive-energy-dominates-loose",
                    better="cd-mis",
                    worse="naive-cd-luby",
                    metric="max_energy",
                    margin=1.0,
                ),
            ),
        ),
        Claim(
            claim_id="thm2-cd-rounds",
            title="Algorithm 1 finishes in O(log^2 n) rounds",
            ref=PaperRef(
                statement="Theorem 2",
                section="§3",
                experiments=("E1", "E3"),
                summary=(
                    "Algorithm 1 terminates within the hard budget "
                    "C log n * (beta log n + 1) rounds, i.e. O(log^2 n)."
                ),
            ),
            workload=cd_sweep,
            strict=(
                CeilingPredicate(
                    name="cd-rounds-hard-ceiling",
                    protocol="cd-mis",
                    metric="rounds",
                    ceiling=_cd_rounds_ceiling,
                    ceiling_label="C log n (beta log n + 1)",
                ),
                ExponentBand(
                    name="cd-rounds-exponent",
                    protocol="cd-mis",
                    metric="rounds",
                    low=0.6,
                    high=2.6,
                ),
            ),
            shape=(
                ExponentBand(
                    name="cd-rounds-exponent-loose",
                    protocol="cd-mis",
                    metric="rounds",
                    low=0.0,
                    high=3.0,
                ),
            ),
        ),
        Claim(
            claim_id="thm2-beeping-equivalence",
            title="The beeping variant is bit-identical to Algorithm 1",
            ref=PaperRef(
                statement="Theorem 2",
                section="§3.1",
                experiments=("E1",),
                summary=(
                    "Algorithm 1 only tests 'heard anything', so the "
                    "beeping-model port follows identical trajectories: "
                    "same MIS, same rounds, same per-node energy."
                ),
            ),
            workload=paired,
            strict=(
                PairedBitIdentity(
                    name="cd-beep-bit-identity",
                    min_pairs=3,
                ),
            ),
            shape=(
                PairedBitIdentity(
                    name="cd-beep-output-identity",
                    fields=("valid", "mis_size"),
                    min_pairs=3,
                ),
            ),
        ),
        # ------------------------------------------------------- Thm 1
        Claim(
            claim_id="thm1-energy-lower-bound",
            title="Omega(log log n / log log log n)-ish energy is necessary",
            ref=PaperRef(
                statement="Theorem 1",
                section="§2",
                experiments=("E6",),
                summary=(
                    "On the hard two-node instance family, any protocol "
                    "with energy budget b fails with probability at least "
                    "1 - e^{-n/4^{b+1}}; the synchronized-coin strategy "
                    "is near-optimal, sitting just above the bound."
                ),
            ),
            workload=budgets,
            strict=(
                LowerBoundConsistency(
                    name="thm1-bound-not-refuted",
                    prefix="thm1/",
                    min_trials=60 if quick else 120,
                ),
            ),
            shape=(
                RateBound(
                    name="thm1-low-budget-fails-often",
                    cell=f"thm1/b={budgets.budgets[0]}",
                    bound=0.3,
                    direction="at_least",
                ),
                RateBound(
                    name="thm1-high-budget-fails-less",
                    cell=f"thm1/b={budgets.budgets[-1]}",
                    bound=0.5,
                    direction="at_most",
                ),
            ),
            notes=(
                "A lower bound cannot be statistically confirmed by a "
                "near-optimal strategy (it sits within noise of the "
                "bound); the strict predicate instead fails if any "
                "budget cell's Wilson interval falls below the bound."
            ),
        ),
        # -------------------------------------------------- Lemmas 8-9
        Claim(
            claim_id="lemma8-backoff-energy",
            title="Backoff: senders awake exactly k, receivers O(k log D)",
            ref=PaperRef(
                statement="Lemma 8",
                section="§4.1",
                experiments=("E9",),
                summary=(
                    "In a k-repeated backoff over degree bound Delta, a "
                    "sender is awake exactly k rounds; a receiver at "
                    "most k * ceil(log Delta) + k."
                ),
            ),
            workload=backoff,
            strict=(
                BackoffEnergyBounds(name="backoff-energy-bounds"),
            ),
            shape=(
                BackoffEnergyBounds(
                    name="backoff-energy-bounds-loose", receiver_slack=2.0
                ),
            ),
        ),
        Claim(
            claim_id="lemma9-backoff-delivery",
            title="Backoff: delivery probability at least 1 - (7/8)^k",
            ref=PaperRef(
                statement="Lemma 9",
                section="§4.1",
                experiments=("E9",),
                summary=(
                    "A receiver with 1..Delta sending neighbors hears at "
                    "least one of them with probability >= 1 - (7/8)^k."
                ),
            ),
            workload=backoff,
            strict=(
                CellRateBounds(
                    name="lemma9-per-cell-bounds",
                    prefix="backoff/",
                    direction="at_least",
                ),
            ),
            shape=(
                CellRateBounds(
                    name="lemma9-per-cell-half-bounds",
                    prefix="backoff/",
                    direction="at_least",
                    trivial_below=0.07,
                ),
            ),
        ),
        # ------------------------------------------------------ Thm 10
        Claim(
            claim_id="thm10-nocd-energy",
            title="Algorithm 2's energy: O(log^2 n loglog n), below naive",
            ref=PaperRef(
                statement="Theorem 10",
                section="§4.2 / §5.1",
                experiments=("E1", "E4", "E11"),
                summary=(
                    "Without collision detection, MIS is solved whp with "
                    "energy O(log^2 n loglog n) — asymptotically below "
                    "both the naive O(log^4 n) backoff bill and the "
                    "Davies-style O(log^2 n log D) baseline."
                ),
            ),
            workload=nocd_sweep,
            strict=(
                ExponentBand(
                    name="nocd-energy-exponent",
                    protocol="nocd-energy-mis",
                    metric="max_energy",
                    low=1.2,
                    high=3.4,
                ),
                ExponentGap(
                    name="nocd-vs-naive-exponent-gap",
                    faster="nocd-energy-mis",
                    slower="naive-backoff-mis",
                    metric="max_energy",
                    min_gap=0.0,
                ),
                MeanDominance(
                    name="naive-backoff-energy-dominates",
                    better="nocd-energy-mis",
                    worse="naive-backoff-mis",
                    metric="max_energy",
                    margin=1.2,
                ),
                # Expected to FAIL at laptop sizes (the E4 caveat): the
                # asymptotic ordering vs the Davies baseline has not
                # crossed over yet, so Alg 2's absolute energy is higher.
                MeanDominance(
                    name="alg2-energy-below-davies",
                    better="nocd-energy-mis",
                    worse="davies-low-degree-mis",
                    metric="max_energy",
                    margin=1.0,
                ),
            ),
            shape=(
                ExponentBand(
                    name="nocd-energy-exponent-loose",
                    protocol="nocd-energy-mis",
                    metric="max_energy",
                    low=0.5,
                    high=4.0,
                ),
                MeanDominance(
                    name="naive-backoff-energy-dominates-loose",
                    better="nocd-energy-mis",
                    worse="naive-backoff-mis",
                    metric="max_energy",
                    margin=1.0,
                ),
            ),
            notes=(
                "E4's prose caveat as a verdict: 'alg2-energy-below-"
                "davies' decidedly fails at these n/Delta (crossover "
                "not reached), so the claim lands shape-only by design."
            ),
        ),
        Claim(
            claim_id="thm10-nocd-rounds",
            title="Algorithm 2 pays rounds for energy (vs Davies baseline)",
            ref=PaperRef(
                statement="Theorem 10",
                section="§4.2",
                experiments=("E1", "E5", "E11"),
                summary=(
                    "Algorithm 2 runs in O(log^3 n log D) rounds — a "
                    "log-factor more than the Davies-style baseline's "
                    "O(log^2 n log D), the price of its lower energy."
                ),
            ),
            workload=nocd_sweep,
            strict=(
                MeanDominance(
                    name="davies-rounds-beat-alg2",
                    better="davies-low-degree-mis",
                    worse="nocd-energy-mis",
                    metric="rounds",
                    margin=2.0,
                ),
                ExponentBand(
                    name="nocd-rounds-exponent",
                    protocol="nocd-energy-mis",
                    metric="rounds",
                    low=1.5,
                    high=4.5,
                ),
            ),
            shape=(
                MeanDominance(
                    name="davies-rounds-beat-alg2-loose",
                    better="davies-low-degree-mis",
                    worse="nocd-energy-mis",
                    metric="rounds",
                    margin=1.0,
                ),
            ),
        ),
        Claim(
            claim_id="thm2-thm10-failure-rate",
            title="Both algorithms succeed with high probability",
            ref=PaperRef(
                statement="Theorems 2 & 10",
                section="§3 / §4",
                experiments=("E7",),
                summary=(
                    "Both algorithms output a valid MIS with high "
                    "probability; empirically the failure rate is far "
                    "below the Wilson-certified ceiling."
                ),
            ),
            workload=rates,
            strict=tuple(
                RateBound(
                    name=f"{name}-failure-rate",
                    cell=f"rate/{name}",
                    bound=failure_bound,
                    direction="at_most",
                )
                for name in rates.protocols
            ),
            shape=tuple(
                RateBound(
                    name=f"{name}-failure-rate-loose",
                    cell=f"rate/{name}",
                    bound=0.25,
                    direction="at_most",
                )
                for name in rates.protocols
            ),
        ),
        # ------------------------------------------- supporting lemmas
        Claim(
            claim_id="lemma5-residual-shrinkage",
            title="Residual graphs shrink geometrically per phase",
            ref=PaperRef(
                statement="Lemmas 5 & 20",
                section="§3 / §5",
                experiments=("E8",),
                summary=(
                    "Each Luby phase at least halves the residual edge "
                    "set in expectation for Algorithm 1 (and removes a "
                    "1/64 fraction for Algorithm 2's competition)."
                ),
            ),
            workload=residual,
            strict=(
                ScalarBound(
                    name="cd-shrinkage",
                    key="residual/cd-mis/mean_ratio",
                    bound=0.5,
                ),
                ScalarBound(
                    name="luby-ideal-shrinkage",
                    key="residual/luby-ideal/mean_ratio",
                    bound=0.5,
                ),
                ScalarBound(
                    name="nocd-shrinkage",
                    key="residual/nocd-energy-mis/mean_ratio",
                    bound=63.0 / 64.0,
                ),
            ),
            shape=(
                ScalarBound(
                    name="cd-shrinkage-loose",
                    key="residual/cd-mis/mean_ratio",
                    bound=0.75,
                ),
                ScalarBound(
                    name="nocd-shrinkage-loose",
                    key="residual/nocd-energy-mis/mean_ratio",
                    bound=0.99,
                ),
            ),
        ),
        Claim(
            claim_id="sec5-energy-classes",
            title="Figure 2's energy classes: shallow checks are near-free",
            ref=PaperRef(
                statement="§5.1 (Figure 2)",
                section="§5.1",
                experiments=("E10",),
                summary=(
                    "Algorithm 2's energy bill is dominated by the "
                    "O(log^2 n loglog n) listening components; the "
                    "shallow-check machinery of §5.1.2 costs almost "
                    "nothing."
                ),
            ),
            workload=breakdown,
            strict=(
                ScalarBound(
                    name="shallow-check-near-free",
                    key="breakdown/share/shallow-check",
                    bound=0.05,
                ),
                ScalarBound(
                    name="competition-listen-dominant",
                    key="breakdown/share/competition-listen",
                    bound=0.15,
                    direction="at_least",
                ),
            ),
            shape=(
                ScalarBound(
                    name="shallow-check-near-free-loose",
                    key="breakdown/share/shallow-check",
                    bound=0.15,
                ),
            ),
        ),
        Claim(
            claim_id="lemma14-15-competition",
            title="Competition invariants: winners independent, maxima win",
            ref=PaperRef(
                statement="Lemmas 14 & 15, Cor 13",
                section="§5.2",
                experiments=("E12",),
                summary=(
                    "No two adjacent nodes win a competition (Lemma 15); "
                    "committed-induced degree stays below kappa log n "
                    "(Cor 13); a local maximum wins its phase with "
                    "probability >= 1 - 1/n^2 (Lemma 14)."
                ),
            ),
            workload=luby,
            strict=(
                ScalarBound(
                    name="no-adjacent-winners",
                    key="luby/adjacent_winner_pairs",
                    bound=0.0,
                ),
                ScalarBound(
                    name="committed-degree-bounded",
                    key="luby/committed_degree_violations",
                    bound=0.0,
                ),
                # Expected to FAIL (the E12 finding): the pseudocode as
                # printed lets a beaten committed neighbor keep sending,
                # so the measured local-maxima win rate is ~0.9, not
                # 1 - 1/n^2.  The ablation (mute_committed_on_hear)
                # restores 1.0; the default stays faithful to the paper.
                RateBound(
                    name="local-maxima-win-whp",
                    cell="luby/local-maxima",
                    bound=1.0 - 1.0 / (luby.n * luby.n),
                    direction="at_least",
                ),
            ),
            shape=(
                ScalarBound(
                    name="no-adjacent-winners-shape",
                    key="luby/adjacent_winner_pairs",
                    bound=0.0,
                ),
                RateBound(
                    name="local-maxima-usually-win",
                    cell="luby/local-maxima",
                    bound=0.75,
                    direction="at_least",
                ),
            ),
            notes=(
                "E12's Lemma 14 finding as a verdict: the strict whp "
                "rate decidedly fails for the printed pseudocode, the "
                "shape predicates hold, so the claim lands shape-only."
            ),
        ),
        # -------------------------------------------- churn (dynamic)
        Claim(
            claim_id="churn-repair-cost",
            title="MIS repair cost grows with the topology-churn rate",
            ref=PaperRef(
                statement="dynamic extension",
                section="§1 (model)",
                experiments=("CHURN",),
                summary=(
                    "Under per-round edge churn at rate p, the rounds "
                    "spent inside MIS violation windows and the energy "
                    "charged to repair restarts both grow with p."
                ),
            ),
            workload=churn,
            strict=(
                CellTrend(
                    name="repair-rounds-grow-with-rate",
                    prefix="churn/",
                    order_key="rate_p",
                    metric="repair_rounds",
                    tolerance=0.3,
                    min_trials=3,
                ),
                CellTrend(
                    name="repair-energy-grows-with-rate",
                    prefix="churn/",
                    order_key="rate_p",
                    metric="repair_energy",
                    tolerance=0.3,
                    min_trials=3,
                ),
            ),
            shape=(
                CellTrend(
                    name="repair-rounds-grow-overall",
                    prefix="churn/",
                    order_key="rate_p",
                    metric="repair_rounds",
                    tolerance=0.0,
                    min_trials=3,
                ),
            ),
            notes=(
                "No paper statement covers dynamic graphs; this encodes "
                "the expected shape of the repair layer's cost curve."
            ),
        ),
        # --------------------------------------- multichannel (sweep)
        Claim(
            claim_id="channel_sweep",
            title="Channel hopping trades announce rounds for contention",
            ref=PaperRef(
                statement="multichannel extension",
                section="§1 (model)",
                experiments=("CHANNELS",),
                summary=(
                    "Lifting the radio onto C channels dilutes rank-"
                    "tournament contention: at a fixed C in the sweet "
                    "spot (C=4 here) the channel-hopping protocol beats "
                    "its own single-channel instance on energy, while "
                    "every C keeps the polylog energy shape."
                ),
            ),
            workload=channel_sweep,
            # mean_energy is the robust energy statistic here: max_energy
            # quantizes by phase count (each phase costs rank_bits + C
            # rounds), so at quick-tier sizes a single lucky one-phase
            # run swings a cell's max by 50%.
            strict=(
                MeanDominance(
                    name="c4-mean-energy-below-single-channel",
                    better="mc-luby@c4",
                    worse="mc-luby@c1",
                    metric="mean_energy",
                    margin=1.05,
                ),
            )
            + tuple(
                ExponentBand(
                    name=f"mc-energy-exponent-c{channels}",
                    protocol=f"mc-luby@c{channels}",
                    metric="max_energy",
                    # Wide enough that a quick-tier bootstrap CI (two
                    # sizes, wide intervals) lands inside and decides.
                    low=-2.0 if quick else 0.0,
                    high=5.0 if quick else 4.0,
                )
                for channels in channel_sweep.channel_counts
            ),
            shape=(
                MeanDominance(
                    name="c4-mean-energy-no-worse",
                    better="mc-luby@c4",
                    worse="mc-luby@c1",
                    metric="mean_energy",
                    margin=1.0,
                ),
                MeanDominance(
                    name="c4-max-energy-no-blowup",
                    better="mc-luby@c4",
                    worse="mc-luby@c1",
                    metric="max_energy",
                    margin=0.85,
                ),
            ),
            notes=(
                "No paper statement covers multiple channels; this "
                "encodes the Daum-Kuhn-style tradeoff the CHANNELS "
                "experiment charts.  The exponent bands are wide on "
                "purpose: the C-slot announce block shifts constants, "
                "not the polylog shape."
            ),
        ),
        Claim(
            claim_id="churn-restabilize",
            title="Post-churn outputs re-derive as valid MIS whp",
            ref=PaperRef(
                statement="dynamic extension",
                section="§1 (model)",
                experiments=("CHURN",),
                summary=(
                    "After the last churn event, local repair converges: "
                    "the decided set is a valid MIS of the final graph "
                    "(checked by re-derivation) in almost every run."
                ),
            ),
            workload=churn,
            strict=tuple(
                RateBound(
                    name=f"churn-valid-final-mis-p{rate:g}",
                    cell=f"churn/p={rate:g}",
                    bound=restab_bound,
                    direction="at_least",
                )
                for rate in churn.rates
            ),
            shape=tuple(
                RateBound(
                    name=f"churn-valid-final-mis-loose-p{rate:g}",
                    cell=f"churn/p={rate:g}",
                    bound=0.5,
                    direction="at_least",
                )
                for rate in churn.rates
            ),
        ),
    ]
    return {claim.claim_id: claim for claim in claims}
