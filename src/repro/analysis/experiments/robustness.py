"""Adversarial robustness: degradation under injected faults.

The paper's guarantees assume a fault-free radio network and synchronous
wake-up.  This experiment drives both MIS algorithms through the
:mod:`repro.faults` injection layer and quantifies how gracefully each
assumption degrades:

1. **crash-stop** — a growing fraction of nodes crash a third into the
   run; survivors' output is scored by coverage (fraction of surviving
   nodes dominated by a surviving MIS node) and by the
   independence-violation rate among surviving MIS members,
2. **crash–recovery** — crashed nodes restart with fresh protocol state
   after a fixed delay; we measure how long the network takes to
   re-stabilize after the last restart and the energy overhead relative
   to the fault-free run of the same seed,
3. **wake-up skew** — nodes start up to ``s`` rounds apart; the failure
   rate collapsing as skew grows is the measured justification for the
   paper's synchronous wake-up assumption,
4. **channel noise** — every reception is independently erased with
   probability ``p`` (jam-free message loss); the failure rate maps the
   margin the protocols have against an imperfect channel.

A run that exhausts its (generous) round budget under faults counts as a
failure rather than an error: non-termination *is* the degradation being
measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ...constants import ConstantsProfile
from ...core import CDMISProtocol, NoCDEnergyMISProtocol
from ...faults import FaultPlan
from ...radio.engine import run_protocol
from ...radio.models import CD, NO_CD
from ..runner import _record_keys, run_records
from ..tables import render_table
from ..workloads import build_workload
from .churn import churn_record

__all__ = ["RobustnessReport", "run_robustness_study"]

#: Round-budget multiplier for faulty runs: faults legitimately stretch
#: executions past the fault-free watchdog, and hitting the budget is
#: scored as a failure, not raised as an error.
_FAULT_ROUND_SLACK = 3


@dataclass
class RobustnessReport:
    """Rendered-table bundle for the four degradation studies."""

    n: int
    trials: int
    crash_rows: List[Tuple] = field(default_factory=list)
    recovery_rows: List[Tuple] = field(default_factory=list)
    skew_rows: List[Tuple] = field(default_factory=list)
    noise_rows: List[Tuple] = field(default_factory=list)

    def to_table(self) -> str:
        scale = f"n={self.n}, {self.trials} trials/row"
        sections = [
            render_table(
                ["crashed", "coverage", "indep viol rate", "non-term"],
                self.crash_rows,
                title=f"crash-stop faults, Algorithm 2 ({scale})",
            ),
            render_table(
                ["crashed", "recovery", "coverage", "stabilize rds", "energy ovh"],
                self.recovery_rows,
                title=f"crash-recovery faults, Algorithm 2 ({scale})",
            ),
            render_table(
                ["max skew", "failure rate"],
                self.skew_rows,
                title=f"wake-up skew, Algorithm 1 ({scale})",
            ),
            render_table(
                ["drop p", "failure rate", "coverage"],
                self.noise_rows,
                title=f"channel noise (message loss), Algorithm 1 ({scale})",
            ),
        ]
        return "\n\n".join(sections)


def _round_budget(protocol, n: int, delta: int) -> Optional[int]:
    hint = protocol.max_rounds_hint(n, delta)
    return _FAULT_ROUND_SLACK * 4 * hint if hint else None


def run_robustness_study(
    n: int = 96,
    trials: int = 8,
    constants: Optional[ConstantsProfile] = None,
    base_seed: int = 0,
) -> RobustnessReport:
    """Execute all four degradation studies and return the report.

    Deterministic in ``(n, trials, constants, base_seed)``: every trial
    derives its topology seed and its :class:`~repro.faults.FaultPlan`
    seed from ``base_seed``, so reruns reproduce bit-identically.  Each
    row is one cached battery of :func:`~.churn.churn_record` runs.
    """
    constants = constants or ConstantsProfile.practical()
    report = RobustnessReport(n=n, trials=trials)
    seeds = range(base_seed, base_seed + trials)

    def finished(protocol, model, plan_of, baseline=False):
        """The finished runs of one record per trial on a fresh gnp graph,
        under ``plan_of(seed)`` and the faulty-run round budget; with
        ``baseline``, a finished run also records the total energy of
        the fault-free run of the same seed."""

        def run_one(seed: int):
            graph = build_workload("gnp", n, seed)
            budget = _round_budget(protocol, n, graph.max_degree())
            record = churn_record(
                graph, protocol, model, seed, plan_of(seed), budget
            )
            if baseline and record["finished"]:
                record["baseline_energy"] = run_protocol(
                    graph, protocol, model, seed=seed, max_rounds=budget
                ).total_energy
            return record

        # The budget follows from the protocol, the graph and the slack.
        suffix = "/baseline" if baseline else ""
        spec = f"robust:gnp/n={n}/slack={_FAULT_ROUND_SLACK}{suffix}"
        keys = _record_keys(protocol, model.name, spec, plan_of)
        return [r for r in run_records(run_one, seeds, keys) if r["finished"]]

    def mean(runs, field: str, places: int):
        return round(sum(r[field] for r in runs) / max(len(runs), 1), places)

    # Algorithm 2 is the interesting crash target: its MIS nodes keep
    # announcing until the very last phase, so crashing them mid-run
    # strands neighbors that already retired OUT believing they were
    # dominated.  (Algorithm 1's winners terminate the instant they
    # confirm — crashing them changes nothing.)  The crash round joins
    # every crash plan, so it comes from one probe graph, not a trial.
    crash_protocol = NoCDEnergyMISProtocol(constants=constants)
    probe = build_workload("gnp", n, 0)
    crash_round = (
        crash_protocol.schedule_for(n, probe.max_degree()).total_rounds // 3
    )

    for fraction in (0.0, 0.1, 0.25, 0.5):
        done = finished(
            crash_protocol,
            NO_CD,
            lambda seed: FaultPlan(
                seed=seed, crash_fraction=fraction, crash_round=crash_round
            ),
        )
        report.crash_rows.append(
            (
                f"{100 * fraction:.0f}%",
                mean(done, "coverage", 3),
                mean(done, "violation_rate", 3),
                f"{trials - len(done)}/{trials}",
            )
        )

    for fraction, recovery in ((0.1, 8), (0.25, 8), (0.25, 32)):
        done = finished(
            crash_protocol,
            NO_CD,
            lambda seed: FaultPlan(
                seed=seed,
                crash_fraction=fraction,
                crash_round=crash_round,
                crash_recovery=recovery,
            ),
            baseline=True,
        )
        # ``None`` = the run never restabilized; average only the
        # settled runs rather than folding a fake finite value in.
        settled = [r for r in done if r["settle"] is not None]
        overhead = sum(
            r["total_energy"] / r["baseline_energy"] - 1.0
            if r["baseline_energy"]
            else 0.0
            for r in done
        )
        report.recovery_rows.append(
            (
                f"{100 * fraction:.0f}%",
                f"+{recovery}",
                mean(done, "coverage", 3),
                mean(settled, "settle", 1) if settled else "—",
                f"{100 * overhead / max(len(done), 1):+.1f}%",
            )
        )

    # A run that did not finish counts as a failure.
    skew_protocol = CDMISProtocol(constants=constants)
    for skew in (0, 1, 2, 4, 8, 32):
        done = finished(
            skew_protocol, CD, lambda seed: FaultPlan(seed=seed, max_wake_skew=skew)
        )
        failures = trials - sum(r["valid"] for r in done)
        report.skew_rows.append((skew, round(failures / trials, 3)))

    for drop_p in (0.0, 0.01, 0.05, 0.15):
        done = finished(
            skew_protocol, CD, lambda seed: FaultPlan(seed=seed, drop_p=drop_p)
        )
        failures = trials - sum(r["valid"] for r in done)
        report.noise_rows.append(
            (drop_p, round(failures / trials, 3), mean(done, "coverage", 3))
        )

    return report
