"""Registry mapping experiment IDs to quick-run entry points.

Used by the CLI (``python -m repro experiment E8``) and by integration
tests; benchmarks call the underlying harnesses directly with their own
(larger) parameter choices.

Execution backend: every harness funnels its trial batteries through
:func:`repro.analysis.runner.run_trials`, which reads the installed
:class:`repro.exec.executor.ExecutionDefaults`.  The CLI installs them
from its execution flags (``--jobs``, ``--cache``, ``--engine``, ...),
so ``repro-mis experiment e2 --jobs 4`` parallelizes each registered
experiment's trials with no per-harness plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from ...constants import ConstantsProfile
from ...graphs.generators import gnp_random_graph
from ...lowerbound import SynchronizedCoinStrategy, run_lower_bound_experiment
from ...radio.models import CD, NO_CD

__all__ = ["ExperimentSpec", "EXPERIMENTS", "get_experiment"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: id, claim, and a quick-run callable."""

    experiment_id: str
    claim: str
    run: Callable[[], str]  # returns rendered report text


def _constants() -> ConstantsProfile:
    return ConstantsProfile.practical()


def _run_e1() -> str:
    from .headline import run_headline_table

    return run_headline_table(n=128, trials=4, constants=_constants()).to_table()


def _run_e2() -> str:
    from .scaling import cd_protocol_suite, run_scaling_comparison

    report = run_scaling_comparison(
        (64, 128, 256, 512), cd_protocol_suite(_constants()), CD, trials=5
    )
    return (
        report.metric_table("max_energy_mean", "max energy")
        + "\n\n"
        + report.fits_table("max_energy_mean")
    )


def _run_e3() -> str:
    from .scaling import cd_protocol_suite, run_scaling_comparison

    report = run_scaling_comparison(
        (64, 128, 256, 512), cd_protocol_suite(_constants()), CD, trials=5
    )
    return (
        report.metric_table("rounds_mean", "rounds")
        + "\n\n"
        + report.fits_table("rounds_mean")
    )


def _run_e4() -> str:
    from .scaling import nocd_protocol_suite, run_scaling_comparison

    report = run_scaling_comparison(
        (32, 64, 128),
        nocd_protocol_suite(_constants(), include_naive=False),
        NO_CD,
        trials=3,
    )
    return (
        report.metric_table("max_energy_mean", "max energy")
        + "\n\n"
        + report.fits_table("max_energy_mean")
    )


def _run_e5() -> str:
    from .scaling import nocd_protocol_suite, run_scaling_comparison

    report = run_scaling_comparison(
        (32, 64, 128),
        nocd_protocol_suite(_constants(), include_naive=False),
        NO_CD,
        trials=3,
    )
    return (
        report.metric_table("rounds_mean", "rounds")
        + "\n\n"
        + report.fits_table("rounds_mean")
    )


def _run_e6() -> str:
    from ..tables import render_table

    report = run_lower_bound_experiment(
        128, budgets=(1, 2, 3, 4, 6, 8, 10), strategy_factory=SynchronizedCoinStrategy,
        trials=60,
    )
    headers = ["b", "empirical", "thm1_bound", "pair_bound", "coin_exact", "max_energy"]
    rows = [
        (r["b"], r["empirical"], r["thm1_bound"], r["pair_bound"], r["coin_exact"], r["max_energy"])
        for r in report.rows()
    ]
    return render_table(headers, rows, title=f"E6 lower bound (n={report.n})")


def _run_e7() -> str:
    from .correctness import run_correctness_battery

    return run_correctness_battery(n=48, trials=8, constants=_constants()).to_table()


def _run_e8() -> str:
    from .residual import run_residual_shrinkage

    graphs = [gnp_random_graph(96, 0.08, seed=s) for s in (1, 2)]
    return run_residual_shrinkage(graphs, seeds=range(3), constants=_constants()).to_table()


def _run_e9() -> str:
    from .backoff_probe import run_backoff_experiment

    return run_backoff_experiment(delta=16, trials=60).to_table()


def _run_e10() -> str:
    from .energy_breakdown import run_energy_breakdown

    graphs = [gnp_random_graph(96, 0.08, seed=s) for s in (1, 2)]
    return run_energy_breakdown(graphs, seeds=range(2), constants=_constants()).to_table()


def _run_e11() -> str:
    from .delta_sweep import run_delta_sweep

    return run_delta_sweep(
        n=64, deltas=(4, 8, 16, 32), trials=3, constants=_constants()
    ).to_table()


def _run_e12() -> str:
    from .luby_phase_props import run_luby_phase_properties

    graphs = [gnp_random_graph(96, 0.08, seed=s) for s in (1, 2)]
    return run_luby_phase_properties(
        graphs, seeds=range(2), constants=_constants()
    ).to_table()


def _run_a1() -> str:
    from ...core import NoCDEnergyMISProtocol
    from ...graphs.generators import random_bounded_degree_graph
    from ...radio.models import NO_CD
    from ..runner import run_trials
    from ..tables import render_table

    constants = _constants()
    variants = {
        "default": NoCDEnergyMISProtocol(constants=constants),
        "no-commit": NoCDEnergyMISProtocol(constants=constants, enable_commit=False),
    }
    rows = []
    for name, protocol in variants.items():
        series = []
        for delta in (4, 32):
            summary = run_trials(
                lambda seed, d=delta: random_bounded_degree_graph(64, d, seed=seed),
                protocol,
                NO_CD,
                seeds=range(3),
            )
            series.append(summary.max_energy_summary().mean)
        rows.append((name, series[0], series[1], series[1] / series[0]))
    return render_table(
        ["variant", "maxE(D=4)", "maxE(D=32)", "growth"],
        rows,
        title="A1 commitment ablation (quick, n=64)",
    )


def _run_a2() -> str:
    from ...core import NoCDEnergyMISProtocol, UnknownDeltaMISProtocol
    from ...graphs.generators import star_graph
    from ...radio.models import NO_CD
    from ..runner import run_trials
    from ..tables import render_table

    constants = _constants()
    factory = lambda seed: star_graph(64)  # noqa: E731
    known = run_trials(
        factory, NoCDEnergyMISProtocol(constants=constants), NO_CD, seeds=range(3)
    )
    unknown = run_trials(
        factory, UnknownDeltaMISProtocol(constants=constants), NO_CD, seeds=range(3)
    )
    rows = [
        (
            "star(64)",
            known.max_energy_summary().mean,
            unknown.max_energy_summary().mean,
            known.failures + unknown.failures,
        )
    ]
    return render_table(
        ["workload", "known-Delta E", "unknown-Delta E", "failures"],
        rows,
        title="A2 unknown-Delta overhead (quick)",
    )


def _run_a3() -> str:
    from ...core import CDMISProtocol
    from ...radio.engine import run_protocol
    from ..tables import render_table

    constants = _constants()
    rows = []
    for skew in (0, 2, 32):
        failures = 0
        for seed in range(8):
            graph = gnp_random_graph(64, 8.0 / 63.0, seed=seed)
            wake = {v: ((seed + 1) * 48271 * (v + 1)) % (skew + 1) for v in graph.nodes}
            result = run_protocol(
                graph, CDMISProtocol(constants=constants), CD, seed=seed,
                wake_schedule=wake,
            )
            failures += 0 if result.is_valid_mis() else 1
        rows.append((skew, failures / 8.0))
    return render_table(
        ["max skew", "failure rate"], rows,
        title="A3 wake-skew sensitivity (quick, n=64)",
    )


def _run_robust() -> str:
    from .robustness import run_robustness_study

    return run_robustness_study(
        n=64, trials=4, constants=_constants()
    ).to_table()


def _run_churn() -> str:
    from .churn import run_churn_study

    return run_churn_study(n=48, trials=3, constants=_constants()).to_table()


def _run_channels() -> str:
    from .channels import run_channel_sweep_study

    return run_channel_sweep_study(
        n=48, trials=3, constants=_constants()
    ).to_table()


def _run_a7() -> str:
    import random as _random

    from ...baselines import greedy_mis, luby_mis
    from ...core import CDMISProtocol
    from ...radio.engine import run_protocol
    from ..tables import render_table

    constants = _constants()
    graph = gnp_random_graph(96, 8.0 / 95.0, seed=1)
    radio = run_protocol(graph, CDMISProtocol(constants=constants), CD, seed=1)
    rows = [
        ("cd-mis", len(radio.mis)),
        ("luby-ideal", len(luby_mis(graph, seed=1).mis)),
        ("greedy", len(greedy_mis(graph, rng=_random.Random(1)))),
    ]
    return render_table(
        ["algorithm", "|MIS|"], rows, title="A7 output sizes (quick, n=96)"
    )


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    "E1": ExperimentSpec("E1", "headline complexity table (Thms 2, 10)", _run_e1),
    "E2": ExperimentSpec("E2", "CD energy Theta(log n) vs naive (Thm 2)", _run_e2),
    "E3": ExperimentSpec("E3", "CD rounds O(log^2 n) (Thm 2)", _run_e3),
    "E4": ExperimentSpec("E4", "no-CD energy comparison (Thm 10)", _run_e4),
    "E5": ExperimentSpec("E5", "no-CD rounds (Thm 10)", _run_e5),
    "E6": ExperimentSpec("E6", "Omega(log n) energy lower bound (Thm 1)", _run_e6),
    "E7": ExperimentSpec("E7", "failure probability <= 1/n (Thms 2, 10)", _run_e7),
    "E8": ExperimentSpec("E8", "residual shrinkage (Lemmas 5, 20)", _run_e8),
    "E9": ExperimentSpec("E9", "backoff guarantees (Lemmas 8, 9)", _run_e9),
    "E10": ExperimentSpec("E10", "Figure 2 energy classes", _run_e10),
    "E11": ExperimentSpec("E11", "Delta-parametrized rounds (Thm 10, 4.2)", _run_e11),
    "E12": ExperimentSpec("E12", "competition lemmas 14/15, Cor 13", _run_e12),
    "A1": ExperimentSpec("A1", "ablation: commitment / shallow checks (5.1)", _run_a1),
    "A2": ExperimentSpec("A2", "unknown-Delta scheme overhead (1.1 footnote)", _run_a2),
    "A3": ExperimentSpec("A3", "synchronous wake-up sensitivity", _run_a3),
    "A7": ExperimentSpec("A7", "MIS output-size comparison", _run_a7),
    "ROBUST": ExperimentSpec(
        "ROBUST",
        "degradation under injected faults (crash/recovery/skew/noise)",
        _run_robust,
    ),
    "CHURN": ExperimentSpec(
        "CHURN",
        "MIS repair cost & restabilization under topology churn",
        _run_churn,
    ),
    "CHANNELS": ExperimentSpec(
        "CHANNELS",
        "multichannel energy/round tradeoff (channel-count sweep)",
        _run_channels,
    ),
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment by id (case-insensitive)."""
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]
