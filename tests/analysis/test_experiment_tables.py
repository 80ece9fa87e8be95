"""Every registered experiment's trials run through one of two cached
batteries (``run_trials`` or ``run_records``).

Each experiment runs at tiny parameters.  Its table must match a digest
recorded before the migration, and a warm re-run through one
:class:`~repro.exec.cache.ResultCache` must rebuild the same table
without running an engine.  A record battery builds its trial graphs
inside the trial, so its warm re-run builds none either; a
``run_trials`` battery still builds its first graph, which names the
battery and sizes its engine choice.
"""

import hashlib
import sys

import pytest

from repro.analysis.experiments import (
    cd_protocol_suite,
    get_experiment,
    nocd_protocol_suite,
    run_backoff_experiment,
    run_correctness_battery,
    run_delta_sweep,
    run_energy_breakdown,
    run_headline_table,
    run_luby_phase_properties,
    run_residual_shrinkage,
    run_robustness_study,
    run_scaling_comparison,
)
from repro.analysis.experiments.channels import run_channel_sweep_study
from repro.analysis.experiments.churn import run_churn_study
from repro.analysis.workloads import build_workload
from repro.constants import ConstantsProfile
from repro.exec.cache import ResultCache
from repro.exec.executor import execution_defaults
from repro.exec.resilience import RetryPolicy
from repro.graphs import gnp_random_graph
from repro.lowerbound import SynchronizedCoinStrategy, run_lower_bound_experiment
from repro.obs.registry import Registry, recording
from repro.radio.engine import run_protocol
from repro.radio.models import CD, NO_CD

try:
    from repro.radio.batch.engine import run_batch
except ImportError:  # no numpy, so no batch engine to refuse
    run_batch = run_protocol

FAST = ConstantsProfile.fast()
GRAPHS = [gnp_random_graph(24, 0.25, seed=1), gnp_random_graph(32, 0.15, seed=2)]


def scaling(suite, model):
    report = run_scaling_comparison((16, 32), suite, model, trials=2)
    return report.metric_table("rounds_mean", "rounds") + report.fits_table()


def lower_bound():
    report = run_lower_bound_experiment(
        16, budgets=(1, 3), strategy_factory=SynchronizedCoinStrategy, trials=6
    )
    return repr(report.rows())


def registered(experiment_id):
    """A registered A-series experiment, on the fast constants profile."""

    def run():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                "repro.analysis.experiments.registry._constants", lambda: FAST
            )
            return get_experiment(experiment_id).run()

    return run


#: experiment id -> its table at tiny parameters.
TABLES = {
    "E1": lambda: run_headline_table(n=16, trials=2, constants=FAST).to_table(),
    "E2": lambda: scaling(cd_protocol_suite(FAST), CD),
    "E4": lambda: scaling(nocd_protocol_suite(FAST, include_naive=False), NO_CD),
    "E6": lower_bound,
    "E7": lambda: run_correctness_battery(n=12, trials=2, constants=FAST).to_table(),
    "E8": lambda: run_residual_shrinkage(
        GRAPHS, seeds=range(2), constants=FAST
    ).to_table(),
    "E9": lambda: run_backoff_experiment(
        delta=8, k_values=(1, 4), sender_counts=(1, 8), trials=10
    ).to_table(),
    "E10": lambda: run_energy_breakdown(
        GRAPHS, seeds=range(2), constants=FAST
    ).to_table(),
    "E11": lambda: run_delta_sweep(
        n=24, deltas=(4, 8), trials=2, constants=FAST
    ).to_table(),
    "E12": lambda: run_luby_phase_properties(
        GRAPHS, seeds=range(2), constants=FAST, mute_committed_on_hear=True
    ).to_table(),
    "A1": registered("A1"),
    "A2": registered("A2"),
    "A3": registered("A3"),
    "ROBUST": lambda: run_robustness_study(
        n=16, trials=2, constants=FAST
    ).to_table(),
    "CHURN": lambda: run_churn_study(
        n=16, trials=2, rates=(0.0, 0.1), constants=FAST
    ).to_table(),
    "CHANNELS": lambda: run_channel_sweep_study(
        n=16, trials=2, channel_counts=(1, 2), constants=FAST
    ).to_table(),
}

#: sha256 prefixes of the tables above, recorded before every
#: experiment's trials ran through a cached battery.
DIGESTS = {
    "E1": "05c5052edf91efc1",
    "E2": "513c45a0874ddcef",
    "E4": "958555d94d59cc22",
    "E6": "5b2289c28788f884",
    "E7": "a5012d76a08a9fdb",
    "E8": "2a1033f5a0543fdb",
    "E9": "b3c54ea69794ebbf",
    "E10": "628e01be4366c4e7",
    "E11": "b70d79c3b4beb369",
    "E12": "362970b13e7ccd91",
    "A1": "fc6a6ae85bc1fa2f",
    "A2": "3d2f483f5ceb7603",
    "A3": "7a94ec544f0d6691",
    "ROBUST": "9462c1a6e6c4b138",
    "CHURN": "37dc253ebf78cd23",
    "CHANNELS": "b385d3d8ec681956",
}


def digest(table: str) -> str:
    return hashlib.sha256(table.encode("utf-8")).hexdigest()[:16]


def refuse(*args, **kwargs):
    raise AssertionError("a warm experiment re-run reached the engine")


#: Experiments whose trials are records (``run_records`` batteries).
RECORDS = {"E8", "E9", "E10", "E12", "A3", "ROBUST", "CHURN"}


#: Graphs a warm re-run still builds outside its trials: ROBUST's
#: crash-round probe.
PROBES = {"ROBUST": [("gnp", 16, 0)]}


def replace_everywhere(monkeypatch, function, replacement):
    """Replace every ``repro`` module's binding of ``function``,
    including ``from x import f`` aliases."""
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.mark.parametrize("experiment", sorted(TABLES))
def test_warm_rerun_rebuilds_the_recorded_table(tmp_path, monkeypatch, experiment):
    with execution_defaults(cache=ResultCache(tmp_path)):
        cold = TABLES[experiment]()
    # Later batteries of the cold run read what earlier ones wrote, so
    # this also shows that no two trials share a key unless they compute
    # the same record.
    assert digest(cold) == DIGESTS[experiment]
    for engine in (run_protocol, run_batch):
        replace_everywhere(monkeypatch, engine, refuse)
    built = []
    if experiment in RECORDS:
        replace_everywhere(
            monkeypatch,
            build_workload,
            lambda *args: built.append(args) or build_workload(*args),
        )
    warm_cache = ResultCache(tmp_path)
    with execution_defaults(cache=warm_cache):
        warm = TABLES[experiment]()
    assert warm == cold
    assert built == PROBES.get(experiment, [])
    assert warm_cache.stats.lookups > 0
    assert warm_cache.stats.hits == warm_cache.stats.lookups


def test_e3_reads_the_trials_e2_computed(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.analysis.experiments.registry._constants", lambda: FAST)
    with execution_defaults(cache=ResultCache(tmp_path)):
        get_experiment("E2").run()
        with recording(Registry()) as registry:
            get_experiment("E3").run()
    counters = registry.counter_values()
    assert counters["exec.trials.total"] == 2 * 4 * 5  # protocols x sizes x trials
    assert counters["exec.trials.cache_hits"] == counters["exec.trials.total"]
    assert counters.get("exec.trials.computed", 0) == 0


def test_record_inputs_join_the_key(tmp_path, monkeypatch):
    with execution_defaults(cache=ResultCache(tmp_path)):
        # E12 without the mute flag first: the muted table must not
        # read its records.
        run_luby_phase_properties(GRAPHS, seeds=range(2), constants=FAST)
        assert digest(TABLES["E12"]()) == DIGESTS["E12"]
        # ROBUST's round budget follows from its slack: a new slack reads
        # nothing the old one wrote.
        TABLES["ROBUST"]()
        monkeypatch.setattr(
            "repro.analysis.experiments.robustness._FAULT_ROUND_SLACK", 2
        )
        with recording(Registry()) as shared:
            TABLES["ROBUST"]()
    with execution_defaults(cache=ResultCache(tmp_path / "fresh")):
        with recording(Registry()) as fresh:
            TABLES["ROBUST"]()
    computed = "exec.trials.computed"
    assert shared.counter_values()[computed] == fresh.counter_values()[computed]


#: Every attempt of every trial times out.
TIMEOUT_POLICY = RetryPolicy(max_retries=0, timeout_s=1e-4)


def test_a_quarantined_trial_is_never_a_pass():
    with execution_defaults(policy=TIMEOUT_POLICY):
        a3 = TABLES["A3"]()
        churn = TABLES["CHURN"]()
    # A3: every skew fails all 8 trials.
    assert [row.split()[-1] for row in a3.splitlines()[-3:]] == ["1"] * 3
    # CHURN: a quarantined trial folds as a run that did not finish,
    # neither valid nor restabilized, at zero cost.
    for row in churn.splitlines()[-4:]:
        assert row.split()[2:] == ["0"] * 6
