"""E9 and the churn study are folds over their per-run records."""

from repro.analysis.experiments.backoff_probe import (
    BackoffProbe,
    backoff_record,
    run_backoff_experiment,
)
from repro.analysis.experiments.churn import churn_record, run_churn_study
from repro.constants import ConstantsProfile
from repro.core import CDMISProtocol
from repro.errors import SimulationError
from repro.faults import ChurnPlan
from repro.graphs.generators import (
    gnp_random_graph,
    random_bounded_degree_graph,
    star_graph,
)
from repro.radio.models import CD

FAST = ConstantsProfile.fast()


def test_backoff_experiment_folds_backoff_records():
    delta, trials, base_seed = 8, 5, 11
    report = run_backoff_experiment(
        delta=delta,
        k_values=(1, 3),
        sender_counts=(0, 2, 8, 9),
        trials=trials,
        base_seed=base_seed,
    )
    graph = star_graph(delta + 1)
    expected = []
    for k in (1, 3):
        for senders in (0, 2, 8):  # 9 senders exceed delta: no cell
            probe = BackoffProbe(k=k, delta=delta, senders=senders)
            records = [
                backoff_record(graph, probe, base_seed + 7_907 * t + 13 * k)
                for t in range(trials)
            ]
            for record in records:  # Lemma 8: every sender awake k rounds
                assert record["sender_energy_min"] == (k if senders else 0)
                assert record["sender_energy_max"] == (k if senders else 0)
            expected.append(
                (
                    k,
                    senders,
                    trials,
                    sum(r["heard"] for r in records),
                    max(r["sender_energy_max"] for r in records),
                    max(r["receiver_energy"] for r in records),
                )
            )
    assert [
        (
            point.k,
            point.senders,
            point.trials,
            point.heard,
            point.sender_energy,
            point.receiver_energy,
        )
        for point in report.points
    ] == expected


def test_churn_study_folds_churn_records():
    n, trials, base_seed, rates = 24, 2, 5, (0.0, 0.1)
    report = run_churn_study(
        n=n, trials=trials, rates=rates, constants=FAST, base_seed=base_seed
    )
    protocol = CDMISProtocol(constants=FAST)
    families = (
        ("gnp", lambda seed: gnp_random_graph(n, 8.0 / (n - 1), seed=seed)),
        ("bounded-deg", lambda seed: random_bounded_degree_graph(n, 6, seed=seed)),
    )
    expected = []
    for family, factory in families:
        for rate in rates:
            churn = ChurnPlan(edge_p=rate, start=8, stop=128)
            records = [
                churn_record(factory(seed), protocol, CD, seed, churn)
                for seed in range(base_seed, base_seed + trials)
            ]
            total = {
                name: sum(r[name] for r in records)
                for name in records[0]
            }
            expected.append(
                (
                    family,
                    rate,
                    total["churn_events"],
                    round(total["valid"] / trials, 3),
                    round(total["restabilized"] / trials, 3),
                    round(total["repair_rounds"] / trials, 1),
                    round(total["repair_energy"] / trials, 1),
                    round(total["violation"] / trials, 1),
                )
            )
    assert report.rows == expected


def test_churn_record_of_an_exhausted_run(monkeypatch):
    def exhausted(*args, **kwargs):
        raise SimulationError("round budget exhausted")

    monkeypatch.setattr(
        "repro.analysis.experiments.churn.run_protocol", exhausted
    )
    record = churn_record(
        gnp_random_graph(8, 0.5, seed=0),
        CDMISProtocol(constants=FAST),
        CD,
        0,
        ChurnPlan(edge_p=0.1, start=8, stop=16),
    )
    assert record == {
        "valid": False,
        "restabilized": False,
        "repair_rounds": 0,
        "repair_energy": 0,
        "violation": 0,
        "churn_events": 0,
    }
