"""A7 — output quality: how large are the MISs each algorithm finds?

MIS algorithms guarantee maximality, not maximum size; different
processes still land in a narrow size band on the same graph.  This
bench compares output sizes of the library's MIS implementations
(radio, idealized message-passing, centralized) on a common workload,
plus a planted-independent-set graph where a large independent
structure exists to be found.

No claim of the paper rides on this — it is the quality-due-diligence a
release needs: energy efficiency must not come at the cost of
degenerate outputs (it does not: Algorithm 1/2 sizes match Luby's, as
they run the same process).
"""

import random

from repro.analysis.stats import summarize
from repro.analysis.tables import render_table
from repro.baselines import (
    SenderCDBeepingMISProtocol,
    greedy_mis,
    luby_mis,
)
from repro.core import CDMISProtocol, NoCDEnergyMISProtocol
from repro.graphs import gnp_random_graph, planted_independent_set_graph
from repro.radio import BEEPING_SENDER_CD, CD, NO_CD, run_protocol

N = 128
TRIALS = 8


def _sizes_on(graph_factory, constants):
    sizes = {}

    def record(name, size_list):
        sizes[name] = summarize(size_list)

    radio_cd, radio_nocd, beep, luby_sizes, greedy_sizes = [], [], [], [], []
    for seed in range(TRIALS):
        graph = graph_factory(seed)
        result = run_protocol(
            graph, CDMISProtocol(constants=constants), CD, seed=seed
        )
        assert result.is_valid_mis()
        radio_cd.append(len(result.mis))

        result = run_protocol(
            graph, NoCDEnergyMISProtocol(constants=constants), NO_CD, seed=seed
        )
        assert result.is_valid_mis()
        radio_nocd.append(len(result.mis))

        result = run_protocol(
            graph,
            SenderCDBeepingMISProtocol(constants=constants),
            BEEPING_SENDER_CD,
            seed=seed,
        )
        assert result.is_valid_mis()
        beep.append(len(result.mis))

        luby_sizes.append(len(luby_mis(graph, seed=seed).mis))
        greedy_sizes.append(len(greedy_mis(graph, rng=random.Random(seed))))

    record("cd-mis", radio_cd)
    record("nocd-energy-mis", radio_nocd)
    record("sender-cd-beep-mis", beep)
    record("luby-ideal", luby_sizes)
    record("greedy", greedy_sizes)
    return sizes


def test_a7_mis_quality(benchmark, constants, save_report):
    def measure():
        random_graph = _sizes_on(
            lambda seed: gnp_random_graph(N, 8.0 / (N - 1), seed=seed), constants
        )
        planted = _sizes_on(
            lambda seed: planted_independent_set_graph(
                N, N // 3, 0.25, seed=seed
            ),
            constants,
        )
        return random_graph, planted

    random_graph, planted = benchmark.pedantic(measure, rounds=1, iterations=1)

    # All algorithms land in a narrow band on the same workload.
    means = [summary.mean for summary in random_graph.values()]
    assert max(means) <= 1.35 * min(means)

    # The planted workload is degree-skewed (planted nodes have no
    # internal edges, hence lower degree), so the means spread wider
    # than on G(n, p); everyone still clears the universal
    # n/(Delta+1) domination floor.
    from repro.graphs import mis_size_bounds, planted_independent_set_graph as gen

    floor, _ = mis_size_bounds(gen(N, N // 3, 0.25, seed=0))
    planted_means = [summary.mean for summary in planted.values()]
    assert min(planted_means) >= floor

    def table(title, sizes):
        return render_table(
            ["algorithm", "mean |MIS|", "min", "max"],
            [
                (name, summary.mean, summary.minimum, summary.maximum)
                for name, summary in sizes.items()
            ],
            title=title,
        )

    save_report(
        "a7_mis_quality",
        table(f"A7 MIS sizes on G(n={N}, deg~8)", random_graph)
        + "\n\n"
        + table(f"A7 MIS sizes on planted({N}, {N // 3}, 0.25)", planted),
    )
