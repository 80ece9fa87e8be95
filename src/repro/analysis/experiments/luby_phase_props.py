"""Experiment E12: per-phase structural lemmas of the no-CD competition.

From instrumented Algorithm 2 runs, three claims of Section 5.3 are
checked on every Luby phase:

* **Lemma 14** — an undecided node whose rank is a local maximum among
  that phase's participants ends the competition with status ``win``
  (w.h.p.).
* **Lemma 15** — no two neighbors both win (w.h.p.); winner sets are
  independent.
* **Corollary 13** — the committed set ``C_i`` induces a subgraph of
  maximum degree at most ``kappa log n`` (w.h.p.).
* **Lemma 11** — two neighboring nodes that both commit do so in the
  *same* bitty phase (w.h.p.): a node commits at its first silent
  0-bit, and neighbors' earlier 1-bits would have been heard.

One (graph, seed) run is :func:`luby_phase_record`, a JSON-safe record
of its counters plus a histogram of committed-induced degrees;
:func:`fold_luby_phase_properties` turns records into the report.  The
Corollary 13 threshold ``kappa log n`` comes from the largest graph, so
the fold, not the run, counts the degree violations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Sequence

from ...constants import ConstantsProfile
from ...core import NoCDEnergyMISProtocol
from ...core.ranks import is_local_maximum
from ...exec.cache import graph_fingerprint
from ...graphs.graph import Graph
from ...radio.engine import run_protocol
from ...radio.models import NO_CD
from ..runner import _harness_records
from ..tables import render_table

__all__ = [
    "PhasePropertyCounts",
    "LubyPhaseReport",
    "luby_phase_record",
    "fold_luby_phase_properties",
    "run_luby_phase_properties",
]


@dataclass
class PhasePropertyCounts:
    """Counters accumulated over all inspected phases."""

    phases: int = 0
    participants: int = 0
    local_maxima: int = 0
    local_maxima_that_won: int = 0
    adjacent_winner_pairs: int = 0
    committed_nodes: int = 0
    committed_degree_violations: int = 0
    max_committed_degree: int = 0
    adjacent_committed_pairs: int = 0
    adjacent_committed_same_bit: int = 0


#: Counters a run records as-is; the fold sums them.  The other two
#: (violations, max degree) come from the committed-degree histogram.
_SUMMED_COUNTS = tuple(
    f.name
    for f in fields(PhasePropertyCounts)
    if f.name not in ("committed_degree_violations", "max_committed_degree")
)


@dataclass
class LubyPhaseReport:
    """E12 output."""

    n: int
    kappa_log_n: int
    counts: PhasePropertyCounts

    def to_table(self) -> str:
        counts = self.counts
        lemma14_rate = (
            counts.local_maxima_that_won / counts.local_maxima
            if counts.local_maxima
            else 1.0
        )
        lemma11_rate = (
            counts.adjacent_committed_same_bit / counts.adjacent_committed_pairs
            if counts.adjacent_committed_pairs
            else 1.0
        )
        rows = [
            ("phases inspected", counts.phases, "-"),
            ("participants", counts.participants, "-"),
            ("local maxima that won (Lemma 14)", f"{lemma14_rate:.4f}", ">= 1-1/n^2"),
            ("adjacent winner pairs (Lemma 15)", counts.adjacent_winner_pairs, "0 w.h.p."),
            (
                "adjacent commits in same bitty phase (Lemma 11)",
                f"{lemma11_rate:.4f} ({counts.adjacent_committed_pairs} pairs)",
                ">= 1-2/n^5",
            ),
            ("committed nodes", counts.committed_nodes, "-"),
            (
                "max committed-induced degree (Cor 13)",
                counts.max_committed_degree,
                f"<= {self.kappa_log_n}",
            ),
            (
                "committed degree violations",
                counts.committed_degree_violations,
                "0 w.h.p.",
            ),
        ]
        return render_table(
            ["property", "measured", "paper bound"],
            rows,
            title=f"E12 per-phase competition properties (n={self.n})",
        )


def luby_phase_record(
    graph: Graph,
    seed: int,
    constants: ConstantsProfile,
    mute_committed_on_hear: bool = False,
) -> Dict[str, object]:
    """Inspect every Luby phase of one instrumented Algorithm 2 run.

    ``committed_degrees`` holds ``[degree, nodes]`` pairs, ascending:
    how many committed nodes had each committed-induced degree, summed
    over the run's phases.
    """
    protocol = NoCDEnergyMISProtocol(
        constants=constants,
        instrument=True,
        mute_committed_on_hear=mute_committed_on_hear,
    )
    counts = PhasePropertyCounts()
    degree_nodes: Dict[int, int] = {}
    result = run_protocol(graph, protocol, NO_CD, seed=seed)
    # index phase logs: phase -> node -> entry
    by_phase: Dict[int, Dict[int, dict]] = {}
    for node, info in enumerate(result.node_info):
        for entry in info.get("phase_log", ()):
            if "rank" in entry:  # participated in this competition
                by_phase.setdefault(entry["phase"], {})[node] = entry

    for phase, entries in sorted(by_phase.items()):
        counts.phases += 1
        counts.participants += len(entries)
        ranks = {node: entry["rank"] for node, entry in entries.items()}
        winners = {
            node
            for node, entry in entries.items()
            if entry.get("competition_status") == "win"
        }
        committed = {
            node for node, entry in entries.items() if entry.get("committed")
        }

        for node in ranks:
            if is_local_maximum(graph, node, ranks):
                counts.local_maxima += 1
                if node in winners:
                    counts.local_maxima_that_won += 1

        for u in winners:
            for v in graph.neighbors(u):
                if v in winners and u < v:
                    counts.adjacent_winner_pairs += 1

        commit_bits = {node: entries[node].get("commit_bit") for node in committed}
        for u in committed:
            for v in graph.neighbors(u):
                if v in committed and u < v:
                    counts.adjacent_committed_pairs += 1
                    if commit_bits[u] == commit_bits[v]:
                        counts.adjacent_committed_same_bit += 1

        counts.committed_nodes += len(committed)
        for degree in graph.induced_subgraph_degrees(committed).values():
            degree_nodes[degree] = degree_nodes.get(degree, 0) + 1

    record: Dict[str, object] = {
        name: getattr(counts, name) for name in _SUMMED_COUNTS
    }
    record["num_nodes"] = graph.num_nodes
    record["committed_degrees"] = [
        [degree, degree_nodes[degree]] for degree in sorted(degree_nodes)
    ]
    return record


def fold_luby_phase_properties(
    records: Sequence[Dict], constants: ConstantsProfile
) -> LubyPhaseReport:
    """The E12 report over per-run records; ``kappa log n`` uses the
    largest graph's size."""
    n_reference = max(record["num_nodes"] for record in records)
    kappa_log_n = constants.committed_degree(n_reference)
    counts = PhasePropertyCounts()
    for record in records:
        for name in _SUMMED_COUNTS:
            setattr(counts, name, getattr(counts, name) + record[name])
        for degree, nodes in record["committed_degrees"]:
            counts.max_committed_degree = max(counts.max_committed_degree, degree)
            if degree > kappa_log_n:
                counts.committed_degree_violations += nodes
    return LubyPhaseReport(
        n=n_reference, kappa_log_n=kappa_log_n, counts=counts
    )


def run_luby_phase_properties(
    graphs: Sequence[Graph],
    seeds: Sequence[int],
    constants: Optional[ConstantsProfile] = None,
    mute_committed_on_hear: bool = False,
) -> LubyPhaseReport:
    """Inspect every Luby phase of instrumented Algorithm 2 runs.

    ``mute_committed_on_hear`` selects the Lemma 14 ablation variant
    (see :func:`repro.core.competition.competition`).  One cached record
    per (graph, seed), graph-major.
    """
    constants = constants or ConstantsProfile.practical()
    records = _harness_records(
        "luby-phase-props",
        NoCDEnergyMISProtocol(
            constants=constants,
            instrument=True,
            mute_committed_on_hear=mute_committed_on_hear,
        ),
        lambda g, seed: luby_phase_record(
            graphs[g], seed, constants, mute_committed_on_hear
        ),
        [graph_fingerprint(graph) for graph in graphs],
        seeds,
    )
    return fold_luby_phase_properties(records, constants)
