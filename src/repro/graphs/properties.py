"""Graph property analyzers used by experiments and validation.

These are plain functions over :class:`~repro.graphs.graph.Graph`:
independence/domination checks with diagnostics, the greedy MIS used as
a ground-truth size reference, and crude MIS size bounds.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .graph import Graph

__all__ = [
    "independence_violations",
    "domination_violations",
    "greedy_mis",
    "mis_size_bounds",
]


def independence_violations(graph: Graph, nodes: Iterable[int]) -> List[Tuple[int, int]]:
    """Edges with both endpoints in ``nodes`` (empty iff independent)."""
    node_set = set(nodes)
    return [
        (u, v)
        for u in sorted(node_set)
        for v in graph.neighbors(u)
        if u < v and v in node_set
    ]


def domination_violations(graph: Graph, nodes: Iterable[int]) -> List[int]:
    """Nodes that are neither in ``nodes`` nor adjacent to it."""
    node_set = set(nodes)
    return [
        node
        for node in graph.nodes
        if node not in node_set and not (graph.neighbor_set(node) & node_set)
    ]


def greedy_mis(
    graph: Graph,
    order: Optional[Sequence[int]] = None,
    rng: Optional[random.Random] = None,
) -> Set[int]:
    """Sequential greedy MIS in the given (or random, or natural) order.

    This is the classical centralized reference: always returns a valid
    MIS, used to sanity-check distributed outputs and to bound MIS sizes.
    """
    if order is None:
        order = list(graph.nodes)
        if rng is not None:
            rng.shuffle(order)
    chosen: Set[int] = set()
    blocked: Set[int] = set()
    for node in order:
        if node in blocked or node in chosen:
            continue
        chosen.add(node)
        blocked.update(graph.neighbors(node))
    return chosen


def mis_size_bounds(graph: Graph) -> Tuple[int, int]:
    """Crude (lower, upper) bounds on the size of any MIS of ``graph``.

    Lower bound: ``n / (Delta + 1)`` rounded up (every MIS dominates).
    Upper bound: ``n`` minus a matching-based count — we use the trivial
    ``n`` bound refined by: each MIS node of degree ``d`` excludes ``d``
    neighbors, so any independent set has size at most
    ``n - m / Delta`` when ``Delta > 0``.
    """
    n = graph.num_nodes
    if n == 0:
        return (0, 0)
    delta = graph.max_degree()
    lower = -(-n // (delta + 1))
    if delta == 0:
        return (n, n)
    upper = n - graph.num_edges // delta if graph.num_edges else n
    return (lower, max(lower, upper))
