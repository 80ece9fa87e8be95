"""(Delta+1)-coloring by iterated MIS — a classic downstream use.

The textbook reduction: repeatedly compute an MIS of the still-uncolored
subgraph and give the whole MIS the next color.  Every node is colored
within ``Delta + 1`` iterations (each iteration colors, per node, either
the node itself or locally shrinks its uncolored neighborhood), and
since each color class is independent the result is a proper coloring.

``iterated_mis_coloring`` is substrate-agnostic: it takes any *MIS
solver* callable, so callers can color with the paper's radio MIS
(each iteration a fresh radio simulation on the uncolored induced
subgraph — the energy bill multiplies by the number of colors) or
with the idealized baselines.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from ..errors import SimulationError, ValidationError
from ..graphs.graph import Graph
from ..radio.engine import run_protocol
from ..radio.models import CollisionModel
from ..radio.node import Protocol

__all__ = ["iterated_mis_coloring", "radio_mis_solver", "is_proper_coloring"]

#: (graph, seed) -> an MIS of graph
MISSolver = Callable[[Graph, int], Set[int]]


def is_proper_coloring(graph: Graph, colors: Dict[int, int]) -> bool:
    """Every node colored; no edge monochromatic."""
    if set(colors) != set(graph.nodes):
        return False
    return all(colors[u] != colors[v] for u, v in graph.edges)


def radio_mis_solver(
    protocol_factory: Callable[[], Protocol],
    model: CollisionModel,
) -> MISSolver:
    """Wrap a radio protocol as an MIS solver for the coloring loop.

    Each call simulates the protocol on the given (sub)graph.  Raises
    :class:`~repro.errors.ValidationError` if a run produces an invalid
    MIS — the coloring loop retries with a fresh seed a few times first.
    """

    def solve(graph: Graph, seed: int) -> Set[int]:
        for attempt in range(3):
            result = run_protocol(graph, protocol_factory(), model, seed=seed + attempt)
            if result.is_valid_mis():
                return set(result.mis)
        raise ValidationError(
            f"radio MIS failed 3 attempts on {graph.name} (seed {seed})"
        )

    return solve


def iterated_mis_coloring(
    graph: Graph,
    solver: MISSolver,
    seed: int = 0,
    max_colors: Optional[int] = None,
) -> Dict[int, int]:
    """Color ``graph`` by repeatedly extracting an MIS of the residue.

    Returns node -> color (0-based).  Uses at most ``Delta + 1`` colors
    when the solver returns genuine maximal independent sets; the bound
    is enforced as a watchdog (slack 2x) so a broken solver cannot loop
    forever.
    """
    if max_colors is None:
        max_colors = 2 * (graph.max_degree() + 1) + 2

    colors: Dict[int, int] = {}
    uncolored = set(graph.nodes)
    color = 0
    while uncolored:
        if color >= max_colors:
            raise SimulationError(
                f"coloring exceeded {max_colors} colors on {graph.name}; "
                "the MIS solver is not returning maximal sets"
            )
        subgraph, index = graph.induced_subgraph(sorted(uncolored))
        reverse = {new: old for old, new in index.items()}
        mis_local = solver(subgraph, seed + 7919 * color)
        if not subgraph.is_independent_set(mis_local):
            raise ValidationError(
                f"solver returned a dependent set at color {color}"
            )
        if not mis_local and uncolored:
            raise ValidationError(f"solver returned an empty set at color {color}")
        for local_node in mis_local:
            node = reverse[local_node]
            colors[node] = color
            uncolored.discard(node)
        color += 1
    return colors
