"""The workload catalog: named topology families used across the suite.

One registry serves the CLI, the correctness battery, and ad-hoc
experiment scripts, so a workload name means the same graph family
everywhere.  Each entry is a :class:`WorkloadSpec` with a
``build(n, seed)`` factory and a one-line description.

Sizes are treated as *targets*: a family with structural constraints
builds a nearby feasible size, which may lie above the request.  Grids
and tori round the side to the nearest integer (at least 2 and 3), the
hypercube takes the smallest power of two >= n (at least 2), the cycle
has at least 3 nodes, and the hard instance rounds down to a multiple
of 4 (at least 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..errors import ConfigurationError
from ..graphs import generators
from ..graphs.graph import Graph

__all__ = ["WorkloadSpec", "WORKLOADS", "get_workload", "build_workload",
           "workload_names"]


@dataclass(frozen=True)
class WorkloadSpec:
    """A named topology family."""

    name: str
    description: str
    build: Callable[[int, int], Graph]  # (n, seed) -> Graph
    randomized: bool = True  # False when the seed is ignored


def _gnp_sparse(n: int, seed: int) -> Graph:
    p = min(1.0, 8.0 / max(1, n - 1))
    return generators.gnp_random_graph(n, p, seed=seed)


def _gnp_dense(n: int, seed: int) -> Graph:
    return generators.gnp_random_graph(n, 0.3, seed=seed)


def _udg(n: int, seed: int) -> Graph:
    return generators.random_geometric_graph(
        n, 1.5 / max(2.0, n ** 0.5), seed=seed
    )


def _grid(n: int, seed: int) -> Graph:
    side = max(2, int(round(n ** 0.5)))
    return generators.grid_graph(side, side)


def _torus(n: int, seed: int) -> Graph:
    side = max(3, int(round(n ** 0.5)))
    return generators.torus_graph(side, side)


def _hypercube(n: int, seed: int) -> Graph:
    dimension = max(1, (max(2, n) - 1).bit_length())
    return generators.hypercube_graph(dimension)


def _hard(n: int, seed: int) -> Graph:
    return generators.matching_plus_isolated_graph(4 * max(1, n // 4))


def _bounded(n: int, seed: int) -> Graph:
    return generators.random_bounded_degree_graph(n, 8, seed=seed)


def _planted(n: int, seed: int) -> Graph:
    return generators.planted_independent_set_graph(n, n // 3, 0.25, seed=seed)


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("gnp", "sparse G(n,p), expected degree 8", _gnp_sparse),
        WorkloadSpec("gnp-dense", "dense G(n, 0.3)", _gnp_dense),
        WorkloadSpec("udg", "random geometric / unit-disk", _udg),
        WorkloadSpec(
            "bounded", "random graph with max degree 8", _bounded
        ),
        WorkloadSpec(
            "tree",
            "uniform random recursive tree",
            lambda n, seed: generators.random_tree(n, seed=seed),
        ),
        WorkloadSpec(
            "path", "path graph", lambda n, seed: generators.path_graph(n),
            randomized=False,
        ),
        WorkloadSpec(
            "cycle",
            "cycle graph",
            lambda n, seed: generators.cycle_graph(max(3, n)),
            randomized=False,
        ),
        WorkloadSpec("grid", "square 2-D grid", _grid, randomized=False),
        WorkloadSpec("torus", "square 2-D torus", _torus, randomized=False),
        WorkloadSpec(
            "hypercube", "smallest hypercube with >= n nodes", _hypercube,
            randomized=False,
        ),
        WorkloadSpec(
            "star", "star graph", lambda n, seed: generators.star_graph(n),
            randomized=False,
        ),
        WorkloadSpec(
            "clique",
            "complete graph",
            lambda n, seed: generators.complete_graph(n),
            randomized=False,
        ),
        WorkloadSpec(
            "empty",
            "edgeless graph (all isolated)",
            lambda n, seed: generators.empty_graph(n),
            randomized=False,
        ),
        WorkloadSpec(
            "hard", "Theorem 1 hard instance (n/4 edges + n/2 isolated)", _hard,
            randomized=False,
        ),
        WorkloadSpec(
            "planted", "G(n,p) with a planted independent third", _planted
        ),
    )
}


def workload_names() -> List[str]:
    """All registered workload names, sorted."""
    return sorted(WORKLOADS)


def get_workload(name: str) -> WorkloadSpec:
    """Look up a workload; raises with the available names on miss."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r}; choose from {workload_names()}"
        ) from None


def build_workload(name: str, n: int, seed: int = 0) -> Graph:
    """Build one instance of the named workload."""
    return get_workload(name).build(n, seed)
