"""Theorem 1's hard instance and its combinatorial structure.

The graph is the union of ``n/4`` disjoint edges and ``n/2`` isolated
vertices.  Every correct MIS must (i) include every isolated vertex and
(ii) pick exactly one endpoint of every matched pair — so an anonymous
algorithm can only fail by having a matched pair where *neither endpoint
ever hears the other*, in which case both are forced (by the Bayes
argument in the proof) to join.
"""

from __future__ import annotations

from ..graphs.generators import matching_plus_isolated_graph
from ..graphs.graph import Graph

__all__ = ["hard_instance"]


def hard_instance(n: int) -> Graph:
    """The Theorem 1 graph on ``n`` nodes (``n`` divisible by 4)."""
    return matching_plus_isolated_graph(n)


