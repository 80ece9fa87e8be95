"""Random rank bitstrings for the Luby-style competitions.

Each Luby phase, every participating node draws a fresh uniform
bitstring of ``beta * log n`` bits (its *rank*) and the bit-by-bit
competition eliminates nodes that hear a transmission on one of their
0-bits.  These helpers draw ranks, convert them to integers for
analysis, and implement the "local maximum" predicate of Lemma 14.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from ..graphs.graph import Graph

__all__ = [
    "draw_rank",
    "rank_to_int",
    "is_local_maximum",
]


def draw_rank(rng: random.Random, bits: int) -> List[int]:
    """Draw a uniform rank of ``bits`` independent fair bits (MSB first)."""
    value = rng.getrandbits(bits) if bits > 0 else 0
    return [(value >> (bits - 1 - position)) & 1 for position in range(bits)]


def rank_to_int(rank: Sequence[int]) -> int:
    """Interpret a bit sequence (MSB first) as an integer."""
    value = 0
    for bit in rank:
        value = (value << 1) | (1 if bit else 0)
    return value


def is_local_maximum(graph: Graph, node: int, ranks: Dict[int, int]) -> bool:
    """Lemma 14's predicate: ``node``'s rank exceeds every *participating*
    neighbor's rank.

    ``ranks`` maps participating nodes to integer ranks; neighbors absent
    from the map did not participate and are ignored.  Ties are *not*
    local maxima (matching the strict comparison in Luby's analysis).
    """
    own = ranks[node]
    return all(
        ranks[neighbor] < own
        for neighbor in graph.neighbors(node)
        if neighbor in ranks
    )
