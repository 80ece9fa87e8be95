"""Topology generators for the experiments.

The paper's algorithms work on *arbitrary and unknown* topology, so the
benchmarks exercise a spread of families:

* Erdos-Renyi ``G(n, p)`` — the default "arbitrary graph" workload,
* random geometric graphs — the unit-disk setting that motivates the
  radio model (sensor networks),
* bounded-degree random graphs — used by the Delta-parametrized sweep
  (experiment E11),
* structured families (paths, cycles, grids, trees, stars, cliques,
  complete bipartite) — adversarial/extremal shapes for tests,
* the lower-bound hard instance (n/4 disjoint edges + n/2 isolated
  nodes) from Theorem 1 — also exposed in :mod:`repro.lowerbound`.

All generators take an explicit ``rng`` or ``seed`` so every experiment
is reproducible.  With numpy installed, ``G(n, p)`` runs its
geometric-skip walk in numpy blocks and hands the CSR fold int64
endpoint arrays; every other generator, and ``G(n, p)`` without numpy,
hands :class:`Graph` its edges as a lazy iterable.  Neither builds a
Python edge list, so the same code serves n=16 and n=10^6.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, List, Optional, Tuple

from ..errors import GraphError
from . import graph as _graph
from .graph import Edge, Graph

__all__ = [
    "gnp_random_graph",
    "random_geometric_graph",
    "random_bounded_degree_graph",
    "random_tree",
    "path_graph",
    "cycle_graph",
    "grid_graph",
    "torus_graph",
    "hypercube_graph",
    "star_graph",
    "complete_graph",
    "complete_bipartite_graph",
    "barbell_graph",
    "empty_graph",
    "disjoint_edges_graph",
    "matching_plus_isolated_graph",
    "caterpillar_graph",
    "random_regularish_graph",
    "planted_independent_set_graph",
]


def _resolve_rng(rng: Optional[random.Random], seed: Optional[int]) -> random.Random:
    if rng is not None:
        return rng
    return random.Random(seed)


def gnp_random_graph(
    n: int,
    p: float,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> Graph:
    """Erdos-Renyi graph: each of the ``n choose 2`` edges present w.p. ``p``.

    Uses the geometric skipping method so the cost is ``O(n + m)`` rather
    than ``O(n^2)``, which matters for the larger sweep sizes.  With
    numpy the walk runs in vectorised blocks (:func:`_gnp_pairs`);
    without it, edge by edge (:func:`_gnp_edges`).  Both draw the same
    doubles from the same Mersenne Twister stream, so a seed gives the
    same graph either way.

    A caller-passed ``rng`` is left one draw past the last edge: the
    walk's final draw is the skip that runs off the end of the pair
    list.  Nothing is drawn when ``n < 2``, when ``p`` is 1, or when
    ``p`` is 0 or so small that ``1 - p`` rounds to 1.
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    name = f"gnp(n={n},p={p:g})"
    stream = _resolve_rng(rng, seed)
    if _graph._np is None:
        return Graph(n, _gnp_edges(n, p, stream), name=name)
    n = _graph._num_nodes(n)
    w, v = _gnp_pairs(n, p, stream, rng is not None)
    return Graph._from_edge_arrays(n, w, v, name)


def _gnp_edges(n: int, p: float, rng: random.Random) -> Iterator[Edge]:
    """The geometric-skip walk; leaves ``rng`` one draw past the last edge."""
    if p <= 0:
        return
    if p >= 1.0:
        yield from ((u, v) for u in range(n) for v in range(u + 1, n))
        return
    log_q = math.log(1.0 - p)
    if log_q == 0.0:
        # p so small that 1-p rounds to 1.0: indistinguishable from 0.
        return
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            yield (w, v)


# Uniforms drawn per numpy block: 8 MB of doubles at most.
_GNP_BLOCK = 1 << 20


def _gnp_pairs(n: int, p: float, rng: random.Random, advance_rng: bool):
    """:func:`_gnp_edges`' edges as int64 arrays ``(w, v)``, ``w < v``.

    Pair ``(w, v)`` has triangular index ``t = v(v-1)/2 + w``; the walk
    visits ``t`` in increasing order, so the arrays come out sorted and
    duplicate-free.  Without ``advance_rng``, ``rng`` may end past the
    walk's last draw; with it, ``rng`` ends where :func:`_gnp_edges`
    would leave it.
    """
    np = _graph._np
    pairs = n * (n - 1) // 2
    if p >= 1.0:
        t = np.arange(pairs, dtype=np.int64)
    elif p <= 0 or pairs == 0 or math.log(1.0 - p) == 0.0:
        t = np.empty(0, dtype=np.int64)
    else:
        t = _gnp_walk(pairs, p, rng, advance_rng)
    return _unrank_pairs(t)


def _unrank_pairs(t):
    """Pairs ``(w, v)``, ``w < v``, of the triangular indices ``t = v(v-1)/2 + w``.

    A float sqrt finds ``v``; one integer correction each way undoes its
    rounding, which starts at node ids of about 2**27.
    """
    np = _graph._np
    # Halving by a multiply and a shift: numpy's floor division is
    # several times slower on both floats and ints.
    v = ((np.sqrt(8.0 * t + 1.0) + 1.0) * 0.5).astype(np.int64)
    v -= (v * (v - 1) >> 1) > t
    v += ((v + 1) * v >> 1) <= t
    return t - (v * (v - 1) >> 1), v


def _gnp_walk(pairs: int, p: float, rng: random.Random, advance_rng: bool):
    """Triangular indices of the walk's edges, drawn in numpy blocks."""
    np = _graph._np
    log_q = math.log(1.0 - p)
    mean = pairs * p
    # Expected draws plus slack, so one block usually ends the walk; the
    # last cap keeps a block's cumulative sum of steps (each at most
    # pairs + 1) inside int64.
    block = min(int(mean + 4.0 * math.sqrt(mean)) + 16, _GNP_BLOCK,
                (1 << 62) // (pairs + 1))
    chunks = []
    last = -1
    while True:
        start = rng.getstate() if advance_rng else None
        steps = _gnp_skips(_uniforms(rng, block), log_q, pairs)
        steps += 1
        t = np.cumsum(steps)
        t += last
        end = int(np.searchsorted(t, pairs))
        if end < block:
            chunks.append(t[:end])
            break
        chunks.append(t)
        last = int(t[-1])
    if advance_rng:
        # Redraw the last block only up to the draw that ran off the end.
        rng.setstate(start)
        rng.randbytes(8 * (end + 1))
    return np.concatenate(chunks)


def _uniforms(rng: random.Random, count: int):
    """The next ``count`` values of ``rng.random()``, drawn in one call.

    ``random()`` builds each double from two 32-bit outputs as
    ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``; ``randbytes`` returns the
    same outputs in order as little-endian 32-bit words, so numpy can
    apply that formula to all of them at once.
    """
    np = _graph._np
    words = np.frombuffer(rng.randbytes(8 * count), dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0


def _gnp_skips(u, log_q: float, limit: int):
    """``int(math.log(1.0 - x) / log_q)`` for each ``x`` of ``u``, capped at ``limit``.

    ``np.log`` may round differently from ``math.log`` in the last place
    (it has its own SIMD kernels), which can move a quotient across an
    integer.  Every quotient within 1e-9 of an integer (1e-9 of the
    quotient once it passes 1) is therefore recomputed with
    ``math.log``, a margin far wider than any last-place difference, so
    each skip equals the Python walk's by construction.  The cap keeps
    the cumulative sum inside int64.
    """
    np = _graph._np
    q = np.log(1.0 - u)
    q /= log_q
    near = np.abs(q - np.rint(q)) <= 1e-9 * np.maximum(q, 1.0)
    for i in np.flatnonzero(near).tolist():
        q[i] = math.log(1.0 - float(u[i])) / log_q
    np.minimum(q, limit, out=q)
    return q.astype(np.int64)


def random_geometric_graph(
    n: int,
    radius: float,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> Graph:
    """Random geometric (unit-disk) graph on the unit square.

    Nodes are uniform points; an edge joins points at distance at most
    ``radius``.  A cell grid keeps construction near-linear for the
    radii the benchmarks use.
    """
    if radius < 0:
        raise GraphError(f"radius must be non-negative, got {radius}")
    rng = _resolve_rng(rng, seed)
    points: List[Tuple[float, float]] = [(rng.random(), rng.random()) for _ in range(n)]
    cell_size = max(radius, 1e-9)
    grid: dict = {}
    for index, (x, y) in enumerate(points):
        grid.setdefault((int(x / cell_size), int(y / cell_size)), []).append(index)
    radius_sq = radius * radius

    def edges() -> Iterator[Edge]:
        for u, (ux, uy) in enumerate(points):
            cx, cy = int(ux / cell_size), int(uy / cell_size)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for v in grid.get((cx + dx, cy + dy), ()):
                        if v <= u:
                            continue
                        vx, vy = points[v]
                        if (ux - vx) ** 2 + (uy - vy) ** 2 <= radius_sq:
                            yield (u, v)

    return Graph(n, edges(), name=f"udg(n={n},r={radius:g})")


def random_bounded_degree_graph(
    n: int,
    max_degree: int,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
    attempts_per_edge: int = 4,
) -> Graph:
    """Random graph with maximum degree at most ``max_degree``.

    Repeatedly proposes uniform random pairs and accepts those that keep
    both endpoints under the cap.  Degree distribution is close to
    uniform at ``max_degree`` for dense settings, which is exactly what
    the Delta-sweep experiment needs (a controllable Delta knob).
    """
    if max_degree < 0:
        raise GraphError(f"max_degree must be non-negative, got {max_degree}")
    rng = _resolve_rng(rng, seed)
    degrees = [0] * n
    edge_set = set()
    target_edges = (n * max_degree) // 2
    budget = attempts_per_edge * max(1, target_edges)
    while budget > 0 and len(edge_set) < target_edges:
        budget -= 1
        u = rng.randrange(n) if n else 0
        v = rng.randrange(n) if n else 0
        if u == v:
            continue
        if degrees[u] >= max_degree or degrees[v] >= max_degree:
            continue
        edge = (u, v) if u < v else (v, u)
        if edge in edge_set:
            continue
        edge_set.add(edge)
        degrees[u] += 1
        degrees[v] += 1
    return Graph(n, edge_set, name=f"bounded(n={n},d={max_degree})")


def random_tree(
    n: int,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> Graph:
    """Uniform random recursive tree (each node attaches to a prior node)."""
    rng = _resolve_rng(rng, seed)
    edges = ((rng.randrange(node), node) for node in range(1, n))
    return Graph(n, edges, name=f"tree(n={n})")


def path_graph(n: int) -> Graph:
    """Path ``0 - 1 - ... - (n-1)``."""
    return Graph(n, ((i, i + 1) for i in range(n - 1)), name=f"path(n={n})")


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n`` nodes (n >= 3)."""
    if n < 3:
        raise GraphError(f"cycle requires at least 3 nodes, got {n}")
    edges = ((i, (i + 1) % n) for i in range(n))
    return Graph(n, edges, name=f"cycle(n={n})")


def grid_graph(rows: int, cols: int) -> Graph:
    """2-D grid with ``rows * cols`` nodes."""

    def edges() -> Iterator[Edge]:
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c
                if c + 1 < cols:
                    yield (node, node + 1)
                if r + 1 < rows:
                    yield (node, node + cols)

    return Graph(rows * cols, edges(), name=f"grid({rows}x{cols})")


def torus_graph(rows: int, cols: int) -> Graph:
    """2-D grid with wraparound (a 4-regular torus for rows, cols >= 3)."""
    if rows < 3 or cols < 3:
        raise GraphError(f"torus requires both dimensions >= 3, got {rows}x{cols}")

    def edges() -> Iterator[Edge]:
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c
                yield (node, r * cols + (c + 1) % cols)
                yield (node, ((r + 1) % rows) * cols + c)

    return Graph(rows * cols, edges(), name=f"torus({rows}x{cols})")


def hypercube_graph(dimension: int) -> Graph:
    """The ``dimension``-dimensional hypercube on ``2^dimension`` nodes."""
    if dimension < 0:
        raise GraphError(f"dimension must be non-negative, got {dimension}")
    n = 1 << dimension
    edges = (
        (node, node ^ (1 << bit))
        for node in range(n)
        for bit in range(dimension)
        if node < node ^ (1 << bit)
    )
    return Graph(n, edges, name=f"hypercube(d={dimension})")


def barbell_graph(clique_size: int, path_length: int) -> Graph:
    """Two ``clique_size``-cliques joined by a ``path_length``-edge path.

    A classic extremal shape: dense clusters with a sparse bridge.
    """
    if clique_size < 1:
        raise GraphError(f"clique_size must be positive, got {clique_size}")
    if path_length < 1:
        raise GraphError(f"path_length must be positive, got {path_length}")
    # Left clique: 0..clique_size-1, right clique follows the path nodes.
    right_start = clique_size + path_length - 1
    chain = [clique_size - 1, *range(clique_size, right_start), right_start]

    def edges() -> Iterator[Edge]:
        for start in (0, right_start):
            for u in range(start, start + clique_size):
                for v in range(u + 1, start + clique_size):
                    yield (u, v)
        yield from zip(chain, chain[1:])

    total = right_start + clique_size
    return Graph(total, edges(), name=f"barbell({clique_size},{path_length})")


def planted_independent_set_graph(
    n: int,
    planted_size: int,
    p: float,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> Graph:
    """G(n, p) conditioned on nodes ``0..planted_size-1`` being independent.

    Every pair with at least one endpoint outside the planted set is an
    edge with probability ``p``; pairs inside the planted set never are.
    Used to check MIS-quality questions (does a distributed MIS find
    large independent structure?).
    """
    if not 0 <= planted_size <= n:
        raise GraphError(
            f"planted_size must be in [0, {n}], got {planted_size}"
        )
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = _resolve_rng(rng, seed)
    edges = (
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u >= planted_size or v >= planted_size) and rng.random() < p
    )
    return Graph(n, edges, name=f"planted(n={n},s={planted_size},p={p:g})")


def star_graph(n: int) -> Graph:
    """Star: node 0 is the hub connected to nodes ``1..n-1``."""
    return Graph(n, ((0, leaf) for leaf in range(1, n)), name=f"star(n={n})")


def complete_graph(n: int) -> Graph:
    """Clique on ``n`` nodes."""
    edges = ((u, v) for u in range(n) for v in range(u + 1, n))
    return Graph(n, edges, name=f"clique(n={n})")


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """Complete bipartite graph ``K_{a,b}`` (left nodes first)."""
    edges = ((u, a + v) for u in range(a) for v in range(b))
    return Graph(a + b, edges, name=f"K({a},{b})")


def empty_graph(n: int) -> Graph:
    """Edgeless graph — every node is isolated."""
    return Graph(n, (), name=f"empty(n={n})")


def disjoint_edges_graph(num_edges: int) -> Graph:
    """Perfect matching: ``num_edges`` disjoint edges, no isolated nodes."""
    edges = ((2 * i, 2 * i + 1) for i in range(num_edges))
    return Graph(2 * num_edges, edges, name=f"matching(m={num_edges})")


def matching_plus_isolated_graph(n: int) -> Graph:
    """Theorem 1's hard instance: n/4 disjoint edges plus n/2 isolated nodes.

    ``n`` must be a multiple of 4.  Nodes ``0..n/2-1`` form the matching
    (pairs ``(2i, 2i+1)``); nodes ``n/2..n-1`` are isolated.
    """
    if n % 4 != 0:
        raise GraphError(f"hard instance requires n divisible by 4, got {n}")
    edges = ((2 * i, 2 * i + 1) for i in range(n // 4))
    return Graph(n, edges, name=f"hard(n={n})")


def caterpillar_graph(spine: int, legs_per_node: int) -> Graph:
    """Caterpillar: a path spine with ``legs_per_node`` leaves per spine node."""
    legs = range(legs_per_node)
    edges = itertools.chain(
        ((i, i + 1) for i in range(spine - 1)),
        (
            (node, spine + node * len(legs) + leg)
            for node in range(spine)
            for leg in legs
        ),
    )
    total = spine + max(spine, 0) * len(legs)
    return Graph(total, edges, name=f"caterpillar({spine},{legs_per_node})")


def random_regularish_graph(
    n: int,
    degree: int,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> Graph:
    """Near-regular random graph via a configuration-model style pairing.

    Stubs are paired uniformly; self-loops and duplicate edges are
    dropped (so final degrees may fall slightly below ``degree``).  This
    is the standard cheap approximation and suffices for workloads that
    just need "roughly regular with controllable degree".
    """
    if degree < 0:
        raise GraphError(f"degree must be non-negative, got {degree}")
    if degree >= n and n > 0:
        raise GraphError(f"degree {degree} too large for {n} nodes")
    rng = _resolve_rng(rng, seed)
    stubs = [node for node in range(n) for _ in range(degree)]
    rng.shuffle(stubs)
    edges = ((u, v) for u, v in zip(stubs[0::2], stubs[1::2]) if u != v)
    return Graph(n, edges, name=f"regularish(n={n},d={degree})")
