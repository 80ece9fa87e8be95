"""Core immutable graph type used throughout the library.

The radio model is defined on an arbitrary undirected graph whose
topology is *unknown to the nodes*.  The simulator therefore needs a
graph representation that is:

* **indexed** — nodes are ``0..n-1`` so per-node state lives in lists,
* **immutable** — a run must not mutate the topology it simulates,
* **fast for neighborhood queries** — collision resolution intersects a
  listener's neighborhood with the set of transmitters every round.

Every graph's edges enter through :meth:`Graph.__init__`, which consumes
the edge iterable once, or, for the endpoint arrays the G(n, p) walk
builds itself, through the private ``Graph._from_edge_arrays``.  With
numpy installed both fold the pairs straight into a symmetric CSR
``(indptr, indices)`` pair — the form the batch engine and the
flat-array scalar paths read — and the Python-object views
(``adjacency``, ``neighbor_sets``, ``edges``) materialize only when
something asks for them, so a 10^6-node graph never builds per-node
tuples.  Without numpy the constructor builds those views eagerly from
sets and :meth:`Graph.csr` is unavailable.  :meth:`Graph.from_csr`
adopts an already-built CSR pair after validating it.
"""

from __future__ import annotations

import operator
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

from ..errors import GraphError

try:  # With numpy every graph is CSR-backed; without it, set-based.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less environments
    _np = None

__all__ = ["Graph", "Edge", "csr_index_dtypes"]

Edge = Tuple[int, int]

_INT32_MAX = 2**31 - 1


def _normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


def csr_index_dtypes(num_nodes: int, num_directed_edges: int):
    """Dtypes ``(indptr_dtype, indices_dtype)`` for a CSR of this size.

    ``indices`` stores node identifiers, so it only needs int64 once the
    node count itself exceeds int32 range; ``indptr`` stores cumulative
    *directed* edge counts (2m), which overflow int32 two decades sooner
    on dense graphs.  Keeping the two decisions independent means a
    10^6-node sparse graph stays fully int32 while a hypothetical
    3·10^9-directed-edge graph gets an int64 ``indptr`` without paying
    for int64 indices.
    """
    if num_nodes < 0 or num_directed_edges < 0:
        raise GraphError("CSR sizes must be non-negative")
    indices_dtype = _np.int32 if num_nodes <= _INT32_MAX else _np.int64
    indptr_dtype = _np.int32 if num_directed_edges <= _INT32_MAX else _np.int64
    return indptr_dtype, indices_dtype


def _num_nodes(num_nodes) -> int:
    """``num_nodes`` as an exact non-negative int, or a :class:`GraphError`."""
    try:
        num_nodes = operator.index(num_nodes)
    except TypeError:
        raise GraphError(f"num_nodes must be an integer, got {num_nodes!r}") from None
    if num_nodes < 0:
        raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
    return num_nodes


def _endpoints(edges: Iterable[Edge]) -> Iterator[int]:
    """Flatten ``edges`` into ``u0, v0, u1, v1, ...`` as exact ints.

    ``operator.index`` refuses floats, strings and other non-integers
    that a numpy int64 conversion would silently truncate or parse.
    """
    index = operator.index
    for edge in edges:
        try:
            u, v = edge
            u, v = index(u), index(v)
        except (TypeError, ValueError):
            raise GraphError(
                f"edge {edge!r} must be a pair of integer node ids"
            ) from None
        yield u
        yield v


def _fold_csr(n: int, edges: Iterable[Edge]):
    """Fold an edge iterable into a symmetric, sorted, deduplicated CSR.

    Every endpoint passes :func:`_endpoints`' integer check on its way
    into one int64 array; :func:`_fold_arrays` does the rest.
    """
    try:
        flat = _np.fromiter(_endpoints(edges), dtype=_np.int64)
    except OverflowError:
        raise GraphError(
            f"edge endpoint out of range for graph on {n} nodes"
        ) from None
    return _fold_arrays(n, flat[0::2], flat[1::2])


def _fold_arrays(n: int, u, v):
    """Fold int64 endpoint arrays (edge ``i`` is ``(u[i], v[i])``) into CSR.

    Endpoints are range- and self-loop-checked in one vectorized pass
    (reporting the first offending edge in input order), both
    orientations are encoded as ``u * n + v`` int64 codes, and one sort
    plus a neighbour-difference mask performs the dedup-and-sort.  Peak
    memory is O(m) machine integers — no Python edge list, sets or
    per-node objects.
    """
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
    if bad.any():
        first = int(bad.argmax())
        a, b = int(u[first]), int(v[first])
        if 0 <= a < n and 0 <= b < n:
            raise GraphError(f"self-loop ({a}, {a}) is not allowed")
        raise GraphError(f"edge ({a}, {b}) out of range for graph on {n} nodes")
    codes = _np.concatenate((u * n + v, v * n + u))
    # Sort, then drop repeats: the result of ``np.unique``, which numpy
    # 2.x computes through a hash table, many times slower on int64 codes.
    codes.sort()
    keep = _np.ones(codes.size, dtype=bool)
    _np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    codes = codes[keep]
    rows, cols = _np.divmod(codes, max(n, 1))
    indptr_dtype, indices_dtype = csr_index_dtypes(n, int(codes.size))
    indptr = _np.zeros(n + 1, dtype=indptr_dtype)
    _np.cumsum(_np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols.astype(indices_dtype)


class Graph:
    """An immutable, simple, undirected graph on nodes ``0..n-1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes; node identifiers are ``range(num_nodes)``.
    edges:
        Iterable of ``(u, v)`` pairs of integer node ids, consumed once
        (a generator is fine).  Self-loops and non-integer or
        wrong-arity edges are rejected; duplicate edges (in either
        orientation) are collapsed.
    name:
        Optional label used in experiment reports.
    """

    __slots__ = (
        "_n",
        "_adjacency",
        "_neighbor_sets",
        "_edges",
        "_num_edges",
        "_max_degree",
        "_csr",
        "name",
    )

    def __init__(self, num_nodes: int, edges: Iterable[Edge] = (), name: str = "graph"):
        num_nodes = _num_nodes(num_nodes)
        self.name = name
        if _np is not None:
            self._adopt_csr(*_fold_csr(num_nodes, edges))
            return
        self._n = num_nodes
        adjacency: List[Set[int]] = [set() for _ in range(num_nodes)]
        edge_set: Set[Edge] = set()
        flat = _endpoints(edges)
        for u, v in zip(flat, flat):
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise GraphError(
                    f"edge ({u}, {v}) out of range for graph on {num_nodes} nodes"
                )
            if u == v:
                raise GraphError(f"self-loop ({u}, {u}) is not allowed")
            edge_set.add(_normalize_edge(u, v))
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._adjacency: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(neighbors)) for neighbors in adjacency
        )
        self._neighbor_sets: Tuple[FrozenSet[int], ...] = tuple(
            frozenset(neighbors) for neighbors in adjacency
        )
        self._edges: Tuple[Edge, ...] = tuple(sorted(edge_set))
        self._num_edges: int = len(self._edges)
        self._max_degree: int = (
            max(len(neighbors) for neighbors in self._adjacency) if self._n else 0
        )
        self._csr = None

    def _adopt_csr(self, indptr, indices) -> None:
        """Take over a valid CSR pair (read-only from here on); the
        Python-object views stay unbuilt until first asked for."""
        self._n = n = int(indptr.shape[0]) - 1
        self._adjacency = None
        self._neighbor_sets = None
        self._edges = None
        self._num_edges = int(indices.shape[0]) // 2
        self._max_degree = int(_np.diff(indptr).max()) if n else 0
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self._csr = (indptr, indices)

    @classmethod
    def _from_edge_arrays(cls, num_nodes: int, u, v, name: str) -> "Graph":
        """Fold int64 endpoint arrays that a generator built itself.

        ``num_nodes`` must already have passed :func:`_num_nodes`.  The
        fold's range, self-loop and dedup passes all run; only the
        per-edge Python type check of :func:`_endpoints` is skipped, so
        edges that come from a caller always go through ``__init__``.
        """
        graph = object.__new__(cls)
        graph._adopt_csr(*_fold_arrays(num_nodes, u, v))
        graph.name = name
        return graph

    @classmethod
    def from_csr(cls, indptr, indices, *, name: str = "graph") -> "Graph":
        """Adopt a symmetric CSR ``(indptr, indices)`` pair as a graph.

        The arrays are taken over (marked read-only) rather than copied;
        rows must be sorted, symmetric, self-loop-free, and deduplicated,
        which vectorized passes check — O(m log m) worst case for the
        symmetry check.  No Python-object views are built here;
        ``adjacency``, ``edges`` etc. materialize lazily on first access.
        """
        indptr = _np.ascontiguousarray(indptr)
        indices = _np.ascontiguousarray(indices)
        if indptr.ndim != 1 or indices.ndim != 1 or indptr.shape[0] < 1:
            raise GraphError("CSR arrays must be 1-D with len(indptr) == n + 1")
        n = int(indptr.shape[0]) - 1
        if int(indptr[0]) != 0 or int(indptr[-1]) != indices.shape[0]:
            raise GraphError("indptr must start at 0 and end at len(indices)")
        cls._validate_csr(n, indptr, indices)
        graph = object.__new__(cls)
        graph._adopt_csr(indptr, indices)
        graph.name = name
        return graph

    @staticmethod
    def _validate_csr(n, indptr, indices) -> None:
        degrees = _np.diff(indptr)
        if degrees.size and int(degrees.min()) < 0:
            raise GraphError("indptr must be non-decreasing")
        if indices.size:
            if int(indices.min()) < 0 or int(indices.max()) >= n:
                raise GraphError(f"CSR index out of range for graph on {n} nodes")
            rows = _np.repeat(_np.arange(n, dtype=_np.int64), degrees)
            cols = indices.astype(_np.int64, copy=False)
            if bool(_np.any(rows == cols)):
                raise GraphError("self-loops are not allowed")
            # Sorted-and-deduplicated within each row: strictly increasing
            # everywhere except at row boundaries.
            interior = rows[1:] == rows[:-1]
            if bool(_np.any(interior & (cols[1:] <= cols[:-1]))):
                raise GraphError("CSR rows must be sorted and duplicate-free")
            # Symmetry: the multiset of encoded directed edges must equal
            # the multiset of their reverses.
            forward = rows * n + cols
            reverse = cols * n + rows
            forward.sort()
            reverse.sort()
            if not bool(_np.array_equal(forward, reverse)):
                raise GraphError("CSR adjacency must be symmetric")

    # ------------------------------------------------------------------
    # Lazy materialization (CSR-backed graphs only)
    # ------------------------------------------------------------------

    def _adj(self) -> Tuple[Tuple[int, ...], ...]:
        adjacency = self._adjacency
        if adjacency is None:
            indptr, indices = self._csr
            flat = indices.tolist()
            bounds = indptr.tolist()
            self._adjacency = adjacency = tuple(
                tuple(flat[bounds[v] : bounds[v + 1]]) for v in range(self._n)
            )
        return adjacency

    def _nbrs(self) -> Tuple[FrozenSet[int], ...]:
        neighbor_sets = self._neighbor_sets
        if neighbor_sets is None:
            self._neighbor_sets = neighbor_sets = tuple(
                frozenset(row) for row in self._adj()
            )
        return neighbor_sets

    def _edge_tuple(self) -> Tuple[Edge, ...]:
        edges = self._edges
        if edges is None:
            self._edges = edges = tuple(
                (u, v)
                for u, row in enumerate(self._adj())
                for v in row
                if u < v
            )
        return edges

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges in the graph."""
        return self._num_edges

    @property
    def nodes(self) -> range:
        """The node identifiers, always ``range(num_nodes)``."""
        return range(self._n)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """Sorted tuple of normalized ``(u, v)`` edges with ``u < v``."""
        return self._edge_tuple()

    def iter_edges(self) -> Iterator[Edge]:
        """Yield normalized ``(u, v)`` edges in sorted order.

        Unlike :attr:`edges`, this never caches: CSR-backed graphs walk
        their (already sorted) rows directly, so fingerprinting a
        10^6-edge graph does not pin a tuple per edge.
        """
        edges = self._edges
        if edges is not None:
            yield from edges
            return
        indptr, indices = self._csr
        flat = indices.tolist()
        bounds = indptr.tolist()
        for u in range(self._n):
            for v in flat[bounds[u] : bounds[u + 1]]:
                if u < v:
                    yield (u, v)

    @property
    def adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        """Sorted-neighbor tuples indexed by node, shared (do not mutate).

        The round engine's scatter pass iterates transmitters' adjacency
        lists every populated round; exposing the backing tuple lets it
        bind the structure once per run instead of paying a bounds-checked
        :meth:`neighbors` call per access.
        """
        return self._adj()

    @property
    def neighbor_sets(self) -> Tuple[FrozenSet[int], ...]:
        """Frozenset neighborhoods indexed by node, shared (do not mutate)."""
        return self._nbrs()

    def csr(self):
        """Flat CSR form of the adjacency: ``(indptr, indices)``.

        ``indices[indptr[v]:indptr[v + 1]]`` lists ``v``'s sorted
        neighbors.  The constructor builds it, so every call returns the
        same read-only arrays, shared between callers — the batched
        backend, their only engine reader, indexes them directly.  Dtypes follow :func:`csr_index_dtypes`: int32 until
        the node count (indices) or the directed edge count (indptr)
        would overflow it.

        Requires numpy; callers on the no-numpy path never reach
        flat-array code.
        """
        csr = self._csr
        if csr is None:
            raise ImportError("Graph.csr() requires numpy")
        return csr

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Sorted neighbors of ``node``."""
        self._check_node(node)
        adjacency = self._adjacency
        if adjacency is None:
            indptr, indices = self._csr
            return tuple(int(x) for x in indices[indptr[node] : indptr[node + 1]])
        return adjacency[node]

    def neighbor_set(self, node: int) -> FrozenSet[int]:
        """Neighbors of ``node`` as a frozenset (O(1) membership)."""
        self._check_node(node)
        return self._nbrs()[node]

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        self._check_node(node)
        adjacency = self._adjacency
        if adjacency is None:
            indptr = self._csr[0]
            return int(indptr[node + 1] - indptr[node])
        return len(adjacency[node])

    def max_degree(self) -> int:
        """Maximum degree (Delta); 0 for an empty or edgeless graph.

        Computed once at construction (the graph is immutable), so calls
        are O(1) — protocols and the engine may invoke this freely.
        """
        return self._max_degree

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``{u, v}`` is an edge."""
        self._check_node(u)
        self._check_node(v)
        return v in self._nbrs()[u]

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __contains__(self, node: object) -> bool:
        return isinstance(node, int) and 0 <= node < self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._edge_tuple() == other._edge_tuple()

    def __hash__(self) -> int:
        return hash((self._n, self._edge_tuple()))

    def __repr__(self) -> str:
        return f"Graph(name={self.name!r}, n={self._n}, m={self.num_edges})"

    # ------------------------------------------------------------------
    # Derived graphs and set queries
    # ------------------------------------------------------------------

    def induced_subgraph_degrees(self, nodes: Iterable[int]) -> Dict[int, int]:
        """Degrees of each node of ``nodes`` within the induced subgraph.

        Used to check Corollary 13 (the committed set induces a
        low-degree subgraph) without materializing the subgraph.
        """
        node_set = set(nodes)
        for node in node_set:
            self._check_node(node)
        adjacency = self._adj()
        return {
            node: sum(1 for neighbor in adjacency[node] if neighbor in node_set)
            for node in node_set
        }

    def induced_subgraph(self, nodes: Iterable[int]) -> Tuple["Graph", Dict[int, int]]:
        """Return the induced subgraph and the old->new node index map."""
        kept = sorted(set(nodes))
        for node in kept:
            self._check_node(node)
        index = {node: i for i, node in enumerate(kept)}
        sub_edges = [
            (index[u], index[v])
            for u, v in self._edge_tuple()
            if u in index and v in index
        ]
        return Graph(len(kept), sub_edges, name=f"{self.name}[{len(kept)}]"), index

    def edges_within(self, nodes: Iterable[int]) -> List[Edge]:
        """Edges with both endpoints in ``nodes`` (residual-graph edges)."""
        node_set = set(nodes)
        return [(u, v) for u, v in self._edge_tuple() if u in node_set and v in node_set]

    def closed_neighborhood(self, node: int) -> FrozenSet[int]:
        """``N(v) ∪ {v}``."""
        self._check_node(node)
        return self._nbrs()[node] | {node}

    def neighborhood_of_set(self, nodes: Iterable[int]) -> Set[int]:
        """``N(S)`` — all nodes adjacent to at least one node of ``S``."""
        result: Set[int] = set()
        adjacency = self._adj()
        for node in nodes:
            self._check_node(node)
            result.update(adjacency[node])
        return result

    def is_independent_set(self, nodes: Iterable[int]) -> bool:
        """True iff no two nodes of ``nodes`` are adjacent."""
        node_list = sorted(set(nodes))
        node_set = set(node_list)
        neighbor_sets = self._nbrs()
        for node in node_list:
            self._check_node(node)
            if neighbor_sets[node] & node_set:
                return False
        return True

    def is_dominating_set(self, nodes: Iterable[int]) -> bool:
        """True iff every node is in ``nodes`` or adjacent to it."""
        node_set = set(nodes)
        for node in node_set:
            self._check_node(node)
        neighbor_sets = self._nbrs()
        return all(
            node in node_set or neighbor_sets[node] & node_set
            for node in range(self._n)
        )

    def is_maximal_independent_set(self, nodes: Iterable[int]) -> bool:
        """True iff ``nodes`` is independent and dominating."""
        node_set = set(nodes)
        return self.is_independent_set(node_set) and self.is_dominating_set(node_set)

    def connected_components(self) -> List[List[int]]:
        """Connected components as sorted node lists, largest-first ties by min node."""
        seen = [False] * self._n
        components: List[List[int]] = []
        adjacency = self._adj()
        for start in range(self._n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            component = []
            while stack:
                node = stack.pop()
                component.append(node)
                for neighbor in adjacency[node]:
                    if not seen[neighbor]:
                        seen[neighbor] = True
                        stack.append(neighbor)
            components.append(sorted(component))
        return components

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_adjacency(
        cls, adjacency: Sequence[Iterable[int]], name: str = "graph"
    ) -> "Graph":
        """Build a graph from an adjacency-list sequence.

        The adjacency may be asymmetric on input; edges are symmetrized.
        """
        edges = [
            (node, neighbor)
            for node, neighbors in enumerate(adjacency)
            for neighbor in neighbors
        ]
        return cls(len(adjacency), edges, name=name)

    def relabeled(self, permutation: Sequence[int], name: str | None = None) -> "Graph":
        """Return an isomorphic copy with node ``i`` renamed ``permutation[i]``."""
        if sorted(permutation) != list(range(self._n)):
            raise GraphError("permutation must be a bijection on the node set")
        edges = [(permutation[u], permutation[v]) for u, v in self._edge_tuple()]
        return Graph(self._n, edges, name=name or f"{self.name}-relabeled")

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self._n):
            raise GraphError(f"node {node} out of range for graph on {self._n} nodes")
