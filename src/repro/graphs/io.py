"""Graph (de)serialization and optional networkx interop.

Formats
-------
* **edge-list text** — ``n m`` header then one ``u v`` pair per line;
  human-readable, diff-friendly, used by the CLI.
* **JSON** — ``{"name", "num_nodes", "edges"}``; used to checkpoint
  experiment workloads.
* **networkx** — converters for users who want to generate or inspect
  topologies with networkx (optional dependency; import is deferred).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..errors import GraphError
from .graph import Graph

__all__ = [
    "to_edge_list_text",
    "from_edge_list_text",
    "save_edge_list",
    "load_edge_list",
    "to_json",
    "from_json",
    "save_json",
    "load_json",
    "to_networkx",
    "from_networkx",
]

PathLike = Union[str, Path]


def to_edge_list_text(graph: Graph) -> str:
    """Serialize to the ``n m`` + edge-per-line text format."""
    lines = [f"{graph.num_nodes} {graph.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str, name: str = "graph") -> Graph:
    """Parse the text edge-list format produced by :func:`to_edge_list_text`."""
    lines = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
    if not lines:
        raise GraphError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphError(f"bad header {lines[0]!r}; expected 'n m'")
    try:
        num_nodes, num_edges = int(header[0]), int(header[1])
    except ValueError:
        raise GraphError(f"bad header {lines[0]!r}; expected 'n m'") from None
    if len(lines) - 1 != num_edges:
        raise GraphError(
            f"header declares {num_edges} edges but {len(lines) - 1} lines follow"
        )
    edges = []
    for line in lines[1:]:
        parts = line.split()
        try:
            u, v = map(int, parts)
        except ValueError:
            raise GraphError(f"bad edge line {line!r}") from None
        edges.append((u, v))
    return Graph(num_nodes, edges, name=name)


def save_edge_list(graph: Graph, path: PathLike) -> None:
    """Write the text edge-list format to ``path``."""
    Path(path).write_text(to_edge_list_text(graph))


def load_edge_list(path: PathLike) -> Graph:
    """Read the text edge-list format from ``path``."""
    path = Path(path)
    return from_edge_list_text(path.read_text(), name=path.stem)


def to_json(graph: Graph) -> str:
    """Serialize to a JSON document."""
    return json.dumps(
        {
            "name": graph.name,
            "num_nodes": graph.num_nodes,
            "edges": [list(edge) for edge in graph.edges],
        }
    )


def from_json(document: str) -> Graph:
    """Parse a JSON document produced by :func:`to_json`."""
    data = json.loads(document)
    try:
        num_nodes = data["num_nodes"]
        edges = [tuple(edge) for edge in data["edges"]]
        name = data.get("name", "graph")
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc
    # JSON true/false would otherwise pass as the Python ints 1/0.
    if isinstance(num_nodes, bool):
        raise GraphError(f"malformed graph JSON: num_nodes is {num_nodes!r}")
    for edge in edges:
        if any(isinstance(x, bool) for x in edge):
            raise GraphError(
                f"malformed graph JSON: boolean endpoint in edge {list(edge)!r}"
            )
    return Graph(num_nodes, edges, name=name)


def save_json(graph: Graph, path: PathLike) -> None:
    """Write JSON serialization to ``path``."""
    Path(path).write_text(to_json(graph))


def load_json(path: PathLike) -> Graph:
    """Read JSON serialization from ``path``."""
    return from_json(Path(path).read_text())


def to_networkx(graph: Graph):
    """Convert to a ``networkx.Graph`` (requires networkx)."""
    import networkx as nx

    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.nodes)
    nx_graph.add_edges_from(graph.edges)
    return nx_graph


def from_networkx(nx_graph, name: str = "graph") -> Graph:
    """Convert from a ``networkx.Graph``; nodes are relabeled ``0..n-1``."""
    nodes = sorted(nx_graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    edges = [(index[u], index[v]) for u, v in nx_graph.edges()]
    return Graph(len(nodes), edges, name=name)
