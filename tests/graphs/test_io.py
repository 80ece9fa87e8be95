"""Round-trip and error tests for graph serialization."""

import pytest

from repro.errors import GraphError
from repro.graphs import Graph, gnp_random_graph
from repro.graphs.io import (
    from_edge_list_text,
    from_json,
    from_networkx,
    load_edge_list,
    load_json,
    save_edge_list,
    save_json,
    to_edge_list_text,
    to_json,
    to_networkx,
)


@pytest.fixture
def sample_graph():
    return gnp_random_graph(20, 0.2, seed=3)


class TestEdgeListFormat:
    def test_roundtrip(self, sample_graph):
        text = to_edge_list_text(sample_graph)
        assert from_edge_list_text(text) == sample_graph

    def test_file_roundtrip(self, sample_graph, tmp_path):
        path = tmp_path / "g.edges"
        save_edge_list(sample_graph, path)
        assert load_edge_list(path) == sample_graph

    def test_header_line(self, sample_graph):
        first_line = to_edge_list_text(sample_graph).splitlines()[0]
        assert first_line == f"{sample_graph.num_nodes} {sample_graph.num_edges}"

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n3 1\n\n0 2\n"
        graph = from_edge_list_text(text)
        assert graph.has_edge(0, 2)

    def test_empty_input_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list_text("")

    def test_bad_header_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list_text("3\n")

    def test_count_mismatch_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list_text("3 2\n0 1\n")

    def test_bad_edge_line_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list_text("3 1\n0 1 2\n")

    @pytest.mark.parametrize(
        "text", ["x 1\n0 1\n", "3 1\n0 x\n", "3 1\n0 1.5\n"]
    )
    def test_non_integer_fields_rejected(self, text):
        with pytest.raises(GraphError):
            from_edge_list_text(text)


class TestJsonFormat:
    def test_roundtrip(self, sample_graph):
        assert from_json(to_json(sample_graph)) == sample_graph

    def test_name_preserved(self, sample_graph):
        assert from_json(to_json(sample_graph)).name == sample_graph.name

    def test_file_roundtrip(self, sample_graph, tmp_path):
        path = tmp_path / "g.json"
        save_json(sample_graph, path)
        assert load_json(path) == sample_graph

    def test_malformed_rejected(self):
        with pytest.raises(GraphError):
            from_json('{"edges": []}')

    @pytest.mark.parametrize(
        "edges",
        ["[[true, 2]]", "[[0, false]]", "[[0, 1, 2]]", "[[0]]", "[[0.5, 1]]",
         '[["0", 1]]', "[5]"],
    )
    def test_malformed_edges_rejected(self, edges):
        with pytest.raises(GraphError):
            from_json('{"num_nodes": 3, "edges": %s}' % edges)

    def test_boolean_node_count_rejected(self):
        with pytest.raises(GraphError):
            from_json('{"num_nodes": true, "edges": []}')


class TestNetworkxBridge:
    def test_roundtrip(self, sample_graph):
        pytest.importorskip("networkx")
        nx_graph = to_networkx(sample_graph)
        assert from_networkx(nx_graph) == sample_graph

    def test_relabels_arbitrary_nodes(self):
        nx = pytest.importorskip("networkx")
        nx_graph = nx.Graph()
        nx_graph.add_edge("a", "b")
        nx_graph.add_node("c")
        graph = from_networkx(nx_graph)
        assert graph.num_nodes == 3
        assert graph.num_edges == 1
