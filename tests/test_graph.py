"""Unit tests for the base Graph class."""

import pytest

from repro.graphs import Graph, to_networkx


def triangle():
    return Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])


class TestConstruction:
    def test_add_vertex_and_edge(self):
        g = Graph()
        g.add_vertex("a")
        g.add_edge("a", "b")
        assert g.has_vertex("b")
        assert g.has_edge("a", "b")
        assert g.has_edge("b", "a")

    def test_vertex_attributes(self):
        g = Graph()
        g.add_vertex("a", weight=2.5)
        assert g.attr("a", "weight") == 2.5
        assert g.attr("a", "missing", 7) == 7
        g.set_attr("a", "weight", 3.0)
        assert g.attr("a", "weight") == 3.0

    def test_re_adding_vertex_merges_attrs(self):
        g = Graph()
        g.add_vertex("a", x=1)
        g.add_vertex("a", y=2)
        assert g.attr("a", "x") == 1
        assert g.attr("a", "y") == 2

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge("a", "a")

    def test_from_edges_with_isolated_vertices(self):
        g = Graph.from_edges([("a", "b")], vertices=["c"])
        assert set(g.vertices()) == {"a", "b", "c"}
        assert g.degree("c") == 0

    def test_duplicate_edges_idempotent(self):
        g = Graph()
        g.add_edge("a", "b")
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        assert g.num_edges() == 1


class TestMutation:
    def test_remove_edge(self):
        g = triangle()
        g.remove_edge("a", "b")
        assert not g.has_edge("a", "b")
        assert g.has_edge("b", "c")

    def test_remove_missing_edge_raises(self):
        g = triangle()
        with pytest.raises(KeyError):
            g.remove_edge("a", "zz")

    def test_remove_vertex_cleans_incident_edges(self):
        g = triangle()
        g.remove_vertex("a")
        assert not g.has_vertex("a")
        assert g.num_edges() == 1
        assert g.neighbors("b") == {"c"}


class TestQueries:
    def test_counts(self):
        g = triangle()
        assert g.num_vertices() == 3
        assert g.num_edges() == 3
        assert len(g) == 3

    def test_edges_reported_once(self):
        g = triangle()
        assert len(g.edges()) == 3
        canon = {frozenset(e) for e in g.edges()}
        assert len(canon) == 3

    def test_iteration_and_contains(self):
        g = triangle()
        assert set(iter(g)) == {"a", "b", "c"}
        assert "a" in g
        assert "zz" not in g

    def test_degree(self):
        g = Graph.from_edges([("a", "b"), ("a", "c")])
        assert g.degree("a") == 2
        assert g.degree("b") == 1


class TestDerivedGraphs:
    def test_subgraph_keeps_attrs_and_edges(self):
        g = triangle()
        g.set_attr("a", "weight", 5)
        sub = g.subgraph(["a", "b"])
        assert set(sub.vertices()) == {"a", "b"}
        assert sub.has_edge("a", "b")
        assert sub.attr("a", "weight") == 5
        assert sub.num_edges() == 1

    def test_complement_of_triangle_is_empty(self):
        comp = triangle().complement()
        assert comp.num_edges() == 0
        assert comp.num_vertices() == 3

    def test_complement_of_path(self):
        g = Graph.from_edges([("a", "b"), ("b", "c")])
        comp = g.complement()
        assert comp.has_edge("a", "c")
        assert comp.num_edges() == 1

    def test_copy_is_independent(self):
        g = triangle()
        h = g.copy()
        h.remove_vertex("a")
        assert g.has_vertex("a")


class TestPredicates:
    def test_is_clique(self):
        g = triangle()
        assert g.is_clique(["a", "b", "c"])
        assert g.is_clique(["a", "b"])
        assert g.is_clique([])

    def test_is_not_clique(self):
        g = Graph.from_edges([("a", "b"), ("b", "c")])
        assert not g.is_clique(["a", "b", "c"])

    def test_is_independent_set(self):
        g = Graph.from_edges([("a", "b"), ("b", "c")])
        assert g.is_independent_set(["a", "c"])
        assert not g.is_independent_set(["a", "b"])


def test_to_networkx_round_trip():
    g = triangle()
    nx_g = to_networkx(g)
    assert set(nx_g.nodes) == set(g.vertices())
    assert nx_g.number_of_edges() == g.num_edges()
