"""Tests for connected components and BFS utilities.

The property-based half (hypothesis) pins down the guarantees the
component-sharded allocation engine builds on: components partition the
vertex set, the partition is invariant under insertion order, and the
union of per-component maximal cliques is exactly the global clique set
— the structural fact that makes sharding the Prop. 2 LP *exact* — and
restricting the global cliques to a vertex subset yields exactly the
induced subgraph's maximal cliques, the fact that lets every active set
reuse its universe's cliques.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    bfs_hop_counts,
    bfs_reachable,
    bfs_shortest_path,
    connected_components,
    is_connected,
    maximal_cliques,
    to_networkx,
)
from repro.graphs.cliques import clique_vertex_order, sort_cliques


def restrict_cliques(cliques, members):
    """Maximal cliques of ``G[members]``, given the maximal cliques of
    ``G`` that touch ``members``: the inclusion-maximal non-empty
    ``C ∩ members``, by frozenset operations.  The reference for the
    mask-based restriction in ``repro.core.contention.ContentionIndex``.
    """
    keep = frozenset(members)
    restricted = {c & keep for c in cliques} - {frozenset()}
    return [c for c in restricted if not any(c < k for k in restricted)]


def two_islands():
    return Graph.from_edges([("a", "b"), ("b", "c"), ("x", "y")],
                            vertices=["lone"])


class TestComponents:
    def test_component_partition(self):
        comps = connected_components(two_islands())
        assert sorted(sorted(c) for c in comps) == [
            ["a", "b", "c"], ["lone"], ["x", "y"]
        ]

    def test_empty_graph(self):
        assert connected_components(Graph()) == []

    def test_is_connected(self):
        assert is_connected(Graph.from_edges([("a", "b"), ("b", "c")]))
        assert not is_connected(two_islands())
        assert is_connected(Graph())  # vacuous

    def test_reachable(self):
        g = two_islands()
        assert bfs_reachable(g, "a") == {"a", "b", "c"}
        assert bfs_reachable(g, "lone") == {"lone"}


@st.composite
def vertices_and_edges(draw):
    """A small random undirected graph as (vertices, edges)."""
    n = draw(st.integers(min_value=1, max_value=12))
    vertices = list(range(n))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=30,
    ))
    edges = [(a, b) for a, b in pairs if a != b]
    return vertices, edges


def _build(vertices, edges):
    return Graph.from_edges(edges, vertices=vertices)


class TestComponentProperties:
    @settings(max_examples=60, deadline=None)
    @given(vertices_and_edges())
    def test_components_partition_the_vertex_set(self, graph_spec):
        vertices, edges = graph_spec
        comps = connected_components(_build(vertices, edges))
        flat = [v for comp in comps for v in comp]
        assert len(flat) == len(set(flat))  # pairwise disjoint
        assert set(flat) == set(vertices)   # covering
        comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
        for a, b in edges:                  # no edge crosses components
            assert comp_of[a] == comp_of[b]

    @settings(max_examples=60, deadline=None)
    @given(vertices_and_edges(), st.randoms(use_true_random=False))
    def test_partition_invariant_under_insertion_order(
        self, graph_spec, rng
    ):
        vertices, edges = graph_spec
        baseline = connected_components(_build(vertices, edges))
        shuffled_v = list(vertices)
        shuffled_e = list(edges)
        rng.shuffle(shuffled_v)
        rng.shuffle(shuffled_e)
        permuted = connected_components(_build(shuffled_v, shuffled_e))
        assert ({frozenset(c) for c in baseline}
                == {frozenset(c) for c in permuted})
        # Identical insertion order → identical component *list*.
        assert connected_components(_build(vertices, edges)) == baseline

    @settings(max_examples=60, deadline=None)
    @given(vertices_and_edges())
    def test_union_of_component_cliques_is_the_global_clique_set(
        self, graph_spec
    ):
        """A maximal clique is connected, so it lives in exactly one
        component — sharding clique enumeration loses nothing."""
        vertices, edges = graph_spec
        graph = _build(vertices, edges)
        global_cliques = {frozenset(c) for c in maximal_cliques(graph)}
        per_component = {
            frozenset(c)
            for comp in connected_components(graph)
            for c in maximal_cliques(graph.subgraph(comp))
        }
        assert per_component == global_cliques

    @settings(max_examples=80, deadline=None)
    @given(vertices_and_edges(), st.data())
    def test_restricted_cliques_are_the_induced_subgraph_cliques(
        self, graph_spec, data
    ):
        """Every clique of G[A] lies in a maximal clique C of G, so the
        inclusion-maximal C ∩ A are G[A]'s maximal cliques — in the
        same canonical order once sorted."""
        vertices, edges = graph_spec
        graph = _build(vertices, edges)
        subset = data.draw(st.sets(st.sampled_from(vertices)))
        induced = graph.subgraph(subset)
        rank = {v: i for i, v in enumerate(clique_vertex_order(induced))}
        restricted = sort_cliques(
            restrict_cliques(maximal_cliques(graph), subset), rank
        )
        assert restricted == maximal_cliques(induced)


class TestShortestPaths:
    def test_direct_path(self):
        g = Graph.from_edges([("a", "b")])
        assert bfs_shortest_path(g, "a", "b") == ["a", "b"]

    def test_source_equals_target(self):
        g = Graph.from_edges([("a", "b")])
        assert bfs_shortest_path(g, "a", "a") == ["a"]

    def test_no_path(self):
        assert bfs_shortest_path(two_islands(), "a", "x") is None

    def test_shortest_over_longer_alternative(self):
        g = Graph.from_edges(
            [("s", "m"), ("m", "t"), ("s", "x"), ("x", "y"), ("y", "t")]
        )
        path = bfs_shortest_path(g, "s", "t")
        assert path == ["s", "m", "t"]

    @pytest.mark.parametrize("seed", range(5))
    def test_lengths_match_networkx(self, seed):
        rng = np.random.default_rng(seed)
        g = Graph()
        for i in range(12):
            g.add_vertex(i)
        for i in range(12):
            for j in range(i + 1, 12):
                if rng.random() < 0.3:
                    g.add_edge(i, j)
        nx_g = to_networkx(g)
        lengths = dict(nx.shortest_path_length(nx_g, source=0))
        ours = bfs_hop_counts(g, 0)
        assert ours == lengths

    def test_hop_counts(self):
        g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
        counts = bfs_hop_counts(g, "a")
        assert counts == {"a": 0, "b": 1, "c": 2, "d": 3}
