"""Differential tests: the bitset Bron–Kerbosch kernel vs the set-based
reference, including on fuzzer-generated contention graphs, plus the
adjacency bitmask builder it rests on."""

import itertools
import random

import pytest

from repro.core.contention import ContentionAnalysis
from repro.graphs import Graph
from repro.graphs.cliques import (
    clique_vertex_order,
    maximal_cliques,
    maximal_cliques_set,
)
from repro.obs.registry import using_registry
from repro.perf.cliques import (
    adjacency_bitmasks,
    bitset_cliques_from_masks,
    maximal_cliques_bitset,
)
from repro.sim.rng import RngRegistry
from repro.verify.fuzzer import generate_scenario


def random_graph(n, p, rng):
    g = Graph()
    verts = list(range(n))
    rng.shuffle(verts)
    for v in verts:
        g.add_vertex(v)
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            g.add_edge(u, v)
    return g


class TestAdjacencyBuilders:
    def test_matrix_matches_edges(self):
        rng = random.Random(0)
        g = random_graph(12, 0.4, rng)
        masks, order = adjacency_bitmasks(g)
        assert order == clique_vertex_order(g)
        idx = {v: i for i, v in enumerate(order)}
        for u in g:
            for v in g:
                bit = bool(masks[idx[u]] >> idx[v] & 1)
                assert bit == g.has_edge(u, v)
                # The adjacency is symmetric.
                assert bit == bool(masks[idx[v]] >> idx[u] & 1)
            assert not masks[idx[u]] >> idx[u] & 1  # no self-loops

    def test_bitmasks_match_matrix(self):
        rng = random.Random(1)
        for n in (0, 1, 5, 20, 60):
            g = random_graph(n, 0.5, rng)
            masks, order = adjacency_bitmasks(g)
            assert order == clique_vertex_order(g)
            assert len(masks) == n
            for i, u in enumerate(order):
                expected = sum(
                    1 << j for j, v in enumerate(order) if g.has_edge(u, v)
                )
                assert masks[i] == expected

    def test_explicit_order_is_respected(self):
        g = Graph.from_edges([("a", "b"), ("b", "c")])
        order = ["c", "a", "b"]
        masks, out_order = adjacency_bitmasks(g, order=order)
        assert out_order == order
        # c (bit 0) adjacent to b (bit 2); a (bit 1) adjacent to b.
        assert masks == [0b100, 0b100, 0b011]


class TestBitsetVsSetDifferential:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.8])
    def test_random_graphs_agree(self, p):
        rng = random.Random(int(p * 100))
        for _ in range(40):
            g = random_graph(rng.randrange(0, 24), p, rng)
            assert maximal_cliques_bitset(g) == maximal_cliques_set(g)

    def test_dispatcher_agrees_both_sides_of_threshold(self):
        rng = random.Random(9)
        for n in (7, 8, 13):
            g = random_graph(n, 0.5, rng)
            assert maximal_cliques(g) == maximal_cliques_set(g)

    def test_string_and_tuple_vertices(self):
        g = Graph()
        for v in ["f10:1", "f2:1", ("x", 1), ("x", 2), "alpha"]:
            g.add_vertex(v)
        for u, v in [("f10:1", "f2:1"), ("f2:1", ("x", 1)),
                     (("x", 1), ("x", 2)), (("x", 2), "alpha"),
                     ("f10:1", "alpha")]:
            g.add_edge(u, v)
        assert maximal_cliques_bitset(g) == maximal_cliques_set(g)

    def test_fuzzer_contention_graphs_agree(self):
        registry = RngRegistry(17)
        for index in range(8):
            scenario = generate_scenario(registry, index)
            graph = ContentionAnalysis(scenario).graph
            assert maximal_cliques_bitset(graph) == \
                maximal_cliques_set(graph)

    def test_empty_and_complete(self):
        empty = Graph()
        assert maximal_cliques_bitset(empty) == []
        complete = Graph()
        for u, v in itertools.combinations(range(10), 2):
            complete.add_edge(u, v)
        assert maximal_cliques_bitset(complete) == [
            frozenset(range(10))
        ]

    def test_isolated_vertices(self):
        g = Graph()
        for v in range(9):
            g.add_vertex(v)
        g.add_edge(0, 1)
        result = maximal_cliques_bitset(g)
        assert frozenset({0, 1}) in result
        assert all(len(c) == 1 for c in result[1:])
        assert result == maximal_cliques_set(g)


class TestBitsetKernelInternals:
    def test_masks_only_entry_point(self):
        # Triangle 0-1-2 plus pendant 3 on 2.
        masks = [0b0110, 0b0101, 0b1011, 0b0100]
        cliques = bitset_cliques_from_masks(masks)
        assert sorted(cliques) == sorted([0b0111, 0b1100])

    def test_counters_reported(self):
        g = Graph()
        for u, v in itertools.combinations(range(12), 2):
            g.add_edge(u, v)
        with using_registry() as reg:
            maximal_cliques_bitset(g)
        assert reg.counters["perf.cliques.bitset_calls"].value == 1
        assert reg.counters["perf.cliques.bitset_vertices"].value == 12
        assert reg.counters["perf.cliques.bitset_cliques"].value == 1
        assert "perf.cliques.bitset" in reg.timers
