"""Maximal-clique enumeration on subflow contention graphs.

The optimal allocation strategies of Sec. III constrain the per-flow share
once per *maximal* clique of the subflow contention graph (the paper calls
these "maximum cliques": cliques not contained in any other clique).
Enumeration is Bron–Kerbosch with pivoting: :func:`maximal_cliques` runs
the bitset kernel of :mod:`repro.perf.cliques`, and the set-based
:func:`maximal_cliques_set` here is its reference implementation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from .graph import Graph, Vertex


def clique_vertex_order(graph: Graph) -> List[Vertex]:
    """The canonical vertex order used for clique indexing and sorting.

    Vertices are ranked once by ``repr`` (stable across interpreter runs
    and insertion orders); all clique-level ordering then works on integer
    indices into this list rather than re-deriving string keys per
    comparison.
    """
    return sorted(graph.vertices(), key=repr)


def sort_cliques(
    cliques: Iterable[FrozenSet[Vertex]],
    rank: Dict[Vertex, int],
) -> List[FrozenSet[Vertex]]:
    """Canonical clique order: size descending, then member index order.

    ``rank`` maps each vertex to its position in
    :func:`clique_vertex_order`; the set-based kernel and the test
    oracles sort through this helper, and the bitset kernel and the
    universe index (:class:`repro.core.contention.ContentionIndex`)
    reproduce its order on rank tuples.
    """
    return sorted(
        cliques,
        key=lambda c: (-len(c), sorted(rank[v] for v in c)),
    )


def maximal_cliques(graph: Graph) -> List[FrozenSet[Vertex]]:
    """Enumerate all maximal cliques via Bron–Kerbosch with pivoting.

    Returns a list of frozensets in the canonical deterministic order
    (size descending, then member vertex-index order) so that LP
    constraint ordering is reproducible run to run.

    Runs the bitset kernel of :mod:`repro.perf.cliques` on every graph;
    the set-based :func:`maximal_cliques_set` produces bit-identical
    output and serves as its differential oracle.
    """
    from ..perf.cliques import maximal_cliques_bitset

    return maximal_cliques_bitset(graph)


def maximal_cliques_set(graph: Graph) -> List[FrozenSet[Vertex]]:
    """Set-based Bron–Kerbosch reference implementation.

    Kept as an independent implementation of the clique kernel: the
    differential tests require ``maximal_cliques_set(g) ==
    maximal_cliques_bitset(g)`` on arbitrary graphs.  No runtime path
    calls it; tests and ``benchmarks/`` do.
    """
    if graph.num_vertices() == 0:
        return []

    order = clique_vertex_order(graph)
    rank = {v: i for i, v in enumerate(order)}
    adj: Dict[Vertex, Set[Vertex]] = {v: graph.neighbors(v) for v in graph}
    cliques: List[FrozenSet[Vertex]] = []

    def expand(r: Set[Vertex], p: Set[Vertex], x: Set[Vertex]) -> None:
        if not p and not x:
            cliques.append(frozenset(r))
            return
        # Pivot: most neighbors in P; ties broken by the stable vertex
        # index so the recursion tree never depends on set iteration order.
        pivot = max(p | x, key=lambda u: (len(adj[u] & p), -rank[u]))
        for v in sorted(p - adj[pivot], key=rank.__getitem__):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.discard(v)
            x.add(v)

    expand(set(), set(adj), set())
    return sort_cliques(cliques, rank)


def weighted_clique_size(
    clique: Iterable[Vertex], weights: Dict[Vertex, float]
) -> float:
    """Sum of vertex weights in a clique (ω_{Ω_k} in the paper)."""
    return float(sum(weights[v] for v in clique))


def weighted_clique_number(
    graph: Graph, weights: Dict[Vertex, float]
) -> float:
    """ω_Ω: the maximum weighted clique size over all maximal cliques.

    This is the quantity in Proposition 1's throughput upper bound
    ``Σ w_i · B / ω_Ω``.  An empty graph has weighted clique number 0.
    """
    best = 0.0
    for clique in maximal_cliques(graph):
        best = max(best, weighted_clique_size(clique, weights))
    return best


def max_weight_clique(
    graph: Graph, weights: Dict[Vertex, float]
) -> Tuple[FrozenSet[Vertex], float]:
    """The maximal clique attaining ω_Ω, with its weighted size.

    Ties are broken by the deterministic ordering of
    :func:`maximal_cliques`.  Raises ``ValueError`` on an empty graph.
    """
    cliques = maximal_cliques(graph)
    if not cliques:
        raise ValueError("graph has no vertices")
    best = cliques[0]
    best_w = weighted_clique_size(best, weights)
    for clique in cliques[1:]:
        w = weighted_clique_size(clique, weights)
        if w > best_w:
            best, best_w = clique, w
    return best, best_w


def cliques_containing(
    cliques: Iterable[FrozenSet[Vertex]], vertex: Vertex
) -> List[FrozenSet[Vertex]]:
    """Filter ``cliques`` down to those containing ``vertex``."""
    return [c for c in cliques if vertex in c]


def is_maximal_clique(graph: Graph, clique: Iterable[Vertex]) -> bool:
    """True iff ``clique`` is a clique with no strict clique superset."""
    members = set(clique)
    if not graph.is_clique(members):
        return False
    if not members:
        return graph.num_vertices() == 0
    # A clique is maximal iff no outside vertex is adjacent to all members.
    common: Set[Vertex] = None  # type: ignore[assignment]
    for v in members:
        nbrs = graph.neighbors(v)
        common = nbrs if common is None else (common & nbrs)
    assert common is not None
    return not (common - members)
