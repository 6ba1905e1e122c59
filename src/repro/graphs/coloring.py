"""Graph coloring used for the paper's virtual-length argument (Sec. II-D).

A shortcut-free multi-hop flow induces a path in its own subflow contention
graph where each subflow contends only with its immediate upstream and
downstream subflows.  Fig. 3 of the paper colors a 6-subflow chain with 3
colors, partitioning the subflows into independent sets that may transmit
concurrently; this is why a flow of length >= 3 behaves as if it had
*virtual length* 3.

For the special structure actually required (paths whose contention graph
is the square of a path: subflow j contends with j-1 and j+1), the optimal
coloring is the periodic assignment ``j mod 3``.  A greedy general-purpose
coloring is also provided for arbitrary contention graphs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .graph import Graph, Vertex


def greedy_coloring(graph: Graph, order: Sequence[Vertex] = None) -> Dict[Vertex, int]:
    """Greedy proper coloring; colors are 0-based integers.

    ``order`` fixes the vertex visitation order (defaults to insertion
    order), making the result deterministic.  The number of colors used is
    at most ``max_degree + 1``.
    """
    if order is None:
        order = graph.vertices()
    colors: Dict[Vertex, int] = {}
    for v in order:
        taken = {colors[u] for u in graph.neighbors(v) if u in colors}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def num_colors(coloring: Dict[Vertex, int]) -> int:
    """Number of distinct colors used by a coloring (0 for empty)."""
    return len(set(coloring.values())) if coloring else 0


def is_proper_coloring(graph: Graph, coloring: Dict[Vertex, int]) -> bool:
    """True iff no edge joins two vertices of the same color."""
    return all(coloring[u] != coloring[v] for u, v in graph.edges())


def chain_coloring(num_subflows: int) -> Dict[int, int]:
    """Color the subflows of a shortcut-free ``num_subflows``-hop flow.

    Under the endpoint-range contention rule, subflow ``j`` (0-based) of a
    shortcut-free chain contends with ``j±1`` (shared relay node) *and*
    ``j±2`` (the endpoints of the hop between them are in range), but not
    with ``j±3``.  The paper's minimum coloring assigns color ``j mod 3``
    (or ``j mod l`` for flows shorter than 3 hops), which is proper for
    this graph.  Returns ``{subflow_index: color}``.
    """
    if num_subflows < 0:
        raise ValueError("number of subflows must be non-negative")
    modulus = min(num_subflows, 3) or 1
    return {j: j % modulus for j in range(num_subflows)}


def chain_contention_graph(num_subflows: int) -> Graph:
    """Contention graph of a shortcut-free flow with ``num_subflows`` hops.

    Vertices are the 0-based subflow indices.  Subflow ``j`` contends with
    ``j±1`` (they share a node) and with ``j±2`` (the receiver of ``j`` and
    the sender of ``j+2`` are the two endpoints of hop ``j+1``, hence in
    range); ``j±3`` does not contend when the path has no shortcuts.  The
    graph is therefore the square of a path, whose maximal cliques are
    triples of consecutive subflows — the combinatorial root of the
    virtual-length cap ``v = 3``.
    """
    g = Graph()
    for j in range(num_subflows):
        g.add_vertex(j)
    for j in range(num_subflows - 1):
        g.add_edge(j, j + 1)
        if j + 2 < num_subflows:
            g.add_edge(j, j + 2)
    return g


def color_classes(coloring: Dict[Vertex, int]) -> List[List[Vertex]]:
    """Group vertices by color, ordered by color index.

    For a chain coloring these are exactly the paper's concurrent
    transmission sets {F_{i.1}, F_{i.4}, ...}, {F_{i.2}, F_{i.5}, ...}, ...
    """
    classes: Dict[int, List[Vertex]] = {}
    for v, c in coloring.items():
        classes.setdefault(c, []).append(v)
    return [classes[c] for c in sorted(classes)]
