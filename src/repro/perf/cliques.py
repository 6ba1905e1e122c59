"""Bitset Bron–Kerbosch kernel.

The set-based kernel in :mod:`repro.graphs.cliques` manipulates Python
sets of vertex objects; every intersection hashes vertices.  Here vertices
become indices into a canonical order, neighborhoods become Python int
bitmasks (arbitrary precision, so any graph size works), and the P/X/R
sets of Bron–Kerbosch become three integers — intersections are single
``&`` operations over machine words.  On 100-node contention graphs
(``benchmarks/bench_scalability.py``) this runs ~3-5x faster than the
set kernel, growing with graph size, while producing bit-identical
output (same cliques, same canonical order);
``tests/test_perf_cliques.py`` holds the two kernels equal on the
fuzzer's random graphs.  It is faster on tiny graphs too, so
:func:`repro.graphs.maximal_cliques` calls it for every graph.

The adjacency masks are built from a precomputed single-bit table
(``sum`` over neighbor indices).
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Tuple

from ..graphs.cliques import clique_vertex_order
from ..graphs.graph import Graph, Vertex
from ..obs.registry import incr
from ..obs.trace import span

__all__ = [
    "adjacency_bitmasks",
    "maximal_cliques_bitset",
    "bitset_cliques_from_masks",
]

try:
    _popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - legacy interpreters
    def _popcount(x: int) -> int:
        return bin(x).count("1")

#: Pivot-scan budget per Bron–Kerbosch node.  Scanning all of P|X for
#: the Tomita pivot costs more than the weaker pivot saves: capping at
#: the first 8 candidates grew the recursion by < 1.2x on every
#: measured family (contention graphs, dense/sparse G(n, p),
#: Moon–Moser) while removing the dominant per-node cost.
_PIVOT_SCAN_CAP = 8


def adjacency_bitmasks(
    graph: Graph, order: Sequence[Vertex] = None
) -> Tuple[List[int], List[Vertex]]:
    """Per-vertex neighborhood bitmasks in canonical vertex order.

    Bit ``j`` of ``masks[i]`` is set iff vertices ``order[i]`` and
    ``order[j]`` are adjacent.  Each mask is a ``sum`` over a
    precomputed single-bit table (a sum of distinct powers of two is a
    union).
    """
    if order is None:
        order = clique_vertex_order(graph)
    n = len(order)
    index = {v: i for i, v in enumerate(order)}
    bits = [1 << i for i in range(n)]
    bit_of = bits.__getitem__
    idx_of = index.__getitem__
    masks = [
        sum(map(bit_of, map(idx_of, graph.neighbors(v)))) for v in order
    ]
    return masks, list(order)


def bitset_cliques_from_masks(masks: Sequence[int]) -> List[int]:
    """Maximal cliques of the graph given by ``masks``, as bitmasks.

    Bron–Kerbosch with a capped greatest-|N(u) & P| pivot scan (see
    :data:`_PIVOT_SCAN_CAP`); ties break toward the lowest vertex index.
    The pivot only steers the recursion — any choice yields the same
    maximal-clique set — and the scan order is fixed, so enumeration is
    deterministic.  Output order is the raw recursion order; callers
    canonicalize.
    """
    n = len(masks)
    out: List[int] = []
    if n == 0:
        return out
    full = (1 << n) - 1
    append = out.append
    bit_length = int.bit_length
    popcount = _popcount
    scan_cap = _PIVOT_SCAN_CAP

    def expand(r: int, p: int, x: int) -> None:
        if not p:
            if not x:
                append(r)
            return
        # Pivot selection: best |N(u) & P| among the first few candidates
        # of P|X in ascending index order, stopping early on a pivot that
        # covers all of P.  The cap trades a slightly weaker pivot (any
        # vertex of P|X is a correct pivot) for a much cheaper scan; on
        # every measured graph family the recursion grows < 1.2x while
        # the scan cost — the dominant term — drops by the cap factor.
        # The scan order is fixed, so enumeration stays deterministic.
        p_count = popcount(p)
        best_cnt = -1
        pivot_nbrs = 0
        m = p | x
        left = scan_cap
        while m and left:
            left -= 1
            low = m & -m
            m ^= low
            nbrs = masks[bit_length(low) - 1]
            cnt = popcount(nbrs & p)
            if cnt > best_cnt:
                best_cnt = cnt
                pivot_nbrs = nbrs
                if cnt == p_count:
                    break
        cand = p & ~pivot_nbrs
        while cand:
            vbit = cand & -cand
            cand ^= vbit
            mv = masks[bit_length(vbit) - 1]
            expand(r | vbit, p & mv, x & mv)
            p ^= vbit
            x |= vbit

    expand(0, full, 0)
    return out


def maximal_cliques_bitset(graph: Graph) -> List[FrozenSet[Vertex]]:
    """Bitset Bron–Kerbosch, bit-identical to the set-based kernel.

    Same signature and output contract as
    :func:`repro.graphs.cliques.maximal_cliques_set`: frozensets of the
    original vertex objects in the canonical (size-descending, then
    vertex-index) order.
    """
    if graph.num_vertices() == 0:
        return []
    with span("perf.cliques.bitset"):
        masks, order = adjacency_bitmasks(graph)
        raw = bitset_cliques_from_masks(masks)
        # Decode to ascending index tuples: the bit scan yields indices
        # sorted by canonical rank, so sorting the tuples directly is
        # the same (-size, member-rank) order sort_cliques produces.
        bit_length = int.bit_length
        decoded = []
        for bits in raw:
            members = []
            m = bits
            while m:
                low = m & -m
                m ^= low
                members.append(bit_length(low) - 1)
            decoded.append(tuple(members))
        decoded.sort(key=lambda t: (-len(t), t))
        result = [frozenset(order[i] for i in t) for t in decoded]
    incr("perf.cliques.bitset_calls")
    incr("perf.cliques.bitset_vertices", len(order))
    incr("perf.cliques.bitset_cliques", len(result))
    return result
