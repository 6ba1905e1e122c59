"""Subflow contention graphs and contending flow groups (Sec. II-A).

*Contending subflows*: two active subflows contend if the source or
destination of one is within transmission range of the source or
destination of the other.  *Contending flows*: two multi-hop flows contend
if any of their subflows contend; the transitive closure of that relation
partitions the network's flows into disjoint *contending flow groups*,
which are the units the allocation algorithms operate on.

A long-lived allocator analyzes its *universe* — every flow that can be
active — once; :func:`restricted_analysis` reads each subset's analysis
off its :class:`ContentionIndex`, never enumerating cliques again.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..graphs import Graph, connected_components, maximal_cliques
from ..graphs.cliques import clique_vertex_order
from ..obs.registry import incr
from ..obs.trace import span
from .model import Flow, Network, Scenario, Subflow, SubflowId


def subflows_contend(network: Network, a: Subflow, b: Subflow) -> bool:
    """The paper's pairwise contention predicate.

    Either endpoint of ``a`` within range of either endpoint of ``b``
    (distinct subflows only; a subflow does not contend with itself).
    """
    if a.sid == b.sid:
        return False
    for x in (a.sender, a.receiver):
        for y in (b.sender, b.receiver):
            if network.in_range(x, y):
                return True
    return False


def subflow_contention_graph(
    network: Network, flows: Sequence[Flow]
) -> Graph:
    """Build the subflow contention graph.

    Vertices are :class:`SubflowId` objects carrying ``weight`` and
    ``flow`` attributes; edges join contending subflows.  Subflows of the
    same flow that share a node (adjacent hops) always contend, matching
    the paper's Fig. 1(b).
    """
    subflows = [s for f in flows for s in f.subflows]
    g = Graph()
    for s in subflows:
        g.add_vertex(s.sid, weight=s.weight, flow=s.flow_id,
                     sender=s.sender, receiver=s.receiver)
    for i, a in enumerate(subflows):
        for b in subflows[i + 1:]:
            if subflows_contend(network, a, b):
                g.add_edge(a.sid, b.sid)
    return g


def contention_graph_from_pairs(
    subflows: Sequence[Subflow],
    contending_pairs: Sequence[Tuple[SubflowId, SubflowId]],
) -> Graph:
    """Build a contention graph from an explicit pair list.

    Used for abstract examples (Figs. 4 and 5) where the paper gives the
    contention graph directly rather than node geometry.
    """
    g = Graph()
    for s in subflows:
        g.add_vertex(s.sid, weight=s.weight, flow=s.flow_id,
                     sender=s.sender, receiver=s.receiver)
    for a, b in contending_pairs:
        g.add_edge(a, b)
    return g


def flows_contend(network: Network, fa: Flow, fb: Flow) -> bool:
    """Two flows contend iff any of their subflows contend."""
    for a in fa.subflows:
        for b in fb.subflows:
            if subflows_contend(network, a, b):
                return True
    return False


def contending_flow_groups(
    network: Network, flows: Sequence[Flow]
) -> List[List[Flow]]:
    """Partition ``flows`` into contending flow groups.

    Groups are connected components of the flow-level contention relation;
    the intra-group order follows the input order, and groups are ordered
    by their first member.
    """
    g = Graph()
    by_id = {f.flow_id: f for f in flows}
    for f in flows:
        g.add_vertex(f.flow_id)
    flist = list(flows)
    for i, fa in enumerate(flist):
        for fb in flist[i + 1:]:
            if flows_contend(network, fa, fb):
                g.add_edge(fa.flow_id, fb.flow_id)
    groups = connected_components(g)
    ordered: List[List[Flow]] = []
    seen: Set[str] = set()
    for f in flows:
        if f.flow_id in seen:
            continue
        comp = next(c for c in groups if f.flow_id in c)
        ordered.append([by_id[fid] for fid in [x.flow_id for x in flows]
                        if fid in comp])
        seen |= comp
    return ordered


def flow_groups_from_graph(
    graph: Graph, flows: Sequence[Flow]
) -> List[List[Flow]]:
    """Contending flow groups induced by a subflow contention graph.

    Two flows are grouped when their subflow vertices share a connected
    component of ``graph``.  Covers the explicit-graph scenarios where no
    geometry exists.
    """
    components = connected_components(graph)
    by_id = {f.flow_id: f for f in flows}
    comp_of: Dict[str, int] = {}
    for idx, comp in enumerate(components):
        for sid in comp:
            flow_id = graph.attr(sid, "flow")
            if flow_id in comp_of and comp_of[flow_id] != idx:
                # Same flow spanning two components cannot happen: adjacent
                # subflows always contend.  Guard anyway.
                raise RuntimeError(f"flow {flow_id!r} spans components")
            comp_of[flow_id] = idx  # type: ignore[index]
    groups: Dict[int, List[Flow]] = {}
    for f in flows:
        groups.setdefault(comp_of.get(f.flow_id, -1 - len(groups)), []).append(
            by_id[f.flow_id]
        )
    return [groups[k] for k in sorted(groups, key=lambda k: (k < 0, k))]


class ContentionAnalysis:
    """Precomputed contention structure for one scenario.

    Bundles the subflow contention graph, its maximal cliques, the per-flow
    subflow-count coefficients ``n_{i,k}`` (how many subflows of flow ``i``
    sit in clique ``k``), and the contending flow groups — everything the
    phase-1 LPs need.

    ``graph`` and ``cliques`` may be supplied precomputed (e.g. for a
    large synthetic universe); when given they must describe exactly the
    scenario's flows — the constructor then skips the corresponding
    rebuild phases.  :func:`restricted_analysis` reads an analysis off a
    universe's :attr:`index` instead.
    """

    def __init__(
        self,
        scenario: Scenario,
        graph: Graph = None,
        cliques: List[FrozenSet[SubflowId]] = None,
    ) -> None:
        self.scenario = scenario
        if graph is not None:
            self.graph = graph
        else:
            with span("contention.graph_build"):
                self.graph = subflow_contention_graph(
                    scenario.network, scenario.flows
                )
        if cliques is not None:
            self.cliques = list(cliques)
            incr("perf.contention.precomputed_cliques")
        else:
            with span("contention.clique_enumeration"):
                self.cliques = maximal_cliques(self.graph)
        with span("contention.flow_grouping"):
            self.groups = flow_groups_from_graph(self.graph, scenario.flows)
        incr("contention.analyses")
        incr("contention.cliques_found", len(self.cliques))
        incr("contention.subflow_vertices", self.graph.num_vertices())

    # A restricted analysis builds its graph and cliques when read.
    @cached_property
    def graph(self) -> Graph:
        index, flows, _ranked = self._induced_from
        return index.graph.subgraph(
            index.vertices[i] for f in flows for i in index.ranks[f.flow_id]
        )

    @cached_property
    def cliques(self) -> List[FrozenSet[SubflowId]]:
        index, _flows, ranked = self._induced_from
        return [frozenset([index.vertices[i] for i in t]) for t in ranked]

    def clique_coefficients(
        self, clique: FrozenSet[SubflowId]
    ) -> Dict[str, int]:
        """``n_{i,k}``: subflows of each flow inside ``clique`` (k fixed),
        counted in canonical vertex order, so the dict's order (and any
        sum over it) does not depend on the hash seed."""
        induced = self.__dict__.get("_induced_from")
        rank = (induced[0] if induced is not None else self.index).rank
        counts: Dict[str, int] = {}
        for sid in sorted(clique, key=rank.__getitem__):
            counts[sid.flow] = counts.get(sid.flow, 0) + 1
        return counts

    def all_coefficients(self) -> List[Dict[str, int]]:
        """``n_{i,k}`` for every maximal clique, in clique order (each
        in canonical vertex order, as :meth:`clique_coefficients`)."""
        return [counts for counts, _label in self.clique_terms]

    @cached_property
    def clique_terms(self) -> List[Tuple[Dict[str, int], str]]:
        """Per clique: its ``n_{i,k}`` and sorted member labels joined by
        ``+`` (the LP constraint label)."""
        return self.index.clique_terms

    def weighted_clique_sizes(self) -> List[float]:
        """``ω_{Ω_k}`` per clique: sum of member subflow weights."""
        weights = {v: float(self.graph.attr(v, "weight", 1.0))
                   for v in self.graph}
        return [sum(weights[v] for v in c) for c in self.cliques]

    def weighted_clique_number(self) -> float:
        """``ω_Ω = max_k ω_{Ω_k}`` (0 when there are no subflows)."""
        sizes = self.weighted_clique_sizes()
        return max(sizes) if sizes else 0.0

    def group_of(self, flow_id: str) -> List[Flow]:
        for group in self.groups:
            if any(f.flow_id == flow_id for f in group):
                return group
        raise KeyError(f"flow {flow_id!r} not in any group")

    def subflow_ids(self) -> List[SubflowId]:
        return [s.sid for s in self.scenario.all_subflows()]

    @cached_property
    def index(self) -> "ContentionIndex":
        """The integer index every subset's analysis is read from."""
        with span("contention.index_build"):
            return ContentionIndex(self)


class ContentionIndex:
    """Integer view of one analysis, the source of every subset's:
    vertices numbered by canonical rank (:func:`clique_vertex_order`),
    so a clique's sorted rank tuple is its sort key.  :attr:`certified`
    holds when weights are positive and ``n_{k,i} <= v_i`` on every
    clique (see :func:`repro.resilience.admission.floors_certified`)."""

    def __init__(self, analysis: ContentionAnalysis) -> None:
        self.graph, self.cliques = analysis.graph, analysis.cliques
        self.vertices = clique_vertex_order(self.graph)
        self.labels = [str(v) for v in self.vertices]
        self.flow_of = [v.flow for v in self.vertices]
        #: Each vertex's canonical rank.
        self.rank = rank = {v: i for i, v in enumerate(self.vertices)}
        self.ranks: Dict[str, List[int]] = {}
        for i, fid in enumerate(self.flow_of):
            self.ranks.setdefault(fid, []).append(i)
        #: Each flow's first graph position, which orders components.
        self.first: Dict[str, int] = {}
        for pos, v in enumerate(self.graph):
            self.first.setdefault(v.flow, pos)
        self.rank_sets = [frozenset(map(rank.__getitem__, c))
                          for c in self.cliques]
        self.flow_cliques: Dict[str, List[int]] = {f: [] for f in self.ranks}
        flows = {f.flow_id: f for f in analysis.scenario.flows}
        self.certified = all(f.weight > 0 for f in flows.values())
        self.clique_terms = self.terms(sorted(c) for c in self.rank_sets)
        for k, (counts, _label) in enumerate(self.clique_terms):
            for fid, n in counts.items():
                self.flow_cliques[fid].append(k)
                self.certified &= n <= flows[fid].virtual_length

    def cliques_touching(self, flow_ids: Sequence[str]) -> List[FrozenSet]:
        """The cliques holding a subflow of any of ``flow_ids``."""
        ks = set().union(*(self.flow_cliques[f] for f in flow_ids))
        return [self.cliques[k] for k in sorted(ks)]

    def restrict(self, flow_ids: Sequence[str]) -> List[Tuple[int, ...]]:
        """The maximal cliques induced by ``flow_ids``, as rank tuples in
        canonical order: the inclusion-maximal non-empty ``C ∩ T`` of the
        cliques ``C`` touching them (each induced clique is in some C)."""
        active = set().union(*(self.ranks[f] for f in flow_ids))
        touched = set().union(*(self.flow_cliques[f] for f in flow_ids))
        found = {self.rank_sets[k] & active for k in touched}
        shared = Counter(chain.from_iterable(found))
        kept: List[Tuple[int, ...]] = []
        holders: Dict[int, List[FrozenSet[int]]] = {}  # shared ranks only
        for c in sorted(found, key=len, reverse=True):
            # A kept strict superset holds c's smallest rank too.
            if not any(map(c.__lt__, holders.get(min(c), ()))):
                kept.append(tuple(sorted(c)))
                for i in c:
                    if shared[i] > 1:
                        holders.setdefault(i, []).append(c)
        kept.sort(key=lambda t: (-len(t), t))
        return kept

    def terms(self, cliques: Iterable[Sequence[int]]) -> List[tuple]:
        """``clique_terms`` of cliques given as ascending ranks."""
        out = []
        for ranks in cliques:
            counts: Dict[str, int] = {}
            for fid in map(self.flow_of.__getitem__, ranks):
                counts[fid] = counts.get(fid, 0) + 1
            labels = sorted([self.labels[i] for i in ranks])
            out.append((counts, "+".join(labels)))
        return out

    def groups(self, flow_ids: Sequence[str]) -> List[List[str]]:
        """The contending groups of ``flow_ids`` (flows sharing a universe
        clique contend, whatever else is active): members in ``flow_ids``
        order, groups in the order connected components come."""
        group_of = dict.fromkeys(flow_ids, -1)
        out: List[List[str]] = []
        seen: Set[int] = set()  # cliques already expanded
        for start in flow_ids:
            if group_of[start] < 0:
                group_of[start], stack = len(out), [start]
                out.append([])
                while stack:
                    for k in self.flow_cliques[stack.pop()]:
                        if k in seen:
                            continue
                        seen.add(k)
                        for other in self.clique_terms[k][0]:
                            if group_of.get(other) == -1:
                                group_of[other] = group_of[start]
                                stack.append(other)
        for fid in flow_ids:
            out[group_of[fid]].append(fid)
        return sorted(out, key=lambda g: min(map(self.first.__getitem__, g)))


def restricted_analysis(
    universe: ContentionAnalysis, flows: Sequence[Flow], name: str
) -> ContentionAnalysis:
    """``flows`` (a subset of ``universe``'s, in universe order) analyzed
    off the universe's :attr:`~ContentionAnalysis.index`, bit-identical
    to a cold analysis, with no enumeration, graph walk or re-validation.
    """
    index = universe.index
    ids = [f.flow_id for f in flows]
    ranked = index.restrict(ids)
    by_id = {f.flow_id: f for f in flows}
    analysis = ContentionAnalysis.__new__(ContentionAnalysis)
    analysis.scenario = Scenario.of_valid_flows(
        network=universe.scenario.network, flows=list(flows), name=name,
        capacity=universe.scenario.capacity)
    analysis._induced_from = (index, analysis.scenario.flows, ranked)
    analysis.clique_terms = index.terms(ranked)
    analysis.groups = [[by_id[f] for f in g] for g in index.groups(ids)]
    incr("perf.contention.precomputed_cliques")
    incr("contention.analyses")
    incr("contention.cliques_found", len(ranked))
    incr("contention.subflow_vertices", sum(len(index.ranks[f]) for f in ids))
    return analysis
