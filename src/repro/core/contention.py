"""Subflow contention graphs and contending flow groups (Sec. II-A).

*Contending subflows*: two active subflows contend if the source or
destination of one is within transmission range of the source or
destination of the other.  *Contending flows*: two multi-hop flows contend
if any of their subflows contend; the transitive closure of that relation
partitions the network's flows into disjoint *contending flow groups*,
which are the units the allocation algorithms operate on.

A long-lived allocator analyzes its *universe* — every flow that can be
active — once, and derives each active subset's analysis from it with
:func:`restricted_analysis`, never enumerating cliques again.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..graphs import Graph, connected_components, maximal_cliques
from ..graphs.cliques import clique_vertex_order, restrict_cliques, sort_cliques
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
    graph: Graph,
    flows: Sequence[Flow],
    components: Optional[List[Set[SubflowId]]] = None,
) -> List[List[Flow]]:
    """Contending flow groups induced by a subflow contention graph.

    Two flows are grouped when their subflow vertices share a connected
    component of ``graph``.  Covers the explicit-graph scenarios where no
    geometry exists.  ``components`` may pass ``connected_components(graph)``
    when the caller already has it.
    """
    if components is None:
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

    ``graph`` and ``cliques`` may be supplied precomputed (e.g. by
    :func:`restricted_analysis`, which derives both from a universe
    analysis); when given they must describe exactly the scenario's
    flows — the constructor then skips the corresponding rebuild phases.
    ``components`` (the connected components of the given ``graph``)
    likewise spares the flow grouping its own pass.
    """

    def __init__(
        self,
        scenario: Scenario,
        graph: Graph = None,
        cliques: List[FrozenSet[SubflowId]] = None,
        components: Optional[List[Set[SubflowId]]] = None,
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
            self.cliques: List[FrozenSet[SubflowId]] = list(cliques)
            incr("perf.contention.precomputed_cliques")
        else:
            with span("contention.clique_enumeration"):
                self.cliques = maximal_cliques(self.graph)
        with span("contention.flow_grouping"):
            self.groups = flow_groups_from_graph(
                self.graph, scenario.flows, components
            )
        incr("contention.analyses")
        incr("contention.cliques_found", len(self.cliques))
        incr("contention.subflow_vertices", self.graph.num_vertices())

    def clique_coefficients(
        self, clique: FrozenSet[SubflowId]
    ) -> Dict[str, int]:
        """``n_{i,k}``: subflows of each flow inside ``clique`` (k fixed)."""
        counts: Dict[str, int] = {}
        for sid in clique:
            counts[sid.flow] = counts.get(sid.flow, 0) + 1
        return counts

    def all_coefficients(self) -> List[Dict[str, int]]:
        """``n_{i,k}`` for every maximal clique, in clique order."""
        return [self.clique_coefficients(c) for c in self.cliques]

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

    # -- universe indexes, built on first use --------------------------
    @cached_property
    def vertex_position(self) -> Dict[SubflowId, int]:
        """Each subflow vertex's position in graph insertion order."""
        return {v: i for i, v in enumerate(self.graph)}

    @cached_property
    def flow_vertices(self) -> Dict[str, List[SubflowId]]:
        """Each flow's subflow vertices, in graph insertion order."""
        out: Dict[str, List[SubflowId]] = {}
        for v in self.graph:
            out.setdefault(v.flow, []).append(v)
        return out

    @cached_property
    def _flow_cliques(self) -> Dict[str, Set[int]]:
        out: Dict[str, Set[int]] = {}
        for k, clique in enumerate(self.cliques):
            for sid in clique:
                out.setdefault(sid.flow, set()).add(k)
        return out

    def cliques_touching(self, flow_ids: Sequence[str]) -> List[FrozenSet]:
        """The cliques holding a subflow of any of ``flow_ids``."""
        ks = set().union(*(self._flow_cliques.get(f, ()) for f in flow_ids))
        return [self.cliques[k] for k in sorted(ks)]


def restricted_analysis(
    universe: ContentionAnalysis, flows: Sequence[Flow], name: str
) -> ContentionAnalysis:
    """Analysis of ``flows``, a subset of ``universe``'s, without a
    clique enumeration: bit-identical to a cold ``ContentionAnalysis``
    of the sub-scenario when ``flows`` come in universe order.

    The induced subgraph keeps the universe's vertex order, one
    connected-components pass serves the flow grouping, and the
    restricted universe cliques are put in canonical order.
    """
    keep = sorted(
        (v for f in flows for v in universe.flow_vertices[f.flow_id]),
        key=universe.vertex_position.__getitem__,
    )
    graph = universe.graph.induced_subgraph(keep)
    rank = {v: i for i, v in enumerate(clique_vertex_order(graph))}
    touched = universe.cliques_touching([f.flow_id for f in flows])
    sub = Scenario(universe.scenario.network, list(flows), name=name,
                   capacity=universe.scenario.capacity)
    return ContentionAnalysis(
        sub, graph=graph,
        cliques=sort_cliques(restrict_cliques(touched, keep), rank),
        components=connected_components(graph),
    )
