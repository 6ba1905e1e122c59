"""Shortest-path routing over the radio connectivity graph.

The paper uses Dynamic Source Routing, whose discovered routes on a static
topology are shortest paths (fewest hops) — which is also what makes the
shortcut-free assumption of Sec. II-D realistic.  This module provides the
static shortest-path machinery; :mod:`repro.routing.dsr` implements the
on-demand protocol on top of it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.model import Flow, Network, NodeId
from ..graphs import Graph, bfs_hop_counts, bfs_shortest_path


def connectivity_graph(network: Network) -> Graph:
    """Node-level graph: vertices are nodes, edges are radio links."""
    g = Graph()
    for n in network.nodes:
        g.add_vertex(n)
    for a, b in network.links():
        g.add_edge(a, b)
    return g


def shortest_route(
    network: Network, source: NodeId, destination: NodeId
) -> Optional[List[NodeId]]:
    """A fewest-hops route, or None if the nodes are disconnected."""
    return bfs_shortest_path(connectivity_graph(network), source,
                             destination)


def hop_distance(
    network: Network, source: NodeId, destination: NodeId
) -> Optional[int]:
    """Hop count of the shortest route (None if unreachable)."""
    counts = bfs_hop_counts(connectivity_graph(network), source)
    return counts.get(destination)


def route_flows(
    network: Network,
    endpoints: Sequence[tuple],
    weights: Optional[Sequence[float]] = None,
) -> List[Flow]:
    """Build flows for (source, destination) pairs via shortest paths.

    Raises ``ValueError`` when any pair is disconnected.  Flow ids are
    1-based strings in input order.
    """
    graph = connectivity_graph(network)
    flows: List[Flow] = []
    for idx, (src, dst) in enumerate(endpoints):
        path = bfs_shortest_path(graph, src, dst)
        if path is None:
            raise ValueError(f"no route from {src!r} to {dst!r}")
        weight = float(weights[idx]) if weights else 1.0
        flows.append(Flow(str(idx + 1), path, weight))
    return flows


def is_shortest(network: Network, flow: Flow) -> bool:
    """Whether ``flow`` follows a fewest-hops route."""
    dist = hop_distance(network, flow.source, flow.destination)
    return dist is not None and dist == flow.length
