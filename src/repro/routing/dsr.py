"""DSR-lite: on-demand source routing with flooding and route caches.

A control-plane model of Dynamic Source Routing sufficient for the
paper's use of it (route acquisition and hop counts on a static topology):

* **Route discovery** — the source floods a ROUTE REQUEST; each node
  appends itself and rebroadcasts the first copy of each request id it
  hears.  The destination answers the first arriving request with a ROUTE
  REPLY carrying the accumulated route (which, with synchronous flooding
  on a static topology, is a shortest path).
* **Route cache** — nodes remember every route they forward or originate,
  answering later discoveries from cache; caches can be invalidated to
  model link breaks.

Flooding is simulated breadth-first over the connectivity graph rather
than through the MAC: the paper's scenarios are static, so discovery
happens once at setup and does not interact with data-plane contention.
This substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.model import Flow, Network, NodeId


@dataclass(frozen=True)
class RouteRequest:
    request_id: int
    source: NodeId
    destination: NodeId
    route_so_far: Tuple[NodeId, ...]


@dataclass
class RouteCacheEntry:
    route: Tuple[NodeId, ...]
    valid: bool = True


class DsrNode:
    """Per-node DSR state: route cache plus seen-request filter."""

    def __init__(self, node: NodeId) -> None:
        self.node = node
        self.cache: Dict[Tuple[NodeId, NodeId], RouteCacheEntry] = {}
        self.seen_requests: Set[int] = set()

    def cached_route(
        self, source: NodeId, destination: NodeId
    ) -> Optional[Tuple[NodeId, ...]]:
        entry = self.cache.get((source, destination))
        if entry is not None and entry.valid:
            return entry.route
        return None

    def learn_route(self, route: Tuple[NodeId, ...]) -> None:
        """Cache the route and every suffix/prefix passing through us."""
        self.cache[(route[0], route[-1])] = RouteCacheEntry(route)

    def invalidate(self, a: NodeId, b: NodeId) -> None:
        """Drop cached routes using link ``a-b`` (link-break handling)."""
        for key, entry in self.cache.items():
            r = entry.route
            for i in range(len(r) - 1):
                if {r[i], r[i + 1]} == {a, b}:
                    entry.valid = False
                    break


class DsrProtocol:
    """The network-wide DSR machinery."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.nodes: Dict[NodeId, DsrNode] = {
            n: DsrNode(n) for n in network.nodes
        }
        self._request_ids = itertools.count(1)
        self.discoveries = 0
        self.cache_hits = 0

    def find_route(
        self, source: NodeId, destination: NodeId
    ) -> Optional[List[NodeId]]:
        """Return a route, from cache if possible, else by discovery."""
        if source == destination:
            return [source]
        cached = self.nodes[source].cached_route(source, destination)
        if cached is not None:
            self.cache_hits += 1
            return list(cached)
        return self._discover(source, destination)

    def _discover(
        self, source: NodeId, destination: NodeId
    ) -> Optional[List[NodeId]]:
        """Synchronous flood: BFS expansion of ROUTE REQUESTs."""
        self.discoveries += 1
        request_id = next(self._request_ids)
        frontier: deque = deque()
        frontier.append(
            RouteRequest(request_id, source, destination, (source,))
        )
        self.nodes[source].seen_requests.add(request_id)
        while frontier:
            req = frontier.popleft()
            here = req.route_so_far[-1]
            for nbr in sorted(self.network.neighbors(here)):
                if nbr == destination:
                    route = req.route_so_far + (destination,)
                    self._propagate_reply(route)
                    return list(route)
                node = self.nodes[nbr]
                if request_id in node.seen_requests:
                    continue
                node.seen_requests.add(request_id)
                # A cache answer from an intermediate node.
                tail = node.cached_route(nbr, destination)
                if tail is not None and not (
                    set(tail[1:]) & set(req.route_so_far)
                ):
                    route = req.route_so_far + tail
                    self._propagate_reply(route)
                    return list(route)
                frontier.append(
                    RouteRequest(
                        request_id, source, destination,
                        req.route_so_far + (nbr,),
                    )
                )
        return None

    def _propagate_reply(self, route: Tuple[NodeId, ...]) -> None:
        """Every node on the route (and the source) learns it."""
        for node_id in route:
            self.nodes[node_id].learn_route(route)

    def build_flows(
        self,
        endpoints: List[Tuple[NodeId, NodeId]],
        weights: Optional[List[float]] = None,
    ) -> List[Flow]:
        """Discover routes for endpoint pairs and wrap them as flows."""
        flows: List[Flow] = []
        for idx, (src, dst) in enumerate(endpoints):
            route = self.find_route(src, dst)
            if route is None:
                raise ValueError(f"DSR found no route {src!r}->{dst!r}")
            weight = float(weights[idx]) if weights else 1.0
            flows.append(Flow(str(idx + 1), route, weight))
        return flows
