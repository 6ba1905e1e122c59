"""Flow and network model (Sec. II-A of the paper).

The paper's world consists of:

* a set of wireless **nodes**, each with a position and a common
  transmission range (250 m in the evaluation);
* **multi-hop flows** ``F_i``: a weighted, source-routed sequence of nodes;
* **subflows** ``F_{i.j}``: the j-th single-hop transmission of flow
  ``F_i`` (1-based, counting from the source), inheriting the flow's
  weight (``w_{i.j} = w_i``).

Two subflows *contend* when the source or destination of one is within
transmission range of the source or destination of the other.  This module
defines the data model; contention-graph construction lives in
:mod:`repro.core.contention`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

NodeId = str


@dataclass(frozen=True)
class SubflowId:
    """Identifier ``F_{i.j}`` of the j-th hop of flow ``i`` (j is 1-based)."""

    flow: str
    hop: int

    def __str__(self) -> str:
        return f"F{self.flow}.{self.hop}"

    def __lt__(self, other: "SubflowId") -> bool:
        return (self.flow, self.hop) < (other.flow, other.hop)


@dataclass(frozen=True)
class Subflow:
    """A single-hop transmission: ``sender -> receiver`` for one flow hop."""

    sid: SubflowId
    sender: NodeId
    receiver: NodeId
    weight: float

    @property
    def flow_id(self) -> str:
        return self.sid.flow

    @property
    def hop(self) -> int:
        return self.sid.hop

    def __str__(self) -> str:
        return f"{self.sid} ({self.sender}->{self.receiver})"


@dataclass
class Flow:
    """A multi-hop flow: an end-to-end path with a preassigned weight.

    ``path`` lists the traversed nodes from source to destination, so an
    ``l``-hop flow has ``len(path) == l + 1``.
    """

    flow_id: str
    path: List[NodeId]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError(
                f"flow {self.flow_id!r} needs at least 2 nodes, "
                f"got {self.path!r}"
            )
        if len(set(self.path)) != len(self.path):
            raise ValueError(f"flow {self.flow_id!r} revisits a node")
        if self.weight <= 0:
            raise ValueError(
                f"flow {self.flow_id!r} weight must be positive, "
                f"got {self.weight}"
            )

    @property
    def source(self) -> NodeId:
        return self.path[0]

    @property
    def destination(self) -> NodeId:
        return self.path[-1]

    @property
    def length(self) -> int:
        """Hop count ``l_i``."""
        return len(self.path) - 1

    @property
    def virtual_length(self) -> int:
        """``v_i = min(l_i, 3)`` for a shortcut-free flow (Sec. II-D)."""
        return virtual_length(self.length)

    @property
    def subflows(self) -> List[Subflow]:
        """Subflows ``F_{i.1}, ..., F_{i.l_i}`` in path order."""
        return [
            Subflow(
                SubflowId(self.flow_id, j + 1),
                self.path[j],
                self.path[j + 1],
                self.weight,
            )
            for j in range(self.length)
        ]

    def subflow(self, hop: int) -> Subflow:
        """Subflow ``F_{i.hop}`` (1-based)."""
        if not 1 <= hop <= self.length:
            raise IndexError(
                f"flow {self.flow_id!r} has hops 1..{self.length}, "
                f"asked for {hop}"
            )
        return self.subflows[hop - 1]

    def __str__(self) -> str:
        return f"F{self.flow_id}[{'->'.join(self.path)}] w={self.weight:g}"


def virtual_length(length: int) -> int:
    """Virtual length ``v = min(l, 3)``.

    A shortcut-free flow of 3+ hops can 3-color its subflows into
    concurrently-transmitting sets (Fig. 3), so it consumes channel time as
    if it were exactly 3 hops long.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return min(length, 3)


@dataclass
class Network:
    """Node positions plus a common transmission/interference range.

    ``tx_range`` doubles as the interference range, matching the paper's
    evaluation setup (both set to 250 m).  When ``links`` is given
    explicitly, positions become optional and range checks use the given
    adjacency instead — convenient for abstract topologies such as the
    pentagon contention example.
    """

    positions: Dict[NodeId, Tuple[float, float]] = field(default_factory=dict)
    tx_range: float = 250.0
    explicit_links: Optional[Set[frozenset]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, x: float, y: float) -> None:
        if node in self.positions:
            raise ValueError(f"duplicate node {node!r}")
        self.positions[node] = (float(x), float(y))

    @classmethod
    def from_positions(
        cls,
        positions: Dict[NodeId, Tuple[float, float]],
        tx_range: float = 250.0,
    ) -> "Network":
        return cls(dict(positions), float(tx_range))

    @classmethod
    def from_links(
        cls,
        nodes: Iterable[NodeId],
        links: Iterable[Tuple[NodeId, NodeId]],
    ) -> "Network":
        """Abstract topology: adjacency given directly, no geometry."""
        net = cls({n: (0.0, 0.0) for n in nodes}, tx_range=0.0)
        net.explicit_links = {frozenset(l) for l in links}
        for link in net.explicit_links:
            for n in link:
                if n not in net.positions:
                    raise ValueError(f"link references unknown node {n!r}")
        return net

    # ------------------------------------------------------------------
    # Geometry / adjacency
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[NodeId]:
        return list(self.positions)

    def distance(self, a: NodeId, b: NodeId) -> float:
        (xa, ya), (xb, yb) = self.positions[a], self.positions[b]
        return math.hypot(xa - xb, ya - yb)

    def in_range(self, a: NodeId, b: NodeId) -> bool:
        """Whether ``a`` and ``b`` can hear each other (a != b required)."""
        if a == b:
            return True
        if self.explicit_links is not None:
            return frozenset((a, b)) in self.explicit_links
        return self.distance(a, b) <= self.tx_range + 1e-9

    def neighbors(self, node: NodeId) -> List[NodeId]:
        """All other nodes within transmission range of ``node``."""
        return [n for n in self.positions if n != node and self.in_range(node, n)]

    def links(self) -> List[Tuple[NodeId, NodeId]]:
        """All bidirectional links, each reported once."""
        out: List[Tuple[NodeId, NodeId]] = []
        nodes = self.nodes
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                if self.in_range(a, b):
                    out.append((a, b))
        return out

    # ------------------------------------------------------------------
    # Flow validation
    # ------------------------------------------------------------------
    def validate_flow(self, flow: Flow) -> None:
        """Check every hop of ``flow`` is a usable wireless link."""
        for sub in flow.subflows:
            if sub.sender not in self.positions:
                raise ValueError(f"{flow}: unknown node {sub.sender!r}")
            if sub.receiver not in self.positions:
                raise ValueError(f"{flow}: unknown node {sub.receiver!r}")
            if not self.in_range(sub.sender, sub.receiver):
                raise ValueError(
                    f"{flow}: hop {sub} exceeds transmission range"
                )

    def has_shortcut(self, flow: Flow) -> bool:
        """True if non-consecutive path nodes are in range (Fig. 3(a)).

        The virtual-length argument assumes shortcut-free paths; routing
        protocols that find shortest paths produce these naturally.
        """
        path = flow.path
        for i in range(len(path)):
            for j in range(i + 2, len(path)):
                if self.in_range(path[i], path[j]):
                    return True
        return False


@dataclass
class Scenario:
    """A complete experiment input: network topology plus flows."""

    network: Network
    flows: List[Flow]
    name: str = ""
    capacity: float = 1.0  # effective channel capacity B (normalized)

    def __post_init__(self) -> None:
        ids = [f.flow_id for f in self.flows]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate flow ids in scenario {self.name!r}")
        for flow in self.flows:
            self.network.validate_flow(flow)

    @classmethod
    def of_valid_flows(cls, **fields: object) -> "Scenario":
        """A scenario of a built one's flows: no re-validation."""
        scenario = cls.__new__(cls)
        scenario.__dict__.update(fields)
        return scenario

    @property
    def flow_ids(self) -> List[str]:
        return [f.flow_id for f in self.flows]

    def flow(self, flow_id: str) -> Flow:
        for f in self.flows:
            if f.flow_id == flow_id:
                return f
        raise KeyError(f"no flow {flow_id!r} in scenario {self.name!r}")

    def all_subflows(self) -> List[Subflow]:
        """Every subflow of every flow, flows in order, hops ascending."""
        return [s for f in self.flows for s in f.subflows]

    def weights(self) -> Dict[str, float]:
        """Flow-id -> weight map."""
        return {f.flow_id: f.weight for f in self.flows}

    def virtual_lengths(self) -> Dict[str, int]:
        """Flow-id -> virtual length map."""
        return {f.flow_id: f.virtual_length for f in self.flows}
