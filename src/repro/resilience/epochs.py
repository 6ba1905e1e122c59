"""Churn timelines: seeded, serializable epoch-by-epoch topology change.

A :class:`ChurnTimeline` is the long-lived analogue of a
:class:`~repro.resilience.faults.FaultPlan`: a *declarative, serializable*
schedule of everything that changes between allocation epochs —

* **flow churn** — flows arrive (``flow-up``) and depart (``flow-down``);
* **node churn** — nodes crash (``node-down``) and rejoin (``node-up``);
  a down node takes every incident link with it, breaking the paths that
  cross it;
* **link churn** — mobility moves a pair of nodes out of (``link-down``)
  or back into (``link-up``) transmission range.  An administratively
  down link carries no traffic *and* causes no interference, consistent
  with :meth:`repro.core.model.Network.in_range` treating link presence
  and radio range as the same predicate.

Timelines follow the fault-plan discipline exactly: :meth:`draw` consumes
its stream in a *fixed order* (independent of earlier outcomes), so a
timeline is a pure function of the stream state and regenerates from
``(master seed, stream name)`` alone; :meth:`to_dict` /
:meth:`from_dict` round-trip through plain dicts so the fuzzer can put a
``churn_timeline`` next to the scenario in a JSON reproducer; and
:meth:`shrink_candidates` yields one-step-simpler timelines for greedy
failure shrinking.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["ChurnEvent", "ChurnTimeline", "EVENT_KINDS"]

#: Every legal event kind, in the canonical *application* order used by
#: the runtime within one epoch: capacity is restored before it is
#: removed, and membership changes are applied last so admission sees
#: the epoch's final topology.
EVENT_KINDS = (
    "node-up",
    "link-up",
    "node-down",
    "link-down",
    "flow-down",
    "flow-up",
)

_KIND_RANK = {kind: i for i, kind in enumerate(EVENT_KINDS)}


def _link_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class ChurnEvent:
    """One topology or membership change taking effect at ``epoch``."""

    epoch: int
    kind: str
    flow: Optional[str] = None
    node: Optional[str] = None
    link: Optional[Tuple[str, str]] = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown churn event kind {self.kind!r}")
        if self.epoch < 0:
            raise ValueError(f"event epoch must be >= 0, got {self.epoch}")
        if self.kind.startswith("flow") and self.flow is None:
            raise ValueError(f"{self.kind} event needs a flow id")
        if self.kind.startswith("node") and self.node is None:
            raise ValueError(f"{self.kind} event needs a node id")
        if self.kind.startswith("link"):
            if self.link is None:
                raise ValueError(f"{self.kind} event needs a link")
            object.__setattr__(self, "link", _link_key(*self.link))

    def sort_key(self) -> Tuple:
        """Canonical within-epoch order: kind rank, then subject id."""
        subject = self.flow or self.node or "/".join(self.link or ())
        return (self.epoch, _KIND_RANK[self.kind], subject)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"epoch": self.epoch, "kind": self.kind}
        if self.flow is not None:
            out["flow"] = self.flow
        if self.node is not None:
            out["node"] = self.node
        if self.link is not None:
            out["link"] = list(self.link)
        return out

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "ChurnEvent":
        link = doc.get("link")
        return cls(
            epoch=int(doc["epoch"]),
            kind=str(doc["kind"]),
            flow=None if doc.get("flow") is None else str(doc["flow"]),
            node=None if doc.get("node") is None else str(doc["node"]),
            link=None if link is None else (str(link[0]), str(link[1])),
        )


@dataclass(frozen=True)
class ChurnTimeline:
    """A complete churn schedule: epoch count, initial flows, events."""

    epochs: int
    initial_active: Tuple[str, ...] = ()
    events: Tuple[ChurnEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"need at least 1 epoch, got {self.epochs}")
        late = [e for e in self.events if e.epoch >= self.epochs]
        if late:
            raise ValueError(
                f"{len(late)} event(s) scheduled at/after epoch "
                f"{self.epochs} (the horizon)"
            )
        object.__setattr__(
            self, "events",
            tuple(sorted(self.events, key=ChurnEvent.sort_key)),
        )

    def epoch_events(self, epoch: int) -> List[ChurnEvent]:
        """Events taking effect at ``epoch``, in canonical order."""
        return [e for e in self.events if e.epoch == epoch]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "epochs": self.epochs,
            "initial_active": list(self.initial_active),
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "ChurnTimeline":
        return cls(
            epochs=int(doc["epochs"]),
            initial_active=tuple(
                str(f) for f in doc.get("initial_active", [])
            ),
            events=tuple(
                ChurnEvent.from_dict(e) for e in doc.get("events", [])
            ),
        )

    # ------------------------------------------------------------------
    # Random timeline generation (fuzzer / campaign entry point)
    # ------------------------------------------------------------------
    @classmethod
    def draw(
        cls,
        rng,
        flow_ids: Sequence[str],
        nodes: Sequence[str],
        links: Sequence[Tuple[str, str]],
        epochs: int = 12,
        p_flow: float = 0.25,
        p_node: float = 0.1,
        p_link: float = 0.2,
        max_down_nodes: int = 2,
    ) -> "ChurnTimeline":
        """Draw a random timeline from a ``numpy.random.Generator``.

        The draw order is fixed — initial membership first, then per
        epoch: flow toggles over sorted flow ids, node toggles over
        sorted node ids, one link-toggle gate plus an index draw — so a
        timeline is a pure function of the stream state, exactly like
        :meth:`FaultPlan.draw`.  Draws are consumed whether or not the
        corresponding event fires, so shrinking the *scenario* never
        perturbs the surviving entities' toggles.
        """
        flows = sorted(map(str, flow_ids))
        node_list = sorted(map(str, nodes))
        link_list = sorted(_link_key(str(a), str(b)) for a, b in links)

        initial: List[str] = []
        for fid in flows:
            if float(rng.random()) < 0.75:
                initial.append(fid)
        if not initial and flows:
            initial.append(flows[int(rng.integers(0, len(flows)))])

        active = set(initial)
        down_nodes: set = set()
        down_links: set = set()
        events: List[ChurnEvent] = []
        for epoch in range(1, epochs):
            for fid in flows:
                toggle = float(rng.random()) < p_flow
                if not toggle:
                    continue
                if fid in active:
                    active.discard(fid)
                    events.append(ChurnEvent(epoch, "flow-down", flow=fid))
                else:
                    active.add(fid)
                    events.append(ChurnEvent(epoch, "flow-up", flow=fid))
            for node in node_list:
                toggle = float(rng.random()) < p_node
                if not toggle:
                    continue
                if node in down_nodes:
                    down_nodes.discard(node)
                    events.append(ChurnEvent(epoch, "node-up", node=node))
                elif len(down_nodes) < max_down_nodes:
                    down_nodes.add(node)
                    events.append(ChurnEvent(epoch, "node-down", node=node))
            if link_list:
                toggle = float(rng.random()) < p_link
                index = int(rng.integers(0, len(link_list)))
                if toggle:
                    link = link_list[index]
                    if link in down_links:
                        down_links.discard(link)
                        events.append(ChurnEvent(epoch, "link-up",
                                                 link=link))
                    else:
                        down_links.add(link)
                        events.append(ChurnEvent(epoch, "link-down",
                                                 link=link))
        return cls(epochs=epochs, initial_active=tuple(initial),
                   events=tuple(events))

    # ------------------------------------------------------------------
    # Shrinking support
    # ------------------------------------------------------------------
    def shrink_candidates(self) -> List["ChurnTimeline"]:
        """One-step-simpler timelines, for greedy failure shrinking.

        Ordered from most to least aggressive: no events at all, all
        node events gone, all link events gone, the horizon truncated to
        the last eventful epoch + 1, whole epochs emptied, then single
        events dropped.  The runtime tolerates events referencing flows
        or nodes that a *scenario* shrink removed (they are skipped and
        counted), so timeline and scenario shrinking compose.
        """
        out: List[ChurnTimeline] = []
        if self.events:
            out.append(replace(self, events=()))
        node_events = tuple(e for e in self.events
                            if e.kind.startswith("node"))
        if node_events:
            out.append(replace(self, events=tuple(
                e for e in self.events if not e.kind.startswith("node")
            )))
        link_events = tuple(e for e in self.events
                            if e.kind.startswith("link"))
        if link_events:
            out.append(replace(self, events=tuple(
                e for e in self.events if not e.kind.startswith("link")
            )))
        if self.events:
            last = max(e.epoch for e in self.events)
            if last + 1 < self.epochs:
                out.append(replace(self, epochs=last + 1))
        eventful = sorted({e.epoch for e in self.events})
        if len(eventful) > 1:
            for epoch in eventful:
                out.append(replace(self, events=tuple(
                    e for e in self.events if e.epoch != epoch
                )))
        if len(self.events) > 1:
            for i in range(len(self.events)):
                out.append(replace(
                    self,
                    events=self.events[:i] + self.events[i + 1:],
                ))
        return out
