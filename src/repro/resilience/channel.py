"""Unreliable message channel for 2PA-D constraint propagation.

The default :meth:`~repro.core.distributed.DistributedAllocator.propagate_constraints`
floods cliques over a lossless, instantaneous, synchronous exchange.
:class:`UnreliableChannel` replaces that exchange with a faulted one —
every clique transfer becomes an acknowledged message subject to a
:class:`~repro.resilience.faults.FaultInjector`'s drop/duplicate/delay
decisions, node crashes, and link flaps — while keeping the round-based
structure of the original simulation:

* **Acks and retransmits.**  A sender retransmits an unacknowledged
  transfer with exponential backoff (``ack_timeout + base · 2^(a-1) +
  jitter`` rounds after attempt ``a``) up to ``max_retries`` retries,
  after which the transfer is declared *undeliverable* (the receiver may
  still learn the clique from its other path neighbor).  Acks themselves
  can be lost, in which case the receiver's duplicate suppression absorbs
  the retransmit.
* **Reordering** arises naturally from random per-message delays: a
  message sent later can arrive earlier.
* **Convergence detection.**  Per flow, the channel distinguishes
  ``"converged"`` (every path node holds every constraint involving the
  flow), ``"converged-partial"`` (the exchange quiesced — every transfer
  acked, dead, or waiting on a never-returning node — with constraints
  missing somewhere), and ``"timed-out"`` (the round budget expired with
  messages still pending).  The run-level status is the worst per-flow
  status; a flow whose *source* is down at the end is additionally
  demoted to unconfirmed, because it cannot run its local LP.

Everything is deterministic given the injector's registry: message
processing orders are canonical (path order, then the clique sort key
used everywhere else in the 2PA-D stack), so fault draws are consumed in
a reproducible sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from ..core.model import NodeId, SubflowId
from ..obs.events import emit_event
from ..obs.registry import incr, observe, set_gauge
from ..obs.trace import span
from .faults import FaultInjector

__all__ = [
    "CONVERGED",
    "CONVERGED_PARTIAL",
    "TIMED_OUT",
    "STATUS_ORDER",
    "worst_status",
    "ChannelStats",
    "UnreliableChannel",
]

Clique = FrozenSet[SubflowId]

CONVERGED = "converged"
CONVERGED_PARTIAL = "converged-partial"
TIMED_OUT = "timed-out"

#: Severity order for combining per-flow statuses into a run status.
STATUS_ORDER = (CONVERGED, CONVERGED_PARTIAL, TIMED_OUT)


def worst_status(statuses) -> str:
    """The most degraded status in ``statuses`` (``converged`` if empty)."""
    worst = CONVERGED
    for status in statuses:
        if STATUS_ORDER.index(status) > STATUS_ORDER.index(worst):
            worst = status
    return worst


def _clique_key(clique: Clique):
    return (-len(clique), sorted(map(str, clique)))


@dataclass
class ChannelStats:
    """Message-level accounting for one propagation run."""

    sent: int = 0
    delivered: int = 0
    duplicates: int = 0        # redundant deliveries absorbed by the receiver
    dropped: int = 0           # data lost to drop rate, flaps, or dead nodes
    delayed: int = 0
    acks_dropped: int = 0
    retransmits: int = 0
    expired: int = 0           # transfers that exhausted their retries

    def to_dict(self) -> Dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "duplicates": self.duplicates,
            "dropped": self.dropped,
            "delayed": self.delayed,
            "acks_dropped": self.acks_dropped,
            "retransmits": self.retransmits,
            "expired": self.expired,
        }


@dataclass
class _Transfer:
    """Reliable-delivery state for one (sender, receiver, clique) triple."""

    attempts: int = 0
    next_send: int = 0
    acked: bool = False
    dead: bool = False

    @property
    def pending(self) -> bool:
        return not self.acked and not self.dead


@dataclass
class _Flight:
    """A data message in transit."""

    deliver_at: int
    src: NodeId
    dst: NodeId
    clique: Clique
    duplicate: bool = False    # a channel-made copy (stats only)


class UnreliableChannel:
    """Ack/retransmit constraint propagation over a faulted medium.

    Plugs into :class:`~repro.core.distributed.DistributedAllocator` via
    its ``channel=`` seam: :meth:`propagate` runs the whole exchange
    against the allocator's local views and returns the convergence
    record the allocator stores.  With a lossless
    :class:`~repro.resilience.faults.FaultPlan` the fixpoint (and hence
    the allocation) is identical to the default lossless path — only the
    message accounting differs.
    """

    def __init__(
        self,
        injector: FaultInjector,
        max_retries: int = 4,
        ack_timeout: int = 1,
        backoff_base: int = 1,
        max_rounds: int = 256,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self.injector = injector
        self.max_retries = int(max_retries)
        self.ack_timeout = int(ack_timeout)
        self.backoff_base = int(backoff_base)
        self.max_rounds = int(max_rounds)
        self.stats = ChannelStats()

    # ------------------------------------------------------------------
    def propagate(self, allocator) -> Dict[str, object]:
        """Run the faulted exchange for every flow of ``allocator``.

        Mutates the allocator's views (``received_cliques``) to reflect
        what actually got through, and returns the convergence record
        (same core keys as the lossless path, plus per-flow statuses and
        channel accounting).
        """
        rounds_per_flow: Dict[str, int] = {}
        per_flow: Dict[str, Dict[str, object]] = {}
        convergence: Dict[str, object] = {
            "rounds_per_flow": rounds_per_flow,
            "max_rounds": 0,
            "total_messages": 0,
            "status": "in-progress",
            "per_flow": per_flow,
        }
        total_messages = 0
        for flow in allocator.scenario.flows:
            with span("2pad.flow", flow=flow.flow_id,
                      lossy=True) as flow_span:
                result = self._propagate_flow(allocator.views, flow)
                flow_span.tag(
                    status=result["status"],
                    rounds=result["rounds"],
                    messages=result["messages"],
                    undeliverable=result["undeliverable"],
                )
            if (result["status"] != CONVERGED
                    or result["undeliverable"]):
                emit_event(
                    "channel.flow",
                    flow=flow.flow_id,
                    status=result["status"],
                    rounds=result["rounds"],
                    undeliverable=result["undeliverable"],
                )
            rounds_per_flow[flow.flow_id] = result["rounds"]
            per_flow[flow.flow_id] = result
            total_messages += result["messages"]
            convergence["total_messages"] = total_messages
            convergence["max_rounds"] = max(
                rounds_per_flow.values(), default=0
            )
            observe("2pad.rounds_to_convergence", result["rounds"])
        statuses = [info["status"] for info in per_flow.values()]
        status = worst_status(statuses)
        if status == CONVERGED and not all(
            info["confirmed"] for info in per_flow.values()
        ):
            # Complete constraint views but an unusable source node:
            # the allocation layer must still degrade.
            status = CONVERGED_PARTIAL
        convergence["status"] = status
        convergence["channel"] = self.stats.to_dict()
        incr("2pad.messages", total_messages)
        incr(f"resilience.channel.{status}")
        for name, value in self.stats.to_dict().items():
            if value:
                incr(f"resilience.channel.{name}", value)
        set_gauge("2pad.max_rounds", float(convergence["max_rounds"]))
        return convergence

    # ------------------------------------------------------------------
    def _propagate_flow(self, views, flow) -> Dict[str, object]:
        inj = self.injector
        stats = self.stats
        path: List[NodeId] = list(flow.path)
        fid = flow.flow_id
        order = {node: i for i, node in enumerate(path)}

        local: Dict[NodeId, Set[Clique]] = {
            node: {
                clique
                for clique in views[node].local_cliques
                if any(sid.flow == fid for sid in clique)
            }
            for node in path
        }
        target: Set[Clique] = set()
        for cliques in local.values():
            target |= cliques
        holding: Dict[NodeId, Set[Clique]] = {
            node: set(local[node]) for node in path
        }
        neighbors: Dict[NodeId, List[NodeId]] = {
            node: [path[j] for j in (i - 1, i + 1) if 0 <= j < len(path)]
            for i, node in enumerate(path)
        }

        transfers: Dict[Tuple[NodeId, NodeId, Clique], _Transfer] = {}
        inflight: List[_Flight] = []
        alive_prev = {node: inj.alive(node, 0) for node in path}
        messages = 0
        rnd = 0
        timed_out = False

        def flight_key(f: _Flight):
            return (order[f.src], order[f.dst], _clique_key(f.clique),
                    f.duplicate)

        def transfer_key(item):
            (src, dst, clique), _state = item
            return (order[src], order[dst], _clique_key(clique))

        while True:
            # Crash transitions: a node going down loses its received
            # constraint state; on restart it re-derives only its local
            # cliques by re-overhearing its neighborhood.
            for node in path:
                up = inj.alive(node, rnd)
                if alive_prev[node] and not up:
                    holding[node] = set(local[node])
                alive_prev[node] = up

            # Deliveries scheduled for this round.
            due = sorted(
                (f for f in inflight if f.deliver_at <= rnd),
                key=flight_key,
            )
            inflight = [f for f in inflight if f.deliver_at > rnd]
            for flight in due:
                src, dst = flight.src, flight.dst
                if not inj.alive(dst, rnd) or not inj.link_up(src, dst, rnd):
                    stats.dropped += 1
                    continue
                if flight.clique in holding[dst]:
                    stats.duplicates += 1
                else:
                    holding[dst].add(flight.clique)
                stats.delivered += 1
                state = transfers.get((src, dst, flight.clique))
                if inj.ack_dropped(src, dst):
                    stats.acks_dropped += 1
                elif state is not None:
                    state.acked = True

            # Open transfers for every (held clique, path neighbor) pair.
            for node in path:
                if not inj.alive(node, rnd):
                    continue
                for clique in sorted(holding[node], key=_clique_key):
                    for nbr in neighbors[node]:
                        key = (node, nbr, clique)
                        if key not in transfers:
                            transfers[key] = _Transfer(next_send=rnd)

            # Sends (first attempts and retransmits) due this round.
            for (src, dst, clique), state in sorted(
                transfers.items(), key=transfer_key
            ):
                if (not state.pending or state.next_send > rnd
                        or not inj.alive(src, rnd)):
                    continue
                if state.attempts > self.max_retries:
                    state.dead = True
                    stats.expired += 1
                    incr("resilience.channel.undeliverable")
                    continue
                state.attempts += 1
                if state.attempts > 1:
                    stats.retransmits += 1
                stats.sent += 1
                messages += 1
                dropped, delay, duplicated = inj.data_fate(src, dst)
                if dropped or not inj.link_up(src, dst, rnd):
                    stats.dropped += 1
                else:
                    if delay:
                        stats.delayed += 1
                    inflight.append(_Flight(
                        deliver_at=rnd + 1 + delay, src=src, dst=dst,
                        clique=clique,
                    ))
                    if duplicated:
                        inflight.append(_Flight(
                            deliver_at=rnd + 2 + delay, src=src, dst=dst,
                            clique=clique, duplicate=True,
                        ))
                backoff = self.backoff_base * (2 ** (state.attempts - 1))
                state.next_send = (
                    rnd + self.ack_timeout + backoff
                    + inj.jitter(src, dst, state.attempts)
                )

            pending = bool(inflight) or any(
                state.pending and inj.alive_eventually(src, rnd + 1)
                for (src, _dst, _clique), state in transfers.items()
            )
            if not pending:
                break
            rnd += 1
            if rnd >= self.max_rounds:
                timed_out = True
                break

        missing = {
            str(node): len(target - holding[node]) for node in path
            if target - holding[node]
        }
        if not missing:
            status = CONVERGED
        elif timed_out:
            status = TIMED_OUT
        else:
            status = CONVERGED_PARTIAL
        source_up = inj.alive(flow.source, rnd)
        confirmed = status == CONVERGED and source_up

        # Fold what actually arrived into the shared views, in the same
        # canonical order as the lossless path.
        for node in path:
            view = views[node]
            own = set(view.local_cliques)
            for clique in sorted(holding[node], key=_clique_key):
                if clique not in own and clique not in view.received_cliques:
                    view.received_cliques.append(clique)

        undeliverable = sum(
            1 for state in transfers.values() if state.dead
        )
        return {
            "status": status,
            "confirmed": confirmed,
            "rounds": rnd,
            "messages": messages,
            "missing": missing,
            "undeliverable": undeliverable,
            "source_up": source_up,
        }
