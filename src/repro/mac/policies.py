"""Scheduling policies: what to send next and how long to back off.

The MAC state machine (:mod:`repro.mac.entity`) handles carrier sense,
handshakes, and timeouts; a *policy* owns the queues and two decisions:

* which head-of-line packet to transmit next (intra-node coordination);
* the contention-window width for the next attempt (inter-node
  coordination).

Two policies implement the paper's three compared systems:

* :class:`DcfPolicy` — standard IEEE 802.11: one interface queue, binary
  exponential backoff.  Used by the ``802.11`` baseline.
* :class:`FairBackoffPolicy` — the 2PA phase-2 scheduler (Sec. IV-C):
  per-subflow queues, start/internal/external finish tags, a per-node
  virtual clock, a neighbor service-tag table fed by piggybacked tags, and
  a backoff window of ``CW_min + max(Q, R, 0)``.  The *two-tier* baseline
  reuses this scheduler with per-subflow shares computed by the single-hop
  optimization instead of the end-to-end phase-1 shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..core.model import NodeId, SubflowId
from ..net.packet import DataPacket, TagInfo
from ..net.queues import DEFAULT_CAPACITY, DropTailQueue
from .timings import MacTimings


class SchedulingPolicy:
    """Interface between the MAC entity and a queueing/backoff discipline."""

    node: NodeId

    def enqueue(self, packet: DataPacket, now: float) -> bool:
        """Accept a packet for transmission; False means it was dropped."""
        raise NotImplementedError

    def has_pending(self) -> bool:
        raise NotImplementedError

    def next_packet(self, now: float) -> Optional[DataPacket]:
        """The packet to contend for next (stable until success/drop)."""
        raise NotImplementedError

    def backoff_window(self, packet: DataPacket, attempt: int,
                       now: float) -> float:
        """Upper edge of the uniform backoff draw, in slots."""
        raise NotImplementedError

    def on_success(self, packet: DataPacket, now: float) -> None:
        """The packet was acknowledged; remove it from its queue."""
        raise NotImplementedError

    def on_drop(self, packet: DataPacket, now: float) -> None:
        """Retry limit exceeded; remove the packet."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Tag piggybacking (no-ops for DCF)
    # ------------------------------------------------------------------
    def tags_for(self, packet: DataPacket, now: float) -> Optional[TagInfo]:
        """Tag info to piggyback on RTS/CTS/DATA frames."""
        return None

    def on_overheard_tags(self, tags: TagInfo, now: float) -> None:
        """A neighbor's tags were overheard; update local state."""

    def receiver_backoff_for(self, sender: NodeId, now: float) -> Optional[float]:
        """R value a receiver piggybacks on the ACK (Sec. IV-C step 3)."""
        return None

    def on_ack_feedback(self, receiver_backoff: Optional[float],
                        now: float) -> None:
        """Sender learns the receiver-estimated R from the ACK."""

    def queued_packets(self) -> int:
        raise NotImplementedError


class DcfPolicy(SchedulingPolicy):
    """Plain 802.11 DCF: single drop-tail interface queue + BEB."""

    def __init__(
        self,
        node: NodeId,
        timings: MacTimings,
        queue_capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.node = node
        self.timings = timings
        self.queue = DropTailQueue(queue_capacity)

    def enqueue(self, packet: DataPacket, now: float) -> bool:
        return self.queue.offer(packet)

    def has_pending(self) -> bool:
        return bool(self.queue)

    def next_packet(self, now: float) -> Optional[DataPacket]:
        return self.queue.head()

    def backoff_window(self, packet: DataPacket, attempt: int,
                       now: float) -> float:
        """Binary exponential backoff: (CWmin+1)·2^attempt − 1, capped."""
        window = (self.timings.cw_min + 1) * (2 ** attempt) - 1
        return float(min(window, self.timings.cw_max))

    def on_success(self, packet: DataPacket, now: float) -> None:
        self.queue.remove(packet)

    def on_drop(self, packet: DataPacket, now: float) -> None:
        self.queue.remove(packet)

    def queued_packets(self) -> int:
        return len(self.queue)


@dataclass
class _HolState:
    """Tags of a head-of-line packet (assigned when it reaches the head)."""

    packet_uid: int
    start_tag: float
    internal_finish_tag: float
    external_finish_tag: float


class FairBackoffPolicy(SchedulingPolicy):
    """The 2PA phase-2 distributed scheduler (Sec. IV-C).

    Parameters
    ----------
    shares:
        Allocated share ``c_i^j`` per subflow originating at this node, as
        a fraction of channel capacity B.  The *node share* ``c_i`` is
        their sum.
    alpha:
        The short-term fairness strictness knob.  The paper uses 0.0001
        with ns-2's internal tag units; our tags are in microseconds, so
        the effective default here is higher (see DESIGN.md).
    """

    def __init__(
        self,
        node: NodeId,
        timings: MacTimings,
        shares: Mapping[SubflowId, float],
        alpha: float = 0.001,
        queue_capacity: int = DEFAULT_CAPACITY,
        max_window: float = 4095.0,
        table_timeout: float = 1_000_000.0,
        idle_resync_us: float = 250_000.0,
    ) -> None:
        # ``shares`` may be empty for pure receivers/destinations: they
        # never transmit data but still maintain the neighbor table and
        # compute R values for the ACKs they send.
        for sid, share in shares.items():
            if share <= 0:
                raise ValueError(f"share of {sid} must be positive: {share}")
        self.node = node
        self.timings = timings
        self.alpha = float(alpha)
        self.max_window = float(max_window)
        #: Soft-state lifetime (us) of neighbor-table entries.  Tags of
        #: flows that stopped transmitting age out instead of inflating Q
        #: forever (needed when flows depart; see the dynamic-allocation
        #: experiment).
        self.table_timeout = float(table_timeout)
        self.shares: Dict[SubflowId, float] = dict(shares)
        self.node_share = float(sum(shares.values()))
        self.queues: Dict[SubflowId, DropTailQueue] = {
            sid: DropTailQueue(queue_capacity) for sid in shares
        }
        self.virtual_clock = 0.0
        #: Local table: neighbor subflow ->
        #: (owner node, latest start tag, time last heard).
        self.table: Dict[SubflowId, Tuple[NodeId, float, float]] = {}
        self._hol: Dict[SubflowId, _HolState] = {}
        self._last_r = 0.0
        #: Resync the virtual clock only after this much *sustained*
        #: idleness.  A relay that momentarily drains between bursts must
        #: keep its lag credit (otherwise an over-serving upstream node is
        #: forgiven every time the relay's queue touches empty); a flow
        #: that joins after a long silence must not claim ancient credit.
        self.idle_resync_us = float(idle_resync_us)
        self._last_activity = float("-inf")

    # ------------------------------------------------------------------
    # Rate helpers (shares are fractions of B; rates in bits/us)
    # ------------------------------------------------------------------
    def _subflow_rate(self, sid: SubflowId) -> float:
        return self.shares[sid] * self.timings.data_rate

    def _node_rate(self) -> float:
        return self.node_share * self.timings.data_rate

    # ------------------------------------------------------------------
    # Queueing
    # ------------------------------------------------------------------
    def enqueue(self, packet: DataPacket, now: float) -> bool:
        sid = packet.subflow
        queue = self.queues.get(sid)
        if queue is None:
            raise KeyError(
                f"node {self.node!r} has no allocated share for {sid}"
            )
        if (
            not self.has_pending()
            and now - self._last_activity > self.idle_resync_us
        ):
            # Coming back from *sustained* idleness (or just joining):
            # re-synchronize the virtual clock with the neighborhood's
            # progress so we neither claim ancient credit nor make
            # incumbents defer to our zeroed clock (the SCFQ/DFS idle
            # rule, guarded so brief queue drains keep their lag credit).
            self.virtual_clock = max(
                self.virtual_clock,
                max(self._fresh_tags(now), default=0.0),
            )
        self._last_activity = now
        return queue.offer(packet)

    def _fresh_tags(self, now: float):
        """Start tags of table entries that have not aged out."""
        for owner, tag, heard_at in self.table.values():
            if now - heard_at <= self.table_timeout:
                yield tag

    def has_pending(self) -> bool:
        return any(self.queues.values())

    def _ensure_hol_tags(self, sid: SubflowId, packet: DataPacket,
                         now: float) -> _HolState:
        """Assign the three tags when a packet reaches the queue head."""
        state = self._hol.get(sid)
        if state is not None and state.packet_uid == packet.uid:
            return state
        start = self.virtual_clock
        size = float(packet.size_bits)
        state = _HolState(
            packet_uid=packet.uid,
            start_tag=start,
            internal_finish_tag=start + size / self._subflow_rate(sid),
            external_finish_tag=start + size / self._node_rate(),
        )
        self._hol[sid] = state
        return state

    def next_packet(self, now: float) -> Optional[DataPacket]:
        """Head-of-line packet with the smallest *internal* finish tag."""
        best: Optional[DataPacket] = None
        best_key: Optional[Tuple[float, str]] = None
        for sid, queue in self.queues.items():
            packet = queue.head()
            if packet is None:
                continue
            state = self._ensure_hol_tags(sid, packet, now)
            key = (state.internal_finish_tag, str(sid))
            if best_key is None or key < best_key:
                best, best_key = packet, key
        return best

    # ------------------------------------------------------------------
    # Backoff (inter-node coordination)
    # ------------------------------------------------------------------
    def _sender_q(self, start_tag: float, now: float) -> float:
        """Q = Σ_{m∈T} (S − r_m) · α over fresh entries of other nodes."""
        q = 0.0
        for owner, r_m, heard_at in self.table.values():
            if owner == self.node or now - heard_at > self.table_timeout:
                continue
            q += (start_tag - r_m) * self.alpha
        return q

    def receiver_backoff_for(self, sender: NodeId, now: float) -> Optional[float]:
        """R = Σ_{m∈T, m≠i} (r_i − r_m) · α, about sender ``i``."""
        r_i: Optional[float] = None
        for owner, tag, heard_at in self.table.values():
            if owner == sender and now - heard_at <= self.table_timeout:
                r_i = tag if r_i is None else max(r_i, tag)
        if r_i is None:
            return None
        r = 0.0
        for owner, r_m, heard_at in self.table.values():
            if owner == sender or now - heard_at > self.table_timeout:
                continue
            r += (r_i - r_m) * self.alpha
        return r

    def on_ack_feedback(self, receiver_backoff: Optional[float],
                        now: float) -> None:
        if receiver_backoff is not None:
            self._last_r = receiver_backoff

    def backoff_window(self, packet: DataPacket, attempt: int,
                       now: float) -> float:
        """CW_min + max(Q, R, 0), in slots (Sec. IV-C step 3)."""
        state = self._ensure_hol_tags(packet.subflow, packet, now)
        q = self._sender_q(state.start_tag, now)
        window = self.timings.cw_min + max(q, self._last_r, 0.0)
        return float(min(window, self.max_window))

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------
    def on_success(self, packet: DataPacket, now: float) -> None:
        """Update the virtual clock to the external finish tag (step 4).

        The clock must advance by one node-share service time *per
        transmitted packet*.  Naively jumping to the pre-computed
        external finish tag under-counts when several subflow queues
        were tagged at the same clock value (two HOL packets sharing a
        start tag would advance the clock only once) — a node with k
        backlogged subflows would then claim k times its normalized
        service against its neighbors.  Chaining from
        ``max(clock, start_tag)`` keeps single-queue behaviour identical
        and fixes the multi-queue case.
        """
        sid = packet.subflow
        state = self._hol.pop(sid, None)
        if state is not None and state.packet_uid == packet.uid:
            rate = self._node_rate()
            if rate > 0:
                self.virtual_clock = (
                    max(self.virtual_clock, state.start_tag)
                    + packet.size_bits / rate
                )
        self.queues[sid].remove(packet)
        # Our own progress also belongs in the table so receivers can
        # compute R about us consistently.
        self.table[sid] = (
            self.node,
            state.start_tag if state else self.virtual_clock,
            now,
        )

    def on_drop(self, packet: DataPacket, now: float) -> None:
        sid = packet.subflow
        self._hol.pop(sid, None)
        self.queues[sid].remove(packet)

    # ------------------------------------------------------------------
    # Tag piggybacking
    # ------------------------------------------------------------------
    def tags_for(self, packet: DataPacket, now: float) -> Optional[TagInfo]:
        state = self._ensure_hol_tags(packet.subflow, packet, now)
        return TagInfo(
            node=self.node,
            subflow=packet.subflow,
            start_tag=state.start_tag,
        )

    # ------------------------------------------------------------------
    # Dynamic re-allocation
    # ------------------------------------------------------------------
    def update_shares(self, shares: Mapping[SubflowId, float]) -> None:
        """Adopt a new allocation strategy at runtime.

        Used when flows join or leave and phase 1 recomputes: queues for
        newly allocated subflows are created, existing queues are kept
        (in-flight packets survive), and head-of-line tags are re-derived
        so finish tags reflect the new rates.  Subflows missing from the
        new strategy keep their queues but are parked at an (effectively)
        zero share by assigning them the minimum positive share given.
        """
        new_shares: Dict[SubflowId, float] = {}
        for sid, share in shares.items():
            if share <= 0:
                raise ValueError(f"share of {sid} must be positive: {share}")
            new_shares[sid] = float(share)
        floor = min(new_shares.values()) * 1e-3 if new_shares else 1e-6
        for sid in self.queues:
            if sid not in new_shares:
                new_shares[sid] = floor
        self.shares = new_shares
        self.node_share = float(sum(new_shares.values()))
        for sid in new_shares:
            if sid not in self.queues:
                self.queues[sid] = DropTailQueue(
                    next(iter(self.queues.values())).capacity
                    if self.queues else DEFAULT_CAPACITY
                )
        self._hol.clear()

    def on_overheard_tags(self, tags: TagInfo, now: float) -> None:
        if tags.node == self.node or tags.subflow is None:
            return
        self.table[tags.subflow] = (tags.node, tags.start_tag, now)

    def queued_packets(self) -> int:
        return sum(len(q) for q in self.queues.values())
