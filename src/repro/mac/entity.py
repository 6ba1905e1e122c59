"""The per-node MAC state machine (CSMA/CA with RTS/CTS/DATA/ACK).

Implements the medium-access mechanics shared by every compared system:
physical carrier sense with DIFS deference, slotted backoff countdown that
freezes while the medium is busy, virtual carrier sense (NAV) from
overheard RTS/CTS duration fields, the four-way handshake, CTS/ACK
timeouts with retries, and a retry limit after which the packet is
dropped.  What differs between 802.11, two-tier, and 2PA — queue
discipline and backoff window — is delegated to a
:class:`~repro.mac.policies.SchedulingPolicy`.

Simplifications relative to a full 802.11 implementation (documented in
DESIGN.md): no EIFS after garbled frames, no capture effect, control
frames never fragmented.  None of these affect the contention phenomena
the paper studies.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional, Set

from ..core.model import NodeId
from ..net.packet import DataPacket, Frame, FrameKind, TagInfo
from ..sim import Event, RngRegistry, Simulator, Tracer, NULL_TRACER
from .channel import WirelessChannel
from .policies import SchedulingPolicy
from .timings import MacTimings

#: Callback signature for delivered packets: (receiver, packet).
DeliveryHandler = Callable[[NodeId, DataPacket], None]
#: Callback for MAC-level drops: (node, packet, reason).
DropHandler = Callable[[NodeId, DataPacket, str], None]


class MacState(enum.Enum):
    """Sender-side states of the CSMA/CA state machine."""

    IDLE = "idle"              # nothing to send
    WAIT = "wait"              # pending packet, medium busy or NAV set
    DIFS = "difs"              # sensing idle for a DIFS
    BACKOFF = "backoff"        # counting down slots
    TX_RTS = "tx_rts"          # our RTS is on the air
    WAIT_CTS = "wait_cts"
    TX_DATA = "tx_data"        # SIFS wait + DATA on the air
    WAIT_ACK = "wait_ack"


class MacEntity:
    """One node's MAC: sender state machine plus receiver responses."""

    def __init__(
        self,
        node: NodeId,
        sim: Simulator,
        channel: WirelessChannel,
        policy: SchedulingPolicy,
        rng: RngRegistry,
        timings: MacTimings = MacTimings(),
        tracer: Tracer = NULL_TRACER,
        on_delivery: Optional[DeliveryHandler] = None,
        on_drop: Optional[DropHandler] = None,
    ) -> None:
        self.node = node
        self.sim = sim
        self.channel = channel
        self.policy = policy
        self.rng = rng
        self.timings = timings
        self.tracer = tracer
        self.on_delivery = on_delivery or (lambda *_: None)
        self.on_drop = on_drop or (lambda *_: None)

        self.state = MacState.IDLE
        self.nav_until = 0.0
        self.eifs_until = 0.0
        self.attempt = 0
        self.current: Optional[DataPacket] = None
        self.remaining_slots: Optional[int] = None

        self._timer: Optional[Event] = None       # DIFS/backoff/timeout
        self._backoff_started_at = 0.0
        self._responding_until = 0.0               # busy replying CTS/ACK
        self._expecting_data_from: Optional[NodeId] = None
        self._expecting_deadline = 0.0
        self._seen_uids: Set[int] = set()
        self._seen_order: list = []

        # Statistics.
        self.tx_success = 0
        self.tx_failures = 0
        self.mac_drops = 0

        channel.register(node, self)

    # ------------------------------------------------------------------
    # Upper-layer API
    # ------------------------------------------------------------------
    def enqueue(self, packet: DataPacket) -> bool:
        """Queue a packet; returns False when the policy dropped it."""
        accepted = self.policy.enqueue(packet, self.sim.now)
        if accepted:
            self.tracer.log(self.sim.now, "queue", "enqueue",
                            node=self.node, sid=str(packet.subflow))
            self._wakeup()
        else:
            self.tracer.log(self.sim.now, "queue", "drop-full",
                            node=self.node, sid=str(packet.subflow))
        return accepted

    # ------------------------------------------------------------------
    # Contention control
    # ------------------------------------------------------------------
    def _wakeup(self) -> None:
        """(Re)evaluate whether we can start contending for the medium."""
        if self.state not in (MacState.IDLE, MacState.WAIT):
            return
        if not self.policy.has_pending():
            self.state = MacState.IDLE
            return
        if (
            self.channel.medium_busy(self.node)
            or self.sim.now < self.nav_until
            or self.sim.now < self._responding_until
            or self.sim.now < self.eifs_until
        ):
            self.state = MacState.WAIT
            self._arm_nav_wakeup()
            return
        self.state = MacState.DIFS
        self._set_timer(self.timings.difs, self._difs_done)

    def _arm_nav_wakeup(self) -> None:
        """Retry contention when NAV / EIFS / responder holds expire."""
        horizon = max(self.nav_until, self._responding_until,
                      self.eifs_until)
        if horizon > self.sim.now:
            self.sim.schedule_at(horizon, self._wakeup)

    def on_garbled(self) -> None:
        """Energy was sensed but the frame did not decode.

        With ``use_eifs`` enabled, defer an EIFS before contending again
        — the overlapped exchange may be mid-handshake and its invisible
        ACK deserves protection (802.11 §9.2.10).  A no-op otherwise.
        """
        if not self.timings.use_eifs:
            return
        new_until = self.sim.now + self.timings.eifs - self.timings.difs
        if new_until > self.eifs_until:
            self.eifs_until = new_until
            if self.state == MacState.DIFS:
                self._clear_timer()
                self.state = MacState.WAIT
            elif self.state == MacState.BACKOFF:
                self._freeze_backoff()
            if self.state == MacState.WAIT:
                self._arm_nav_wakeup()

    def _difs_done(self) -> None:
        self._timer = None
        if self.remaining_slots is None:
            packet = self.policy.next_packet(self.sim.now)
            if packet is None:  # pragma: no cover - has_pending guarded
                self.state = MacState.IDLE
                return
            self.current = packet
            window = self.policy.backoff_window(packet, self.attempt,
                                                self.sim.now)
            self.remaining_slots = self.rng.uniform_slots(
                ("backoff", self.node), window
            )
        self.state = MacState.BACKOFF
        if self.remaining_slots == 0:
            self._backoff_done()
        else:
            self._backoff_started_at = self.sim.now
            self._set_timer(self.remaining_slots * self.timings.slot,
                            self._backoff_done)

    def _freeze_backoff(self) -> None:
        """Medium went busy during countdown: remember remaining slots."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self.state == MacState.BACKOFF and self.remaining_slots:
            elapsed = self.sim.now - self._backoff_started_at
            consumed = int(elapsed // self.timings.slot)
            self.remaining_slots = max(self.remaining_slots - consumed, 0)
        self.state = MacState.WAIT

    def _backoff_done(self) -> None:
        self._timer = None
        self.remaining_slots = None
        packet = self.current
        if packet is None:  # pragma: no cover - defensive
            self.state = MacState.IDLE
            self._wakeup()
            return
        self._send_rts(packet)

    # ------------------------------------------------------------------
    # Sender handshake
    # ------------------------------------------------------------------
    def _send_rts(self, packet: DataPacket) -> None:
        self.state = MacState.TX_RTS
        rts = Frame(
            kind=FrameKind.RTS,
            src=self.node,
            dst=packet.receiver,
            duration=self.timings.rts_duration,
            nav=self.timings.exchange_remainder_after_rts(packet.size_bytes),
            packet=packet,
            tags=self.policy.tags_for(packet, self.sim.now),
        )
        self.tracer.log(self.sim.now, "mac", "rts", node=self.node,
                        dst=packet.receiver, attempt=self.attempt)
        self.channel.transmit(self.node, rts)
        self.state = MacState.WAIT_CTS
        self._set_timer(
            self.timings.rts_duration + self.timings.cts_timeout,
            self._cts_timeout,
        )

    def _cts_timeout(self) -> None:
        self._timer = None
        self.tracer.log(self.sim.now, "mac", "cts-timeout", node=self.node)
        self._attempt_failed()

    def _on_cts(self, frame: Frame) -> None:
        if self.state != MacState.WAIT_CTS or self.current is None:
            return
        self._clear_timer()
        self.state = MacState.TX_DATA
        packet = self.current
        data = Frame(
            kind=FrameKind.DATA,
            src=self.node,
            dst=packet.receiver,
            duration=self.timings.data_duration_for(packet),
            nav=self.timings.sifs + self.timings.ack_duration,
            packet=packet,
            tags=self.policy.tags_for(packet, self.sim.now),
        )
        self.sim.schedule(self.timings.sifs,
                          lambda: self._transmit_data(data))

    def _transmit_data(self, data: Frame) -> None:
        if self.state != MacState.TX_DATA:  # pragma: no cover - defensive
            return
        self.channel.transmit(self.node, data)
        self.state = MacState.WAIT_ACK
        self._set_timer(
            data.duration + self.timings.ack_timeout, self._ack_timeout
        )

    def _ack_timeout(self) -> None:
        self._timer = None
        self.tracer.log(self.sim.now, "mac", "ack-timeout", node=self.node)
        self._attempt_failed()

    def _on_ack(self, frame: Frame) -> None:
        if self.state != MacState.WAIT_ACK or self.current is None:
            return
        self._clear_timer()
        packet = self.current
        if frame.tags is not None:
            self.policy.on_ack_feedback(frame.tags.receiver_backoff,
                                        self.sim.now)
        self.policy.on_success(packet, self.sim.now)
        self.tx_success += 1
        self.tracer.log(self.sim.now, "mac", "success", node=self.node,
                        sid=str(packet.subflow))
        self._reset_contention()

    def _attempt_failed(self) -> None:
        self.tx_failures += 1
        self.attempt += 1
        packet = self.current
        if packet is not None and self.attempt > self.timings.retry_limit:
            self.policy.on_drop(packet, self.sim.now)
            self.mac_drops += 1
            self.tracer.log(self.sim.now, "mac", "retry-drop",
                            node=self.node, sid=str(packet.subflow))
            self.on_drop(self.node, packet, "retry-limit")
            self._reset_contention()
            return
        # Retry: keep the packet, redraw backoff at the next opportunity.
        self.remaining_slots = None
        self.state = MacState.WAIT
        self._wakeup()

    def _reset_contention(self) -> None:
        self.current = None
        self.attempt = 0
        self.remaining_slots = None
        self.state = MacState.WAIT
        self._wakeup()

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def _on_rts(self, frame: Frame) -> None:
        if self.sim.now < self.nav_until:
            return  # virtual carrier sense forbids the CTS
        if self.sim.now < self._responding_until:
            return  # already engaged in another exchange
        if self.state in (MacState.TX_RTS, MacState.WAIT_CTS,
                          MacState.TX_DATA, MacState.WAIT_ACK):
            return  # engaged as a sender
        packet = frame.packet
        if packet is None:  # pragma: no cover - RTS always carries one
            return
        self._freeze_backoff()
        remainder = self.timings.exchange_remainder_after_rts(
            packet.size_bytes
        )
        self._responding_until = self.sim.now + remainder
        self._expecting_data_from = frame.src
        self._expecting_deadline = self._responding_until
        self._arm_nav_wakeup()
        # The CTS echoes the data packet's service tag (Sec. IV-C: RTS, CTS
        # and ACK all piggyback the current packet's tag) — this is how
        # nodes that only hear the *receiver* side of an exchange learn the
        # sender's progress and can defer for it.
        cts = Frame(
            kind=FrameKind.CTS,
            src=self.node,
            dst=frame.src,
            duration=self.timings.cts_duration,
            nav=self.timings.exchange_remainder_after_cts(packet.size_bytes),
            tags=frame.tags,
        )
        self.sim.schedule(self.timings.sifs,
                          lambda: self.channel.transmit(self.node, cts))

    def _on_data(self, frame: Frame) -> None:
        if (
            self._expecting_data_from != frame.src
            or self.sim.now > self._expecting_deadline + self.timings.timeout_slack
        ):
            return
        packet = frame.packet
        if packet is None:  # pragma: no cover
            return
        self._expecting_data_from = None
        r_value = self.policy.receiver_backoff_for(frame.src, self.sim.now)
        # The ACK echoes the data packet's tag (for overhearers) and adds
        # the receiver-estimated backoff R for the sender (Sec. IV-C).
        ack = Frame(
            kind=FrameKind.ACK,
            src=self.node,
            dst=frame.src,
            duration=self.timings.ack_duration,
            tags=TagInfo(
                node=frame.tags.node if frame.tags else frame.src,
                subflow=frame.tags.subflow if frame.tags else None,
                start_tag=frame.tags.start_tag if frame.tags else 0.0,
                receiver_backoff=r_value,
            ),
        )
        self.sim.schedule(self.timings.sifs,
                          lambda: self.channel.transmit(self.node, ack))
        if packet.uid in self._seen_uids:
            return  # duplicate after a lost ACK: re-ACK but do not deliver
        self._remember_uid(packet.uid)
        self.on_delivery(self.node, packet)

    def _remember_uid(self, uid: int) -> None:
        self._seen_uids.add(uid)
        self._seen_order.append(uid)
        if len(self._seen_order) > 512:
            self._seen_uids.discard(self._seen_order.pop(0))

    # ------------------------------------------------------------------
    # Channel callbacks
    # ------------------------------------------------------------------
    def on_medium_busy(self) -> None:
        if self.state == MacState.DIFS:
            self._clear_timer()
            self.state = MacState.WAIT
        elif self.state == MacState.BACKOFF:
            self._freeze_backoff()

    def on_medium_idle(self) -> None:
        if self.state == MacState.WAIT:
            self._wakeup()

    def on_frame(self, frame: Frame) -> None:
        """A frame was decoded at this node."""
        if frame.tags is not None:
            self.policy.on_overheard_tags(frame.tags, self.sim.now)
        if frame.dst == self.node:
            if frame.kind == FrameKind.RTS:
                self._on_rts(frame)
            elif frame.kind == FrameKind.CTS:
                self._on_cts(frame)
            elif frame.kind == FrameKind.DATA:
                self._on_data(frame)
            elif frame.kind == FrameKind.ACK:
                self._on_ack(frame)
            return
        # Overheard traffic: honor the frame's NAV reservation.
        if frame.nav > 0:
            new_nav = self.sim.now + frame.nav
            if new_nav > self.nav_until:
                self.nav_until = new_nav
                if self.state == MacState.DIFS:
                    self._clear_timer()
                    self.state = MacState.WAIT
                elif self.state == MacState.BACKOFF:
                    self._freeze_backoff()
                if self.state == MacState.WAIT:
                    self._arm_nav_wakeup()

    # ------------------------------------------------------------------
    # Timer helpers
    # ------------------------------------------------------------------
    def _set_timer(self, delay: float, callback: Callable[[], None]) -> None:
        self._clear_timer()
        self._timer = self.sim.schedule(delay, callback)

    def _clear_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
