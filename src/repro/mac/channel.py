"""The shared wireless medium.

Models the physics the MAC protocols react to:

* **propagation scope** — a frame from ``src`` reaches every node within
  transmission range (the paper sets transmission and interference range
  both to 250 m);
* **physical carrier sense** — a node's medium is busy while any in-range
  transmission is on the air; MAC entities get ``on_medium_busy`` /
  ``on_medium_idle`` edge notifications;
* **collisions** — a frame is decodable at a listener iff no *other*
  transmission (including the listener's own — radios are half-duplex)
  overlaps it in time while being within range of the listener.  This is
  exactly the mechanism that produces hidden-terminal losses and the
  flow-in-the-middle starvation of the paper's 802.11 baseline.

No capture effect is modelled: any overlap garbles the frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol

from ..core.model import Network, NodeId
from ..sim import Simulator, Tracer, NULL_TRACER
from ..net.packet import Frame


class ChannelListener(Protocol):
    """What the channel needs from a MAC entity."""

    def on_medium_busy(self) -> None: ...

    def on_medium_idle(self) -> None: ...

    def on_frame(self, frame: Frame) -> None: ...


@dataclass
class Transmission:
    src: NodeId
    frame: Frame
    start: float
    end: float


class WirelessChannel:
    """Broadcast medium with carrier sense and collision resolution."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        tracer: Tracer = NULL_TRACER,
        capture_threshold_db: float = None,
        radio=None,
    ) -> None:
        """``capture_threshold_db`` enables the capture effect: a frame
        decodes despite overlap when its receive power exceeds the
        strongest interferer by at least this many dB (computed with the
        two-ray-ground model; requires a geometric network).  ``None``
        (default) models any overlap as a collision, as ns-2 at capture
        threshold infinity."""
        self.sim = sim
        self.network = network
        self.tracer = tracer
        self.capture_threshold_db = capture_threshold_db
        if capture_threshold_db is not None:
            from ..phy.propagation import RadioParams

            self.radio = radio or RadioParams()
        else:
            self.radio = radio
        self._listeners: Dict[NodeId, ChannelListener] = {}
        self._active: List[Transmission] = []
        self._recent: List[Transmission] = []   # ended but may overlap active
        self._busy_count: Dict[NodeId, int] = {}
        self._neighbors: Dict[NodeId, List[NodeId]] = {
            n: network.neighbors(n) for n in network.nodes
        }
        self.collisions = 0
        self.transmissions = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register(self, node: NodeId, listener: ChannelListener) -> None:
        if node not in self._neighbors:
            raise KeyError(f"unknown node {node!r}")
        self._listeners[node] = listener
        self._busy_count.setdefault(node, 0)

    # ------------------------------------------------------------------
    # Sensing
    # ------------------------------------------------------------------
    def medium_busy(self, node: NodeId) -> bool:
        """Physical carrier sense at ``node`` (own transmissions excluded)."""
        return self._busy_count.get(node, 0) > 0

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, src: NodeId, frame: Frame) -> Transmission:
        """Put ``frame`` on the air from ``src`` for ``frame.duration`` us.

        Reception outcomes are decided when the frame ends; in-range
        listeners' carrier sense toggles immediately.
        """
        now = self.sim.now
        tx = Transmission(src, frame, now, now + frame.duration)
        self._active.append(tx)
        self.transmissions += 1
        self.tracer.log(now, "chan", f"tx-start {frame}", src=src,
                        dur=frame.duration)
        for nbr in self._neighbors[src]:
            count = self._busy_count.get(nbr, 0)
            self._busy_count[nbr] = count + 1
            if count == 0:
                listener = self._listeners.get(nbr)
                if listener is not None:
                    listener.on_medium_busy()
        self.sim.schedule(frame.duration, lambda: self._complete(tx))
        return tx

    def _complete(self, tx: Transmission) -> None:
        self._active.remove(tx)
        self._recent.append(tx)
        # Recent entries must survive while they can still overlap either a
        # transmission still on the air or the frame being finalized now.
        horizon = min(
            min((t.start for t in self._active), default=self.sim.now),
            tx.start,
        )
        self._prune_recent(horizon)
        # Decide reception at every in-range listener *before* flipping the
        # busy counters, so reception callbacks see a consistent world.
        receptions: List[Optional[ChannelListener]] = []
        garbled: List[ChannelListener] = []
        for nbr in self._neighbors[tx.src]:
            listener = self._listeners.get(nbr)
            if listener is None:
                continue
            if self._garbled_at(tx, nbr):
                self.tracer.log(self.sim.now, "chan",
                                f"garbled {tx.frame}", at=nbr)
                if nbr == tx.frame.dst:
                    self.collisions += 1
                garbled.append(listener)
                continue
            receptions.append(listener)
        for nbr in self._neighbors[tx.src]:
            count = self._busy_count.get(nbr, 0)
            self._busy_count[nbr] = count - 1
        for listener in garbled:
            on_garbled = getattr(listener, "on_garbled", None)
            if on_garbled is not None:
                on_garbled()
        for listener in receptions:
            listener.on_frame(tx.frame)
        for nbr in self._neighbors[tx.src]:
            if self._busy_count.get(nbr, 0) == 0:
                listener = self._listeners.get(nbr)
                if listener is not None:
                    listener.on_medium_idle()

    # ------------------------------------------------------------------
    # Collision logic
    # ------------------------------------------------------------------
    def _garbled_at(self, tx: Transmission, listener: NodeId) -> bool:
        """True if another overlapping transmission corrupts ``tx`` here."""
        interferers: List[NodeId] = []
        for other in self._active + self._recent:
            if other is tx or other.src == tx.src:
                continue
            if other.end <= tx.start or other.start >= tx.end:
                continue  # no time overlap
            if other.src == listener:
                return True  # half-duplex: we were talking ourselves
            if self.network.in_range(other.src, listener):
                interferers.append(other.src)
        if not interferers:
            return False
        if self.capture_threshold_db is None:
            return True
        return not self._captures(tx.src, listener, interferers)

    def _captures(self, src: NodeId, listener: NodeId,
                  interferers: List[NodeId]) -> bool:
        """Capture model: signal beats the strongest interferer by the
        configured margin (two-ray-ground powers)."""
        from ..phy.propagation import two_ray_ground

        d_signal = self.network.distance(src, listener)
        if d_signal <= 0:
            return False
        signal = two_ray_ground(d_signal, self.radio)
        strongest = 0.0
        for node in interferers:
            d = self.network.distance(node, listener)
            if d <= 0:
                return False
            strongest = max(strongest, two_ray_ground(d, self.radio))
        if strongest <= 0:  # pragma: no cover - interferers were in range
            return True
        margin = 10.0 ** (self.capture_threshold_db / 10.0)
        return signal >= margin * strongest

    def _prune_recent(self, horizon: float) -> None:
        """Drop ended transmissions that can no longer overlap anything."""
        self._recent = [t for t in self._recent if t.end > horizon]
