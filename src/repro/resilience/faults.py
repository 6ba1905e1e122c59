"""Seeded fault injection for the 2PA-D constraint exchange.

A :class:`FaultPlan` is a *declarative, serializable* description of
everything that can go wrong while the distributed phase-1 protocol
floods clique constraints along flow paths:

* per-link message faults — drop, duplicate, delay (random per-message
  delays also reorder deliveries), plus independent ack loss;
* node crash/restart schedules (a crashed node neither sends nor
  receives, and loses its received constraint state — it re-derives only
  its *local* cliques by re-overhearing after restart);
* link flaps — a link that is administratively down for a round interval
  drops every message crossing it, in either direction;
* arrival bursts (overload plans only) — adversarial extra arrivals
  that stress admission control, not the protocol.

A :class:`FaultInjector` turns a plan into concrete per-message decisions
by drawing from :class:`~repro.sim.rng.RngRegistry` streams, one stream
per directed link, so every chaos run is reproducible bit-for-bit from
``(master seed, stream prefix)`` alone and shrinking a scenario never
perturbs the fault draws of the surviving links.  Plans round-trip
through plain dicts (:meth:`FaultPlan.to_dict` /
:meth:`FaultPlan.from_dict`) so the fuzzer can serialize them into
reproducers next to the scenario that tripped a checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..sim.rng import RngRegistry

__all__ = [
    "LinkFaults",
    "NodeCrash",
    "LinkFlap",
    "ArrivalBurst",
    "FaultPlan",
    "FaultInjector",
]


@dataclass(frozen=True)
class LinkFaults:
    """Per-link message-fault rates (all probabilities in ``[0, 1]``)."""

    drop: float = 0.0        #: P(data message lost in transit)
    ack_drop: float = 0.0    #: P(ack lost on the way back)
    duplicate: float = 0.0   #: P(data message delivered twice)
    delay: float = 0.0       #: P(data message delayed extra rounds)
    max_delay: int = 3       #: delayed messages take 1..max_delay extra rounds

    def __post_init__(self) -> None:
        for name in ("drop", "ack_drop", "duplicate", "delay"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.max_delay < 1:
            raise ValueError(f"max_delay must be >= 1, got {self.max_delay}")

    @property
    def lossless(self) -> bool:
        return (self.drop == 0.0 and self.ack_drop == 0.0
                and self.duplicate == 0.0 and self.delay == 0.0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "drop": self.drop,
            "ack_drop": self.ack_drop,
            "duplicate": self.duplicate,
            "delay": self.delay,
            "max_delay": self.max_delay,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "LinkFaults":
        return cls(
            drop=float(doc.get("drop", 0.0)),
            ack_drop=float(doc.get("ack_drop", 0.0)),
            duplicate=float(doc.get("duplicate", 0.0)),
            delay=float(doc.get("delay", 0.0)),
            max_delay=int(doc.get("max_delay", 3)),
        )


@dataclass(frozen=True)
class NodeCrash:
    """Node ``node`` is down during rounds ``[down_from, up_at)``.

    ``up_at=None`` means the node never restarts within the run.
    """

    node: str
    down_from: int
    up_at: Optional[int] = None

    def down(self, rnd: int) -> bool:
        if rnd < self.down_from:
            return False
        return self.up_at is None or rnd < self.up_at

    def to_dict(self) -> Dict[str, object]:
        return {"node": self.node, "down_from": self.down_from,
                "up_at": self.up_at}

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "NodeCrash":
        up_at = doc.get("up_at")
        return cls(str(doc["node"]), int(doc["down_from"]),
                   None if up_at is None else int(up_at))


@dataclass(frozen=True)
class LinkFlap:
    """Link ``{a, b}`` is down (both directions) during ``[down_from, up_at)``."""

    a: str
    b: str
    down_from: int
    up_at: int

    def down(self, x: str, y: str, rnd: int) -> bool:
        if {x, y} != {self.a, self.b}:
            return False
        return self.down_from <= rnd < self.up_at

    def to_dict(self) -> Dict[str, object]:
        return {"a": self.a, "b": self.b, "down_from": self.down_from,
                "up_at": self.up_at}

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "LinkFlap":
        return cls(str(doc["a"]), str(doc["b"]), int(doc["down_from"]),
                   int(doc["up_at"]))


@dataclass(frozen=True)
class ArrivalBurst:
    """An adversarial arrival spike at ``epoch``.

    Deterministic by construction: the first ``count`` flow ids of the
    sorted scenario universe are offered as extra arrivals with service
    time ``duration`` — no randomness, so shrinking a co-drawn trace
    never perturbs the burst.
    """

    epoch: int
    count: int
    duration: int = 3

    def to_dict(self) -> Dict[str, object]:
        return {"epoch": self.epoch, "count": self.count,
                "duration": self.duration}

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "ArrivalBurst":
        return cls(int(doc["epoch"]), int(doc["count"]),
                   int(doc.get("duration", 3)))


def _link_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class FaultPlan:
    """A complete, serializable chaos schedule for one protocol run."""

    default_link: LinkFaults = field(default_factory=LinkFaults)
    links: Mapping[Tuple[str, str], LinkFaults] = field(default_factory=dict)
    crashes: Tuple[NodeCrash, ...] = ()
    flaps: Tuple[LinkFlap, ...] = ()
    bursts: Tuple[ArrivalBurst, ...] = ()

    def link_faults(self, a: str, b: str) -> LinkFaults:
        """Fault rates for the (undirected) link ``{a, b}``."""
        return self.links.get(_link_key(a, b), self.default_link)

    @property
    def lossless(self) -> bool:
        """No *channel* faults (bursts don't count — they stress
        admission, not the protocol)."""
        return (self.default_link.lossless and not self.crashes
                and not self.flaps
                and all(lf.lossless for lf in self.links.values()))

    # ------------------------------------------------------------------
    # Static schedule queries (no randomness involved)
    # ------------------------------------------------------------------
    def node_up(self, node: str, rnd: int) -> bool:
        return not any(c.node == node and c.down(rnd) for c in self.crashes)

    def node_up_eventually(self, node: str, rnd: int) -> bool:
        """Will ``node`` be up at some round ``>= rnd``?

        False only for a node inside a crash window that never ends —
        the signal the channel uses to stop waiting on a dead sender.
        """
        if self.node_up(node, rnd):
            return True
        return all(
            c.up_at is not None
            for c in self.crashes
            if c.node == node and c.down(rnd)
        )

    def link_up(self, a: str, b: str, rnd: int) -> bool:
        return not any(f.down(a, b, rnd) for f in self.flaps)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "default_link": self.default_link.to_dict(),
            "links": [
                {"link": list(key), **faults.to_dict()}
                for key, faults in sorted(self.links.items())
            ],
            "crashes": [c.to_dict() for c in self.crashes],
            "flaps": [f.to_dict() for f in self.flaps],
            "bursts": [b.to_dict() for b in self.bursts],
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`.  The ``worker_crashes`` and
        ``worker_hangs`` keys of plans written when component solves
        could run in a process pool are ignored."""
        links: Dict[Tuple[str, str], LinkFaults] = {}
        for entry in doc.get("links", []):
            a, b = entry["link"]
            links[_link_key(str(a), str(b))] = LinkFaults.from_dict(entry)
        return cls(
            default_link=LinkFaults.from_dict(doc.get("default_link", {})),
            links=links,
            crashes=tuple(
                NodeCrash.from_dict(c) for c in doc.get("crashes", [])
            ),
            flaps=tuple(
                LinkFlap.from_dict(f) for f in doc.get("flaps", [])
            ),
            bursts=tuple(
                ArrivalBurst.from_dict(b) for b in doc.get("bursts", [])
            ),
        )

    # ------------------------------------------------------------------
    # Random plan generation (fuzzer / campaign entry point)
    # ------------------------------------------------------------------
    @classmethod
    def draw(
        cls,
        rng,
        nodes: Sequence[str],
        loss: Optional[float] = None,
        crash_prob: float = 0.2,
        flap_prob: float = 0.15,
        horizon: int = 24,
        overload: bool = False,
    ) -> "FaultPlan":
        """Draw a random plan from a ``numpy.random.Generator``.

        ``loss`` fixes the default drop rate (campaign sweeps pass the
        grid value); ``None`` draws it uniformly from ``[0, 0.4]``.  The
        draw order is fixed, so a plan is a pure function of the stream
        state — the fuzzer regenerates it from ``(seed, case)`` alone.

        ``overload=True`` additionally draws an arrival burst.  Those
        draws come strictly *after* every other draw (and are consumed
        unconditionally), so plans drawn without the flag are
        byte-identical to pre-overload plans from the same stream.  The
        six draws ahead of the burst once placed worker crash and hang
        faults; they are still consumed, so every burst stays the one
        drawn from the same stream before those faults were retired.
        """
        drop = float(rng.uniform(0.0, 0.4)) if loss is None else float(loss)
        default = LinkFaults(
            drop=drop,
            ack_drop=drop / 2.0,
            duplicate=float(rng.uniform(0.0, 0.1)),
            delay=float(rng.uniform(0.0, 0.3)),
            max_delay=int(rng.integers(1, 4)),
        )
        crashes: List[NodeCrash] = []
        for node in sorted(map(str, nodes)):
            if float(rng.random()) < crash_prob:
                down_from = int(rng.integers(0, horizon // 2))
                if float(rng.random()) < 0.25:
                    up_at: Optional[int] = None  # never restarts
                else:
                    up_at = down_from + int(rng.integers(2, horizon // 2))
                crashes.append(NodeCrash(node, down_from, up_at))
        flaps: List[LinkFlap] = []
        ordered = sorted(map(str, nodes))
        if len(ordered) >= 2 and float(rng.random()) < flap_prob:
            i = int(rng.integers(0, len(ordered)))
            j = int(rng.integers(0, len(ordered) - 1))
            if j >= i:
                j += 1
            down_from = int(rng.integers(0, horizon // 2))
            up_at = down_from + int(rng.integers(1, horizon // 2))
            a, b = _link_key(ordered[i], ordered[j])
            flaps.append(LinkFlap(a, b, down_from, up_at))
        bursts: List[ArrivalBurst] = []
        if overload:
            # Every draw is consumed whether or not the event fires, so
            # the stream position after draw() is outcome-independent.
            # The first six are the retired worker crash and hang draws.
            rng.random()
            rng.integers(0, 4)
            rng.integers(1, 3)
            rng.random()
            rng.integers(0, 4)
            rng.uniform(0.05, 0.3)
            u_burst = float(rng.random())
            burst_epoch = int(rng.integers(0, max(1, horizon // 2)))
            burst_count = int(rng.integers(1, 5))
            burst_duration = int(rng.integers(1, 5))
            if u_burst < 0.5:
                bursts.append(
                    ArrivalBurst(burst_epoch, burst_count, burst_duration)
                )
        return cls(default_link=default, crashes=tuple(crashes),
                   flaps=tuple(flaps), bursts=tuple(bursts))

    # ------------------------------------------------------------------
    # Shrinking support
    # ------------------------------------------------------------------
    def shrink_candidates(self) -> List["FaultPlan"]:
        """One-step-simpler plans, for greedy failure shrinking.

        Ordered from most to least aggressive simplification: drop all
        bursts, drop all crashes, drop all flaps, drop individual
        events, then zero individual default-link rates.
        """
        out: List[FaultPlan] = []
        if self.bursts:
            out.append(replace(self, bursts=()))
        if self.crashes:
            out.append(replace(self, crashes=()))
        if self.flaps:
            out.append(replace(self, flaps=()))
        for i in range(len(self.crashes)):
            out.append(replace(
                self, crashes=self.crashes[:i] + self.crashes[i + 1:]
            ))
        for i in range(len(self.flaps)):
            out.append(replace(
                self, flaps=self.flaps[:i] + self.flaps[i + 1:]
            ))
        for i in range(len(self.bursts)):
            out.append(replace(
                self, bursts=self.bursts[:i] + self.bursts[i + 1:]
            ))
        for attr in ("duplicate", "delay", "ack_drop", "drop"):
            if getattr(self.default_link, attr) != 0.0:
                out.append(replace(
                    self,
                    default_link=replace(self.default_link, **{attr: 0.0}),
                ))
        return out


class FaultInjector:
    """Turns a :class:`FaultPlan` into concrete per-message decisions.

    All randomness flows through per-directed-link streams of a
    :class:`~repro.sim.rng.RngRegistry` (``(*prefix, src, dst)``), so two
    runs with the same plan, registry seed and prefix make byte-identical
    decisions, and decisions on one link are independent of every other
    link's traffic.
    """

    def __init__(
        self,
        plan: FaultPlan,
        registry: Optional[RngRegistry] = None,
        prefix: Hashable = ("resilience", "channel"),
    ) -> None:
        self.plan = plan
        self.registry = registry if registry is not None else RngRegistry(0)
        self.prefix = tuple(prefix) if isinstance(prefix, (list, tuple)) \
            else (prefix,)

    def _stream(self, src: str, dst: str):
        return self.registry.stream(self.prefix + ("link", src, dst))

    # -- static schedule ------------------------------------------------
    def alive(self, node: str, rnd: int) -> bool:
        return self.plan.node_up(node, rnd)

    def alive_eventually(self, node: str, rnd: int) -> bool:
        return self.plan.node_up_eventually(node, rnd)

    def link_up(self, a: str, b: str, rnd: int) -> bool:
        return self.plan.link_up(a, b, rnd)

    # -- per-message draws ----------------------------------------------
    def data_fate(self, src: str, dst: str) -> Tuple[bool, int, bool]:
        """Fate of one data message: ``(dropped, extra_delay, duplicated)``.

        Exactly three draws are consumed per call regardless of outcome,
        so decisions on later messages never depend on how earlier fates
        branched — the property that keeps shrunk runs aligned.
        """
        faults = self.plan.link_faults(src, dst)
        stream = self._stream(src, dst)
        u_drop = float(stream.random())
        u_delay = float(stream.random())
        u_dup = float(stream.random())
        if u_drop < faults.drop:
            return True, 0, False
        delay = 0
        if u_delay < faults.delay:
            delay = 1 + int(u_delay / faults.delay * faults.max_delay) \
                if faults.delay > 0 else 0
            delay = min(delay, faults.max_delay)
        return False, delay, u_dup < faults.duplicate

    def ack_dropped(self, src: str, dst: str) -> bool:
        """Whether the ack for a delivered message is lost on the way back."""
        faults = self.plan.link_faults(src, dst)
        return float(self._stream(dst, src).random()) < faults.ack_drop

    def jitter(self, src: str, dst: str, attempt: int) -> int:
        """Deterministic backoff jitter: uniform in ``[0, 2^(attempt-1))``."""
        window = max(1, 2 ** (attempt - 1))
        return int(self._stream(src, dst).integers(0, window))
