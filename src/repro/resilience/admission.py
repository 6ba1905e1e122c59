"""Admission control: gate flow arrivals on the basic-share floor.

The paper guarantees (Sec. II-D) that the **basic shares**
``r̂_i = w_i B / Σ_j w_j v_j`` of a contending flow group are jointly
feasible — every maximal clique satisfies Eq. (6) when each member flow
transmits exactly its basic share.  That guarantee is what admission
control protects: a new flow is **admitted** only if, with the candidate
included, the global basic shares of *all* active flows (existing and
new) still satisfy every clique-capacity constraint.  Then every
existing flow provably keeps at least its floor whatever the allocator
later optimizes, because the floor allocation itself remains feasible.

A flow failing the predicate is **rejected**, or **queued** for retry at
later epochs when the controller keeps a waiting list (departures and
healed links free capacity).  Every decision carries a machine-readable
``reason``; the full decision log lands in the run artifact so a
rejected flow is never silently dropped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Deque, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence,
    Tuple,
)

from ..core.contention import ContentionAnalysis
from ..core.fairness_defs import basic_shares
from ..core.model import Flow, SubflowId
from ..obs.registry import incr, set_gauge

__all__ = [
    "ADMIT",
    "REJECT",
    "QUEUE",
    "AdmissionDecision",
    "AdmissionController",
    "basic_share_feasible",
    "floors_certified",
]

ADMIT, REJECT, QUEUE = "admit", "reject", "queue"

#: Machine-readable reason codes (the ``reason`` field of a decision).
REASON_OK = "ok"
REASON_FLOOR = "basic-floor-infeasible"
REASON_UNROUTABLE = "unroutable"
REASON_ENDPOINT_DOWN = "endpoint-down"
REASON_QUEUE_FULL = "queue-full"
REASON_QUEUE_AGED = "queue-aged"
REASON_OVERLOAD = "overload-shed"

#: Same tolerance the Eq. (6) checker applies, so admission never
#: rejects a candidate whose floor allocation the checker would accept.
_FLOOR_TOL = 1e-9


def basic_share_feasible(
    cliques: Iterable[FrozenSet[SubflowId]],
    flows: Sequence[Flow],
    capacity: float,
) -> bool:
    """Eq. (6) with every flow of the trial set T = ``flows`` at its
    Sec. II-D floor, over every non-empty ``C ∩ T`` of ``cliques``.

    ``cliques`` are the maximal cliques of a contention graph containing
    T's (or just those touching T).  A clique's floor load only grows as
    members are added, so checking every ``C ∩ T`` is checking T's own
    maximal cliques; every contention edge within T lies in some
    ``C ∩ T``, so the same sets yield T's contending groups.  Each
    group's floors are summed in ``flows`` order.
    """
    ids = {f.flow_id for f in flows}
    parent = {fid: fid for fid in ids}

    def find(fid: str) -> str:
        while parent[fid] != fid:
            parent[fid] = parent[parent[fid]]
            fid = parent[fid]
        return fid

    restricted: List[List[str]] = []
    for clique in cliques:
        members = [sid.flow for sid in clique if sid.flow in ids]
        if not members:
            continue
        restricted.append(members)
        root = find(members[0])
        for fid in members[1:]:
            parent[find(fid)] = root
    groups: Dict[str, List[Flow]] = {}
    for f in flows:
        groups.setdefault(find(f.flow_id), []).append(f)
    floors: Dict[str, float] = {}
    for group in groups.values():
        floors.update(basic_shares(group, capacity))
    return all(
        sum(floors[fid] for fid in members) <= capacity + _FLOOR_TOL
        for members in restricted
    )


def floors_certified(universe: ContentionAnalysis) -> bool:
    """Whether :func:`basic_share_feasible` holds for *every* subset of
    ``universe``'s flows, so admission needs no probe (DESIGN §11.2):
    ``index.certified`` (``n_{k,i} <= v_i`` on every clique, as on
    shortcut-free paths) and a float error bound, ``B (S + 1) 2^-52``
    for ``S`` subflow vertices, within the predicate's tolerance.
    """
    index = universe.index
    drift = universe.scenario.capacity * (len(index.vertices) + 1) * 2.0**-52
    return index.certified and drift <= _FLOOR_TOL


#: :meth:`AdmissionController.mark`: decision count, queue, timestamps.
AdmissionMark = Tuple[int, Tuple[str, ...], Dict[str, int]]


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission verdict, machine-readable and artifact-ready."""

    flow_id: str
    epoch: int
    action: str  # admit | reject | queue
    reason: str
    details: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "flow": self.flow_id,
            "epoch": self.epoch,
            "action": self.action,
            "reason": self.reason,
            "details": self.details,
        }


@dataclass
class AdmissionController:
    """Owns the waiting queue and the decision log of one runtime.

    The controller is deliberately ignorant of topology: the runtime
    hands it a verdict ``reason`` (computed by probing routing and the
    admission predicate on the current epoch's topology) and the
    controller turns it into an admit/reject/queue decision, maintains
    FIFO retry order, and counts ``admission.{admit,reject,queue}``.

    ``queue_rejected=False`` turns every non-admit into a hard reject —
    the mode for callers that have no later epoch to retry in.

    The queue is doubly bounded: ``max_queue`` caps its depth (overflow
    becomes a ``REASON_QUEUE_FULL`` reject) and ``max_queue_age``, when
    set, caps how many epochs a flow may wait before :meth:`evict_aged`
    turns it into a ``REASON_QUEUE_AGED`` reject — the overload ladder's
    first shedding rung.  Both bounds survive checkpoints: the queue and
    its timestamps are in :meth:`snapshot`, the limits in the runtime
    config.
    """

    queue_rejected: bool = True
    max_queue: int = 32
    max_queue_age: Optional[int] = None
    waiting: Deque[str] = field(default_factory=deque)
    decisions: List[AdmissionDecision] = field(default_factory=list)
    #: Epoch each waiting flow was queued at — the basis of the
    #: queue-age gauges and checkpointed alongside the queue itself.
    queued_epoch: Dict[str, int] = field(default_factory=dict)

    def decide(self, flow_id: str, epoch: int, reason: str,
               details: str = "") -> AdmissionDecision:
        """Record the verdict for one candidate and return the decision."""
        if reason == REASON_OK:
            decision = AdmissionDecision(flow_id, epoch, ADMIT,
                                         REASON_OK, details)
        elif self.queue_rejected and flow_id not in self.waiting:
            if len(self.waiting) < self.max_queue:
                self.waiting.append(flow_id)
                self.queued_epoch[flow_id] = epoch
                decision = AdmissionDecision(flow_id, epoch, QUEUE,
                                             reason, details)
            else:
                decision = AdmissionDecision(
                    flow_id, epoch, REJECT, REASON_QUEUE_FULL,
                    f"queue full ({self.max_queue}); original reason: "
                    f"{reason}",
                )
        else:
            decision = AdmissionDecision(flow_id, epoch, REJECT,
                                         reason, details)
        self.decisions.append(decision)
        incr(f"admission.{decision.action}")
        return decision

    def readmit(self, flow_id: str, epoch: int,
                details: str = "readmitted from queue") -> AdmissionDecision:
        """Admit a previously queued flow whose predicate now passes."""
        self.drop_waiting(flow_id)
        decision = AdmissionDecision(flow_id, epoch, ADMIT, REASON_OK,
                                     details)
        self.decisions.append(decision)
        incr(f"admission.{ADMIT}")
        return decision

    def evict_aged(self, epoch: int,
                   max_age: Optional[int] = None) -> List[AdmissionDecision]:
        """Reject every waiting flow older than the age bound.

        ``max_age`` overrides :attr:`max_queue_age` (the overload ladder
        tightens the bound under pressure); with neither set this is a
        no-op, which keeps default runs byte-identical.  A flow queued
        at epoch ``e`` has age ``epoch - e``; eviction fires strictly
        above the bound, so ``max_age=0`` allows exactly one retry
        epoch.  Evictions are logged as ``REASON_QUEUE_AGED`` rejects
        and counted under ``admission.evicted``.
        """
        limit = max_age if max_age is not None else self.max_queue_age
        if limit is None:
            return []
        evicted: List[AdmissionDecision] = []
        for fid in list(self.waiting):
            age = max(0, epoch - self.queued_epoch.get(fid, epoch))
            if age > limit:
                self.waiting.remove(fid)
                self.queued_epoch.pop(fid, None)
                decision = AdmissionDecision(
                    fid, epoch, REJECT, REASON_QUEUE_AGED,
                    f"waited {age} epochs (limit {limit})",
                )
                self.decisions.append(decision)
                incr(f"admission.{REJECT}")
                incr("admission.evicted")
                evicted.append(decision)
        return evicted

    def drop_waiting(self, flow_id: str) -> None:
        """Forget a queued flow (it departed before ever being admitted)."""
        try:
            self.waiting.remove(flow_id)
        except ValueError:
            pass
        self.queued_epoch.pop(flow_id, None)

    def observe_queue(self, epoch: int) -> None:
        """Publish queue-state gauges as of ``epoch``.

        ``admission.queue.depth`` is the waiting count;
        ``admission.queue.age_max`` / ``age_mean`` are epochs spent
        waiting (0 for a flow queued this epoch).  Flows restored from a
        pre-gauge checkpoint that lack a queue timestamp count as age 0
        rather than inventing one.
        """
        set_gauge("admission.queue.depth", len(self.waiting))
        ages = [
            max(0, epoch - self.queued_epoch.get(fid, epoch))
            for fid in self.waiting
        ]
        set_gauge("admission.queue.age_max", max(ages) if ages else 0)
        set_gauge(
            "admission.queue.age_mean",
            (sum(ages) / len(ages)) if ages else 0.0,
        )

    def mark(self) -> AdmissionMark:
        """A rollback point for one epoch, without serializing the log.

        Only the decision count is kept of the log — an epoch only
        appends to it — plus copies of the bounded queue and its
        timestamps, so taking a mark costs the same at every epoch.
        :meth:`rollback` returns the controller to it exactly.
        """
        return (len(self.decisions), tuple(self.waiting),
                dict(self.queued_epoch))

    def rollback(self, mark: AdmissionMark) -> None:
        """Drop every decision and queue change made since ``mark``."""
        count, waiting, queued_epoch = mark
        del self.decisions[count:]
        self.waiting = deque(waiting)
        self.queued_epoch = dict(queued_epoch)

    def snapshot(self) -> Dict[str, object]:
        """Serializable controller state for checkpoints."""
        return {
            "waiting": list(self.waiting),
            "queued_epoch": {
                fid: self.queued_epoch[fid]
                for fid in sorted(self.queued_epoch)
            },
            "decisions": [d.to_dict() for d in self.decisions],
        }

    def restore(self, doc: Mapping[str, object]) -> None:
        self.waiting = deque(str(f) for f in doc.get("waiting", []))
        self.queued_epoch = {
            str(f): int(e)
            for f, e in doc.get("queued_epoch", {}).items()
        }
        self.decisions = [
            AdmissionDecision(
                flow_id=str(d["flow"]),
                epoch=int(d["epoch"]),
                action=str(d["action"]),
                reason=str(d["reason"]),
                details=str(d.get("details", "")),
            )
            for d in doc.get("decisions", [])
        ]
