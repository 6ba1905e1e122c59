"""Overload protection: deadline-bounded epochs and graduated shedding.

A production allocator must stay *live* and *Eq. (6)-safe* when offered
load exceeds what it can solve in time.  This layer wraps an
:class:`~repro.resilience.runtime.AllocatorRuntime` with two mechanisms:

**Deadline-bounded epochs.**  :class:`EpochDeadline` is a monotonic-clock
watchdog armed at the start of every epoch and consulted through the
runtime's ``watchdog`` seam (every phase boundary plus every per-flow
admission probe).  On budget breach it raises
:class:`EpochDeadlineExceeded`; nothing has been committed at that point
(the ``advance`` contract), so the wrapper rolls back the admission log,
commits the **last validated allocation** unchanged via
``commit_carryover`` (status ``deadline-breach``), defers the epoch's
events to the next epoch, marks every active flow stale, and records the
breach — ``runtime.epoch.deadline_breach`` plus a
``runtime.epoch.staleness_age`` observation per stale flow, with a
paired entry in :attr:`OverloadRuntime.staleness_records`.  Every breach
has its record; the fuzzer asserts exactly that invariant.

**Graduated shedding ladder.**  Consecutive breaches escalate through
rungs, each trading work for liveness while Sec. II-D floors stay
guaranteed for whatever remains admitted:

========  ==============  ==================================================
rung      name            behaviour
========  ==============  ==================================================
0         ``normal``      full pipeline
1         ``queue-shed``  aggressive age eviction of the bounded admission
                          queue (``shed_queue_age`` overrides the config
                          bound)
2         ``freeze``      admission frozen: no feasibility probes, arrivals
                          queue unprobed (``REASON_OVERLOAD``); re-solves
                          still run, clean components served from the memo
3         ``clamp``       LP skipped entirely: active flows clamped to
                          their Sec. II-D basic shares through the
                          ``degrade.py`` governor (status
                          ``overload-clamp``)
========  ==============  ==================================================

``recover_after`` consecutive clean epochs step the ladder down one rung
at a time.  With no deadline configured and no breach, the wrapper is a
pass-through: runtime results are byte-identical to an unwrapped run
(the ladder sits at ``normal`` and every flag defaults off).

The wrapper's own state (rung, streaks, stale ages, deferred events) is
campaign-level and deliberately not checkpointed — a restored runtime
starts at rung ``normal`` and re-earns its ladder position.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..obs.events import emit_event
from ..obs.registry import incr, observe, set_gauge
from ..traffic.openloop import ArrivalTrace
from .epochs import ChurnEvent
from .faults import ArrivalBurst
from .runtime import AllocatorRuntime, EpochRecord

__all__ = [
    "RUNG_NAMES",
    "EpochDeadline",
    "EpochDeadlineExceeded",
    "OverloadConfig",
    "OverloadRuntime",
]

#: Shedding-ladder rungs, mild to drastic.
RUNG_NORMAL, RUNG_QUEUE, RUNG_FREEZE, RUNG_CLAMP = 0, 1, 2, 3
RUNG_NAMES = ("normal", "queue-shed", "freeze", "clamp")


class EpochDeadlineExceeded(Exception):
    """An epoch exceeded its solve budget at watchdog point ``point``."""

    def __init__(self, point: str, budget_ms: float,
                 elapsed_ms: float) -> None:
        super().__init__(
            f"epoch deadline exceeded at {point!r}: "
            f"{elapsed_ms:.3f} ms > {budget_ms:.3f} ms budget"
        )
        self.point = point
        self.budget_ms = budget_ms
        self.elapsed_ms = elapsed_ms


class EpochDeadline:
    """Monotonic-clock watchdog for one epoch's solve budget.

    ``clock`` is injectable (default ``time.monotonic``) so tests drive
    breaches deterministically with a fake clock.  ``check`` is the
    callable wired into ``AllocatorRuntime.watchdog``; it raises
    :class:`EpochDeadlineExceeded` once elapsed time exceeds the budget.
    A ``budget_ms`` of ``None`` never fires.
    """

    def __init__(self, budget_ms: Optional[float],
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.budget_ms = budget_ms
        self.clock = clock if clock is not None else time.monotonic
        self._t0: Optional[float] = None

    def arm(self) -> None:
        self._t0 = self.clock()

    def elapsed_ms(self) -> float:
        if self._t0 is None:
            return 0.0
        return (self.clock() - self._t0) * 1e3

    def check(self, point: str) -> None:
        if self.budget_ms is None or self._t0 is None:
            return
        elapsed = self.elapsed_ms()
        if elapsed > self.budget_ms:
            raise EpochDeadlineExceeded(point, self.budget_ms, elapsed)


@dataclass(frozen=True)
class OverloadConfig:
    """Knobs of the overload-protection wrapper.

    ``deadline_ms=None`` disables the watchdog (the ladder can then only
    move via injected stalls).  ``freeze_after``/``clamp_after`` are
    consecutive-breach thresholds for rungs 2 and 3 (one breach always
    reaches rung 1); ``recover_after`` consecutive clean epochs step
    back down one rung.  ``shed_queue_age`` is the tightened queue-age
    bound rungs >= 1 apply.  ``default_duration`` is the service time
    assumed for admitted flows whose arrival carried none.
    """

    deadline_ms: Optional[float] = None
    shed_queue_age: int = 2
    freeze_after: int = 2
    clamp_after: int = 3
    recover_after: int = 2
    default_duration: int = 3

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and self.deadline_ms < 0:
            raise ValueError("deadline_ms must be non-negative")
        if not 1 <= self.freeze_after <= self.clamp_after:
            raise ValueError(
                "need 1 <= freeze_after <= clamp_after for a monotone ladder"
            )
        if self.recover_after < 1:
            raise ValueError("recover_after must be positive")


class OverloadRuntime:
    """Deadline-watchdogged, load-shedding wrapper around one runtime.

    Drive it with :meth:`advance` (one epoch of churn events) or
    :meth:`run_trace` (a whole open-loop :class:`ArrivalTrace`).  The
    wrapper owns the watchdog, the shedding ladder, per-flow staleness
    ages, and an ``overload_journal`` of per-epoch ladder state; the
    wrapped runtime's :class:`EpochRecord` schema is untouched, which is
    what keeps unstressed runs bitwise identical.

    ``force_breach_epochs`` lists epoch indices that run with an
    already-expired watchdog — the ``--inject-fault`` proof that the
    breach machinery bites: the very first watchdog tick of such an
    epoch raises, and the breach must surface in the records.
    """

    def __init__(
        self,
        runtime: AllocatorRuntime,
        config: Optional[OverloadConfig] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.runtime = runtime
        self.config = config if config is not None else OverloadConfig()
        self.clock = clock
        self.deadline = EpochDeadline(self.config.deadline_ms, clock=clock)
        self.rung = RUNG_NORMAL
        self.breach_streak = 0
        self.clean_streak = 0
        self.stale_age: Dict[str, int] = {}
        self.deferred: List[ChurnEvent] = []
        self.staleness_records: List[Dict[str, object]] = []
        self.overload_journal: List[Dict[str, object]] = []
        self.epoch_latency_ms: List[float] = []
        self.max_queue_depth = 0
        self.force_breach_epochs: Set[int] = set()
        self._service_until: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def advance(self, events: Sequence[ChurnEvent] = ()) -> EpochRecord:
        """One watchdogged epoch; always commits (breach or not)."""
        events = list(self.deferred) + list(events)
        self.deferred = []
        epoch = self.runtime.epoch + 1
        rung = self.rung
        mark = self.runtime.admission.mark()
        if rung >= RUNG_QUEUE:
            self.runtime.admission.evict_aged(
                epoch, max_age=self.config.shed_queue_age
            )
        if epoch in self.force_breach_epochs:
            # Injected stall: arm an already-expired watchdog so the
            # breach fires organically at the epoch's first tick.
            stall = EpochDeadline(-1.0, clock=self.clock)
            stall.arm()
            self.runtime.watchdog = stall.check
        else:
            self.runtime.watchdog = self.deadline.check
        self.deadline.arm()
        t0 = time.perf_counter()
        breached = False
        breach_point = ""
        try:
            record = self.runtime.advance(
                events,
                freeze_admission=rung >= RUNG_FREEZE,
                clamp_basic=rung >= RUNG_CLAMP,
            )
        except EpochDeadlineExceeded as exc:
            breached = True
            breach_point = exc.point
            # Nothing was committed; drop the aborted epoch's admission
            # decisions so the log matches the committed history.
            self.runtime.admission.rollback(mark)
            record = self._commit_breach(epoch, events, exc)
        finally:
            self.runtime.watchdog = None
        self.epoch_latency_ms.append((time.perf_counter() - t0) * 1e3)
        self._after_epoch(record, breached, rung, breach_point)
        return record

    def _commit_breach(self, epoch: int, events: List[ChurnEvent],
                       exc: EpochDeadlineExceeded) -> EpochRecord:
        rt = self.runtime
        # The epoch's events were never applied — they retry next epoch,
        # so churn is delayed, never lost.
        self.deferred = list(events)
        ages: List[int] = []
        for fid in sorted(rt.active):
            self.stale_age[fid] = self.stale_age.get(fid, 0) + 1
            ages.append(self.stale_age[fid])
            observe("runtime.epoch.staleness_age", self.stale_age[fid])
        incr("runtime.epoch.deadline_breach")
        staleness = {
            "epoch": epoch,
            "point": exc.point,
            "budget_ms": exc.budget_ms,
            "stale_flows": sorted(rt.active),
            "age_max": max(ages) if ages else 0,
            "age_mean": (sum(ages) / len(ages)) if ages else 0.0,
            "deferred_events": len(self.deferred),
        }
        self.staleness_records.append(staleness)
        emit_event(
            "epoch.deadline_breach",
            epoch=epoch,
            point=exc.point,
            stale_flows=len(ages),
            age_max=staleness["age_max"],
            deferred_events=len(self.deferred),
        )
        record = EpochRecord(
            epoch=epoch,
            events=[],
            active=sorted(rt.active),
            shares={fid: rt.shares[fid] for fid in sorted(rt.shares)},
            status="deadline-breach",
            queued=list(rt.admission.waiting),
        )
        rt.commit_carryover(record)
        return record

    def _after_epoch(self, record: EpochRecord, breached: bool,
                     rung_used: int, breach_point: str) -> None:
        if breached:
            self.breach_streak += 1
            self.clean_streak = 0
            target = RUNG_QUEUE
            if self.breach_streak >= self.config.freeze_after:
                target = RUNG_FREEZE
            if self.breach_streak >= self.config.clamp_after:
                target = RUNG_CLAMP
            if target > self.rung:
                self.rung = target
                incr("runtime.overload.escalations")
                emit_event("overload.rung", epoch=record.epoch,
                           rung=RUNG_NAMES[self.rung], direction="up")
        else:
            # Any committed non-breach epoch re-validated the allocation
            # (clamp included), so active flows are fresh again.
            for fid in record.active:
                self.stale_age[fid] = 0
            for fid in [f for f in self.stale_age
                        if f not in self.runtime.active]:
                del self.stale_age[fid]
            self.breach_streak = 0
            self.clean_streak += 1
            if (self.rung > RUNG_NORMAL
                    and self.clean_streak >= self.config.recover_after):
                self.rung -= 1
                self.clean_streak = 0
                incr("runtime.overload.deescalations")
                emit_event("overload.rung", epoch=record.epoch,
                           rung=RUNG_NAMES[self.rung], direction="down")
        depth = len(self.runtime.admission.waiting)
        self.max_queue_depth = max(self.max_queue_depth, depth)
        set_gauge("runtime.overload.rung", self.rung)
        self.overload_journal.append({
            "epoch": record.epoch,
            "rung": RUNG_NAMES[rung_used],
            "breached": breached,
            "breach_point": breach_point,
            "status": record.status,
            "queue_depth": depth,
            "stale_flows": sum(1 for a in self.stale_age.values() if a > 0),
        })

    # ------------------------------------------------------------------
    # Open-loop trace driver
    # ------------------------------------------------------------------
    def run_trace(
        self,
        trace: ArrivalTrace,
        bursts: Sequence[ArrivalBurst] = (),
    ) -> List[EpochRecord]:
        """Replay an open-loop trace (plus optional adversarial bursts).

        Per epoch: arrivals become ``flow-up`` events, flows whose
        heavy-tailed service time has elapsed become ``flow-down``
        events, and any :class:`ArrivalBurst` scheduled here offers the
        first ``count`` flows of the sorted universe as extras.  Service
        clocks start at *admission* (a queued flow serves its full time
        once it finally gets in); re-offers of already-active flows are
        deduplicated by the runtime's APPLY phase.
        """
        universe = sorted(f.flow_id for f in self.runtime.scenario.flows)
        pending_duration: Dict[str, int] = {}
        burst_by_epoch: Dict[int, List[ArrivalBurst]] = {}
        for burst in bursts:
            burst_by_epoch.setdefault(burst.epoch, []).append(burst)
        records: List[EpochRecord] = []
        for epoch in range(self.runtime.epoch + 1, trace.epochs):
            events: List[ChurnEvent] = []
            for arrival in trace.arrivals_at(epoch):
                pending_duration[arrival.flow] = arrival.duration
                events.append(ChurnEvent(epoch, "flow-up",
                                         flow=arrival.flow))
            for burst in burst_by_epoch.get(epoch, ()):
                for fid in universe[: burst.count]:
                    pending_duration.setdefault(fid, burst.duration)
                    events.append(ChurnEvent(epoch, "flow-up", flow=fid))
            for fid in sorted(self._service_until):
                if (self._service_until[fid] <= epoch
                        and fid in self.runtime.active):
                    events.append(ChurnEvent(epoch, "flow-down", flow=fid))
            record = self.advance(events)
            rt = self.runtime
            for fid in [f for f in self._service_until
                        if f not in rt.active]:
                del self._service_until[fid]
            for fid in rt.active:
                if fid not in self._service_until:
                    start = rt.admitted_epoch.get(fid, record.epoch)
                    duration = pending_duration.pop(
                        fid, self.config.default_duration
                    )
                    self._service_until[fid] = start + max(1, duration)
            records.append(record)
        return records

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Summary of the run so far (campaign/bench reporting)."""
        from ..obs.registry import weighted_percentile

        ordered = sorted(self.epoch_latency_ms)
        breaches = sum(1 for row in self.overload_journal if row["breached"])
        return {
            "epochs": len(self.overload_journal),
            "breaches": breaches,
            "latency_p50_ms": (
                weighted_percentile(ordered, 50.0) if ordered else 0.0
            ),
            "latency_p99_ms": (
                weighted_percentile(ordered, 99.0) if ordered else 0.0
            ),
        }
