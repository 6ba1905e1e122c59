"""Discrete-event simulation kernel.

A minimal, deterministic event-heap simulator (the paper used ns-2; no
event-simulation package is available offline, so this is built from
scratch).  Time is a float in **microseconds**.  Events scheduled for the
same instant fire in scheduling order (a monotonically increasing sequence
number breaks ties), which keeps runs bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List

from ..obs.registry import get_registry
from ..obs.trace import span

Callback = Callable[[], None]


@dataclass(order=True)
class _HeapEntry:
    time: float
    seq: int
    event: "Event" = field(compare=False)


class Event:
    """A handle to a scheduled callback; supports cancellation."""

    __slots__ = ("callback", "time", "cancelled")

    def __init__(self, callback: Callback, time: float) -> None:
        self.callback = callback
        self.time = time
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        return not self.cancelled


class Simulator:
    """The event loop.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(10.0, lambda: fired.append(sim.now))
    >>> sim.run_until(100.0)
    >>> fired
    [10.0]
    """

    def __init__(self) -> None:
        self._heap: List[_HeapEntry] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._running = False
        self._peak_queue_depth = 0

    @property
    def now(self) -> float:
        """Current simulation time (microseconds)."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def peak_queue_depth(self) -> int:
        """High-water mark of the event heap (cancelled entries included)."""
        return self._peak_queue_depth

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callback) -> Event:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callback) -> Event:
        """Schedule ``callback`` at absolute time ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time} before now ({self._now})"
            )
        event = Event(callback, time)
        heapq.heappush(self._heap, _HeapEntry(time, next(self._seq), event))
        if len(self._heap) > self._peak_queue_depth:
            self._peak_queue_depth = len(self._heap)
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False when none remain."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry.event.cancelled:
                continue
            self._now = entry.time
            self._events_processed += 1
            entry.event.callback()
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Process events up to and including ``end_time``.

        The clock is left at ``end_time`` even if the heap empties early,
        so rate computations over the full horizon stay correct.
        """
        if end_time < self._now:
            raise ValueError(
                f"end_time {end_time} is before now ({self._now})"
            )
        start_events = self._events_processed
        self._running = True
        with span("sim.run_until") as loop_span:
            while self._heap and self._running:
                entry = self._heap[0]
                if entry.time > end_time:
                    break
                heapq.heappop(self._heap)
                if entry.event.cancelled:
                    continue
                self._now = entry.time
                self._events_processed += 1
                entry.event.callback()
        self._now = max(self._now, end_time)
        self._running = False
        self._record_loop_metrics(start_events, loop_span.duration_s)

    def run(self) -> None:
        """Drain every event in the heap (careful with self-rescheduling
        processes such as traffic sources — prefer :meth:`run_until`)."""
        start_events = self._events_processed
        with span("sim.run") as loop_span:
            while self.step():
                pass
        self._record_loop_metrics(start_events, loop_span.duration_s)

    def _record_loop_metrics(self, start_events: int, elapsed: float) -> None:
        """Feed the active registry after an event-loop drain (if any).

        Deliberately outside the per-event loop: the drain's span (its
        phase timer included) costs one region per drain, keeping
        instrumentation overhead far below the 2% budget.
        """
        registry = get_registry()
        if registry is None:
            return
        processed = self._events_processed - start_events
        registry.counter("sim.events").inc(processed)
        registry.gauge("sim.queue_depth").set(len(self._heap))
        registry.gauge("sim.peak_queue_depth").set(self._peak_queue_depth)
        if elapsed > 0:
            registry.gauge("sim.events_per_sec").set(processed / elapsed)

    def stop(self) -> None:
        """Stop a ``run_until`` loop after the current event returns."""
        self._running = False

    def pending_events(self) -> int:
        """Number of non-cancelled events still queued."""
        return sum(1 for e in self._heap if not e.event.cancelled)
