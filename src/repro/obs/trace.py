"""Hierarchical spans: the one way to time a region of execution.

A **span** is one timed, named region of execution with a deterministic
id, an optional parent, and free-form tags.  Spans nest: the epoch
pipeline opens ``runtime.epoch``, each phase opens a child
(``runtime.phase.solve``...), every LP solve inside the phase opens a
grandchild (``lp.solve``), and so on down to contention analysis, 2PA-D
per-flow gossip and checkpoint writes.  The finished trace is a tree
encoded as flat JSONL records (one object per span, ``parent`` linking
upward), so campaigns can answer "where does epoch time go, per phase,
per LP solve, per gossip exchange" from a single file.

With a registry active, closing any region (traced or not) adds its
wall and CPU time to ``registry.timer(name)``; every region exposes
``duration_s`` once closed.

Design rules, matching :mod:`repro.obs.registry`:

* **Deterministic ids.**  Span ids are sequence numbers assigned in
  *open* order (``"s1"``, ``"s2"``, ...), not random — two runs of the
  same seeded workload produce identical id assignments, so traces can
  be diffed across PRs and a reproducer can cite a span id.
* **Zero-cost when off.**  With no tracer and no registry active,
  :func:`span` returns a shared :class:`NullSpan` after two ``is None``
  checks and allocates nothing; observation must never change
  allocation results (the CI telemetry-smoke job asserts disabled runs
  are bitwise identical).
* **Bounded.**  A tracer keeps at most ``max_spans`` finished spans;
  overflow increments an explicit ``dropped`` counter (surfaced as
  ``obs.trace.dropped``) rather than silently growing or silently
  truncating.

Usage::

    from repro.obs import trace

    with trace.using_tracer() as tracer:
        with trace.span("runtime.epoch", epoch=0) as sp:
            with trace.span("runtime.phase.solve"):
                ...
            sp.tag(status="converged")
    records = tracer.to_records()          # JSONL-ready span dicts
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from . import registry as _registry

__all__ = [
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "SpanTracer",
    "get_tracer",
    "set_tracer",
    "using_tracer",
    "span",
]


class Span:
    """One open (then finished) traced region.

    Created by :func:`span` — not directly.  Used as a context manager;
    :meth:`tag` attaches/overwrites tags while open (tags recorded at
    close time are what the trace keeps).
    """

    __slots__ = ("span_id", "parent_id", "name", "tags", "start_s",
                 "end_s", "_tracer", "_timer")

    def __init__(self, tracer: "SpanTracer", span_id: str,
                 parent_id: Optional[str], name: str,
                 tags: Dict[str, object], start_s: float,
                 timer: Optional[_registry.PhaseTimer]) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.tags = tags
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self._timer = timer
        if timer is not None:
            timer.__enter__()

    def tag(self, **tags: object) -> "Span":
        """Attach (or overwrite) tags; chainable."""
        self.tags.update(tags)
        return self

    @property
    def duration_s(self) -> float:
        end = self.end_s if self.end_s is not None else self.start_s
        return end - self.start_s

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.tags.setdefault("error", exc_type.__name__)
        if self._timer is not None:
            self._timer.__exit__()
        self._tracer._finish(self)
        return False

    def to_record(self) -> Dict[str, object]:
        return {
            "record": "span",
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "tags": dict(self.tags),
        }


class TimedRegion:
    """A region opened with a registry and no tracer: it feeds
    ``registry.timer(name)`` and keeps only its duration."""

    __slots__ = ("_timer", "_start", "duration_s")

    def __init__(self, timer: _registry.PhaseTimer) -> None:
        self._timer = timer
        timer.__enter__()
        self._start = timer._wall_clock()
        self.duration_s = 0.0

    def tag(self, **tags: object) -> "TimedRegion":
        return self

    def __enter__(self) -> "TimedRegion":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.duration_s = self._timer._wall_clock() - self._start
        self._timer.__exit__()
        return False


class NullSpan:
    """Shared do-nothing span for the disabled path (zero-cost)."""

    __slots__ = ()

    duration_s = 0.0

    def tag(self, **tags: object) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = NullSpan()


class SpanTracer:
    """Collects a bounded tree of spans with deterministic ids.

    The clock is injectable for deterministic tests; ids depend only on
    span-open order, never on the clock.  Not thread-safe by design —
    each :class:`~repro.perf.parallel.ParallelSweep` worker process gets
    its own tracer (like its own metrics registry).
    """

    def __init__(
        self,
        max_spans: int = 100_000,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.max_spans = int(max_spans)
        self._clock = clock
        self._origin = clock()
        self._next = 0
        self._stack: List[Span] = []
        self.finished: List[Span] = []
        self.dropped = 0
        self.opened = 0

    # ------------------------------------------------------------------
    def _open(self, name: str, tags: Dict[str, object],
              timer: Optional[_registry.PhaseTimer]) -> Span:
        """Hot path: ``tags`` is owned by the span, not copied."""
        self._next += 1
        self.opened += 1
        stack = self._stack
        parent = stack[-1].span_id if stack else None
        sp = Span(
            self, f"s{self._next}", parent, name, tags,
            self._clock() - self._origin, timer,
        )
        stack.append(sp)
        return sp

    def _finish(self, sp: Span) -> None:
        sp.end_s = self._clock() - self._origin
        # Spans close innermost-first under context-manager discipline;
        # tolerate (and repair) a missed exit by popping through it.
        while self._stack:
            top = self._stack.pop()
            if top is sp:
                break
        if len(self.finished) < self.max_spans:
            self.finished.append(sp)
        else:
            self.dropped += 1

    # ------------------------------------------------------------------
    def to_records(self) -> List[Dict[str, object]]:
        """JSONL-ready records of every finished span, in close order."""
        return [sp.to_record() for sp in self.finished]

    def stats(self) -> Dict[str, int]:
        return {
            "opened": self.opened,
            "finished": len(self.finished),
            "dropped": self.dropped,
            "open": len(self._stack),
        }

    def clear(self) -> None:
        self.finished.clear()
        self._stack.clear()
        self.dropped = 0
        self.opened = 0
        self._next = 0


# ----------------------------------------------------------------------
# Module-level active tracer + zero-overhead-when-off helpers
# ----------------------------------------------------------------------

_active: Optional[SpanTracer] = None


def get_tracer() -> Optional[SpanTracer]:
    """The currently active tracer, or ``None`` when tracing is off."""
    return _active


def set_tracer(tracer: Optional[SpanTracer]) -> Optional[SpanTracer]:
    """Install ``tracer`` as the active one (``None`` disables tracing)."""
    global _active
    _active = tracer
    return tracer


class using_tracer:
    """Context manager: activate a tracer, restore the previous on exit.

    >>> with using_tracer() as tracer:
    ...     with span("demo"):
    ...         pass
    >>> tracer.finished[0].name
    'demo'
    """

    def __init__(self, tracer: Optional[SpanTracer] = None) -> None:
        self.tracer = tracer if tracer is not None else SpanTracer()
        self._previous: Optional[SpanTracer] = None

    def __enter__(self) -> SpanTracer:
        self._previous = get_tracer()
        set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc: object) -> bool:
        set_tracer(self._previous)
        return False


def span(name: str, **tags: object):
    """Open region ``name``: a :class:`Span` with a tracer active, a
    :class:`TimedRegion` with only a registry, else :data:`NULL_SPAN`."""
    tracer = _active
    registry = _registry._active
    if tracer is None:
        if registry is None:
            return NULL_SPAN
        return TimedRegion(registry.timer(name))
    timer = None if registry is None else registry.timer(name)
    return tracer._open(name, tags, timer)
