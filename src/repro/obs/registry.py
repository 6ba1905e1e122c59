"""Unified metrics registry: counters, gauges, histograms, phase timers.

The registry is the measurement substrate for the whole stack.  Hot paths
call the module-level helpers (:func:`incr`, :func:`observe`,
:func:`set_gauge`); when no registry is active these are no-ops whose
cost is a single ``is None`` check, so instrumented code pays essentially
nothing in the default configuration.  Phase timers have no helper of
their own: every timed region is a :func:`repro.obs.trace.span`, and
closing a span adds its time to ``registry.timer(name)``.

Activate a registry around a region of interest::

    from repro import obs

    with obs.using_registry() as reg:
        run_table2(duration=5.0)
    print(obs.render_profile(reg))

Phase timers accumulate wall-clock *and* CPU time and are reentrant: when
the same named timer is entered while already running (recursive or nested
spans), only the outermost enter/exit pair contributes elapsed time, while
``calls`` counts every entry.  Distinct timer names nest freely, so
``lp.solve`` samples show up inside a surrounding ``2pad.run`` phase
without double bookkeeping.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "PhaseTimer",
    "MetricsRegistry",
    "weighted_percentile",
    "get_registry",
    "set_registry",
    "using_registry",
    "incr",
    "observe",
    "set_gauge",
]


def weighted_percentile(ordered: List[float], p: float) -> float:
    """Hyndman–Fan type-7 percentile of an already-sorted sample.

    The rule (the default in R, NumPy, and spreadsheets): for sample
    size ``n`` the percentile ``p`` sits at fractional rank
    ``h = (n - 1) * p / 100``; the estimate linearly interpolates the
    two order statistics bracketing ``h``::

        x[floor(h)] + (h - floor(h)) * (x[floor(h) + 1] - x[floor(h)])

    Unlike nearest-rank, this is continuous in ``p`` and exact at small
    counts — ``p50`` of ``[1, 2]`` is 1.5, not 1 — which matters for
    short campaigns where an epoch-latency histogram may hold only a
    handful of samples.
    """
    if not ordered:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    n = len(ordered)
    if n == 1:
        return ordered[0]
    h = (n - 1) * (p / 100.0)
    lo = math.floor(h)
    frac = h - lo
    if lo + 1 >= n:
        return ordered[-1]
    return ordered[lo] + frac * (ordered[lo + 1] - ordered[lo])


class Counter:
    """A monotonically increasing count (events, pivots, messages...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins sample (queue depth, events/sec...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A value distribution with weighted-percentile summaries."""

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    def percentile(self, p: float) -> float:
        """Hyndman–Fan type-7 percentile, ``p`` in [0, 100].

        See :func:`weighted_percentile` for the interpolation rule.
        """
        if not self.values:
            raise ValueError(f"histogram {self.name!r} is empty")
        return weighted_percentile(sorted(self.values), p)

    def summary(self) -> Dict[str, float]:
        if not self.values:
            return {"count": 0}
        ordered = sorted(self.values)
        n = len(ordered)
        return {
            "count": n,
            "min": ordered[0],
            "max": ordered[-1],
            "mean": sum(ordered) / n,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class PhaseTimer:
    """Accumulated wall + CPU time for one named phase.

    Entered and exited by the spans of the same name (see
    :func:`repro.obs.trace.span`).  Reentrant same-name nesting counts
    elapsed time once (outermost pair only) while still counting every
    call.

    ``self_s`` is the wall time spent outside any other timer's region:
    a registry's timers share one depth stack (``frames``) of the time
    closed inside each open region, so their self times partition it.
    """

    __slots__ = ("name", "calls", "wall_s", "cpu_s", "self_s", "_depth",
                 "_wall_start", "_cpu_start", "_wall_clock", "_cpu_clock",
                 "_frames")

    def __init__(
        self,
        name: str,
        wall_clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.process_time,
        frames: Optional[List[float]] = None,
    ) -> None:
        self.name = name
        self.calls = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.self_s = 0.0
        self._depth = 0
        self._wall_start = 0.0
        self._cpu_start = 0.0
        self._wall_clock = wall_clock
        self._cpu_clock = cpu_clock
        self._frames = frames if frames is not None else []

    def __enter__(self) -> "PhaseTimer":
        self.calls += 1
        self._depth += 1
        if self._depth == 1:
            self._wall_start = self._wall_clock()
            self._cpu_start = self._cpu_clock()
            self._frames.append(0.0)
        return self

    def __exit__(self, *exc: object) -> bool:
        self._depth -= 1
        if self._depth == 0:
            elapsed = self._wall_clock() - self._wall_start
            self.wall_s += elapsed
            self.cpu_s += self._cpu_clock() - self._cpu_start
            frames = self._frames
            self.self_s += elapsed - frames.pop()
            if frames:
                frames[-1] += elapsed
        return False

    def add(self, wall_s: float, cpu_s: float = 0.0, calls: int = 1,
            self_s: Optional[float] = None) -> None:
        """Record an external sample (self time defaults to wall)."""
        self.calls += calls
        self.wall_s += wall_s
        self.cpu_s += cpu_s
        self.self_s += wall_s if self_s is None else float(self_s)

    def summary(self) -> Dict[str, float]:
        return {
            "calls": self.calls,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "self_s": self.self_s,
            "mean_ms": (self.wall_s / self.calls * 1e3) if self.calls else 0.0,
        }


class MetricsRegistry:
    """Holds every named metric created during a run.

    Metrics are created lazily on first access, so instrumentation sites
    never need registration boilerplate.  Clock functions are injectable
    for deterministic tests.
    """

    def __init__(
        self,
        wall_clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.process_time,
    ) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.timers: Dict[str, PhaseTimer] = {}
        self._frames: List[float] = []  # the timers' shared depth stack
        self._wall_clock = wall_clock
        self._cpu_clock = cpu_clock

    # -- lazy accessors -------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        return h

    def timer(self, name: str) -> PhaseTimer:
        t = self.timers.get(name)
        if t is None:
            t = self.timers[name] = PhaseTimer(
                name, self._wall_clock, self._cpu_clock, self._frames
            )
        return t

    # -- export ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A plain-dict view of every metric, ready for JSON export."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self.histograms.items())
            },
            "timers": {
                n: t.summary() for n, t in sorted(self.timers.items())
            },
        }

    def mergeable_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Like :meth:`snapshot`, but lossless: histograms keep their raw
        values and timers their (calls, wall_s, cpu_s) triples, so the
        result can be shipped across a process boundary and folded into
        another registry with :meth:`merge_snapshot`."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: list(h.values) for n, h in sorted(self.histograms.items())
            },
            "timers": {
                n: {"calls": t.calls, "wall_s": t.wall_s, "cpu_s": t.cpu_s,
                    "self_s": t.self_s}
                for n, t in sorted(self.timers.items())
            },
        }

    def merge_snapshot(self, snap: Dict[str, Dict[str, object]]) -> None:
        """Fold a :meth:`mergeable_snapshot` from another registry (e.g. a
        parallel-sweep worker) into this one: counters and timers add,
        gauges overwrite, histogram values append.  Histogram entries that
        are summary dicts (from :meth:`snapshot`) carry no raw values and
        are skipped rather than fabricated."""
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, values in snap.get("histograms", {}).items():
            if isinstance(values, dict):
                continue
            h = self.histogram(name)
            for v in values:
                h.observe(float(v))
        for name, t in snap.get("timers", {}).items():
            self.timer(name).add(
                wall_s=float(t.get("wall_s", 0.0)),
                cpu_s=float(t.get("cpu_s", 0.0)),
                calls=int(t.get("calls", 0)),
                self_s=t.get("self_s"),
            )

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.timers.clear()


# ----------------------------------------------------------------------
# Module-level active registry + zero-overhead-when-off helpers
# ----------------------------------------------------------------------

_active: Optional[MetricsRegistry] = None


def get_registry() -> Optional[MetricsRegistry]:
    """The currently active registry, or ``None`` when metrics are off."""
    return _active


def set_registry(registry: Optional[MetricsRegistry]) -> Optional[MetricsRegistry]:
    """Install ``registry`` as the active one (``None`` disables metrics)."""
    global _active
    _active = registry
    return registry


class using_registry:
    """Context manager: activate a registry, restore the previous on exit.

    >>> with using_registry() as reg:
    ...     incr("demo.events")
    >>> reg.counters["demo.events"].value
    1.0
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = get_registry()
        set_registry(self.registry)
        return self.registry

    def __exit__(self, *exc: object) -> bool:
        set_registry(self._previous)
        return False


def incr(name: str, amount: float = 1.0) -> None:
    """Increment counter ``name``; no-op when metrics are off."""
    reg = _active
    if reg is not None:
        reg.counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name``; no-op when metrics are off."""
    reg = _active
    if reg is not None:
        reg.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name``; no-op when metrics are off."""
    reg = _active
    if reg is not None:
        reg.gauge(name).set(value)
