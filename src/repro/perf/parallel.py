"""Deterministic parallel sweep execution over independent tasks.

Ablation sweeps, random-topology studies, and the scenario fuzzer all
run many *independent* seeded tasks; :class:`ParallelSweep` fans such a
task list across a ``ProcessPoolExecutor`` while guaranteeing that the
merged output is bit-identical to running the same tasks serially:

* tasks carry their own seeds (each draws from its own
  :class:`~repro.sim.rng.RngRegistry` stream), so no randomness is
  shared across workers;
* results are merged strictly in submission order, whatever order the
  workers finish in, so downstream aggregation sees exactly the serial
  sequence;
* each worker runs under its own metrics registry and ships a lossless
  :meth:`~repro.obs.registry.MetricsRegistry.mergeable_snapshot` home,
  which the parent folds into the active registry in task order —
  ``perf.*`` counters therefore match the serial run (timers keep their
  own measured, machine-dependent times);
* each worker likewise runs under its own private
  :class:`~repro.obs.events.EventBus` (source ``task<i>``) and ships its
  pending events home; the parent absorbs the buffers in submission
  order, so the merged event stream — and any JSONL file it is being
  streamed to — is deterministic and never contains torn lines.

``jobs=1``, a single task, or an unavailable process pool (sandboxes
without fork) degrades to the plain serial loop over the same function,
which is also the reference the bit-identity tests compare against.  A
worker that dies (``BrokenProcessPool``) is not fatal either: the tasks
it left unfinished run in-process once the pool is shut down.  The task
function is pure, so that fallback is exact.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.events import EventBus, get_event_bus, using_event_bus
from ..obs.registry import get_registry, incr, using_registry
from ..obs.trace import span

__all__ = ["ParallelSweep", "effective_jobs"]


def effective_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a user-supplied job count: ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)
    return max(1, int(jobs))


def _worker(
    payload: Tuple[Callable[[Any], Any], Any, int]
) -> Tuple[Any, dict, list]:
    """Run one task under a private registry and event bus.

    Returns ``(result, metrics, events)``.  The private in-memory bus
    keeps worker events out of any file the parent may be streaming to;
    the parent absorbs the shipped buffers in task-submission order, so
    the merged stream is deterministic regardless of which worker
    finished first.  Worker-side ``obs.events.dropped`` increments ride
    home inside the metrics snapshot.
    """
    fn, item, index = payload
    with using_registry() as reg:
        with using_event_bus(EventBus(source=f"task{index}")) as bus:
            result = fn(item)
            events = bus.drain()
    return result, reg.mergeable_snapshot(), events


class ParallelSweep:
    """Map a picklable function over items, deterministically.

    ``sweep.map(fn, items)`` returns ``[fn(x) for x in items]`` — same
    values, same order — computed across ``jobs`` worker processes.
    ``fn`` and every item must be picklable (module-level function,
    plain-data arguments); tasks must be independent and own their
    seeds.  Worker-side ``perf.*`` metrics are folded into the caller's
    active registry in task order.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = effective_jobs(jobs)

    def map(self, fn: Callable[[Any], Any],
            items: Sequence[Any]) -> List[Any]:
        """``[fn(x) for x in items]`` across the pool."""
        items = list(items)
        if self.jobs > 1 and len(items) > 1:
            results = self._pooled(fn, items)
            if results is not None:
                return results
            # No usable process pool (restricted sandbox): same results,
            # one process.
            incr("perf.parallel.pool_fallbacks")
        return self._serial(fn, items)

    # ------------------------------------------------------------------
    def _serial(self, fn: Callable[[Any], Any],
                items: Sequence[Any]) -> List[Any]:
        parent_bus = get_event_bus()
        results: List[Any] = []
        with span("perf.parallel.sweep"):
            if parent_bus is None:
                results = [fn(item) for item in items]
            else:
                # Mirror the pooled path's per-task buses so a jobs=1
                # run and a pooled run merge the *same* event stream
                # (same sources, same seqs, same order).
                for index, item in enumerate(items):
                    with using_event_bus(
                        EventBus(source=f"task{index}")
                    ) as bus:
                        results.append(fn(item))
                        events = bus.drain()
                    parent_bus.absorb(events)
        incr("perf.parallel.tasks", len(items))
        incr("perf.parallel.serial_runs")
        return results

    def _pooled(self, fn: Callable[[Any], Any],
                items: Sequence[Any]) -> Optional[List[Any]]:
        """One pool over every task, or ``None`` if no pool can start.

        Results, metrics and events merge in submission order, so the
        run is byte-identical to the serial loop.  ``BrokenProcessPool``
        (a worker died) leaves the tasks it had not finished to run
        in-process after the pool has shut down.  A genuine task
        exception is not retried: the lowest-index one is re-raised once
        every task has resolved, as in the serial loop.
        """
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        n = len(items)
        slots: Dict[int, Tuple[Any, dict, list]] = {}
        errors: Dict[int, BaseException] = {}
        crashed = False
        with span("perf.parallel.sweep"):
            try:
                with ProcessPoolExecutor(
                    max_workers=min(self.jobs, n)
                ) as pool:
                    futures = []
                    try:
                        for i in range(n):
                            futures.append(
                                pool.submit(_worker, (fn, items[i], i))
                            )
                    except BrokenProcessPool:
                        crashed = True
                    for i, future in enumerate(futures):
                        try:
                            slots[i] = future.result()
                        except BrokenProcessPool:
                            crashed = True
                        except Exception as exc:
                            errors[i] = exc
            except (ImportError, OSError):
                return None
            if crashed:
                incr("perf.parallel.task_crashes")
            for i in range(n):
                if i not in slots and i not in errors:
                    incr("perf.parallel.serial_fallbacks")
                    try:
                        slots[i] = _worker((fn, items[i], i))
                    except Exception as exc:
                        errors[i] = exc
            if errors:
                raise errors[min(errors)]
            parent = get_registry()
            parent_bus = get_event_bus()
            results: List[Any] = []
            for i in range(n):
                result, metrics, events = slots[i]
                results.append(result)
                if parent is not None:
                    parent.merge_snapshot(metrics)
                if parent_bus is not None:
                    parent_bus.absorb(events)
        incr("perf.parallel.tasks", n)
        incr("perf.parallel.pool_runs")
        return results
