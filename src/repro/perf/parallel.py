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
which is also the reference the bit-identity tests compare against.

There is one pool path, a wave loop that tolerates worker faults: it
detects crashed workers (``BrokenProcessPool``), times out hung ones
via a stall watchdog (``task_timeout``), retries survivors in a fresh
pool with deterministic jittered backoff (``task_retries``), and runs
any task that exhausted its retry budget in-process — worker faults are
environmental, the task function itself is pure, so the in-process
fallback is exact.  With the defaults (no timeout, no retries) no stall
is ever declared and a crashed task finishes in-process; with no fault
firing, every setting returns byte-identical results, metrics, and
event streams.  A sweep with a ``task_timeout`` pools even a single
task, so the faults it is armed against can fire.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from ..obs.events import EventBus, get_event_bus, using_event_bus
from ..obs.registry import get_registry, incr, using_registry
from ..obs.trace import span

__all__ = ["ParallelSweep", "effective_jobs"]


def _backoff_jitter(index: int, attempt: int) -> float:
    """Deterministic jitter in ``[0, 1)`` keyed on (task, attempt)."""
    digest = hashlib.sha256(f"{index}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:4], "big") / 2.0 ** 32


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

    def __init__(
        self,
        jobs: Optional[int] = None,
        task_timeout: Optional[float] = None,
        task_retries: int = 0,
        retry_backoff_s: float = 0.05,
    ) -> None:
        self.jobs = effective_jobs(jobs)
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if task_retries < 0:
            raise ValueError("task_retries must be non-negative")
        self.task_timeout = task_timeout
        self.task_retries = int(task_retries)
        self.retry_backoff_s = float(retry_backoff_s)

    def map(self, fn: Callable[[Any], Any],
            items: Sequence[Any],
            serial_fn: Optional[Callable[[Any], Any]] = None) -> List[Any]:
        """``[fn(x) for x in items]`` across the pool.

        ``serial_fn`` is the in-process twin used whenever a task runs
        in the parent (jobs=1, a single task, pool unavailable, or fault
        fallback).  It must compute exactly what ``fn`` computes minus
        any worker-only fault shims.
        """
        items = list(items)
        inproc = serial_fn if serial_fn is not None else fn
        # One task runs in-process unless the sweep is armed with a
        # timeout: then it pools, so worker faults can fire.
        pool_min = 1 if self.task_timeout is not None else 2
        if self.jobs <= 1 or len(items) < pool_min:
            return self._serial(inproc, items)
        try:
            return self._guarded(fn, items, inproc)
        except (ImportError, OSError, PermissionError):
            # No usable process pool (restricted sandbox): same results,
            # one process.
            incr("perf.parallel.pool_fallbacks")
            return self._serial(inproc, items)

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

    def _guarded(self, fn: Callable[[Any], Any], items: Sequence[Any],
                 serial_fn: Callable[[Any], Any]) -> List[Any]:
        """Fault-tolerant pooled map: crash/hang detection + retries.

        Tasks run in waves.  Each wave submits every still-pending task
        to a fresh pool and collects completions with a stall watchdog:
        if no future completes for ``task_timeout`` seconds, whatever is
        still outstanding is declared hung, the pool is abandoned
        (``shutdown(wait=False)`` — never join a hung worker), and the
        stragglers go into the next wave.  Every other wave joins its
        pool, so a fault-free map leaves no live worker behind.
        ``BrokenProcessPool`` marks the wave's unfinished tasks as
        crashed, with the same retry treatment.  A task that fails
        ``task_retries + 1`` pool attempts runs in-process via
        ``serial_fn``.  Genuine task exceptions are never retried; the
        lowest-index one is re-raised after every task resolves,
        matching serial semantics.  Results, metrics, and events merge
        in submission order, so a fault-free run is byte-identical to
        the serial loop.
        """
        from concurrent.futures import (
            FIRST_COMPLETED, ProcessPoolExecutor, wait,
        )
        from concurrent.futures.process import BrokenProcessPool

        parent = get_registry()
        parent_bus = get_event_bus()
        n = len(items)
        slots: List[Optional[Tuple[Any, dict, list]]] = [None] * n
        finished = [False] * n
        attempts = [0] * n
        errors: Dict[int, BaseException] = {}
        pending = list(range(n))

        with span("perf.parallel.sweep"):
            while pending:
                # Retry budget exhausted → deterministic in-process
                # fallback (worker faults cannot follow us here).
                overdrawn = [i for i in pending
                             if attempts[i] > self.task_retries]
                for i in overdrawn:
                    incr("perf.parallel.serial_fallbacks")
                    try:
                        slots[i] = _worker((serial_fn, items[i], i))
                    except Exception as exc:
                        errors[i] = exc
                    finished[i] = True
                pending = [i for i in pending
                           if attempts[i] <= self.task_retries]
                if not pending:
                    break
                wave_attempt = max(attempts[i] for i in pending)
                if wave_attempt > 0:
                    delay = self.retry_backoff_s * 2 ** (wave_attempt - 1)
                    delay *= 0.5 + _backoff_jitter(pending[0], wave_attempt)
                    time.sleep(min(delay, 2.0))
                try:
                    pool = ProcessPoolExecutor(
                        max_workers=min(self.jobs, len(pending))
                    )
                    future_task = {
                        pool.submit(_worker, (fn, items[i], i)): i
                        for i in pending
                    }
                except (ImportError, OSError, PermissionError):
                    # Pool unavailable mid-run: finish everything still
                    # pending in-process.
                    incr("perf.parallel.pool_fallbacks")
                    for i in pending:
                        incr("perf.parallel.serial_fallbacks")
                        try:
                            slots[i] = _worker((serial_fn, items[i], i))
                        except Exception as exc:
                            errors[i] = exc
                        finished[i] = True
                    pending = []
                    break
                outstanding = set(future_task)
                crashed = stalled = False
                while outstanding:
                    done, outstanding = wait(
                        outstanding, timeout=self.task_timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    if not done:
                        # Stall: nothing completed within the per-task
                        # budget, so every remaining future is hung or
                        # starved behind a hung worker.
                        incr("perf.parallel.task_timeouts",
                             len(outstanding))
                        stalled = True
                        break
                    for future in done:
                        i = future_task[future]
                        try:
                            slots[i] = future.result()
                            finished[i] = True
                        except BrokenProcessPool:
                            crashed = True
                        except Exception as exc:
                            errors[i] = exc  # real task error: no retry
                            finished[i] = True
                    if crashed:
                        break
                pool.shutdown(wait=not stalled, cancel_futures=True)
                if crashed:
                    incr("perf.parallel.task_crashes")
                failed = [i for i in pending if not finished[i]]
                for i in failed:
                    attempts[i] += 1
                    incr("perf.parallel.task_retries")
                pending = failed

            results: List[Any] = []
            for i in range(n):
                if i in errors:
                    raise errors[i]
                result, metrics, events = slots[i]  # type: ignore[misc]
                results.append(result)
                if parent is not None:
                    parent.merge_snapshot(metrics)
                if parent_bus is not None:
                    parent_bus.absorb(events)
        incr("perf.parallel.tasks", n)
        incr("perf.parallel.pool_runs")
        return results
