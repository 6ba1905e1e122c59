"""Outside-in layer attribution for the allocator benchmark.

Timing wrappers are installed at the program's call-site names (module
globals and class attributes) only around a traced epoch, and restored
afterwards, so untraced epochs execute the unmodified program.  Each
wrapper records a span ``[layer, start, end, parent]`` in memory; a span
opens only inside the epoch root span the benchmark opens around the
engine calls, so the benchmark's own bookkeeping is never attributed to a
layer.  A layer's self time is its spans' durations minus their
children's; the root's self time is the untracked remainder.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

#: (module, attribute path, layer).  Functions are patched where the
#: caller looks them up, e.g. ``repro.perf.shard.lexicographic_maxmin``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.resilience.runtime", "AllocatorRuntime.advance", "engine"),
    ("repro.perf.shard", "BatchAllocationEngine.allocate", "engine"),
    ("repro.perf.shard", "BatchAllocationEngine.release", "engine"),
    ("repro.resilience.runtime", "basic_share_feasible", "admission"),
    ("repro.perf.shard", "BatchAllocationEngine.register", "admission"),
    ("repro.perf.incremental", "IncrementalContention.analysis_for",
     "analysis"),
    ("repro.perf.shard", "BatchAllocationEngine.active_analysis",
     "analysis"),
    ("repro.perf.shard", "ShardedSolver.solve", "shard.solve"),
    ("repro.perf.shard", "component_problems", "shard.split"),
    ("repro.perf.shard", "lexicographic_maxmin", "lp.maxmin"),
    ("repro.resilience.runtime", "check_clique_capacity", "validate"),
    ("repro.resilience.runtime", "check_basic_fairness", "validate"),
    ("repro.resilience.runtime", "global_basic_shares", "validate"),
    ("repro.resilience.runtime", "enforce_clique_capacity", "validate"),
)

EPOCH = "epoch"


class SpanRecorder:
    """In-memory span list with parent links (index into the list)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def epoch(self) -> Iterator[None]:
        """The root span of one traced epoch."""
        idx = self._open(EPOCH)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self._stack:  # outside an epoch: not attributed
                return fn(*args, **kwargs)
            idx = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return timed

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every target with a timing wrapper; restore on exit."""
        saved = []
        try:
            for module, path, layer in TARGETS:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for name in outer:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(layer, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer (``epoch`` is the untracked
        remainder of the epoch roots)."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for (layer, start, end, _parent), inner in zip(self.spans, child):
            out[layer] = out.get(layer, 0.0) + (end - start) - inner
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for layer, *_rest in self.spans:
            out[layer] = out.get(layer, 0) + 1
        return out

    def epoch_seconds(self) -> float:
        return sum(end - start for layer, start, end, _p in self.spans
                   if layer == EPOCH)

    def write(self, path) -> None:
        """One JSON object per span, times in microseconds from the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for idx, (layer, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": idx, "parent": parent, "layer": layer,
                    "start_us": round((start - origin) * 1e6, 1),
                    "dur_us": round((end - start) * 1e6, 1),
                }) + "\n")
