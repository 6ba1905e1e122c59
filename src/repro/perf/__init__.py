"""Performance layer: fast kernels, incremental re-analysis, sharded
LP solves, caching, and a deterministic parallel sweep runner.

Every entry point here is a drop-in accelerator for an existing code
path and is validated to produce **bit-identical** results against the
plain implementation it replaces:

* :func:`~repro.perf.cliques.maximal_cliques_bitset` — bitset
  Bron–Kerbosch, dispatched automatically by
  :func:`repro.graphs.maximal_cliques`.
* :class:`~repro.perf.incremental.IncrementalContention` — analyses
  of changing active sets without a rebuild: the universe's cliques,
  enumerated once, restricted to each active set.
* :class:`~repro.perf.shard.ShardedSolver` — the phase-1 LP solved
  per contention component, with a memo keyed by LP shape that serves
  unchanged components across epochs and same-shaped components
  under any flow ids.
* :class:`~repro.perf.cache.AnalysisCache` — content-hash-keyed,
  size-bounded memoization of :class:`ContentionAnalysis` and the
  phase-1 LP allocation.
* :class:`~repro.perf.parallel.ParallelSweep` — process-pool fan-out
  with one seeded RNG stream per task and ordered result merge.

All kernels report ``perf.*`` counters and timers through the
:mod:`repro.obs` registry, so speedups land in run artifacts.
"""

from .cache import (
    AnalysisCache,
    cached_basic_fairness_allocation,
    cached_contention_analysis,
    clear_default_cache,
    default_cache,
    scenario_fingerprint,
)
from .cliques import (
    adjacency_bitmasks,
    adjacency_matrix,
    bitset_cliques_from_masks,
    maximal_cliques_bitset,
)
from .incremental import IncrementalContention
from .parallel import ParallelSweep, effective_jobs
from .shard import (
    BatchAllocationEngine,
    ComponentProblem,
    ShardedSolver,
    component_fingerprint,
    component_problems,
)

__all__ = [
    "AnalysisCache",
    "BatchAllocationEngine",
    "ComponentProblem",
    "IncrementalContention",
    "ParallelSweep",
    "ShardedSolver",
    "component_fingerprint",
    "component_problems",
    "adjacency_bitmasks",
    "adjacency_matrix",
    "bitset_cliques_from_masks",
    "cached_basic_fairness_allocation",
    "cached_contention_analysis",
    "clear_default_cache",
    "default_cache",
    "effective_jobs",
    "maximal_cliques_bitset",
    "scenario_fingerprint",
]
