"""Performance layer: the clique kernel, incremental re-analysis,
sharded LP solves, and a deterministic parallel sweep runner.

Every entry point here is validated to produce **bit-identical**
results against a plain reference implementation:

* :func:`~repro.perf.cliques.maximal_cliques_bitset` — bitset
  Bron–Kerbosch, the kernel behind :func:`repro.graphs.maximal_cliques`
  (the set-based reference is a test oracle only).
* :class:`~repro.perf.incremental.IncrementalContention` — analyses
  of changing active sets without a rebuild: the universe's cliques,
  enumerated and indexed once, restricted to each active set.
* :class:`~repro.perf.shard.ShardedSolver` — the phase-1 LP solved
  per contention component in the calling process, with a memo keyed
  by LP shape that serves unchanged components across epochs and
  same-shaped components under any flow ids.
* :class:`~repro.perf.parallel.ParallelSweep` — process-pool fan-out
  of whole cases (verify, chaos, ablation and topology sweeps) with
  one seeded RNG stream per task and ordered result merge.

All kernels report ``perf.*`` counters and timers through the
:mod:`repro.obs` registry, so speedups land in run artifacts.
"""

from .cliques import (
    adjacency_bitmasks,
    bitset_cliques_from_masks,
    maximal_cliques_bitset,
)
from .incremental import IncrementalContention
from .parallel import ParallelSweep, effective_jobs
from .shard import (
    BatchAllocationEngine,
    ComponentProblem,
    ShardedSolver,
    component_problems,
    shape_key,
)

__all__ = [
    "BatchAllocationEngine",
    "ComponentProblem",
    "IncrementalContention",
    "ParallelSweep",
    "ShardedSolver",
    "component_problems",
    "adjacency_bitmasks",
    "bitset_cliques_from_masks",
    "effective_jobs",
    "maximal_cliques_bitset",
    "shape_key",
]
