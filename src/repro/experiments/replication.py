"""Multi-seed replication of the simulation experiments.

One simulation run is one sample; the paper (like most ns-2 studies of
its era) reports single runs.  This harness replicates a table across
seeds and reports mean, standard deviation, and min/max per metric, so
claims can be checked for seed-robustness — e.g. "2PA's total effective
throughput exceeds two-tier's in *every* replication".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from ..core.model import Scenario
from .simulation_tables import SimulationTable, run_table


@dataclass(frozen=True)
class MetricStats:
    """Summary statistics of one metric across replications."""

    values: tuple
    mean: float
    stdev: float
    low: float
    high: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "MetricStats":
        vals = tuple(float(v) for v in values)
        n = len(vals)
        mean = sum(vals) / n
        var = sum((v - mean) ** 2 for v in vals) / (n - 1) if n > 1 else 0.0
        return cls(vals, mean, math.sqrt(var), min(vals), max(vals))

    def __str__(self) -> str:
        return f"{self.mean:.1f} ± {self.stdev:.1f} [{self.low:g}, {self.high:g}]"


@dataclass
class ReplicationReport:
    """Replicated table: per system, per metric, stats across seeds."""

    name: str
    seeds: List[int]
    systems: List[str]
    stats: Dict[str, Dict[str, MetricStats]]  # system -> metric -> stats
    tables: List[SimulationTable] = field(default_factory=list)

    def stat(self, system: str, metric: str) -> MetricStats:
        return self.stats[system][metric]

    def always_holds(self, predicate: Callable[[SimulationTable], bool]
                     ) -> bool:
        """Whether ``predicate`` is true of every replication."""
        return all(predicate(t) for t in self.tables)

    def render(self) -> str:
        lines = [f"== {self.name}: {len(self.seeds)} replications "
                 f"(seeds {self.seeds}) =="]
        metrics = ["total_effective", "lost", "loss_ratio"]
        header = f"{'system':>10}" + "".join(
            f"{m:>30}" for m in metrics
        )
        lines.append(header)
        for system in self.systems:
            row = f"{system:>10}"
            for metric in metrics:
                row += f"{str(self.stats[system][metric]):>30}"
            lines.append(row)
        return "\n".join(lines)


def replicate_table(
    scenario: Scenario,
    systems: Sequence[str],
    seeds: Sequence[int] = (1, 2, 3),
    duration: float = 10.0,
    name: str = "replication",
    **kwargs,
) -> ReplicationReport:
    """Run ``systems`` on ``scenario`` once per seed and aggregate."""
    if not seeds:
        raise ValueError("need at least one seed")
    tables = [
        run_table(scenario, f"{name}@seed{seed}", systems, duration,
                  seed=seed, **kwargs)
        for seed in seeds
    ]
    stats: Dict[str, Dict[str, MetricStats]] = {}
    for result0 in tables[0].results:
        system = result0.system
        samples: Dict[str, List[float]] = {
            "total_effective": [], "lost": [], "loss_ratio": [],
        }
        per_flow: Dict[str, List[float]] = {}
        for table in tables:
            column = table.column(system)
            samples["total_effective"].append(column.total_effective)
            samples["lost"].append(column.lost)
            samples["loss_ratio"].append(column.loss_ratio)
            for fid, pkts in column.flow_packets.items():
                per_flow.setdefault(f"u_{fid}", []).append(pkts)
        stats[system] = {
            metric: MetricStats.from_values(vals)
            for metric, vals in {**samples, **per_flow}.items()
        }
    return ReplicationReport(
        name=name,
        seeds=list(seeds),
        systems=[r.system for r in tables[0].results],
        stats=stats,
        tables=tables,
    )
