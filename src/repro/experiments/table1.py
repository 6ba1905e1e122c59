"""Table I: local optimization in the distributed algorithm (Fig. 6).

Reproduces, per flow source, the local cliques, the local LP, and its
solution, and compares the resulting 2PA-D allocation vector with both the
centralized optimum and the paper's printed values.

Reproduction note (also in DESIGN.md): node M, the source of F5, cannot
learn clique Ω5 = {F3.1, F4.1} under any uniform local-information rule —
no subflow of F3 is audible within M's two-hop neighborhood.  The paper's
Table I lumps nodes J, K, M into one row (implicitly granting M the LP
constructed at J), which yields r̂5 = B/2; our per-source semantics give
r̂5 = B/3.  All other rows match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core import DistributedAllocator, run_centralized
from ..core.distributed import LocalProblem
from ..scenarios import fig6


@dataclass
class Table1Row:
    source: str
    flow_id: str
    clique_constraints: List[str]
    basic_per_unit: float
    local_solution: Dict[str, float]
    adopted_share: float


@dataclass
class Table1Report:
    rows: List[Table1Row]
    distributed_shares: Dict[str, float]
    centralized_shares: Dict[str, float]
    paper_distributed: Dict[str, float]
    paper_centralized: Dict[str, float]
    convergence: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready record (stable keys, paper references included)."""
        return {
            "rows": [
                {
                    "source": row.source,
                    "flow_id": row.flow_id,
                    "clique_constraints": list(row.clique_constraints),
                    "basic_per_unit": row.basic_per_unit,
                    "local_solution": dict(sorted(row.local_solution.items())),
                    "adopted_share": row.adopted_share,
                }
                for row in self.rows
            ],
            "distributed_shares": dict(sorted(self.distributed_shares.items())),
            "centralized_shares": dict(sorted(self.centralized_shares.items())),
            "paper_distributed": dict(sorted(self.paper_distributed.items())),
            "paper_centralized": dict(sorted(self.paper_centralized.items())),
            "convergence": dict(self.convergence),
        }

    def render(self) -> str:
        lines = ["== Table I: distributed local optimization (Fig. 6) =="]
        for row in self.rows:
            lines.append(
                f"  source {row.source} (F{row.flow_id}): "
                f"basic/unit={row.basic_per_unit:.4f} "
                f"solution={{{', '.join(f'{k}={v:.4f}' for k, v in row.local_solution.items())}}} "
                f"-> r̂_{row.flow_id}={row.adopted_share:.4f}"
            )
        lines.append(f"  2PA-D shares: {_fmt(self.distributed_shares)}")
        lines.append(f"   (paper:      {_fmt(self.paper_distributed)})")
        lines.append(f"  2PA-C shares: {_fmt(self.centralized_shares)}")
        lines.append(f"   (paper:      {_fmt(self.paper_centralized)})")
        return "\n".join(lines)


def _fmt(shares: Dict[str, float]) -> str:
    return "(" + ", ".join(
        f"{shares[k]:.4f}" for k in sorted(shares)
    ) + ")"


def run_table1() -> Table1Report:
    """Execute phase 1 in both forms on Fig. 6 and assemble the report."""
    scenario = fig6.make_scenario()
    allocator = DistributedAllocator(scenario)
    distributed = allocator.run()
    centralized = run_centralized(scenario)

    rows: List[Table1Row] = []
    for flow in scenario.flows:
        problem: LocalProblem = allocator.problems[flow.source]
        constraints = [c.label for c in problem.lp.constraints]
        rows.append(
            Table1Row(
                source=flow.source,
                flow_id=flow.flow_id,
                clique_constraints=constraints,
                basic_per_unit=problem.basic_per_unit,
                local_solution=dict(problem.solution.values),
                adopted_share=distributed.share(flow.flow_id),
            )
        )
    return Table1Report(
        rows=rows,
        distributed_shares=dict(distributed.shares),
        centralized_shares=dict(centralized.shares),
        paper_distributed=dict(fig6.PAPER_DISTRIBUTED),
        paper_centralized=dict(fig6.PAPER_CENTRALIZED),
        convergence=dict(allocator.convergence),
    )
