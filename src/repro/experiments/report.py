"""One-shot full reproduction report.

``python -m repro report`` renders everything a reviewer would want on
one screenful per section: topology art, the worked examples, Table I,
and the two simulation tables with the paper's reference values inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core import ContentionAnalysis
from ..scenarios import fig1
from .simulation_tables import run_table2, run_table3
from .table1 import run_table1
from .visualize import render_contention_matrix, render_topology
from .worked_examples import run_all

PAPER_TABLE2 = (
    "paper Table II (ns-2, T = 1000 s):\n"
    "                  802.11   two-tier        2PA\n"
    "  r_1.1 T          16079      66658     111773\n"
    "  r_1.2 T            952      60992     111084\n"
    "  r_2.1 T         156517      65507      56404\n"
    "  r_2.2 T         151533      65507      56404\n"
    "  sum r_i T       152485     126499     167488\n"
    "  loss ratio       0.132      0.045      0.004"
)

PAPER_TABLE3 = (
    "paper Table III (ns-2, T = 1000 s):\n"
    "                  802.11   two-tier      2PA-C      2PA-D\n"
    "  sum r_i T       443204     394125     422162     352341\n"
    "  loss ratio       0.100      0.027      0.006      0.004"
)


@dataclass
class ReproductionReport:
    sections: List[str]

    def render(self) -> str:
        rule = "=" * 72
        return ("\n" + rule + "\n").join(self.sections)


def build_report(
    duration: float = 20.0,
    seed: int = 1,
    include_simulations: bool = True,
) -> ReproductionReport:
    """Assemble the full report (simulations optional for quick runs)."""
    sections: List[str] = []

    sections.append(
        "REPRODUCTION REPORT\n"
        "Baochun Li, 'End-to-End Fair Bandwidth Allocation in Multi-hop "
        "Wireless Ad Hoc Networks', ICDCS 2005\n"
        "Analytic results are exact; simulations run on our own "
        "discrete-event simulator\n(scaled-down sessions; compare ratios "
        "and orderings, see EXPERIMENTS.md)."
    )

    scenario1 = fig1.make_scenario()
    sections.append(
        "SCENARIO 1 (Fig. 1)\n\n"
        + render_topology(scenario1, width=64, height=8)
        + "\n\n"
        + render_contention_matrix(ContentionAnalysis(scenario1))
    )

    examples = run_all(verbose=False)
    example_lines = ["WORKED EXAMPLES (Figs. 1-5, Sec. III/IV-C)"]
    for report in examples:
        status = "OK " if report.matches() else "FAIL"
        example_lines.append(f"  [{status}] {report.name}")
    sections.append("\n".join(example_lines))

    table1 = run_table1()
    sections.append(table1.render())

    if include_simulations:
        table2 = run_table2(duration=duration, seed=seed)
        sections.append(table2.render() + "\n\n" + PAPER_TABLE2)
        table3 = run_table3(duration=duration, seed=seed)
        sections.append(table3.render() + "\n\n" + PAPER_TABLE3)

    return ReproductionReport(sections)


def build_report_record(
    duration: float = 20.0,
    seed: int = 1,
    include_simulations: bool = True,
) -> Dict[str, object]:
    """Machine-readable counterpart of :func:`build_report`.

    Returns nested records for the worked examples, Table I, and (when
    enabled) Tables II/III — the payload the CLI embeds in its run
    artifact under ``results``.
    """
    examples = run_all(verbose=False)
    record: Dict[str, object] = {
        "examples": [
            {"name": r.name, "matches": r.matches()} for r in examples
        ],
        "table1": run_table1().to_dict(),
    }
    if include_simulations:
        record["table2"] = run_table2(
            duration=duration, seed=seed
        ).to_dict()
        record["table3"] = run_table3(
            duration=duration, seed=seed
        ).to_dict()
    return record
