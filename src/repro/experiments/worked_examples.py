"""Analytic worked examples: Figs. 1-5 and the Sec. III/IV-C derivations.

Each function reproduces one of the paper's closed-form results and
returns a small report object; ``run_all`` prints them in the paper's
order.  These are the *analysis* half of the reproduction — the
simulation half lives in :mod:`repro.experiments.table2` / ``table3``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core import (
    ContentionAnalysis,
    basic_fairness_lp_allocation,
    basic_shares,
    check_allocation_schedulability,
    fairness_constrained_allocation,
    fairness_upper_bound,
    naive_allocation,
    single_hop_optimal_allocation,
    total_single_hop_throughput,
)
from ..graphs import (
    chain_coloring,
    chain_contention_graph,
    color_classes,
    greedy_coloring,
    is_proper_coloring,
    num_colors,
)
from ..scenarios import fig1, fig2, fig3, fig4, fig5


@dataclass
class ExampleReport:
    """One worked example: computed values plus the paper's references."""

    name: str
    computed: Dict[str, object] = field(default_factory=dict)
    reference: Dict[str, object] = field(default_factory=dict)
    notes: str = ""

    def matches(self, tol: float = 1e-6) -> bool:
        """Whether every referenced numeric value matches the computed one."""
        for key, ref in self.reference.items():
            got = self.computed.get(key)
            if isinstance(ref, dict):
                if got is None:
                    return False
                for k, v in ref.items():
                    if abs(got.get(k, float("nan")) - v) > tol:
                        return False
            elif isinstance(ref, (int, float)):
                if got is None or abs(got - ref) > tol:
                    return False
            elif got != ref:
                return False
        return True

    def render(self) -> str:
        lines = [f"== {self.name} =="]
        for key in self.reference:
            lines.append(
                f"  {key}: computed={self.computed.get(key)}"
                f"  paper={self.reference[key]}"
            )
        for key, value in self.computed.items():
            if key not in self.reference:
                lines.append(f"  {key}: {value}")
        if self.notes:
            lines.append(f"  note: {self.notes}")
        lines.append(f"  MATCH: {self.matches()}")
        return "\n".join(lines)


def example_fig1() -> ExampleReport:
    """Fig. 1 + Sec. III worked comparison: end-to-end vs single-hop."""
    scenario = fig1.make_scenario()
    analysis = ContentionAnalysis(scenario)
    fairness = fairness_constrained_allocation(analysis)
    optimal = basic_fairness_lp_allocation(analysis)
    two_tier = single_hop_optimal_allocation(analysis)
    return ExampleReport(
        name="Fig. 1 / Sec. III comparison",
        computed={
            "basic_shares": basic_shares(scenario.flows),
            "fairness_allocation": fairness.shares,
            "optimal_allocation": optimal.shares,
            "optimal_total": optimal.total_effective_throughput,
            "two_tier_subflows": {
                (s.flow, s.hop): v
                for s, v in two_tier.subflow_shares.items()
            },
            "two_tier_flow_throughputs": two_tier.shares,
            "two_tier_effective_total": two_tier.total_effective_throughput,
            "two_tier_single_hop_total": total_single_hop_throughput(two_tier),
        },
        reference={
            "basic_shares": fig1.PAPER_BASIC_SHARES,
            "fairness_allocation": fig1.PAPER_FAIRNESS_ALLOCATION,
            "optimal_allocation": fig1.PAPER_BASIC_FAIRNESS_ALLOCATION,
            "optimal_total": 0.75,
            "two_tier_subflows": fig1.PAPER_TWO_TIER_SUBFLOWS,
            "two_tier_flow_throughputs": fig1.PAPER_TWO_TIER_FLOWS,
            "two_tier_effective_total": 0.625,
            "two_tier_single_hop_total": 1.75,
        },
        notes="2PA end-to-end total 3B/4 beats two-tier's effective 5B/8 "
              "despite losing on raw single-hop total (3B/2 vs 7B/4).",
    )


def example_fig2() -> ExampleReport:
    """Fig. 2: fairness definitions, single-hop vs multi-hop."""
    single = fig2.make_single_hop_scenario()
    single_alloc = fairness_constrained_allocation(
        ContentionAnalysis(single)
    )
    multi = fig2.make_multi_hop_scenario()
    unfair = fig2.unfair_time_share_allocation(multi)
    fair = basic_fairness_lp_allocation(ContentionAnalysis(multi))
    return ExampleReport(
        name="Fig. 2 fairness cases",
        computed={
            "single_hop_allocation": single_alloc.shares,
            "unfair_end_to_end": unfair,
            "fair_per_hop_shares": fair.shares,
        },
        reference={
            "single_hop_allocation": fig2.PAPER_SINGLE_HOP,
            "unfair_end_to_end": fig2.PAPER_UNFAIR_THROUGHPUT,
            "fair_per_hop_shares": fig2.PAPER_FAIR_SHARES,
        },
    )


def example_fig3() -> ExampleReport:
    """Fig. 3: virtual length via 3-coloring of a 6-hop chain."""
    scenario = fig3.make_chain_scenario(hops=6)
    flow = scenario.flows[0]
    graph = chain_contention_graph(6)
    coloring = chain_coloring(6)
    classes = [
        sorted(j + 1 for j in cls) for cls in color_classes(coloring)
    ]
    greedy = greedy_coloring(graph)
    shortcut = fig3.make_shortcut_scenario()
    return ExampleReport(
        name="Fig. 3 virtual length",
        computed={
            "virtual_length": flow.virtual_length,
            "colors_used": num_colors(coloring),
            "coloring_proper": is_proper_coloring(graph, coloring),
            "color_classes": classes,
            "greedy_colors": num_colors(greedy),
            "chain_has_shortcut": scenario.network.has_shortcut(flow),
            "displaced_has_shortcut": shortcut.network.has_shortcut(
                shortcut.flows[0]
            ),
        },
        reference={
            "virtual_length": 3,
            "colors_used": 3,
            "coloring_proper": True,
            "color_classes": fig3.PAPER_COLOR_CLASSES,
            "chain_has_shortcut": False,
            "displaced_has_shortcut": True,
        },
    )


def example_fig4() -> ExampleReport:
    """Fig. 4 + Sec. IV-C: the weighted contention graph LP."""
    analysis = fig4.make_analysis()
    basic = basic_shares(analysis.scenario.flows)
    optimal = basic_fairness_lp_allocation(analysis)
    subflow_shares = {
        str(s.sid): optimal.share(s.flow_id)
        for s in analysis.scenario.all_subflows()
    }
    return ExampleReport(
        name="Fig. 4 weighted subflow contention graph",
        computed={
            "basic_shares": basic,
            "allocated_shares": optimal.shares,
            "subflow_allocated_shares": subflow_shares,
        },
        reference={
            "basic_shares": fig4.PAPER_BASIC_SHARES,
            "allocated_shares": fig4.PAPER_ALLOCATION,
        },
        notes="subflow shares (3B/10, B/5, B/5, 3B/10, 7B/10) become the "
              "phase-2 scheduling weights.",
    )


def example_fig5() -> ExampleReport:
    """Fig. 5: the pentagon's unachievable clique bound."""
    analysis = fig5.make_analysis()
    bound = fairness_upper_bound(analysis)
    lp = basic_fairness_lp_allocation(analysis)
    report = check_allocation_schedulability(analysis, lp.shares)
    uniform = {f: fig5.ACHIEVABLE_UNIFORM_SHARE for f in lp.shares}
    achievable = check_allocation_schedulability(analysis, uniform)
    return ExampleReport(
        name="Fig. 5 pentagon",
        computed={
            "weighted_clique_number": bound.weighted_clique_number,
            "bound_total": bound.total_effective_throughput,
            "lp_shares": lp.shares,
            "lp_schedulable": report.feasible,
            "schedule_length": report.schedule_length,
            "uniform_2B5_schedulable": achievable.feasible,
        },
        reference={
            "weighted_clique_number": 2.0,
            "bound_total": fig5.PAPER_CLIQUE_BOUND_TOTAL,
            "lp_schedulable": False,
            "schedule_length": fig5.FRACTIONAL_SCHEDULE_LENGTH,
            "uniform_2B5_schedulable": True,
        },
        notes="The B/2-per-flow optimum needs 5/4 of the channel; the "
              "allocation is kept as phase-2 weight factors instead.",
    )


def example_naive_vs_basic() -> ExampleReport:
    """Sec. II-D: virtual length beats hop count in the basic shares."""
    scenario = fig3.make_chain_scenario(hops=6)
    analysis = ContentionAnalysis(scenario)
    naive = naive_allocation(analysis)
    from ..core import basic_allocation

    basic = basic_allocation(analysis)
    return ExampleReport(
        name="Eq. (2) naive vs virtual-length basic shares (6-hop chain)",
        computed={
            "naive_share": naive.share("1"),
            "basic_share": basic.share("1"),
        },
        reference={
            "naive_share": 1.0 / 6.0,
            "basic_share": 1.0 / 3.0,
        },
        notes="A 6-hop flow is entitled to the throughput of a 3-hop flow.",
    )


ALL_EXAMPLES = [
    example_fig1,
    example_fig2,
    example_fig3,
    example_fig4,
    example_fig5,
    example_naive_vs_basic,
]


def run_all(verbose: bool = True) -> List[ExampleReport]:
    """Run every worked example; optionally print the reports."""
    reports = [fn() for fn in ALL_EXAMPLES]
    if verbose:
        for report in reports:
            print(report.render())
            print()
    return reports
