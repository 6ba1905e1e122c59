"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's tables and probe *why* 2PA behaves as it does:

* ``alpha_sweep`` — strictness of the tag-based backoff (the paper's α):
  how share adherence and end-to-end fairness react.
* ``cwmin_sweep`` — the contention-window floor shared by every system.
* ``buffer_sweep`` — relay buffer size vs packets lost in the network
  (the paper's loss mechanism).
* ``virtual_length_ablation`` — the virtual-length cap (v = min(l, 3))
  vs naive hop counting, on chains of growing length (analytic).
* ``scaling_study`` — centralized vs distributed phase-1 quality on
  random topologies of growing size (analytic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..core import (
    ContentionAnalysis,
    basic_allocation,
    basic_fairness_lp_allocation,
    jain_index,
    naive_allocation,
    run_distributed,
    satisfies_basic_fairness,
)
from ..mac import MacTimings
from ..sched import build_2pa, build_80211
from ..scenarios import fig1, fig3, make_random_scenario


@dataclass
class SweepPoint:
    parameter: float
    values: Dict[str, float] = field(default_factory=dict)


@dataclass
class SweepResult:
    name: str
    parameter_name: str
    points: List[SweepPoint] = field(default_factory=list)

    def series(self, key: str) -> List[float]:
        return [p.values[key] for p in self.points]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready record of the sweep."""
        return {
            "name": self.name,
            "parameter_name": self.parameter_name,
            "points": [
                {"parameter": p.parameter,
                 "values": dict(sorted(p.values.items()))}
                for p in self.points
            ],
        }

    def render(self) -> str:
        lines = [f"== {self.name} =="]
        keys = sorted(self.points[0].values) if self.points else []
        header = f"{self.parameter_name:>12}" + "".join(
            f"{k:>18}" for k in keys
        )
        lines.append(header)
        for p in self.points:
            row = f"{p.parameter:>12.5g}" + "".join(
                f"{p.values[k]:>18.5g}" for k in keys
            )
            lines.append(row)
        return "\n".join(lines)


def _share_adherence(measured: Dict[str, int],
                     target: Dict[str, float]) -> float:
    """Jain index of measured/target ratios: 1.0 = perfect adherence."""
    ratios = [
        measured[fid] / target[fid] for fid in target if target[fid] > 0
    ]
    return jain_index(ratios)


def alpha_sweep(
    alphas: Sequence[float] = (0.0, 0.001, 0.005, 0.02, 0.1),
    duration: float = 10.0,
    seed: int = 1,
) -> SweepResult:
    """2PA on Fig. 1: share adherence and loss vs α.

    α = 0 disables the tag feedback entirely (backoff always CW_min), so
    the sweep shows how much of 2PA's precision comes from the Q/R terms.
    """
    scenario = fig1.make_scenario()
    result = SweepResult("2PA alpha sweep (Fig. 1)", "alpha")
    for alpha in alphas:
        build = build_2pa(scenario, "centralized", seed=seed, alpha=alpha)
        metrics = build.run.run(seconds=duration)
        target = build.allocation.shares
        measured = {
            fid: metrics.flows[fid].delivered_end_to_end
            for fid in target
        }
        result.points.append(
            SweepPoint(alpha, {
                "share_adherence": _share_adherence(measured, target),
                "total_effective":
                    float(metrics.total_effective_throughput_packets()),
                "loss_ratio": metrics.loss_ratio(),
            })
        )
    return result


def cwmin_sweep(
    cwmins: Sequence[int] = (7, 15, 31, 63, 127),
    duration: float = 10.0,
    seed: int = 1,
) -> SweepResult:
    """802.11 vs 2PA on Fig. 1 across contention-window floors."""
    scenario = fig1.make_scenario()
    result = SweepResult("CWmin sweep (Fig. 1)", "cw_min")
    for cwmin in cwmins:
        timings = MacTimings(cw_min=cwmin)
        dcf = build_80211(scenario, seed=seed, timings=timings)
        m_dcf = dcf.run.run(seconds=duration)
        tpa = build_2pa(scenario, "centralized", seed=seed,
                        timings=timings)
        m_tpa = tpa.run.run(seconds=duration)
        result.points.append(
            SweepPoint(float(cwmin), {
                "dcf_total": float(
                    m_dcf.total_effective_throughput_packets()
                ),
                "dcf_loss_ratio": m_dcf.loss_ratio(),
                "tpa_total": float(
                    m_tpa.total_effective_throughput_packets()
                ),
                "tpa_loss_ratio": m_tpa.loss_ratio(),
            })
        )
    return result


def buffer_sweep(
    capacities: Sequence[int] = (5, 10, 25, 50, 100),
    duration: float = 10.0,
    seed: int = 1,
) -> SweepResult:
    """Relay buffer size vs in-network losses, two-tier vs 2PA (Fig. 1).

    Two-tier's upstream/downstream imbalance overflows any finite buffer;
    2PA's equal-per-hop shares keep relay queues short, so its losses stay
    near zero regardless of capacity — the paper's central claim about
    intra-flow coordination.
    """
    from ..mac.policies import DcfPolicy, FairBackoffPolicy
    from ..sched.runner import SimulationRun, subflow_shares_by_node
    from ..core import single_hop_optimal_allocation

    scenario = fig1.make_scenario()
    analysis = ContentionAnalysis(scenario)
    result = SweepResult("Relay buffer sweep (Fig. 1)", "buffer_pkts")
    two_tier_alloc = single_hop_optimal_allocation(analysis)
    tpa_alloc = basic_fairness_lp_allocation(analysis)
    tpa_shares = {
        s.sid: tpa_alloc.share(f.flow_id)
        for f in scenario.flows for s in f.subflows
    }
    for cap in capacities:
        values: Dict[str, float] = {}
        for label, shares in (
            ("two_tier", dict(two_tier_alloc.subflow_shares)),
            ("tpa", tpa_shares),
        ):
            per_node = subflow_shares_by_node(scenario, shares)

            def factory(node, t, per_node=per_node, cap=cap):
                return FairBackoffPolicy(
                    node, t, per_node.get(node, {}), queue_capacity=cap
                )

            run = SimulationRun(scenario, factory, seed=seed)
            metrics = run.run(seconds=duration)
            values[f"{label}_lost"] = float(metrics.total_lost_packets())
            values[f"{label}_loss_ratio"] = metrics.loss_ratio()
        result.points.append(SweepPoint(float(cap), values))
    return result


def virtual_length_ablation(
    hop_counts: Sequence[int] = (1, 2, 3, 4, 6, 8, 12),
) -> SweepResult:
    """Analytic: per-flow share with and without the virtual-length cap."""
    result = SweepResult("Virtual-length ablation (chains)", "hops")
    for hops in hop_counts:
        scenario = fig3.make_chain_scenario(hops=hops)
        analysis = ContentionAnalysis(scenario)
        naive = naive_allocation(analysis)
        basic = basic_allocation(analysis)
        optimal = basic_fairness_lp_allocation(analysis)
        result.points.append(
            SweepPoint(float(hops), {
                "naive_share": naive.share("1"),
                "basic_share": basic.share("1"),
                "lp_share": optimal.share("1"),
            })
        )
    return result


def _scaling_point(params: Dict[str, int]) -> SweepPoint:
    """One size of the scaling study; pure in its (seeded) parameters.

    Module-level so :func:`scaling_study` can fan sizes across worker
    processes — the per-size result depends only on ``params``.
    """
    scenario = make_random_scenario(
        num_nodes=params["size"], num_flows=params["flows"],
        seed=params["seed"], max_hops=5,
    )
    analysis = ContentionAnalysis(scenario)
    central = basic_fairness_lp_allocation(analysis)
    dist = run_distributed(scenario, analysis=analysis)
    return SweepPoint(float(params["size"]), {
        "centralized_total": central.total_effective_throughput,
        "distributed_total": dist.total_effective_throughput,
        "centralized_basic_ok": float(
            satisfies_basic_fairness(
                central.shares, scenario.flows, tol=1e-7
            )
        ),
        "num_cliques": float(len(analysis.cliques)),
    })


def scaling_study(
    sizes: Sequence[int] = (10, 15, 20, 25),
    flows_per_net: int = 4,
    seed: int = 7,
    jobs: int = 1,
) -> SweepResult:
    """Centralized vs distributed totals on random topologies.

    Also checks that both satisfy basic fairness (recorded as 1.0/0.0).
    Sizes are independent seeded tasks, so ``jobs > 1`` computes them in
    worker processes with a bit-identical result (``jobs=0``: all cores).
    """
    from ..perf.parallel import ParallelSweep

    tasks = [
        {"size": size, "flows": flows_per_net, "seed": seed}
        for size in sizes
    ]
    points = ParallelSweep(jobs).map(_scaling_point, tasks)
    result = SweepResult("Random-topology scaling", "nodes")
    result.points.extend(points)
    return result


def convergence_study(
    alphas: Sequence[float] = (0.0005, 0.001, 0.005, 0.02),
    duration: float = 12.0,
    window: float = 2.0,
    seed: int = 1,
) -> SweepResult:
    """How fast the 2PA scheduler converges to its allocated ratios.

    Runs Fig. 1 under 2PA with a windowed throughput series and reports
    the first window from which the measured flow-throughput ratios stay
    within 35% of the allocated 2:1 — larger α enforces the ratio faster
    (at some cost in total throughput, per the alpha sweep).
    """
    from ..mac.policies import FairBackoffPolicy
    from ..sched.runner import SimulationRun, subflow_shares_by_node

    scenario = fig1.make_scenario()
    analysis = ContentionAnalysis(scenario)
    allocation = basic_fairness_lp_allocation(analysis)
    shares = {
        s.sid: allocation.share(f.flow_id)
        for f in scenario.flows for s in f.subflows
    }
    per_node = subflow_shares_by_node(scenario, shares)
    result = SweepResult("2PA convergence (Fig. 1)", "alpha")
    for alpha in alphas:
        run = SimulationRun(
            scenario,
            lambda n, t, a=alpha: FairBackoffPolicy(
                n, t, per_node.get(n, {}), alpha=a
            ),
            seed=seed,
            series_window_seconds=window,
        )
        metrics = run.run(seconds=duration)
        k = metrics.series.convergence_window(
            allocation.shares, tolerance=0.35, settle=2
        )
        result.points.append(
            SweepPoint(alpha, {
                "converged_window": float(k) if k is not None else -1.0,
                "converged_second": (
                    k * window if k is not None else -1.0
                ),
                "total_effective": float(
                    metrics.total_effective_throughput_packets()
                ),
            })
        )
    return result


def mac_fidelity_study(
    duration: float = 8.0,
    seed: int = 1,
) -> SweepResult:
    """EIFS and capture-effect variants of the Fig. 1 comparison.

    Row parameter encodes the variant: 0 = baseline collision model,
    1 = EIFS enabled, 2 = capture at 10 dB, 3 = both.  The paper's
    qualitative conclusions should be robust to these PHY/MAC modelling
    choices — this study verifies that 2PA's loss advantage over plain
    802.11 survives each variant.
    """
    from ..mac import MacTimings, WirelessChannel
    from ..mac.policies import DcfPolicy, FairBackoffPolicy
    from ..sched.runner import SimulationRun, subflow_shares_by_node

    scenario = fig1.make_scenario()
    analysis = ContentionAnalysis(scenario)
    allocation = basic_fairness_lp_allocation(analysis)
    shares = {
        s.sid: allocation.share(f.flow_id)
        for f in scenario.flows for s in f.subflows
    }
    per_node = subflow_shares_by_node(scenario, shares)

    variants = [
        (0.0, False, None),
        (1.0, True, None),
        (2.0, False, 10.0),
        (3.0, True, 10.0),
    ]
    result = SweepResult("MAC fidelity variants (Fig. 1)", "variant")
    for code, use_eifs, capture in variants:
        timings = MacTimings(use_eifs=use_eifs)
        values: Dict[str, float] = {}
        for label, factory in (
            ("dcf", lambda n, t: DcfPolicy(n, t)),
            ("tpa", lambda n, t: FairBackoffPolicy(
                n, t, per_node.get(n, {}), alpha=0.001)),
        ):
            run = SimulationRun(scenario, factory, seed=seed,
                                timings=timings)
            run.channel.capture_threshold_db = capture
            if capture is not None:
                from ..phy.propagation import RadioParams

                run.channel.radio = RadioParams()
            metrics = run.run(seconds=duration)
            values[f"{label}_total"] = float(
                metrics.total_effective_throughput_packets()
            )
            values[f"{label}_loss_ratio"] = metrics.loss_ratio()
        result.points.append(SweepPoint(code, values))
    return result


ALL_ABLATIONS = {
    "alpha": alpha_sweep,
    "cwmin": cwmin_sweep,
    "buffer": buffer_sweep,
    "virtual-length": virtual_length_ablation,
    "scaling": scaling_study,
    "convergence": convergence_study,
    "mac-fidelity": mac_fidelity_study,
}
