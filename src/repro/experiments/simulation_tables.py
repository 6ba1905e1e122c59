"""Tables II and III: the simulation experiments.

Runs every compared system on the paper's two scenarios and prints rows in
the paper's format (packets delivered per subflow, total effective
throughput, lost packets, loss ratio).

The paper simulates T = 1000 s in ns-2; a pure-Python event simulator is
two orders of magnitude slower, so the default session here is 40 s
(configurable) and counts scale accordingly — the claims under test are
about *ratios* between subflows and *ordering* between systems, which
stabilize within a few seconds of simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.model import Scenario, SubflowId
from ..mac import MacTimings
from ..sim import NULL_TRACER, Tracer
from ..sched import (
    SystemBuild,
    TrafficConfig,
    build_2pa,
    build_80211,
    build_two_tier,
)
from ..scenarios import fig1, fig6

#: Default simulated session length (seconds).
DEFAULT_DURATION = 40.0


@dataclass
class SystemResult:
    """One column of a results table."""

    system: str
    subflow_packets: Dict[SubflowId, int]
    flow_packets: Dict[str, int]
    total_effective: int
    lost: int
    loss_ratio: float
    allocation: Optional[Dict[str, float]] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready record of this column (stable string keys)."""
        return {
            "system": self.system,
            "subflow_packets": {
                str(sid): count
                for sid, count in sorted(self.subflow_packets.items())
            },
            "flow_packets": dict(sorted(self.flow_packets.items())),
            "total_effective": self.total_effective,
            "lost": self.lost,
            "loss_ratio": self.loss_ratio,
            "allocation": (
                dict(sorted(self.allocation.items()))
                if self.allocation is not None else None
            ),
        }


@dataclass
class SimulationTable:
    """A full table: one scenario, several systems."""

    name: str
    scenario_name: str
    duration: float
    results: List[SystemResult] = field(default_factory=list)

    def column(self, system: str) -> SystemResult:
        for result in self.results:
            if result.system == system:
                return result
        raise KeyError(f"no column for system {system!r}")

    def to_dict(self) -> Dict[str, object]:
        """The whole table as one JSON-ready record."""
        return {
            "name": self.name,
            "scenario": self.scenario_name,
            "duration_s": self.duration,
            "systems": [r.to_dict() for r in self.results],
        }

    def render(self) -> str:
        """Plain-text rendering in the paper's row order."""
        systems = [r.system for r in self.results]
        header = f"{'Parameters':<16}" + "".join(
            f"{s:>12}" for s in systems
        )
        lines = [
            f"== {self.name} (T = {self.duration:g} s simulated) ==",
            header,
        ]
        sids = sorted(self.results[0].subflow_packets)
        for sid in sids:
            row = f"r_{sid} T".ljust(16)
            row += "".join(
                f"{r.subflow_packets[sid]:>12}" for r in self.results
            )
            lines.append(row)
        lines.append(
            "sum r_i T".ljust(16)
            + "".join(f"{r.total_effective:>12}" for r in self.results)
        )
        lines.append(
            "lost packets".ljust(16)
            + "".join(f"{r.lost:>12}" for r in self.results)
        )
        lines.append(
            "loss ratio".ljust(16)
            + "".join(f"{r.loss_ratio:>12.3f}" for r in self.results)
        )
        return "\n".join(lines)


def _run_system(
    build: SystemBuild, duration: float
) -> SystemResult:
    metrics = build.run.run(seconds=duration)
    return SystemResult(
        system=build.name,
        subflow_packets=dict(metrics.subflow_delivered),
        flow_packets={
            fid: metrics.flows[fid].delivered_end_to_end
            for fid in metrics.flows
        },
        total_effective=metrics.total_effective_throughput_packets(),
        lost=metrics.total_lost_packets(),
        loss_ratio=metrics.loss_ratio(),
        allocation=(
            dict(build.allocation.shares) if build.allocation else None
        ),
    )


def run_table(
    scenario: Scenario,
    name: str,
    systems: Sequence[str],
    duration: float = DEFAULT_DURATION,
    seed: int = 1,
    alpha: Optional[float] = None,
    timings: Optional[MacTimings] = None,
    traffic: Optional[TrafficConfig] = None,
    tracer: Tracer = NULL_TRACER,
) -> SimulationTable:
    """Run the named ``systems`` on ``scenario`` and assemble a table.

    Recognized system names: ``802.11``, ``two-tier``, ``2PA-C``,
    ``2PA-D`` (and plain ``2PA`` as an alias for ``2PA-C``).  ``tracer``
    is shared by every system's run (enable categories before passing).
    """
    table = SimulationTable(name, scenario.name, duration)
    for system in systems:
        kwargs: Dict[str, object] = {"seed": seed, "timings": timings,
                                     "traffic": traffic, "tracer": tracer}
        if system == "802.11":
            build = build_80211(scenario, **kwargs)
        elif system == "two-tier":
            if alpha is not None:
                kwargs["alpha"] = alpha
            build = build_two_tier(scenario, **kwargs)
        elif system == "maxmin":
            if alpha is not None:
                kwargs["alpha"] = alpha
            from ..sched.systems import build_maxmin

            build = build_maxmin(scenario, **kwargs)
        elif system in ("2PA", "2PA-C"):
            if alpha is not None:
                kwargs["alpha"] = alpha
            build = build_2pa(scenario, "centralized", **kwargs)
        elif system == "2PA-D":
            if alpha is not None:
                kwargs["alpha"] = alpha
            build = build_2pa(scenario, "distributed", **kwargs)
        else:
            raise ValueError(f"unknown system {system!r}")
        table.results.append(_run_system(build, duration))
    return table


def run_table2(
    duration: float = DEFAULT_DURATION, seed: int = 1, **kwargs
) -> SimulationTable:
    """Table II: scenario 1 (Fig. 1), systems 802.11 / two-tier / 2PA."""
    scenario = fig1.make_scenario()
    return run_table(
        scenario, "Table II (scenario 1)",
        ["802.11", "two-tier", "2PA-C"], duration, seed, **kwargs
    )


def run_table3(
    duration: float = DEFAULT_DURATION, seed: int = 1, **kwargs
) -> SimulationTable:
    """Table III: scenario 2 (Fig. 6), all four systems."""
    scenario = fig6.make_scenario()
    return run_table(
        scenario, "Table III (scenario 2)",
        ["802.11", "two-tier", "2PA-C", "2PA-D"], duration, seed, **kwargs
    )
