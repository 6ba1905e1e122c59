"""Contention analysis of changing active sets over one fixed topology.

Pairwise contention between two subflows does not depend on which
*other* flows are active, and every maximal clique of an active set's
contention graph is the restriction of one of the universe's.
:class:`IncrementalContention` therefore analyzes the universe — every
flow of the scenario — once, and reads each active set's analysis off
its index with :func:`~repro.core.contention.restricted_analysis`:
bit-identical to a cold rebuild, with no geometry re-checks and no
clique enumeration after construction.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.contention import ContentionAnalysis, restricted_analysis
from ..core.model import Scenario
from ..obs.registry import incr
from ..obs.trace import span

__all__ = ["IncrementalContention"]


class IncrementalContention:
    """Analyses of any subset of ``scenario``'s flows.

    :attr:`universe` is the cold analysis of the whole scenario; each
    :meth:`analysis_for` call restricts it to the requested flows.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.universe = ContentionAnalysis(scenario)

    def analysis_for(
        self, flow_ids: Iterable[str], name: Optional[str] = None
    ) -> ContentionAnalysis:
        """A :class:`ContentionAnalysis` of ``flow_ids``, in scenario order."""
        wanted = set(flow_ids)
        unknown = wanted.difference(self.scenario.flow_ids)
        if unknown:
            raise KeyError(f"unknown flows {sorted(unknown)}")
        with span("perf.incremental.analysis"):
            result = restricted_analysis(
                self.universe,
                [f for f in self.scenario.flows if f.flow_id in wanted],
                name if name is not None else f"{self.scenario.name}-active",
            )
        incr("perf.incremental.analyses")
        return result
