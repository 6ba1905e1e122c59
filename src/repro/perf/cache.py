"""Content-addressed caching of per-scenario analysis and allocation.

The report generator and the worked-examples module analyze the same
handful of scenarios repeatedly — often the *same* scenario object, but
also structurally equal copies built by different call sites.  The cache
keys on a content hash of the scenario's canonical serialization
(:func:`repro.scenarios.io.scenario_to_dict` rendered as sorted-key
JSON), so structurally equal scenarios share entries no matter how they
were constructed, while any change to topology, flows, weights, or
capacity changes the fingerprint and misses cleanly.

Cached values are returned by reference: treat
:class:`~repro.core.contention.ContentionAnalysis` and allocation
results as immutable (everything in this codebase already does).  Hits
and misses are reported as ``perf.cache.hit`` / ``perf.cache.miss``
through the :mod:`repro.obs` registry.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Any, Callable, Optional, Tuple

from ..core.allocation import basic_fairness_lp_allocation
from ..core.contention import ContentionAnalysis
from ..core.model import Scenario
from ..obs.registry import incr
from ..obs.trace import span
from ..scenarios.io import scenario_to_dict

__all__ = [
    "AnalysisCache",
    "cached_basic_fairness_allocation",
    "cached_contention_analysis",
    "clear_default_cache",
    "default_cache",
    "scenario_fingerprint",
]


def scenario_fingerprint(scenario: Scenario) -> str:
    """A content hash identifying the scenario up to structural equality."""
    with span("perf.cache.fingerprint"):
        doc = json.dumps(
            scenario_to_dict(scenario), sort_keys=True, default=str
        )
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()


class AnalysisCache:
    """Size-bounded LRU over scenario-derived computations.

    Entries are keyed by ``(scenario fingerprint, kind)``, where ``kind``
    names the computation (``"analysis"``, ``"lp-allocation:..."``), so
    one cache instance serves every derived artifact of a scenario.
    """

    def __init__(self, max_entries: int = 64) -> None:
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def get_or_compute(
        self,
        scenario: Scenario,
        kind: str,
        compute: Callable[[], Any],
    ) -> Any:
        """The cached value for ``(scenario, kind)``, computing on miss."""
        key = (scenario_fingerprint(scenario), kind)
        if key in self._entries:
            self.hits += 1
            incr("perf.cache.hit")
            self._entries.move_to_end(key)
            return self._entries[key]
        self.misses += 1
        incr("perf.cache.miss")
        value = compute()
        self._entries[key] = value
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return value

    # ------------------------------------------------------------------
    def analysis(self, scenario: Scenario) -> ContentionAnalysis:
        """A (shared) :class:`ContentionAnalysis` of ``scenario``."""
        return self.get_or_compute(
            scenario, "analysis", lambda: ContentionAnalysis(scenario)
        )

    def basic_fairness_allocation(
        self,
        scenario: Scenario,
        capacity: Optional[float] = None,
        refine_maxmin: bool = True,
    ):
        """A (shared) phase-1 LP allocation of ``scenario``."""
        kind = f"lp-allocation:cap={capacity}:maxmin={refine_maxmin}"
        return self.get_or_compute(
            scenario,
            kind,
            lambda: basic_fairness_lp_allocation(
                self.analysis(scenario),
                capacity=capacity,
                refine_maxmin=refine_maxmin,
            ),
        )


# ----------------------------------------------------------------------
# Module-level default cache (what report.py / worked_examples.py use)
# ----------------------------------------------------------------------

_default = AnalysisCache()


def default_cache() -> AnalysisCache:
    """The process-wide cache behind the module-level helpers."""
    return _default


def clear_default_cache() -> None:
    """Drop every entry of the default cache (tests, memory pressure)."""
    _default.clear()


def cached_contention_analysis(scenario: Scenario) -> ContentionAnalysis:
    """:class:`ContentionAnalysis` of ``scenario`` via the default cache."""
    return _default.analysis(scenario)


def cached_basic_fairness_allocation(
    scenario: Scenario,
    capacity: Optional[float] = None,
    refine_maxmin: bool = True,
):
    """Phase-1 LP allocation of ``scenario`` via the default cache."""
    return _default.basic_fairness_allocation(
        scenario, capacity=capacity, refine_maxmin=refine_maxmin
    )
