"""Benches for the dynamic re-allocation fast path.

Measured speedups here compare against the *current* cold path, which
already contains this PR's shared solver work (clone-based max-min,
restricted pivot sweeps, probe skipping); against the actual pre-perf
commit the same timelines measure several times higher again.

The dynamic experiment re-runs phase 1 at every flow arrival/departure.
This file quantifies the two layers that make that cheap — contention
analysis restricted from a once-analyzed universe
(:class:`repro.perf.incremental.IncrementalContention`) and active-set
memoization — against the cold path (full contention rebuild with the
set-based clique kernel plus a simplex solve at every event), which is
what the code did before the perf layer existed.  Both paths solve
every LP with the plain ``"simplex"`` backend.

Both paths must produce identical allocation sequences; every bench
asserts that before reporting a time.
"""

import time

import pytest

from repro.core.allocation import basic_fairness_lp_allocation
from repro.core.contention import ContentionAnalysis, subflow_contention_graph
from repro.core.model import Scenario
from repro.graphs.cliques import maximal_cliques_set
from repro.perf.incremental import IncrementalContention
from repro.scenarios import make_random_scenario


def _churn_timeline(scenario):
    """Single-burst churn: each flow departs once and re-arrives.

    17 events over 9 distinct active sets for 8 churned flows — the
    active set returns to the full set between departures, the recurrence
    pattern arrival/departure workloads actually produce.
    """
    ids = list(scenario.flow_ids)
    steps = [list(ids)]
    for k in range(min(8, len(ids))):
        steps.append([f for f in ids if f != ids[k]])
        steps.append(list(ids))
    return steps


def _cold_sequence(scenario, steps):
    """Pre-perf-layer behaviour: full rebuild + cold solve per event."""
    out = []
    for act in steps:
        active = set(act)
        flows = [f for f in scenario.flows if f.flow_id in active]
        sub = Scenario(scenario.network, flows, name="bench-active",
                       capacity=scenario.capacity)
        graph = subflow_contention_graph(sub.network, sub.flows)
        cliques = maximal_cliques_set(graph)
        analysis = ContentionAnalysis(sub, graph=graph, cliques=cliques)
        res = basic_fairness_lp_allocation(analysis, backend="simplex")
        out.append(dict(res.shares))
    return out


def _fast_sequence(scenario, steps):
    """The perf layer: incremental contention + active-set memo."""
    inc = IncrementalContention(scenario)
    memo = {}
    out = []
    for act in steps:
        key = frozenset(act)
        if key not in memo:
            analysis = inc.analysis_for(act, name="bench-active")
            res = basic_fairness_lp_allocation(analysis,
                                               backend="simplex")
            memo[key] = dict(res.shares)
        out.append(dict(memo[key]))
    return out


@pytest.mark.parametrize("nodes,flows", [(30, 8), (60, 16)])
def test_bench_incremental_analysis(benchmark, nodes, flows):
    """Incremental analysis of a one-flow departure vs. the full set."""
    scenario = make_random_scenario(num_nodes=nodes, num_flows=flows,
                                    seed=3)
    inc = IncrementalContention(scenario)
    ids = list(scenario.flow_ids)

    def reanalyze():
        return inc.analysis_for(ids[:-1]), inc.analysis_for(ids)

    a, b = benchmark(reanalyze)
    assert a.graph.num_vertices() < b.graph.num_vertices()


@pytest.mark.parametrize("nodes,flows", [(30, 8)])
def test_bench_dynamic_fast_path(benchmark, nodes, flows):
    """The full churn timeline through the fast path."""
    scenario = make_random_scenario(num_nodes=nodes, num_flows=flows,
                                    seed=3)
    steps = _churn_timeline(scenario)
    out = benchmark(_fast_sequence, scenario, steps)
    assert len(out) == len(steps)


#: (nodes, flows, seed) points for the dynamic-sequence comparison; the
#: headline is the geometric mean over the largest size measured.
_DYNAMIC_SIZES = ((60, 16, 3), (80, 24, 3), (80, 24, 7), (80, 24, 11))


def test_emit_perf_dynamic(perf_section):
    """Emit the ``dynamic`` section of BENCH_perf.json.

    Runs the churn timeline through the cold path and the fast path
    (best-of-3 each, interleaved, GC parked between rounds), asserts the
    allocation sequences are identical, and records per-point speedups.
    The headline is the geometric mean over the largest network size —
    the same "densest measured" convention the clique section uses.
    """
    import gc

    points = []
    for nodes, flows, seed in _DYNAMIC_SIZES:
        scenario = make_random_scenario(num_nodes=nodes, num_flows=flows,
                                        seed=seed)
        steps = _churn_timeline(scenario)
        cold_s = fast_s = float("inf")
        cold_out = fast_out = None
        for _ in range(3):
            gc.collect()
            t0 = time.perf_counter()
            cold_out = _cold_sequence(scenario, steps)
            cold_s = min(cold_s, time.perf_counter() - t0)
            gc.collect()
            t0 = time.perf_counter()
            fast_out = _fast_sequence(scenario, steps)
            fast_s = min(fast_s, time.perf_counter() - t0)
        assert cold_out == fast_out, "fast path changed the allocations"
        points.append({
            "nodes": nodes,
            "flows": flows,
            "seed": seed,
            "events": len(steps),
            "distinct_active_sets": len({frozenset(s) for s in steps}),
            "cold_ms": cold_s * 1e3,
            "fast_ms": fast_s * 1e3,
            "speedup": cold_s / fast_s,
        })

    top = max(p["nodes"] for p in points)
    ratios = [p["speedup"] for p in points if p["nodes"] == top]
    headline = 1.0
    for r in ratios:
        headline *= r
    perf_section("dynamic", {
        "timeline": ("single-burst churn: each of 8 flows departs and "
                     "re-arrives (17 events, 9 distinct active sets)"),
        "cold_path": ("full contention rebuild (set-kernel cliques) + "
                      "cold simplex per event"),
        "fast_path": "IncrementalContention + active-set memo",
        "points": points,
        "headline_speedup": headline ** (1.0 / len(ratios)),
    })
