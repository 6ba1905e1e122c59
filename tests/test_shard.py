"""Tests for the component-sharded allocation engine (``perf/shard.py``).

The contract under test is *bitwise* identity: the Prop. 2 LP
factorizes exactly over connected components of the contention graph,
so the sharded solve — per-component LPs, per-component memo, parallel
fan-out — must reproduce the monolithic
:func:`~repro.core.allocation.basic_fairness_lp_allocation` result to
the last bit, on every library scenario, at any job count, from a cold
or a warm (restored) cache.  Alongside the differentials: dirty
tracking (churn touching one island re-solves only that island), memo
dump/load round-trips, the batch admission API, and the runtime seam.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.allocation import (
    basic_fairness_lp_allocation,
    build_basic_fairness_lp,
)
from repro.core.contention import ContentionAnalysis
from repro.core.model import Flow, Network, Scenario
from repro.lp.problem import DenseLP
from repro.obs import registry as obs
from repro.obs.registry import MetricsRegistry
from repro.perf.shard import (
    BatchAllocationEngine,
    ShardedSolver,
    component_problems,
)
from repro.resilience.admission import ADMIT, REASON_FLOOR
from repro.resilience.runtime import AllocatorRuntime, RuntimeConfig
from repro.verify.oracles import cold_journal_mismatches

from tests.test_lp_revised import LIBRARY

#: fig3's shortcut topology has infeasible basic floors: the monolithic
#: solve raises, and the sharded solve must raise the same way.
INFEASIBLE = {"fig3_shortcut"}
FEASIBLE = sorted(set(LIBRARY) - INFEASIBLE)


def _chain(prefix, n):
    nodes = [f"{prefix}{i}" for i in range(n)]
    links = [(nodes[i], nodes[i + 1]) for i in range(n - 1)]
    return nodes, links


def chain_islands(*weights):
    """Disjoint 4-hop chains carrying one flow each (``A``, ``B``, ...,
    weighted by ``weights``): one contention component per chain, and
    chains of equal weight form the same LP shape."""
    nodes, links, flows = [], [], []
    for i, weight in enumerate(weights):
        cn, cl = _chain(chr(ord("a") + i), 5)
        nodes += cn
        links += cl
        flows.append(Flow(chr(ord("A") + i), tuple(cn), weight))
    return Scenario(Network.from_links(nodes, links), flows,
                    name=f"chain-islands-{len(weights)}")


def two_islands(weight_b=1.0):
    """Two disjoint 4-hop chains: exactly two contention components,
    one shape unless ``weight_b`` differs from A's weight 1."""
    return chain_islands(1.0, weight_b)


def ladder_islands(k, chain=10, span=3, flows_per=6):
    """``k`` disjoint chains carrying staggered ``span``-hop flows with
    weights cycling 1/2/3: ``k`` multi-clique contention components."""
    nodes, links, flows = [], [], []
    for i in range(k):
        cn, cl = _chain(f"c{i}_", chain)
        nodes += cn
        links += cl
        for j in range(flows_per):
            start = j % (chain - span)
            flows.append(Flow(f"f{i}_{j}", tuple(cn[start:start + span + 1]),
                              1.0 + (j % 3)))
    return Scenario(Network.from_links(nodes, links), flows,
                    name=f"ladder-islands-{k}")


class TestLibraryDifferential:
    @pytest.mark.parametrize("name", FEASIBLE)
    def test_sharded_matches_monolithic_bitwise(self, name):
        analysis = ContentionAnalysis(LIBRARY[name]())
        reference = basic_fairness_lp_allocation(analysis).shares
        shares = ShardedSolver().solve(analysis)
        assert shares == reference  # bitwise, no tolerance

    def test_infeasible_scenario_raises_like_monolithic(self):
        analysis = ContentionAnalysis(LIBRARY["fig3_shortcut"]())
        with pytest.raises(RuntimeError, match="basic-fairness LP"):
            basic_fairness_lp_allocation(analysis)
        with pytest.raises(RuntimeError, match="basic-fairness LP"):
            ShardedSolver().solve(analysis)

    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_component_lps_byte_identical_to_monolithic_builder(
        self, name
    ):
        """The single-pass splitter reproduces ``build_basic_fairness_lp``
        exactly: same variable order, objective, constraint coefficient
        insertion order, bounds, labels, and lower bounds."""
        scenario = LIBRARY[name]()
        analysis = ContentionAnalysis(scenario)
        problems = component_problems(analysis)
        assert len(problems) == len(analysis.groups)
        for problem, group in zip(problems, analysis.groups):
            reference = build_basic_fairness_lp(
                analysis, group, scenario.capacity
            )
            assert problem.lp.variables == reference.variables
            assert problem.lp.objective == reference.objective
            assert problem.lp.lower_bounds == reference.lower_bounds
            assert [
                (dict(c.coeffs), c.bound, c.label)
                for c in problem.lp.constraints
            ] == [
                (dict(c.coeffs), c.bound, c.label)
                for c in reference.constraints
            ]
            assert problem.group_ids == tuple(
                f.flow_id for f in group
            )

    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_component_arrays_equal_the_lp_round_trip(self, name):
        """The solve reads each component's arrays straight off its
        clique rows; they equal ``DenseLP.from_problem`` of its LP bit
        for bit, so skipping the LP changes no solve."""
        for problem in component_problems(
                ContentionAnalysis(LIBRARY[name]())):
            mine, reference = problem.dense(), DenseLP.from_problem(
                problem.lp)
            assert mine.names == reference.names
            for field in ("c", "a", "b", "lb"):
                got, want = getattr(mine, field), getattr(reference, field)
                assert got.dtype == want.dtype
                assert got.shape == want.shape
                assert np.array_equal(got, want)


class TestShardedSolverMemo:
    def test_second_solve_reuses_every_component(self):
        analysis = ContentionAnalysis(two_islands())
        solver = ShardedSolver()
        first = solver.solve(analysis)
        # A and B are one shape: solved once, B takes A's result.
        assert solver.last_stats == {
            "components": 2, "dirty": 1, "reused": 1,
        }
        second = solver.solve(analysis)
        assert second == first
        assert solver.last_stats["dirty"] == 0
        assert solver.last_stats["reused"] == 2

    def test_dirty_tracking_is_per_component(self):
        """Churn touching island B re-solves B only; A is reused."""
        solver = ShardedSolver()
        solver.solve(ContentionAnalysis(two_islands()))
        churned = ContentionAnalysis(two_islands(weight_b=2.0))
        shares = solver.solve(churned)
        assert solver.last_stats["dirty"] == 1
        assert solver.last_stats["reused"] == 1
        assert shares == basic_fairness_lp_allocation(churned).shares

    def test_memo_disabled_always_solves(self):
        """``max_entries=0`` keeps nothing between calls: every solve
        re-solves each distinct shape, and nothing is dumped."""
        analysis = ContentionAnalysis(two_islands(weight_b=2.0))
        reference = basic_fairness_lp_allocation(analysis).shares
        solver = ShardedSolver(max_entries=0)
        assert solver.solve(analysis) == reference
        assert solver.solve(analysis) == reference
        assert solver.last_stats["dirty"] == 2
        assert solver.last_stats["reused"] == 0
        assert solver.dump_state() == []

    def test_lru_eviction_bounds_the_memo(self):
        """A one-entry memo stays at one entry and still solves each
        shape once per call: A and B share a shape, C does not."""
        analysis = ContentionAnalysis(chain_islands(1.0, 1.0, 2.0))
        reference = basic_fairness_lp_allocation(analysis).shares
        solver = ShardedSolver(max_entries=1)
        assert solver.solve(analysis) == reference
        assert solver.last_stats == {
            "components": 3, "dirty": 2, "reused": 1,
        }
        assert len(solver.dump_state()) == 1
        # C's shape was stored last and evicted A's: A and B miss
        # together, C hits, then A's shape evicts C's.
        assert solver.solve(analysis) == reference
        assert solver.last_stats == {
            "components": 3, "dirty": 1, "reused": 2,
        }
        assert len(solver.dump_state()) == 1

    def test_dump_load_round_trip_keeps_reuse_bitwise(self):
        analysis = ContentionAnalysis(two_islands())
        warm = ShardedSolver()
        reference = warm.solve(analysis)
        dump = warm.dump_state()
        restored = ShardedSolver()
        restored.load_state(dump)
        shares = restored.solve(analysis)
        assert shares == reference
        # Same-process fingerprints are stable, so the restored cache
        # hits on every component and its dump replays identically.
        assert restored.last_stats["dirty"] == 0
        assert restored.last_stats["reused"] == 2
        assert restored.dump_state() == dump

    def test_shard_counters_and_latency_observation(self):
        registry = MetricsRegistry()
        obs.set_registry(registry)
        try:
            solver = ShardedSolver()
            analysis = ContentionAnalysis(two_islands())
            solver.solve(analysis)
            solver.solve(analysis)
        finally:
            obs.set_registry(None)
        snap = registry.snapshot()
        assert snap["counters"]["runtime.shard.components"] == 4
        assert snap["counters"]["runtime.shard.dirty"] == 1
        assert snap["counters"]["runtime.shard.reused"] == 3
        assert snap["histograms"]["runtime.shard.parallel_ms"]["count"] == 2


class TestBatchAllocationEngine:
    def test_unknown_flow_raises(self):
        engine = BatchAllocationEngine(ContentionAnalysis(two_islands()))
        with pytest.raises(KeyError, match="unknown flows"):
            engine.register(["A", "nope"])

    def test_register_allocate_release_matches_monolithic(self):
        engine = BatchAllocationEngine(ContentionAnalysis(two_islands()))
        decisions = engine.register(["A", "B"])
        assert [d.action for d in decisions] == [ADMIT, ADMIT]
        rates = engine.allocate()
        assert rates == basic_fairness_lp_allocation(
            engine.active_analysis()
        ).shares
        assert engine.rate_of("A") == rates["A"]
        engine.release(["B"])
        rates = engine.allocate()
        assert set(rates) == {"A"}
        # Island A's component was untouched by the release: reused.
        assert engine.solver.last_stats["reused"] == 1
        assert engine.solver.last_stats["dirty"] == 0
        assert engine.rate_of("B") == 0.0

    def test_duplicate_and_active_ids_are_skipped(self):
        engine = BatchAllocationEngine(ContentionAnalysis(two_islands()))
        engine.register(["A"])
        decisions = engine.register(["A", "B", "B"])
        assert [d.flow_id for d in decisions] == ["B"]

    def test_infeasible_batch_falls_back_to_greedy_fifo(self):
        """A shortcut link gives flow L a 4-subflow clique (> its
        virtual length 3), so its basic floor is infeasible; the batch
        probe over {L, S} fails, the greedy FIFO rejects L and admits
        the 1-hop flow S, and the epoch still solves."""
        nodes = ["a0", "a1", "a2", "a3", "a4"]
        links = [("a0", "a1"), ("a1", "a2"), ("a2", "a3"),
                 ("a3", "a4"), ("a0", "a4")]
        scenario = Scenario(
            Network.from_links(nodes, links),
            [Flow("L", tuple(nodes), 1.0), Flow("S", ("a0", "a1"), 1.0)],
            name="shortcut-batch",
        )
        registry = MetricsRegistry()
        obs.set_registry(registry)
        try:
            engine = BatchAllocationEngine(ContentionAnalysis(scenario))
            decisions = engine.register(["L", "S"])
        finally:
            obs.set_registry(None)
        verdicts = {d.flow_id: d for d in decisions}
        assert verdicts["S"].action == ADMIT
        assert verdicts["L"].action != ADMIT
        assert verdicts["L"].reason == REASON_FLOOR
        counters = registry.snapshot()["counters"]
        assert counters["batch.register.greedy_fallbacks"] >= 1
        rates = engine.allocate()  # the admitted subset is solvable
        assert set(rates) == engine.active == {"S"}
        assert rates == basic_fairness_lp_allocation(
            engine.active_analysis()
        ).shares


class TestRuntimeShardSeam:
    @pytest.mark.parametrize("name", ["fig4", "parallel_chains", "grid"])
    def test_runtime_sharded_vs_monolithic_journal(self, name):
        """The seam's contract: every committed epoch of the sharded
        runtime equals a cold monolithic solve of its active flows."""
        scenario = LIBRARY[name]()
        ids = [f.flow_id for f in scenario.flows]
        runtime = AllocatorRuntime(scenario)
        runtime.set_active(ids)
        runtime.set_active(ids[1:])
        runtime.set_active(ids)
        assert [len(r.active) for r in runtime.journal] == [
            len(ids), len(ids) - 1, len(ids)
        ]
        assert cold_journal_mismatches(scenario, runtime.journal) == []

    def test_island_churn_matches_a_cold_monolithic_loop_bitwise(self):
        """Churn touching island 0 only: every committed epoch equals a
        monolithic reference loop (universe analysis restricted to the
        active set, one cold whole-network solve, an active-set memo),
        and only the dirty island is re-solved.  The islands are one
        shape, so the first epoch solves it once."""
        from repro.perf.incremental import IncrementalContention

        k, epochs = 3, 4
        scenario = ladder_islands(k)
        ids = [f.flow_id for f in scenario.flows]
        steps = [ids] + [[f for f in ids if f != f"f0_{e}"]
                         for e in range(epochs)]
        registry = MetricsRegistry()
        obs.set_registry(registry)
        try:
            runtime = AllocatorRuntime(
                scenario, RuntimeConfig(admission=False)
            )
            journal = [runtime.set_active(active) for active in steps]
        finally:
            obs.set_registry(None)

        inc, memo = IncrementalContention(scenario), {}
        reference = []
        for active in steps:
            key = frozenset(active)
            if key not in memo:
                memo[key] = dict(basic_fairness_lp_allocation(
                    inc.analysis_for(active, name="reference-active"),
                ).shares)
            reference.append(memo[key])
        assert journal == reference
        counters = registry.snapshot()["counters"]
        assert counters["runtime.shard.reused"] == (k - 1) + epochs * (k - 1)
        assert counters["runtime.shard.dirty"] == 1 + epochs

    def test_churn_one_island_resolves_only_dirty_components(self):
        runtime = AllocatorRuntime(
            two_islands(), RuntimeConfig(admission=False)
        )
        runtime.set_active(["A", "B"])
        assert runtime._shard.last_stats == {
            "components": 2, "dirty": 1, "reused": 1,
        }
        runtime.set_active(["A"])  # island B departs; A is untouched
        assert runtime._shard.last_stats == {
            **runtime._shard.last_stats,
            "components": 1, "dirty": 0, "reused": 1,
        }

    def test_unchanged_epoch_counts_as_memo_hit(self):
        registry = MetricsRegistry()
        obs.set_registry(registry)
        try:
            runtime = AllocatorRuntime(
                two_islands(), RuntimeConfig(admission=False)
            )
            first = runtime.set_active(["A", "B"])
            again = runtime.set_active(["A", "B"])
        finally:
            obs.set_registry(None)
        assert again == first
        counters = registry.snapshot()["counters"]
        assert counters["runtime.alloc.memo_hits"] >= 1
        assert counters["runtime.shard.reused"] >= 2


#: Runs in a fresh interpreter: ``dump`` solves the star islands cold
#: and prints fingerprints, shares and the memo dump; ``load PATH``
#: restores a dump first.
_HASH_SEED_SCRIPT = """
import json, sys
from repro.perf.shard import ShardedSolver, component_problems
from tests.test_batch_store import star_islands

analysis = star_islands([4, 3, 5, 2, 1])
solver = ShardedSolver()
if sys.argv[1] == "load":
    with open(sys.argv[2]) as fh:
        solver.load_state(json.load(fh))
shares = solver.solve(analysis)
print(json.dumps({
    "fingerprints": [p.fingerprint for p in component_problems(analysis)],
    "shares": list(shares.items()),
    "stats": solver.last_stats,
    "memo": solver.dump_state(),
}))
"""


class TestCanonicalFingerprints:
    @staticmethod
    def _run(hash_seed, *args):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                   PYTHONPATH=os.pathsep.join([str(root / "src"),
                                               str(root)]))
        out = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT, *args],
            env=env, cwd=root, capture_output=True, text=True, check=True,
        )
        return json.loads(out.stdout)

    def test_fingerprints_and_memo_survive_a_hash_seed_change(
        self, tmp_path
    ):
        first = self._run(1, "dump")
        memo = tmp_path / "memo.json"
        memo.write_text(json.dumps(first["memo"]))
        second = self._run(2, "load", str(memo))
        assert second["fingerprints"] == first["fingerprints"]
        # The memo dumped under one seed serves every component under
        # the other, with the same shares.
        assert second["stats"]["dirty"] == 0
        assert second["stats"]["reused"] == len(first["fingerprints"])
        assert second["shares"] == first["shares"]
