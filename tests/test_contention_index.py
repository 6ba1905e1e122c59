"""The universe contention index (``core/contention.py``) against the
object-level paths it replaced.

:class:`~repro.core.contention.ContentionIndex` turns a universe analysis
into integers once; every active subset's analysis, component LPs, shape
keys and admission verdicts are then read off it.  The contract under
test is that nothing observable changes:

* :func:`restricted_analysis` equals a cold :class:`ContentionAnalysis`
  of the subset — cliques in the same order, the same groups, the same
  graph vertex order;
* :func:`component_problems` builds LPs byte-identical to per-group
  :func:`build_basic_fairness_lp` over the cold analysis;
* two problems share a shape key iff they share the JSON-encoded key
  the memo used before (:func:`json_shape_key`, kept here as the
  oracle);
* on a certified universe (:func:`floors_certified`) the admission
  predicate holds for every subset, and an uncertified one (shortcut
  paths) still probes and still refuses.

Scenarios are random geometric networks whose flows follow random
simple walks (not shortest paths, so many carry shortcuts) with mixed
``int``/``float`` weights, next to shortest-path flows.
"""

import hashlib
import json
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.resilience.admission as admission
import repro.resilience.runtime as runtime_module
from repro.core.allocation import build_basic_fairness_lp
from repro.core.contention import ContentionAnalysis, restricted_analysis
from repro.core.model import Flow, Network, Scenario
from repro.perf.shard import BatchAllocationEngine, component_problems
from repro.resilience.admission import (
    ADMIT,
    REASON_FLOOR,
    basic_share_feasible,
    floors_certified,
)
from repro.resilience.runtime import AllocatorRuntime, RuntimeConfig
from repro.scenarios import fig3
from repro.scenarios.random_topology import (
    random_connected_network,
    random_flows,
)

WEIGHTS = (1.0, 2.0, 3, 0.5)


def json_shape_key(lp, weights, backend):
    """The memo's previous shape key: the LP in solver-visible order,
    variables as column positions, JSON-encoded and hashed."""
    names = lp.variables
    column = {v: j for j, v in enumerate(names)}
    doc = [
        backend,
        len(names),
        sorted(range(len(names)), key=names.__getitem__),
        [(column[v], c) for v, c in lp.objective.items()],
        [
            (sorted((column[v], c) for v, c in con.coeffs.items()),
             con.bound)
            for con in lp.constraints
        ],
        [(column[v], b) for v, b in lp.lower_bounds.items()],
        [(column[v], w) for v, w in weights.items()],
    ]
    blob = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def walk_flows(network, rng, count, start_id):
    """``count`` flows along random simple walks of 1-5 hops."""
    nodes = network.nodes
    flows = []
    while len(flows) < count:
        path = [rng.choice(nodes)]
        for _ in range(rng.randint(1, 5)):
            options = [n for n in network.neighbors(path[-1])
                       if n not in path]
            if not options:
                break
            path.append(rng.choice(options))
        if len(path) > 1:
            flows.append(Flow(f"w{start_id + len(flows)}", path,
                              rng.choice(WEIGHTS)))
    return flows


def random_universe(seed):
    """A random scenario mixing walk and shortest-path flows, or
    ``None`` for an unconnectable draw."""
    rng = random.Random(seed)
    try:
        network = random_connected_network(rng.randint(6, 14), seed=seed)
        shortest = random_flows(network, rng.randint(0, 4), seed=seed,
                                max_hops=4, weights=[1.0, 2.0])
    except RuntimeError:
        return None
    flows = shortest + walk_flows(network, rng, rng.randint(1, 5), 0)
    return Scenario(network, flows, name=f"index-{seed}", capacity=1.0)


def random_subsets(scenario, seed, count=4):
    """Random active subsets, each in universe order."""
    rng = random.Random(seed)
    return [[f for f in scenario.flows if rng.random() < 0.6]
            for _ in range(count)]


def cold(scenario, flows):
    return ContentionAnalysis(Scenario(scenario.network, flows,
                                       name="cold",
                                       capacity=scenario.capacity))


def lp_view(lp):
    return (lp.variables, lp.objective, lp.lower_bounds,
            [(dict(c.coeffs), c.bound, c.label) for c in lp.constraints])


SEEDS = st.integers(min_value=0, max_value=10**6)
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much])


class TestRestrictedAnalysis:
    @SETTINGS
    @given(SEEDS)
    def test_equals_a_cold_analysis(self, seed):
        scenario = random_universe(seed)
        assume(scenario is not None)
        universe = ContentionAnalysis(scenario)
        for flows in random_subsets(scenario, seed):
            fast = restricted_analysis(universe, flows, "fast")
            reference = cold(scenario, flows)
            assert fast.cliques == reference.cliques
            assert [[f.flow_id for f in g] for g in fast.groups] == \
                [[f.flow_id for f in g] for g in reference.groups]
            assert fast.graph.vertices() == reference.graph.vertices()
            assert sorted(map(repr, fast.graph.edges())) == \
                sorted(map(repr, reference.graph.edges()))
            assert fast.clique_terms == reference.clique_terms
            assert fast.scenario.flows == flows

    def test_unknown_flow_raises(self):
        scenario = fig3.make_chain_scenario()
        universe = ContentionAnalysis(scenario)
        with pytest.raises(KeyError):
            restricted_analysis(universe, [Flow("ghost", ["C0", "C1"])],
                                "x")


class TestComponentProblems:
    @SETTINGS
    @given(SEEDS)
    def test_lps_byte_identical_to_the_group_builder(self, seed):
        scenario = random_universe(seed)
        assume(scenario is not None)
        universe = ContentionAnalysis(scenario)
        for flows in random_subsets(scenario, seed):
            fast = restricted_analysis(universe, flows, "fast")
            reference = cold(scenario, flows)
            problems = component_problems(fast)
            assert len(problems) == len(reference.groups)
            for problem, group in zip(problems, reference.groups):
                lp = build_basic_fairness_lp(reference, group,
                                             scenario.capacity)
                assert lp_view(problem.lp) == lp_view(lp)
                for mine, theirs in zip(problem.lp.to_dense(),
                                        lp.to_dense()):
                    assert mine.tobytes() == theirs.tobytes()
                assert problem.weights == {f"r_{f.flow_id}": f.weight
                                           for f in group}

    @SETTINGS
    @given(SEEDS)
    def test_shape_keys_partition_like_the_json_keys(self, seed):
        scenario = random_universe(seed)
        assume(scenario is not None)
        universe = ContentionAnalysis(scenario)
        pairs = set()
        for flows in random_subsets(scenario, seed, count=6):
            for backend in ("revised", "simplex"):
                for p in component_problems(
                    restricted_analysis(universe, flows, "x"),
                    backend=backend,
                ):
                    pairs.add((p.fingerprint,
                               json_shape_key(p.lp, p.weights, backend)))
        assert len({new for new, _old in pairs}) == len(pairs)
        assert len({old for _new, old in pairs}) == len(pairs)

    def test_identical_islands_share_keys_and_weights_split_them(self):
        """Star islands of one-hop flows: equal islands collide under
        both encodings, and an int weight is not the float weight."""
        nodes, links, flows = [], [], []
        for i, weight in enumerate((1.0, 1.0, 2, 2.0)):
            hub = f"h{i}"
            nodes.append(hub)
            for j in range(3):
                nodes.append(f"l{i}_{j}")
                links.append((hub, f"l{i}_{j}"))
                flows.append(Flow(f"f{i}_{j}", [hub, f"l{i}_{j}"], weight))
        scenario = Scenario(Network.from_links(nodes, links), flows)
        problems = component_problems(ContentionAnalysis(scenario))
        new = [p.fingerprint for p in problems]
        old = [json_shape_key(p.lp, p.weights, p.backend)
               for p in problems]
        assert new[0] == new[1] and old[0] == old[1]
        assert new[2] != new[3] and old[2] != old[3]
        assert len(set(new)) == len(set(old)) == 3

    def test_keys_ignore_the_hash_seed(self, tmp_path):
        """Keys are pure functions of the LP: a fresh interpreter under
        another hash seed computes the same ones."""
        import os
        import subprocess
        import sys

        code = (
            "from repro.core.contention import ContentionAnalysis\n"
            "from repro.perf.shard import component_problems\n"
            "from repro.scenarios import fig6\n"
            "print([p.fingerprint for p in component_problems("
            "ContentionAnalysis(fig6.make_scenario()))])\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True,
                text=True, check=True,
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hs),
            ).stdout
            for hs in ("7", "12345")
        }
        assert len(outputs) == 1


class TestAdmissionCertificate:
    @SETTINGS
    @given(SEEDS)
    def test_certified_universes_pass_every_subset(self, seed):
        scenario = random_universe(seed)
        assume(scenario is not None)
        universe = ContentionAnalysis(scenario)
        assume(floors_certified(universe))
        rng = random.Random(seed)
        for _ in range(12):
            trial = [f for f in scenario.flows if rng.random() < 0.7]
            assert basic_share_feasible(universe.cliques, trial,
                                        scenario.capacity)

    def test_shortest_path_universes_are_certified(self):
        """Shortcut-free flows hold ``n_{k,i} <= v_i`` on every clique."""
        for seed in range(20):
            network = random_connected_network(12, seed=seed)
            scenario = Scenario(network, random_flows(network, 5, seed=seed))
            assert floors_certified(ContentionAnalysis(scenario))

    def test_the_float_half_needs_a_small_capacity(self):
        """A capacity so large that float error could pass the predicate's
        tolerance voids the certificate, whatever the cliques."""
        scenario = fig3.make_chain_scenario(capacity=1e9)
        assert ContentionAnalysis(scenario).index.certified
        assert not floors_certified(ContentionAnalysis(scenario))

    def test_shortcut_universe_probes_and_refuses(self, monkeypatch):
        """Fig. 3's shortcut flow voids the certificate: admission probes
        the predicate, which admits a one-hop peer and refuses the
        shortcut flow, in the runtime and in the batch engine."""
        base = fig3.make_shortcut_scenario()
        scenario = Scenario(base.network,
                            base.flows + [Flow("2", ["N0", "N1"])])
        universe = ContentionAnalysis(scenario)
        assert not universe.index.certified
        assert not floors_certified(universe)
        probes = []

        def counted(cliques, flows, capacity):
            probes.append([f.flow_id for f in flows])
            return basic_share_feasible(cliques, flows, capacity)

        monkeypatch.setattr(runtime_module, "basic_share_feasible", counted)
        monkeypatch.setattr(admission, "basic_share_feasible", counted)

        rt = AllocatorRuntime(scenario, RuntimeConfig())
        rt.set_active(["2"])
        rt.set_active(["1", "2"])
        reasons = [(d.flow_id, d.action, d.reason)
                   for d in rt.admission.decisions]
        assert reasons[0] == ("2", ADMIT, "ok")
        assert reasons[1][0] == "1" and reasons[1][2] == REASON_FLOOR
        assert rt.active == {"2"}
        runtime_probes = len(probes)
        assert runtime_probes >= 2

        engine = BatchAllocationEngine(universe)
        decisions = engine.register(["2", "1"])
        assert [(d.flow_id, d.action) for d in decisions] == [
            ("2", ADMIT), ("1", "reject")]
        assert decisions[1].reason == REASON_FLOOR
        assert len(probes) > runtime_probes
        assert engine.allocate().keys() == {"2"}


    def test_campaign_check_catches_a_wrongly_certified_universe(
        self, monkeypatch
    ):
        """``churn.admission_certificate`` passes on the honest shortcut
        universe (it is not certified, so the probe refuses flow 1) and
        fails once the certificate is forced on and flow 1 gets in."""
        import repro.resilience.campaign as campaign
        from repro.resilience.epochs import ChurnTimeline

        base = fig3.make_shortcut_scenario()
        scenario = Scenario(base.network,
                            base.flows + [Flow("2", ["N0", "N1"])])
        timeline = ChurnTimeline(epochs=3, initial_active=("2", "1"))

        def verdict():
            case = campaign.run_churn_case(scenario, timeline,
                                           crash_restore=False,
                                           mode="distributed")
            return dict((name, ok) for name, ok, _ in case.checks)

        assert verdict()["churn.admission_certificate"]
        for module in (runtime_module, campaign):
            monkeypatch.setattr(module, "floors_certified", lambda u: True)
        assert not verdict()["churn.admission_certificate"]
