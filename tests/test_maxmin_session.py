"""Differential suite for the warm max-min session of the revised backend.

:func:`repro.lp.lexicographic_maxmin` on ``backend="revised"`` runs the
whole ladder on one :class:`~repro.lp.revised.MaxminSession`; the
reference is the cold dense ladder with certification off, so every
saturation is proved by a probe LP
(:func:`repro.verify.maxmin_reference`).  Statuses must be equal and
shares within 1e-9, on the scenario library, on random Prop. 2-shaped
LPs (non-unit weights, with and without the objective pin), and on the
corners: infeasible floors (phase 1), unbounded LPs, fully degenerate
ties and the one-ulp borderline reproducer.

The small-form tableau kernel is also checked against splu plus an eta
file (``DENSE_MAX_ROWS`` patched to 0) on the same calls, round by
round; the session's live reads (values, prices and edits off the
tableau it maintains) against a fresh factorization after every pivot
(``REFACTOR_EVERY`` patched to 1); each call's ``lp.maxmin`` span
against its ``lp.solve`` children; and the session's shares against the
exact-``Fraction`` ladder (:func:`repro.verify.maxmin_exact`) on the
scenario library and on mesh-openloop calls of the allocator benchmark.
The face step (flows the pinned optimal face fixes start frozen) is
checked on its corners, across both kernels and against the exact
ladder.
"""

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.contention import ContentionAnalysis
from repro.lp import LinearProgram, lexicographic_maxmin, maxmin, revised
from repro.obs.registry import MetricsRegistry, using_registry
from repro.obs.trace import using_tracer
from repro.scenarios import fig6
from repro.scenarios.io import scenario_from_dict
from repro.perf import shard
from repro.verify import (lp_objective_matches, maxmin_exact,
                          maxmin_reference, maxmin_session_mismatches)
from tests.test_lp import random_clique_lp
from tests.test_lp_revised import (BORDERLINE, LIBRARY, group_lps,
                                   open_session)

FALLBACKS = "lp.maxmin.session_fallbacks"


def group_ladders(scenario):
    analysis = ContentionAnalysis(scenario)
    for lp, group in zip(group_lps(scenario), analysis.groups):
        yield lp, {f"r_{f.flow_id}": f.weight for f in group}


def session_and_counters(lp, weights=None, fix_objective=True):
    registry = MetricsRegistry()
    with using_registry(registry):
        sol = lexicographic_maxmin(lp, weights, fix_objective,
                                   backend="revised")
    return sol, {k: c.value for k, c in registry.counters.items()}


class TestScenarioLibrary:
    @pytest.mark.parametrize("fix_objective", [True, False])
    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_session_equals_probe_everything_reference(self, name,
                                                       fix_objective):
        for lp, weights in group_ladders(LIBRARY[name]()):
            assert maxmin_session_mismatches(
                lp, weights, fix_objective) == [], name

    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_feasible_floors_never_fall_back(self, name):
        """Only floors that overfill a clique (phase 1) leave the
        session; every feasible library ladder runs warm end to end."""
        for lp, weights in group_ladders(LIBRARY[name]()):
            sol, counters = session_and_counters(lp, weights)
            assert counters.get(FALLBACKS, 0) == (
                0 if sol.is_optimal else 1), name


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 7),
    m=st.integers(1, 6),
    seed=st.integers(0, 10_000),
    weighted=st.booleans(),
    pinned=st.booleans(),
    fix_objective=st.booleans(),
    unit_weights=st.booleans(),
)
def test_random_clique_lps(n, m, seed, weighted, pinned, fix_objective,
                           unit_weights):
    lp = random_clique_lp(n, m, seed, weighted, pinned)
    weights = None if unit_weights else {
        v: 1.0 + (k % 3) * 0.5 for k, v in enumerate(lp.variables)}
    assert maxmin_session_mismatches(lp, weights, fix_objective) == []


class TestCorners:
    def test_infeasible_floors_run_phase_1_and_match(self):
        lp = LinearProgram()
        lp.maximize({"x": 1.0, "y": 1.0})
        lp.set_lower_bound("x", 0.7)
        lp.set_lower_bound("y", 0.7)
        lp.add_constraint({"x": 1.0, "y": 1.0}, 1.0)
        sol, counters = session_and_counters(lp)
        assert sol.status == "infeasible"
        assert counters[FALLBACKS] == 1
        assert maxmin_session_mismatches(lp) == []

    def test_feasible_phase_1_floors_match(self):
        """A floor above a row's slack that is still feasible: the
        cold two-phase solve serves it, with the same shares."""
        lp = LinearProgram()
        lp.maximize({"a": 1.0, "b": 1.0})
        lp.set_lower_bound("b", 2.0)
        lp.add_constraint({"a": 1.0, "b": -1.0}, -3.0)  # b >= a + 3
        lp.add_constraint({"a": 1.0, "b": 1.0}, 10.0)
        sol, counters = session_and_counters(lp)
        assert sol.is_optimal and counters[FALLBACKS] == 1
        assert maxmin_session_mismatches(lp) == []

    def test_unbounded_lp(self):
        lp = LinearProgram()
        lp.maximize({"x": 1.0, "y": 1.0})
        lp.add_constraint({"x": 1.0}, 1.0)
        sol, counters = session_and_counters(lp)
        assert sol.status == "unbounded"
        assert FALLBACKS not in counters
        assert maxmin_session_mismatches(lp) == []

    def test_unbounded_probe_freezes_like_the_reference(self):
        """``free`` has no row but its floor: its probe is unbounded,
        which the ladder reads as saturated — in both ladders."""
        lp = LinearProgram()
        lp.maximize({"x": 1.0})
        lp.add_variable("free")
        lp.add_constraint({"x": 1.0}, 1.0)
        assert maxmin_session_mismatches(lp) == []
        assert lexicographic_maxmin(lp).values == {"x": 1.0, "free": 1.0}

    @pytest.mark.parametrize("fix_objective", [True, False])
    def test_fully_degenerate_ties(self, fix_objective):
        """Six flows in two identical cliques: every flow ties in the
        first round."""
        lp = LinearProgram()
        names = [f"f{i}" for i in range(6)]
        lp.maximize({v: 1.0 for v in names})
        for _ in range(2):
            lp.add_constraint({v: 1.0 for v in names}, 1.0)
        sol = lexicographic_maxmin(lp, fix_objective=fix_objective)
        assert all(abs(sol[v] - 1.0 / 6.0) <= 1e-12 for v in names)
        assert maxmin_session_mismatches(lp, None, fix_objective) == []

    def test_non_unit_weights_split_by_weight(self):
        lp = LinearProgram()
        lp.maximize({"x": 1.0, "y": 1.0, "z": 1.0})
        lp.add_constraint({"x": 1.0, "y": 1.0}, 3.0)
        lp.add_constraint({"y": 1.0, "z": 1.0}, 2.0)
        weights = {"x": 2.0, "y": 1.0, "z": 0.5}
        for fix in (True, False):
            assert maxmin_session_mismatches(lp, weights, fix) == []

    def test_one_ulp_borderline_reproducer(self):
        doc = json.loads(Path(BORDERLINE).read_text())
        scenario = scenario_from_dict(doc["scenario"])
        for lp, weights in group_ladders(scenario):
            assert maxmin_session_mismatches(lp, weights) == []

    def test_reference_probes_every_target(self):
        """The reference proves every saturation by a probe LP: on the
        two-tier example it solves one probe per flow of each round."""
        lp = LinearProgram()
        lp.maximize({"r11": 1.0, "r12": 1.0, "r21": 1.0, "r22": 1.0})
        lp.add_constraint({"r11": 1.0, "r12": 1.0}, 1.0)
        lp.add_constraint({"r12": 1.0, "r21": 1.0, "r22": 1.0}, 1.0)
        for v in ("r11", "r12", "r21", "r22"):
            lp.set_lower_bound(v, 0.25)
        registry = MetricsRegistry()
        with using_registry(registry):
            ref = maxmin_reference(lp)
        assert ref.values == pytest.approx(
            {"r11": 0.75, "r12": 0.25, "r21": 0.375, "r22": 0.375})
        assert registry.counters["lp.solves.simplex"].value >= 1 + 2 + 4


def exact_mismatches(lp, weights, fix_objective=True, rel=1e-12):
    """Where the session's call differs from :func:`maxmin_exact`: a
    status, or a share off by more than ``rel`` relative.  Basic floors
    that overfill a clique by one ulp in rationals (``lp_objective_matches``
    flags them ``borderline``) have no exact ladder to compare with."""
    got = lexicographic_maxmin(lp, weights, fix_objective)
    want = maxmin_exact(lp, weights, fix_objective)
    if got.status != want.status:
        if lp_objective_matches(lp).get("borderline"):
            return []
        return [f"status {got.status} != exact {want.status}"]
    return [f"{v}: {got.values[v]!r} != {float(x)!r}"
            for v, x in want.values.items()
            if abs(got.values[v] - x) > rel * abs(x)]


class TestExactOracle:
    @pytest.mark.parametrize("fix_objective", [True, False])
    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_session_holds_the_exact_ladder(self, name, fix_objective):
        for lp, weights in group_ladders(LIBRARY[name]()):
            assert exact_mismatches(lp, weights, fix_objective) == [], name

    def test_mesh_openloop_calls_hold_the_exact_ladder(self):
        """Five max-min calls of the allocator benchmark's mesh-openloop
        workload (seed 1), rebuilt by running its first epochs."""
        problems = mesh_openloop_calls(5)
        assert len(problems) == 5
        for problem in problems:
            assert len(problem.group_ids) >= 8
            assert exact_mismatches(problem.lp, problem.weights) == []

    def test_exact_pin_is_rational(self):
        """Three flows sharing a unit clique: the optimum 1 is pinned
        exactly and every level is a third, in rationals."""
        lp = LinearProgram()
        lp.maximize({"a": 1.0, "b": 1.0, "c": 1.0})
        lp.add_constraint({"a": 1.0, "b": 1.0, "c": 1.0}, 1.0)
        sol = maxmin_exact(lp)
        assert sol.values == dict.fromkeys("abc", Fraction(1, 3))
        assert sol.objective == 1


def mesh_openloop_calls(count):
    """The first ``count`` component problems the mesh-openloop workload
    of ``allocbench/`` solves after its set-up (seed 1)."""
    return [problem for problem, _shares in mesh_openloop_solves(count)]


def mesh_openloop_solves(count):
    """``(problem, committed shares)`` of the first ``count`` component
    solves the mesh-openloop workload of ``allocbench/`` runs after its
    set-up (seed 1)."""
    root = Path(__file__).resolve().parent.parent / "allocbench"
    sys.path.insert(0, str(root))
    try:
        spec = importlib.util.spec_from_file_location(
            "allocbench_workloads", root / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(root))
    session, _times = workloads.setup(
        workloads.WORKLOADS["mesh-openloop"], 1)
    solves = []
    solve = shard._solve_component

    def record(problem):
        shares = solve(problem)
        solves.append((problem, shares))
        return shares

    with mock.patch.object(shard, "_solve_component", record):
        while len(solves) < count:
            session.step()
    return solves[:count]


class TestFaceStep:
    """The flows the pinned optimal face fixes start frozen
    (:meth:`~repro.lp.revised.MaxminSession.fix_face`)."""

    @staticmethod
    def _maxmin_tags(lp):
        with using_tracer() as tracer:
            sol = lexicographic_maxmin(lp)
        (call,) = [r["tags"] for r in tracer.to_records()
                   if r["name"] == "lp.maxmin"]
        return sol, call

    def test_a_point_optimum_runs_no_round(self):
        """A unique optimum fixes every flow: one solve, zero rounds."""
        lp = LinearProgram()
        lp.maximize({"x": 1.0, "y": 2.0})
        lp.add_constraint({"x": 1.0, "y": 1.0}, 3.0)
        lp.add_constraint({"y": 1.0}, 2.0)
        lp.set_lower_bound("x", 0.5)
        sol, tags = self._maxmin_tags(lp)
        assert sol.values == {"x": 1.0, "y": 2.0}
        assert (tags["solves"], tags["rounds"], tags["fixed"]) == (1, 0, 2)
        assert (tags["certified"], tags["probed"]) == (0, 0)

    def test_two_tier_example_fixes_f1(self):
        """Sec. III: the face fixes ``r11 = 0.75`` and ``r12 = 0.25``,
        and the ladder still certifies ``r21 = r22 = 0.375``."""
        lp = LinearProgram()
        lp.maximize({"r11": 1.0, "r12": 1.0, "r21": 1.0, "r22": 1.0})
        lp.add_constraint({"r11": 1.0, "r12": 1.0}, 1.0)
        lp.add_constraint({"r12": 1.0, "r21": 1.0, "r22": 1.0}, 1.0)
        for v in ("r11", "r12", "r21", "r22"):
            lp.set_lower_bound(v, 0.25)
        session = open_session(lp)
        session.solve_base()
        session.pin(True)
        assert session.fix_face() == {"r11": 0.75, "r12": 0.25}
        # The certificate count is checked in tests/test_lp.py.
        assert lexicographic_maxmin(lp).values == {
            "r11": 0.75, "r12": 0.25, "r21": 0.375, "r22": 0.375}

    def test_no_face_step_without_a_held_pin_or_a_full_objective(self):
        """Nothing is fixed when the pin does not hold, or when a
        variable has no objective coefficient (its face may be
        unbounded)."""
        for objective, hold in (({"x": 1.0, "y": 1.0}, False),
                                ({"x": 1.0}, True)):
            lp = LinearProgram()
            lp.maximize(objective)
            lp.add_constraint({"x": 1.0}, 1.0)
            lp.add_constraint({"y": 1.0}, 2.0)
            session = open_session(lp)
            session.solve_base()
            session.pin(hold)
            assert session.fix_face() == {}


def face_run(lp, weights):
    """``(solution, flows fixed by the face step)`` of one session
    call."""
    fixed = []
    fix_face = revised.MaxminSession.fix_face

    def record(session):
        found = fix_face(session)
        fixed.append(sorted(found))
        return found

    with mock.patch.object(revised.MaxminSession, "fix_face", record):
        sol = lexicographic_maxmin(lp, weights)
    return sol, fixed


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(1, 8),
    m=st.integers(1, 6),
    seed=st.integers(0, 10_000),
    weighted=st.booleans(),
    unit_weights=st.booleans(),
)
def test_face_step_is_kernel_free_and_exact(n, m, seed, weighted,
                                            unit_weights):
    """The tableau and splu kernels fix the same flows on the pinned
    face, and the session's shares stay within 1e-12 relative of the
    exact ladder."""
    lp = random_clique_lp(n, m, seed, weighted, pinned=False)
    weights = None if unit_weights else {
        v: 1.0 + (k % 3) * 0.5 for k, v in enumerate(lp.variables)}
    sol, fixed = face_run(lp, weights)
    with mock.patch.object(revised, "DENSE_MAX_ROWS", 0):
        ref, ref_fixed = face_run(lp, weights)
    assert sol.status == ref.status
    assert fixed == ref_fixed
    assert exact_mismatches(lp, weights) == []


def kernel_run(lp, weights, fix_objective):
    """``(solution, frozen names per round, kernels used, fallbacks)``
    of one session call."""
    rounds, kernels = [], set()
    freeze = maxmin._SessionSteps.freeze

    def record(steps, level, values):
        rounds.append(sorted(v for v, _value in values))
        kernels.add(type(steps.session._simplex.kernel).__name__)
        return freeze(steps, level, values)

    with mock.patch.object(maxmin._SessionSteps, "freeze", record):
        sol, counters = session_and_counters(lp, weights, fix_objective)
    return sol, rounds, kernels, counters.get(FALLBACKS, 0)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(1, 50),
    m=st.integers(1, 70),
    seed=st.integers(0, 10_000),
    weighted=st.booleans(),
    fix_objective=st.booleans(),
    unit_weights=st.booleans(),
)
def test_tableau_kernel_matches_splu_eta(n, m, seed, weighted,
                                         fix_objective, unit_weights):
    """Session forms of up to ``SESSION_MAX_ROWS`` rows, once on the
    tableau kernel and once on splu plus an eta file: the same status,
    the same flows frozen in each round, shares within 1e-9."""
    assume(m + 1 + n <= revised.SESSION_MAX_ROWS)
    lp = random_clique_lp(n, m, seed, weighted, pinned=False)
    weights = None if unit_weights else {
        v: 1.0 + (k % 3) * 0.5 for k, v in enumerate(lp.variables)}
    sol, rounds, kernels, fallbacks = kernel_run(lp, weights,
                                                 fix_objective)
    with mock.patch.object(revised, "DENSE_MAX_ROWS", 0):
        ref, ref_rounds, ref_kernels, ref_fallbacks = kernel_run(
            lp, weights, fix_objective)
    assert kernels <= {"_Tableau"} and ref_kernels <= {"_Factored"}
    assert (sol.status, fallbacks) == (ref.status, ref_fallbacks)
    assert rounds == ref_rounds
    for v, share in ref.values.items():
        assert abs(sol.values[v] - share) <= 1e-9


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(1, 30),
    m=st.integers(1, 40),
    seed=st.integers(0, 10_000),
    weighted=st.booleans(),
    fix_objective=st.booleans(),
    unit_weights=st.booleans(),
)
def test_live_reads_match_fresh_factors(n, m, seed, weighted,
                                        fix_objective, unit_weights):
    """Session forms on the tableau, once reading the tableau they
    maintain and once refactored after every pivot (``REFACTOR_EVERY``
    patched to 1): the same status, the same flows frozen in each
    round, shares within 1e-9."""
    assume(m + 1 + n <= revised.SESSION_MAX_ROWS)
    lp = random_clique_lp(n, m, seed, weighted, pinned=False)
    weights = None if unit_weights else {
        v: 1.0 + (k % 3) * 0.5 for k, v in enumerate(lp.variables)}
    sol, rounds, _kernels, fallbacks = kernel_run(lp, weights,
                                                  fix_objective)
    with mock.patch.object(revised, "REFACTOR_EVERY", 1):
        ref, ref_rounds, _ref_kernels, ref_fallbacks = kernel_run(
            lp, weights, fix_objective)
    assert (sol.status, fallbacks) == (ref.status, ref_fallbacks)
    assert rounds == ref_rounds
    for v, share in ref.values.items():
        assert abs(sol.values[v] - share) <= 1e-9


def test_short_call_factors_once():
    """A fig6 call whose pivots stay below ``REFACTOR_EVERY`` factors
    only the slack basis it opens on: every later step reads the
    tableau it maintains."""
    with using_tracer() as tracer:
        for lp, weights in group_ladders(fig6.make_scenario()):
            lexicographic_maxmin(lp, weights)
    calls = [r["tags"] for r in tracer.to_records()
             if r["name"] == "lp.maxmin"]
    short = [tags for tags in calls
             if 0 < tags["pivots"] < revised.REFACTOR_EVERY]
    assert short
    assert all(tags["factorizations"] == 1 for tags in short)


def test_maxmin_span_tags_sum_its_lp_solves():
    """Each ``lp.maxmin`` span reports the LP work of its call: the
    count of its ``lp.solve`` children and the sums of their pivots and
    fresh factorizations."""
    analysis = ContentionAnalysis(fig6.make_scenario())
    with using_tracer() as tracer:
        for lp, weights in group_ladders(fig6.make_scenario()):
            lexicographic_maxmin(lp, weights)
    records = tracer.to_records()
    calls = [r for r in records if r["name"] == "lp.maxmin"]
    assert len(calls) == len(analysis.groups)
    for call in calls:
        solves = [r for r in records if r["name"] == "lp.solve"
                  and r["parent"] == call["span"]]
        tags = call["tags"]
        assert solves and tags["solves"] == len(solves)
        assert tags["pivots"] == sum(r["tags"]["pivots"] for r in solves)
        assert tags["factorizations"] == sum(
            r["tags"]["factorizations"] for r in solves)
        assert tags["factorizations"] >= 1
