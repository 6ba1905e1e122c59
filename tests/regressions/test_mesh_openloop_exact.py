"""Regression: mesh-openloop's committed shares hold the exact ladder.

Every max-min call of the allocator benchmark's mesh-openloop workload
runs on a warm revised session, which starts with the flows the pinned
optimal face fixes frozen at their base values and reads every later
value off the tableau it maintains.  This replays the component LPs the
runtime itself builds for seed 1, takes every twelfth of the block's
first 120 calls (ten, spread over the block), and bounds each committed
share against :func:`repro.verify.maxmin_exact`, the ladder in exact
``Fraction`` arithmetic, at 1e-13 relative (the worst share of all 120
calls reads 4.4e-15).
"""

from repro.verify import maxmin_exact
from tests.test_maxmin_session import mesh_openloop_solves

REL = 1e-13


def test_committed_shares_hold_the_exact_ladder():
    solves = mesh_openloop_solves(120)[::12]
    assert len(solves) == 10
    for problem, shares in solves:
        want = maxmin_exact(problem.lp, problem.weights)
        assert want.is_optimal
        for fid, got in zip(problem.group_ids, shares):
            exact = float(want.values[f"r_{fid}"])
            assert abs(got - exact) <= REL * abs(exact), (fid, got, exact)
