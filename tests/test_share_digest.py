"""The ``shares_sha256`` digest of campaign and verify results.

Campaign and verify ``results`` otherwise hold only counts, so a
determinism gate comparing two runs' results (``--jobs 1`` against
``--jobs 2``, or two hash seeds) could not see a share that moved.  The
digest covers every case's committed allocations, bit for bit.
"""

import math
from unittest import mock

from repro.core import allocation
from repro.obs.artifact import ShareDigest
from repro.resilience.campaign import run_churn
from repro.verify.fuzzer import run_fuzz


def digest(*allocations):
    d = ShareDigest()
    d.add(allocations)
    return d.hexdigest()


class TestShareDigest:
    def test_one_bit_moves_it(self):
        shares = {"a": 0.25, "b": 1.0 / 3.0}
        nudged = dict(shares, b=math.nextafter(shares["b"], 1.0))
        assert digest(shares) != digest(nudged)

    def test_key_order_does_not_move_it(self):
        assert digest({"a": 0.5, "b": 0.25}) == digest({"b": 0.25, "a": 0.5})

    def test_allocation_order_moves_it(self):
        one, two = {"a": 0.5}, {"a": 0.25}
        assert digest(one, two) != digest(two, one)


def test_churn_results_digest_every_committed_epoch():
    report = run_churn(cases=2, seed=0, loss_rates=(0.0,), epochs=3,
                       crash_restore=False)
    doc = report.to_dict()
    assert doc["shares_sha256"] == run_churn(
        cases=2, seed=0, loss_rates=(0.0,), epochs=3,
        crash_restore=False).to_dict()["shares_sha256"]
    assert doc["shares_sha256"] != ShareDigest().hexdigest()


def test_verify_results_see_a_share_one_ulp_off():
    """A share moved by one ulp passes every check, so only the digest
    tells the two runs apart."""
    clean = run_fuzz(cases=2, seed=0).to_dict()
    solve = allocation.lexicographic_maxmin

    def nudged(*args, **kwargs):
        sol = solve(*args, **kwargs)
        v = min(sol.values)
        sol.values[v] = math.nextafter(sol.values[v], 0.0)
        return sol

    with mock.patch.object(allocation, "lexicographic_maxmin", nudged):
        moved = run_fuzz(cases=2, seed=0).to_dict()
    assert moved["checks"] == clean["checks"] and moved["ok"]
    assert moved["shares_sha256"] != clean["shares_sha256"]
