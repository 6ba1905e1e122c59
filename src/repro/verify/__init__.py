"""``repro.verify``: differential oracles, invariant checkers, fuzzing.

The reproduction's correctness claims rest on three from-scratch
algorithms — Bron–Kerbosch clique enumeration, a two-phase float simplex,
and the 2PA-D gossip protocol.  This package validates all three on
*arbitrary* inputs:

* :mod:`~repro.verify.exact_lp` — an exact-arithmetic
  (``fractions.Fraction``) reference simplex, the ground truth for LPs;
* :mod:`~repro.verify.oracles` — differential oracles (brute-force
  cliques vs Bron–Kerbosch, float vs exact LP, the max-min dual
  saturation certificate vs probing every flow, 2PA-D vs 2PA-C, the
  runtime journal vs a cold monolithic 2PA-C solve);
* :mod:`~repro.verify.invariants` — checkers for the paper's Sec. II–III
  properties (clique capacity, basic fairness, the fairness constraint,
  the Prop. 1 bound, virtual-length consistency);
* :mod:`~repro.verify.fuzzer` — a seeded scenario fuzzer that runs every
  oracle and invariant on random topologies and shrinks failures to
  minimal serialized reproducers.

CLI: ``repro-experiments verify --cases 200 --seed 0 --json``.
"""

from .exact_lp import ExactSolution, exact_objective, solve_exact
from .invariants import (
    CheckResult,
    assert_all,
    check_basic_fairness,
    check_clique_capacity,
    check_fairness_constraint,
    check_prop1_bound,
    check_virtual_length_consistency,
)
from .oracles import (
    BruteForceLimit,
    brute_force_maximal_cliques,
    check_2pad_against_centralized,
    cliques_agree,
    cold_journal_mismatches,
    lp_objective_matches,
    maxmin_certificate_mismatches,
    maxmin_exact,
    maxmin_reference,
    maxmin_session_mismatches,
)
from .fuzzer import (
    CheckOutcome,
    FuzzFailure,
    FuzzReport,
    VerificationSuite,
    generate_scenario,
    inject_share_fault,
    run_fuzz,
    shrink_scenario,
)

__all__ = [
    "ExactSolution",
    "solve_exact",
    "exact_objective",
    "CheckResult",
    "assert_all",
    "check_clique_capacity",
    "check_basic_fairness",
    "check_fairness_constraint",
    "check_prop1_bound",
    "check_virtual_length_consistency",
    "BruteForceLimit",
    "brute_force_maximal_cliques",
    "cliques_agree",
    "lp_objective_matches",
    "maxmin_certificate_mismatches",
    "maxmin_exact",
    "maxmin_reference",
    "maxmin_session_mismatches",
    "check_2pad_against_centralized",
    "cold_journal_mismatches",
    "CheckOutcome",
    "FuzzFailure",
    "FuzzReport",
    "VerificationSuite",
    "generate_scenario",
    "inject_share_fault",
    "run_fuzz",
    "shrink_scenario",
]
