"""Warm-started LP re-solves: basis reuse across structurally equal LPs.

The dynamic experiment re-runs phase 1 at every flow arrival/departure;
the LPs it generates recur with identical *structure* (same variables,
same constraint supports) and only perturbed bounds — and the
lexicographic max-min refinement inside one allocation solves whole
families of such siblings.  :class:`WarmLPCache` remembers the final
simplex basis per LP structure and feeds it back into
:func:`repro.lp.simplex.solve_simplex`, which then skips phase 1 and
re-optimizes in a handful of pivots.  A warm start that does not map onto
the new problem falls back to the cold path inside the solver, so the
cache can never change a solve's status.

Usage: pass ``cache.solver`` anywhere a ``backend`` is accepted::

    cache = WarmLPCache()
    basic_fairness_lp_allocation(analysis, backend=cache.solver)
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from typing import Callable, Hashable, Optional, Tuple

from ..lp.problem import LinearProgram, LPSolution
from ..lp.simplex import Basis, solve_simplex
from ..obs.registry import incr
from ..obs.trace import span

#: A warm-startable solver: ``(lp, start_basis=...) -> LPSolution``.
WarmSolver = Callable[..., LPSolution]

__all__ = ["WarmLPCache", "lp_structure_signature"]

_LOG = logging.getLogger(__name__)


def lp_structure_signature(lp: LinearProgram) -> Hashable:
    """A key identifying the LP's structure (not its numbers).

    Two LPs share a signature iff they have the same variables in the
    same order and constraints with the same supports in the same order —
    exactly the condition under which a stored basis' column labels mean
    the same thing in both problems.  Supports are compared in coefficient
    insertion order (cheap and deterministic for programmatically built
    LPs); an equal support written in a different order merely misses the
    cache, which is safe.
    """
    return (
        tuple(lp.variables),
        tuple(tuple(c.coeffs) for c in lp.constraints),
    )


class WarmLPCache:
    """Size-bounded LRU of final simplex bases, keyed by LP structure.

    :meth:`solver` is a drop-in LP backend: it looks up a basis for the
    incoming problem's structure, solves warm when one is known, and
    stores the final basis for the next structurally identical solve.

    ``solve_fn`` selects the underlying warm-startable solver (any
    callable accepting ``start_basis=``); the default is the dense
    :func:`~repro.lp.simplex.solve_simplex`, and
    :func:`~repro.lp.revised.solve_revised` is a drop-in because both
    backends share the structure-stable basis label encoding.
    """

    def __init__(self, max_entries: int = 256,
                 solve_fn: Optional[WarmSolver] = None) -> None:
        self.max_entries = int(max_entries)
        self._solve: WarmSolver = (
            solve_fn if solve_fn is not None else solve_simplex
        )
        self._bases: "OrderedDict[Hashable, Basis]" = OrderedDict()
        # Per variables-tuple: the latest (constraint structure, basis).
        # Serves extension warm starts for LPs that grow by appending
        # constraint rows (the lexicographic max-min rounds).
        self._latest: "OrderedDict[Hashable, Tuple[Hashable, Basis]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._bases)

    def clear(self) -> None:
        self._bases.clear()
        self._latest.clear()

    def lookup(self, lp: LinearProgram) -> Optional[Basis]:
        return self._get(lp_structure_signature(lp))

    def store(self, lp: LinearProgram, basis: Optional[Basis]) -> None:
        self._put(lp_structure_signature(lp), basis)

    def _get(self, key: Hashable) -> Optional[Basis]:
        basis = self._bases.get(key)
        if basis is not None:
            self._bases.move_to_end(key)
        return basis

    def _put(self, key: Hashable, basis: Optional[Basis]) -> None:
        if basis is None:
            return
        self._bases[key] = basis
        self._bases.move_to_end(key)
        while len(self._bases) > self.max_entries:
            self._bases.popitem(last=False)

    # ------------------------------------------------------------------
    # Checkpoint support (repro.resilience.checkpoint)
    # ------------------------------------------------------------------
    def dump_state(self) -> dict:
        """JSON-ready snapshot of both basis maps, LRU order preserved.

        Hit/miss counters are deliberately excluded: they are run-local
        telemetry, and a restored runtime must produce a byte-identical
        state dump to one that never crashed.
        """
        def sig(key):
            vars_sig, cons_sig = key
            return [list(vars_sig), [list(c) for c in cons_sig]]

        def basis(b):
            return [[label, index] for label, index in b]

        return {
            "bases": [
                [sig(key), basis(b)] for key, b in self._bases.items()
            ],
            "latest": [
                [list(vars_sig), [list(c) for c in cons_sig], basis(b)]
                for vars_sig, (cons_sig, b) in self._latest.items()
            ],
        }

    def load_state(self, doc: dict) -> None:
        """Rebuild the cache from :meth:`dump_state` output."""
        def basis(entry):
            return tuple((str(label), int(index)) for label, index in entry)

        self._bases.clear()
        self._latest.clear()
        for (vars_doc, cons_doc), basis_doc in doc.get("bases", []):
            key = (
                tuple(str(v) for v in vars_doc),
                tuple(tuple(str(v) for v in c) for c in cons_doc),
            )
            self._bases[key] = basis(basis_doc)
        for vars_doc, cons_doc, basis_doc in doc.get("latest", []):
            vars_sig = tuple(str(v) for v in vars_doc)
            cons_sig = tuple(tuple(str(v) for v in c) for c in cons_doc)
            self._latest[vars_sig] = (cons_sig, basis(basis_doc))

    def solver(self, lp: LinearProgram) -> LPSolution:
        """Backend callable: warm-started simplex with basis memoization.

        An exact structure hit replays the stored basis.  Failing that,
        if a basis is known for the same variables and a constraint
        structure that is a *prefix* of this LP's (the max-min rounds
        grow their probe LPs by appending rows), the stored basis is
        extended with the new rows' slack columns — the textbook warm
        start for an added ``<=`` row.  Either way the solver validates
        the basis (resolvable labels, nonsingular, feasible) and falls
        back to a cold solve, so a bad guess can only cost time.
        """
        with span("lp.warm.solve") as warm_span:
            vars_sig, cons_sig = lp_structure_signature(lp)
            key = (vars_sig, cons_sig)
            start = self._get(key)
            if start is not None:
                self.hits += 1
                incr("perf.lp.warm.hits")
                warm_span.tag(path="hit")
            else:
                self.misses += 1
                incr("perf.lp.warm.misses")
                warm_span.tag(path="miss")
                latest = self._latest.get(vars_sig)
                if latest is not None:
                    prev_cons, prev_basis = latest
                    k = len(prev_cons)
                    if k < len(cons_sig) and cons_sig[:k] == prev_cons:
                        start = prev_basis + tuple(
                            ("s", i) for i in range(k, len(cons_sig))
                        )
                        incr("perf.lp.warm.extends")
                        warm_span.tag(path="extend")
                        _LOG.debug(
                            "extending %d-row warm basis with %d slack "
                            "column(s) for a prefix-compatible LP",
                            k, len(cons_sig) - k,
                        )
            solution = self._solve(lp, start_basis=start)
        if solution.basis is not None:
            self._put(key, solution.basis)
            self._latest[vars_sig] = (cons_sig, solution.basis)
            self._latest.move_to_end(vars_sig)
            while len(self._latest) > self.max_entries:
                self._latest.popitem(last=False)
        return solution
