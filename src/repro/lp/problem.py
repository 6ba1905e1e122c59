"""A small linear-program intermediate representation.

All of the paper's phase-1 optimizations are linear programs of the form

    maximize    c' x
    subject to  A_ub x <= b_ub
                x >= lb           (per-variable lower bounds)

where ``x`` are per-flow equal-per-hop shares ``r̂_i``, the ``A_ub`` rows
come from clique capacity constraints (Eq. 6), and ``lb`` encodes the basic
shares (Eq. 7).  This module provides a named-variable builder that both the
from-scratch simplex solver and the scipy cross-check backend consume, and
the :class:`LPSolution` they return: status, values, objective, and the
final basis' duals and reduced costs, computed on first access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Constraint:
    """A single linear constraint ``sum(coeffs[v] * v) <= bound``.

    ``label`` is carried through for reporting (e.g. the clique it encodes).
    """

    coeffs: Mapping[str, float]
    bound: float
    label: str = ""

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        """Left-hand-side value under ``assignment`` (missing vars = 0)."""
        return float(
            sum(c * assignment.get(v, 0.0) for v, c in self.coeffs.items())
        )

    def satisfied_by(
        self, assignment: Mapping[str, float], tol: float = 1e-9
    ) -> bool:
        return self.evaluate(assignment) <= self.bound + tol

    def is_tight(
        self, assignment: Mapping[str, float], tol: float = 1e-7
    ) -> bool:
        return abs(self.evaluate(assignment) - self.bound) <= tol


@dataclass
class LinearProgram:
    """A maximization LP over named non-negative variables.

    Variables are registered implicitly through the objective, constraints,
    and lower bounds; the column order is the registration order, which
    makes solver behaviour (pivot selection, tie-breaking) deterministic.
    """

    _order: List[str] = field(default_factory=list)
    objective: Dict[str, float] = field(default_factory=dict)
    constraints: List[Constraint] = field(default_factory=list)
    lower_bounds: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_variable(self, name: str, objective_coeff: float = 0.0,
                     lower_bound: float = 0.0) -> None:
        """Register ``name`` with its objective coefficient and lower bound."""
        self._register(name)
        if objective_coeff:
            self.objective[name] = self.objective.get(name, 0.0) + objective_coeff
        if lower_bound:
            self.lower_bounds[name] = max(
                self.lower_bounds.get(name, 0.0), lower_bound
            )

    def maximize(self, coeffs: Mapping[str, float]) -> None:
        """Set/accumulate the (maximization) objective."""
        for v, c in coeffs.items():
            self._register(v)
            self.objective[v] = self.objective.get(v, 0.0) + c

    def add_constraint(
        self, coeffs: Mapping[str, float], bound: float, label: str = ""
    ) -> None:
        """Add ``sum(coeffs) <= bound``."""
        for v in coeffs:
            self._register(v)
        self.constraints.append(Constraint(dict(coeffs), float(bound), label))

    def set_lower_bound(self, name: str, bound: float) -> None:
        """Require ``name >= bound`` (bounds only tighten, never loosen)."""
        self._register(name)
        self.lower_bounds[name] = max(self.lower_bounds.get(name, 0.0),
                                      float(bound))

    def _register(self, name: str) -> None:
        if name not in self.objective and name not in self._order:
            self._order.append(name)
        if name in self.objective and name not in self._order:
            self._order.append(name)

    def clone(self) -> "LinearProgram":
        """Structural copy for derived problems (cheap, not a deepcopy).

        The immutable :class:`Constraint` objects are shared; the mutable
        containers are copied, so adding constraints, bounds, or objective
        terms to the clone never touches the original.
        """
        return LinearProgram(
            _order=list(self._order),
            objective=dict(self.objective),
            constraints=list(self.constraints),
            lower_bounds=dict(self.lower_bounds),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def variables(self) -> List[str]:
        """Variable names in registration order."""
        return list(self._order)

    # ------------------------------------------------------------------
    # Dense matrix form (for solvers)
    # ------------------------------------------------------------------
    def to_dense(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(c, A_ub, b_ub, lb)`` in variable registration order."""
        names = self.variables
        index = {v: j for j, v in enumerate(names)}
        n = len(names)
        c = np.zeros(n)
        for v, coeff in self.objective.items():
            c[index[v]] = coeff
        m = len(self.constraints)
        a = np.zeros((m, n))
        b = np.zeros(m)
        for i, con in enumerate(self.constraints):
            for v, coeff in con.coeffs.items():
                a[i, index[v]] = coeff
            b[i] = con.bound
        lb = np.array([self.lower_bounds.get(v, 0.0) for v in names])
        return c, a, b, lb

    # ------------------------------------------------------------------
    # Verification helpers
    # ------------------------------------------------------------------
    def is_feasible(
        self, assignment: Mapping[str, float], tol: float = 1e-9
    ) -> bool:
        """Check ``assignment`` against all constraints and lower bounds."""
        for v in self.variables:
            if assignment.get(v, 0.0) < self.lower_bounds.get(v, 0.0) - tol:
                return False
        return all(c.satisfied_by(assignment, tol) for c in self.constraints)

    def objective_value(self, assignment: Mapping[str, float]) -> float:
        return float(
            sum(c * assignment.get(v, 0.0) for v, c in self.objective.items())
        )

    def pretty(self) -> str:
        """Human-readable rendering, mirroring the paper's LP listings."""
        obj = " + ".join(
            (f"{c:g}*{v}" if c != 1 else v)
            for v, c in self.objective.items()
        )
        lines = [f"maximize {obj}", "subject to"]
        for con in self.constraints:
            lhs = " + ".join(
                (f"{c:g}*{v}" if c != 1 else v)
                for v, c in con.coeffs.items()
            )
            suffix = f"    [{con.label}]" if con.label else ""
            lines.append(f"  {lhs} <= {con.bound:g}{suffix}")
        for v in self.variables:
            lb = self.lower_bounds.get(v, 0.0)
            lines.append(f"  {v} >= {lb:g}")
        return "\n".join(lines)


@dataclass(frozen=True)
class DenseLP:
    """``maximize c'x s.t. A x <= b, x >= lb`` as dense arrays in
    variable order (:meth:`LinearProgram.to_dense` plus the names): what
    a max-min session opens from."""

    names: Tuple[str, ...]
    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lb: np.ndarray

    @classmethod
    def from_problem(cls, lp: LinearProgram) -> "DenseLP":
        return cls(tuple(lp.variables), *lp.to_dense())

    def to_problem(self) -> LinearProgram:
        """The :class:`LinearProgram` of these arrays (constraints
        unlabelled): :meth:`from_problem` of it gives them back."""
        names = list(self.names)
        return LinearProgram(
            _order=names,
            objective={names[j]: float(self.c[j])
                       for j in np.flatnonzero(self.c)},
            constraints=[
                Constraint({names[j]: row[j] for j in np.flatnonzero(row)},
                           bound)
                for row, bound in zip(self.a.tolist(), self.b.tolist())
            ],
            lower_bounds=dict(zip(names, self.lb.tolist())),
        )


#: ``(duals, reduced_costs)`` of an optimal basis (``None`` when unknown).
Prices = Tuple[Optional[Tuple[float, ...]], Optional[Tuple[float, ...]]]
#: Deferred ``(duals, reduced_costs)`` of a final basis.
Pricer = Callable[[], Prices]


def _finish_prices(
    pi: np.ndarray,
    reduced: np.ndarray,
    basis: np.ndarray,
    n: int,
    ge_rows: np.ndarray,
) -> Prices:
    """Sweep dust, zero the basic reduced costs, and flip the duals of
    rows the standard form negated into ``>=`` form back, so they price
    the caller's ``<=`` rows.  Shared by both backends."""
    pi[np.abs(pi) < 1e-12] = 0.0
    reduced[np.abs(reduced) < 1e-12] = 0.0
    reduced[basis[basis < n]] = 0.0
    return (tuple(np.where(ge_rows, -pi, pi).tolist()),
            tuple(reduced.tolist()))


def _unconstrained_prices(c: np.ndarray) -> Prices:
    """No rows: no duals, and every reduced cost is the objective's."""
    return (), tuple(c.tolist())


@dataclass(frozen=True)
class LPSolution:
    """Result of an LP solve.

    ``duals`` (one price per constraint row, ``>= 0`` at a maximum) and
    ``reduced_costs`` (``c_j - pi . A_j`` per variable, ``<= 0`` at a
    maximum, exactly 0 for basic variables) are read from the final
    basis of an optimal solve, so like ``values`` they depend only on
    that basis.  Most solves never look at them, so a solver hands over
    a ``pricer`` (a callable returning ``(duals, reduced_costs)``) and
    they are computed on first access.  Backends without a basis leave
    ``pricer`` unset and both read ``None``.
    """

    status: str                      # "optimal" | "infeasible" | "unbounded"
    values: Dict[str, float]
    objective: float
    pricer: Optional[Callable[[], Prices]] = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def _prices(self) -> Prices:
        return self.pricer() if self.pricer is not None else (None, None)

    @property
    def duals(self) -> Optional[Tuple[float, ...]]:
        return self._prices[0]

    @property
    def reduced_costs(self) -> Optional[Tuple[float, ...]]:
        return self._prices[1]

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    def __getitem__(self, name: str) -> float:
        return self.values[name]
