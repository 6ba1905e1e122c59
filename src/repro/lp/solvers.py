"""Solver front-end: the revised simplex by default, references beside it.

``solve(lp)`` is the single entry point used by the allocation algorithms.
The default backend is ``"revised"``, the library's own sparse revised
simplex, which is also the only backend that runs a small lexicographic
max-min call on one warm session
(:meth:`~repro.lp.revised.RevisedBackend.maxmin_session`) and batches a
larger call's saturation probes (``probe_max_values``).  ``"simplex"``
selects the dense tableau, kept as the explicit reference the
differential checks compare against; the scipy backend exists so tests
(and cautious users) can verify the from-scratch solvers agree on every
LP the paper's algorithms generate.  A backend is any callable
``LinearProgram -> LPSolution``; every ``solve`` starts cold (phase 1
from the slack basis), so a backend carries no state between solves.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, Union

from ..obs.registry import incr
from .problem import LinearProgram, LPSolution
from .revised import RevisedBackend
from .simplex import solve_simplex

Backend = Callable[[LinearProgram], LPSolution]
BackendSpec = Union[str, Backend]

_BACKENDS: Dict[str, Backend] = {}


def register_backend(name: str, backend: Backend) -> None:
    """Register a named solver backend (mostly useful for testing)."""
    _BACKENDS[name] = backend


def resolve_backend(backend: BackendSpec) -> Tuple[Backend, str]:
    """Resolve a backend spec to ``(callable, label)``.

    ``backend`` is either a registered backend name or a callable
    ``LinearProgram -> LPSolution`` (e.g. the fallback chain
    :class:`repro.resilience.degrade.ResilientLPBackend`).  Callers that
    can exploit optional capabilities — :func:`repro.lp.maxmin` looks for
    ``maxmin_session`` and ``probe_max_values`` methods — should resolve
    once and inspect the returned callable.
    """
    if callable(backend):
        return backend, getattr(backend, "__name__", "custom")
    try:
        return _BACKENDS[backend], backend
    except KeyError:
        raise ValueError(
            f"unknown LP backend {backend!r}; "
            f"available: {sorted(_BACKENDS)}"
        ) from None


def solve(lp: LinearProgram, backend: BackendSpec = "revised") \
        -> LPSolution:
    """Solve ``lp`` with the requested backend (default: ``revised``).

    ``backend`` is a registered backend name (``simplex``, ``revised``,
    ``scipy``) or a callable ``LinearProgram -> LPSolution``; callables
    flow through every allocation entry point that takes a ``backend``
    argument.
    """
    fn, label = resolve_backend(backend)
    solution = fn(lp)
    incr("lp.solves")
    incr(f"lp.solves.{label}")
    if not solution.is_optimal:
        incr(f"lp.solves.{solution.status}")
    return solution


def solve_scipy(lp: LinearProgram) -> LPSolution:
    """Solve with ``scipy.optimize.linprog`` (HiGHS)."""
    from scipy.optimize import linprog

    names = lp.variables
    if not names:
        return LPSolution("optimal", {}, 0.0)
    c, a, b, lb = lp.to_dense()
    bounds = [(float(l), None) for l in lb]
    res = linprog(
        -c,
        A_ub=a if a.size else None,
        b_ub=b if b.size else None,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        return LPSolution("infeasible", {}, float("nan"))
    if res.status == 3:
        return LPSolution("unbounded", {}, float("inf"))
    if res.status != 0:  # pragma: no cover - numerical trouble
        raise RuntimeError(f"scipy linprog failed: {res.message}")
    values = {v: float(res.x[j]) for j, v in enumerate(names)}
    return LPSolution("optimal", values, lp.objective_value(values))


register_backend("simplex", solve_simplex)
register_backend("scipy", solve_scipy)
# A RevisedBackend *instance* (not the bare function) so the capability
# probes in lexicographic_maxmin find maxmin_session and probe_max_values.
register_backend("revised", RevisedBackend())
