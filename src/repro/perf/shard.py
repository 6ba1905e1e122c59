"""Component-sharded phase-1 allocation with per-component memoization.

The Prop. 2 LP factorizes *exactly* over the connected components of the
subflow contention graph: a maximal clique is a connected subgraph, so
every Eq. (6) capacity constraint involves subflows of exactly one
contending flow group, and the per-group LPs share no variables.  Three
layers exploit that:

* :func:`component_problems` splits one
  :class:`~repro.core.contention.ContentionAnalysis` into independent
  per-component problems in a **single pass** over the global clique
  list.  Each problem's LP is byte-identical to the one
  :func:`repro.core.allocation.build_basic_fairness_lp` assembles for
  the same group (same variable registration order, same constraint
  order and coefficient insertion order, same ``clique-<k>`` labels,
  same basic-share lower bounds) — the foundation of the bitwise
  sharded==monolithic guarantee.
* :class:`ShardedSolver` solves the problems with a per-component memo
  keyed by the problem's *shape* (dirty tracking: churn that leaves a
  component's structure, weights, and capacity untouched reuses its
  cached shares, and so does any other component that forms the same
  LP under different flow ids), solves each distinct missing shape
  once in the calling process, and merges in component order — the
  merged result is bitwise identical to the monolithic solve.
* :class:`BatchAllocationEngine` fronts the solver with a
  register / allocate / release batch API in the shape of psim's
  ``BandwidthAllocator`` family: campaigns push whole lists of flows
  through admission control (per-component batch feasibility with a
  greedy per-flow fallback) and solve one epoch over 100k+ concurrent
  flows.  A persistent store keyed by universe contention component
  makes each epoch's cost follow the churn, not the universe; active
  cliques are restricted from the universe's, never enumerated.

A shape key (:func:`shape_key`) hashes the LP in solver-visible order
with every variable replaced by its column position; the only trace of
the names it keeps is their sort order, which the max-min progress
guard reads.  It is assembled from the analysis's per-clique
coefficients, never from the built LP.  Memo values are share lists
in column order, mapped back onto each problem's own flow ids, so a
hit is the same dense LP run through the same pivots whatever its
flows are called.  Nothing in a key depends on the hash seed, so a
memo dumped by one interpreter is fully served in another.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from ..core.contention import ContentionAnalysis, restricted_analysis
from ..core.fairness_defs import basic_shares
from ..core.model import Flow
from ..lp import LinearProgram, lexicographic_maxmin
from ..lp.problem import Constraint, DenseLP
from ..lp.revised import session_fits
from ..obs.registry import incr, observe
from ..obs.trace import span

__all__ = [
    "BatchAllocationEngine",
    "ComponentProblem",
    "ShardedSolver",
    "component_problems",
    "shape_key",
]


@dataclass
class ComponentProblem:
    """One contending flow group's LP, ready to solve in isolation.

    ``weights`` maps LP variable names to flow weights for the
    lexicographic max-min refinement; ``fingerprint`` keys the
    per-component memo.  The solve reads the LP's arrays straight off
    the clique rows (:meth:`dense`) when they fit one max-min session;
    the :class:`LinearProgram` is built for a larger one and for the
    failure text.
    """

    group_ids: Tuple[str, ...]
    backend: str
    fingerprint: str
    rows: List[Tuple[int, Dict[str, int], str]]
    bound: float
    lower: List[float]
    weights: Dict[str, float]

    @cached_property
    def lp(self) -> LinearProgram:
        names = list(self.weights)
        var = dict(zip(self.group_ids, names))
        return LinearProgram(
            _order=names,
            objective=dict.fromkeys(names, 1.0),
            constraints=[
                Constraint({var[fid]: float(n) for fid, n in coeffs.items()},
                           self.bound, f"clique-{k}:{label}")
                for k, coeffs, label in self.rows
            ],
            lower_bounds=dict(zip(names, self.lower)),
        )

    def dense(self) -> DenseLP:
        """The LP's arrays, equal to ``DenseLP.from_problem(self.lp)``
        without building the LP."""
        column = {fid: j for j, fid in enumerate(self.group_ids)}
        a = np.zeros((len(self.rows), len(column)))
        for i, (_k, coeffs, _label) in enumerate(self.rows):
            for fid, count in coeffs.items():
                a[i, column[fid]] = count
        return DenseLP(tuple(self.weights), np.ones(len(column)), a,
                       np.full(len(self.rows), self.bound),
                       np.array(self.lower))


def shape_key(backend: str, group_ids: Sequence[str],
              rows: Sequence[Dict[str, int]], bound: float,
              lower: Sequence[float], weights: Sequence[float]) -> str:
    """Name-free shape key of one component problem.

    Everything that can influence the solved shares participates, in
    the order it will reach the solver, with each variable written as
    its column (``group_ids``) position: the backend, the variable
    count, the name-sort permutation (column positions in name order),
    objective terms, each constraint's ``(column, n)`` pairs sorted by
    column with its bound (capacity rides in the bounds), lower bounds,
    and the max-min weights.

    The permutation is the one thing names decide in a solve (the
    max-min progress guard freezes ``min(free)``, the smallest free
    *name*), so two problems that share a key are the same dense LP
    solved through the same pivots, and their shares agree position by
    position, bitwise.  Coefficient order (``to_dense`` ignores it) and
    constraint labels (they carry the clique's index in the analysis)
    are left out.  Numbers pack exactly as little-endian doubles
    (coefficient ``float(n)`` as ``n``; the objective, ``1.0`` per
    column, implied by the count), lengths before lists, then the
    weights' repr, which keeps ``int`` apart from ``float``; the key is
    their SHA-256.
    """
    n = len(group_ids)
    column = {fid: j for j, fid in enumerate(group_ids)}
    values = [n, *sorted(range(n), key=group_ids.__getitem__), len(rows)]
    for row in rows:
        values.append(len(row))
        for pair in sorted([(column[fid], c) for fid, c in row.items()]):
            values += pair
    values += [bound] * len(rows) + list(lower)
    return hashlib.sha256(b"\0".join((
        backend.encode(), struct.pack(f"<{len(values)}d", *values),
        repr(tuple(weights)).encode()))).hexdigest()


def component_problems(
    analysis: ContentionAnalysis,
    capacity: Optional[float] = None,
    backend: str = "revised",
) -> List[ComponentProblem]:
    """Split ``analysis`` into per-component problems, one per group.

    A single pass over the analysis's ``clique_terms`` assigns each
    clique to the (unique) group owning its flows, so the cost is
    O(groups + cliques) rather than the monolithic builder's
    O(groups x cliques) rescan — the difference between seconds and
    hours at 10k+ components.  The produced LPs are byte-identical to
    per-group :func:`~repro.core.allocation.build_basic_fairness_lp`
    output; ``tests/test_shard.py`` asserts the equivalence
    differentially.
    """
    b = capacity if capacity is not None else analysis.scenario.capacity
    bound = float(b)
    with span("perf.shard.split"):
        group_of: Dict[str, int] = {}
        for gi, group in enumerate(analysis.groups):
            for f in group:
                group_of[f.flow_id] = gi
        rows: List[List[Tuple[int, Dict[str, int], str]]] = [
            [] for _ in analysis.groups
        ]
        for k, (coeffs, label) in enumerate(analysis.clique_terms):
            gi = group_of[next(iter(coeffs))]
            if any(group_of[fid] != gi for fid in coeffs):
                raise RuntimeError(
                    f"clique {k} spans contending flow groups"
                )
            rows[gi].append((k, coeffs, label))
        problems: List[ComponentProblem] = []
        for group, group_rows in zip(analysis.groups, rows):
            group_ids = [f.flow_id for f in group]
            basic = basic_shares(group, b)
            lower = [max(0.0, float(basic[fid])) for fid in group_ids]
            weights = [f.weight for f in group]
            problems.append(ComponentProblem(
                tuple(group_ids), backend,
                shape_key(backend, group_ids,
                          [coeffs for _k, coeffs, _l in group_rows],
                          bound, lower, weights),
                group_rows, bound, lower,
                {f"r_{fid}": w for fid, w in zip(group_ids, weights)},
            ))
    incr("perf.shard.splits")
    return problems


def _solve_component(problem: ComponentProblem) -> List[float]:
    """Solve one component's lexicographic max-min LP; shares in
    ``group_ids`` order.

    The failure message mirrors the monolithic
    :func:`~repro.core.allocation.basic_fairness_lp_allocation` so a
    sharded run raises exactly where the monolithic reference would.
    """
    small = session_fits(len(problem.rows), len(problem.group_ids))
    sol = lexicographic_maxmin(
        problem.dense() if small else problem.lp, problem.weights,
        fix_objective=True, backend=problem.backend,
    )
    if not sol.is_optimal:
        raise RuntimeError(
            f"basic-fairness LP unexpectedly {sol.status}:\n"
            f"{problem.lp.pretty()}"
        )
    return [sol[f"r_{fid}"] for fid in problem.group_ids]


class ShardedSolver:
    """Solve a contention analysis component by component, memoized.

    ``solve`` returns the same flow-id -> share mapping as
    ``basic_fairness_lp_allocation(analysis, backend=...).shares`` —
    bitwise — because components are solved with the identical LPs and
    merged in component order.  Components whose shape key is cached
    are *reused* (dirty tracking); each distinct shape left is solved
    once, in the calling process.  The memo is an LRU of at most
    ``max_entries`` shapes.

    Telemetry per solve: ``runtime.shard.components`` / ``dirty`` /
    ``reused`` counters, a ``runtime.shard`` span, and the duration of
    its dirty-solve child span as ``runtime.shard.parallel_ms``; the
    counts land in :attr:`last_stats` for programmatic asserts.
    """

    def __init__(
        self,
        backend: str = "revised",
        max_entries: int = 65536,
    ) -> None:
        self.backend = backend
        self.max_entries = int(max_entries)
        #: Shape key -> shares in ``group_ids`` order, LRU order.
        self._memo: "OrderedDict[str, List[float]]" = OrderedDict()
        self.last_stats: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def solve(
        self,
        analysis: ContentionAnalysis,
        capacity: Optional[float] = None,
    ) -> Dict[str, float]:
        """Sharded equivalent of the monolithic phase-1 allocation."""
        problems = component_problems(
            analysis, capacity, backend=self.backend
        )
        shares: Dict[str, float] = {}
        for result in self.solve_problems(problems):
            shares.update(result)
        return shares

    def solve_problems(
        self, problems: Sequence[ComponentProblem], held: int = 0
    ) -> List[Dict[str, float]]:
        """Shares of each of ``problems``, in order.

        Memo hits are reused.  The misses are grouped by shape key, and
        only the first problem of each shape is solved; every problem of
        that shape takes its result, mapped onto its own flow ids by
        position.  ``dirty`` counts the distinct shapes solved,
        ``reused`` every other component.  ``held`` counts components
        the caller serves from its own store without asking (the batch
        engine's clean entries): they enter the stats as components and
        reused, so the stats always describe the caller's whole active
        set.
        """
        memo = self._memo
        with span("runtime.shard") as shard_span:
            cached: List[Optional[List[float]]] = []
            dirty: Dict[str, ComponentProblem] = {}
            for p in problems:
                shares = memo.get(p.fingerprint)
                if shares is not None:
                    memo.move_to_end(p.fingerprint)
                elif p.fingerprint not in dirty:
                    dirty[p.fingerprint] = p
                cached.append(shares)
            with span("runtime.shard.parallel") as parallel_span:
                solved = {
                    key: _solve_component(p) for key, p in dirty.items()
                }
            for key, shares in solved.items():
                memo[key] = shares
                while len(memo) > self.max_entries:
                    memo.popitem(last=False)
            results = [
                dict(zip(p.group_ids, solved.get(p.fingerprint, shares)))
                for p, shares in zip(problems, cached)
            ]
            components = len(problems) + held
            reused = components - len(dirty)
            incr("runtime.shard.components", components)
            incr("runtime.shard.dirty", len(dirty))
            incr("runtime.shard.reused", reused)
            observe("runtime.shard.parallel_ms",
                    parallel_span.duration_s * 1e3)
            shard_span.tag(
                components=components, dirty=len(dirty), reused=reused,
            )
            self.last_stats = {
                "components": components,
                "dirty": len(dirty),
                "reused": reused,
            }
        return results

    # ------------------------------------------------------------------
    # Checkpoint support (repro.resilience.checkpoint)
    # ------------------------------------------------------------------
    def dump_state(self) -> List[List[object]]:
        """JSON-ready memo dump, ``[key, [share, ...]]`` in LRU order.

        A restored solver must reproduce the same reuse/eviction
        behaviour as one that never crashed, so entries keep their
        recency order.
        """
        return [[key, list(shares)] for key, shares in self._memo.items()]

    def load_state(self, doc: Iterable[Sequence[object]]) -> None:
        """Restore a :meth:`dump_state` dump (value-neutral on mismatch:
        a stale key simply never hits again and is evicted).

        Entries of the name-keyed layout written before shape keys
        (``[fp, [[fid, share], ...]]``) are skipped: a name key can
        never equal a shape key, so they could never hit.
        """
        self._memo.clear()
        for key, shares in doc:
            if any(isinstance(s, (list, tuple)) for s in shares):
                continue
            self._memo[str(key)] = [float(s) for s in shares]
            while len(self._memo) > self.max_entries:
                self._memo.popitem(last=False)


@dataclass
class _Part:
    """One active contention component held by the batch store.

    ``first`` is the universe position of the component's first subflow
    vertex: the order in which a cold analysis of the whole active set
    would list it, hence the merge key.
    """

    first: int
    problem: ComponentProblem
    shares: Dict[str, float]


@dataclass
class _Entry:
    """One universe contention component in the batch store: its flows
    in universe order and the active parts they currently form."""

    flows: List[str]
    parts: List[_Part]


class BatchAllocationEngine:
    """Batch register / allocate / release over a fixed flow universe.

    The universe — node geometry, every flow that can ever appear, the
    full contention graph and its cliques — is fixed by the
    ``analysis`` handed to the constructor (build it once; for very
    large synthetic universes pass a precomputed graph and its maximal
    cliques to :class:`ContentionAnalysis` to skip the geometric rebuild).
    Active flows only ever contend within one connected component of
    that graph, so the constructor splits it once into a persistent
    *store*: one entry per universe component, holding the active parts
    (connected components of the active flows) the entry currently
    splits into, each with its :class:`ComponentProblem` and last
    shares.  Campaigns then drive epochs with flow-id *lists*, and each
    call costs what its flows touch, not the universe:

    * :meth:`register` admission-gates a batch: a certified universe
      admits unprobed; otherwise candidates are grouped into trial
      components within the universe components they fall in, and a
      component whose whole batch keeps every floor feasible (Eq. 6)
      admits in one check, else falls back to greedy per-flow FIFO
      within that component.  Every verdict flows through the standard
      :class:`~repro.resilience.admission.AdmissionController`, so the
      decision log and ``admission.*`` counters match the runtime's.
      Admitted flows mark their store entry dirty.
    * :meth:`allocate` advances one epoch: one analysis and split over
      the active flows of the dirty entries (the :meth:`active_analysis`
      recipe), one :meth:`ShardedSolver.solve_problems` call for the
      resulting problems, then every held part's shares merged in
      global component order — the same dict, key order included, as
      ``ShardedSolver().solve(engine.active_analysis())``.  The epoch
      wall latency lands in ``runtime.epoch.latency_ms``, the histogram
      the SLO report summarizes into p50/p95/p99.
    * :meth:`release` retires flows, marking their entries dirty.

    :attr:`active` is read by callers but changed only through
    :meth:`register` and :meth:`release`; the one exception is rolling
    back flows admitted since the last successful :meth:`allocate`,
    whose entries are still marked dirty.
    """

    def __init__(self, analysis: ContentionAnalysis) -> None:
        # Deferred import: repro.resilience.runtime imports this module,
        # and importing repro.resilience.admission initializes the whole
        # resilience package.
        from ..resilience.admission import AdmissionController

        self.analysis = analysis
        self.capacity = analysis.scenario.capacity
        self.solver = ShardedSolver()
        # A batch has no later epoch to retry in: non-admits are final.
        self.admission = AdmissionController(queue_rejected=False)
        self.epoch = -1
        self.active: Set[str] = set()
        self.rates: Dict[str, float] = {}
        self._flows: Dict[str, Flow] = {
            f.flow_id: f for f in analysis.scenario.flows
        }
        # The store: one entry per contention component of the universe.
        self._entries = [_Entry(group, [])
                         for group in analysis.index.groups(list(self._flows))]
        self._entry_of: Dict[str, int] = {
            fid: idx for idx, e in enumerate(self._entries) for fid in e.flows
        }
        self._held: Dict[int, _Part] = {}  # every entry's parts by first
        self._dirty: Set[int] = set()

    # ------------------------------------------------------------------
    # Batch admission
    # ------------------------------------------------------------------
    def register(self, flow_ids: Sequence[str], details: str = ""):
        """Admission-gate a batch of arrivals; returns the decisions.

        Unknown ids raise ``KeyError`` (the universe is fixed); already
        active or duplicate ids are skipped.  Decisions are logged in
        request order at the epoch :meth:`allocate` will commit next.
        """
        from ..resilience.admission import ADMIT

        epoch = self.epoch + 1
        unknown = [f for f in flow_ids if f not in self._flows]
        if unknown:
            raise KeyError(f"unknown flows {sorted(set(unknown))}")
        candidates: List[str] = []
        seen: Set[str] = set()
        for fid in flow_ids:
            if fid not in self.active and fid not in seen:
                seen.add(fid)
                candidates.append(fid)
        incr("batch.register.requested", len(flow_ids))
        if not candidates:
            return []

        with span("runtime.batch.register") as reg_span:
            verdicts = self._batch_verdicts(candidates, details)
            decisions = []
            for fid in candidates:
                reason, why = verdicts[fid]
                decision = self.admission.decide(fid, epoch, reason, why)
                decisions.append(decision)
                if decision.action == ADMIT:
                    self.active.add(fid)
                    self._dirty.add(self._entry_of[fid])
            reg_span.tag(
                requested=len(candidates),
                admitted=sum(1 for d in decisions if d.action == ADMIT),
            )
        return decisions

    def _batch_verdicts(
        self, candidates: List[str], details: str
    ) -> Dict[str, Tuple[str, str]]:
        """Per-candidate admission reasons, component-batched.

        A certified universe (:func:`~repro.resilience.admission.
        floors_certified`) admits every candidate unprobed.  Otherwise a
        trial component (active flows plus candidates, connected) never
        leaves its universe component, so only the store entries the
        candidates fall in are probed.  One Eq. (6) feasibility probe
        covers a whole trial component's batch; only a failing component
        degrades to greedy per-flow checks in request order (FIFO
        fairness within the batch).  Each probe sums floors with the
        active flows first, then the candidates.
        """
        from ..resilience.admission import (
            REASON_FLOOR, REASON_OK, basic_share_feasible, floors_certified,
        )

        if floors_certified(self.analysis):
            return {fid: (REASON_OK, details) for fid in candidates}
        index = self.analysis.index

        def feasible(flow_ids: List[str]) -> bool:
            return basic_share_feasible(
                index.cliques_touching(flow_ids),
                [self._flows[fid] for fid in flow_ids],
                self.capacity,
            )

        by_entry: Dict[int, List[str]] = {}
        for fid in candidates:
            by_entry.setdefault(self._entry_of[fid], []).append(fid)
        verdicts: Dict[str, Tuple[str, str]] = {}
        for idx, entry_candidates in by_entry.items():
            active_here = [
                fid for fid in self._entries[idx].flows if fid in self.active
            ]
            # Groups keep trial order: active flows, then candidates.
            for group in index.groups(active_here + entry_candidates):
                active_comp = [fid for fid in group if fid in self.active]
                comp_candidates = group[len(active_comp):]
                if not comp_candidates:
                    continue
                if feasible(active_comp + comp_candidates):
                    for fid in comp_candidates:
                        verdicts[fid] = (REASON_OK, details)
                    continue
                incr("batch.register.greedy_fallbacks")
                accepted = list(active_comp)
                for fid in comp_candidates:
                    if feasible(accepted + [fid]):
                        verdicts[fid] = (REASON_OK, details)
                        accepted.append(fid)
                    else:
                        verdicts[fid] = (
                            REASON_FLOOR,
                            "Eq. (6) fails with every active flow at its "
                            "basic share",
                        )
        return verdicts

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------
    def allocate(self) -> Dict[str, float]:
        """Solve one epoch over the active set; returns flow -> rate.

        Only the store entries dirtied since the last epoch are rebuilt,
        and all their problems go through one solver call; the clean
        entries' parts count as reused in the solver's stats.  An epoch
        that raises keeps its entries dirty for the next one.
        """
        with span("runtime.batch.allocate") as alloc_span:
            self.epoch += 1
            dirty = sorted(self._dirty)
            flows = [
                self._flows[fid] for idx in dirty
                for fid in self._entries[idx].flows if fid in self.active
            ]
            problems = component_problems(
                self.active_analysis(flows), self.capacity,
                backend=self.solver.backend,
            ) if flows else []
            rebuilt = sum(len(self._entries[idx].parts) for idx in dirty)
            first_of = self.analysis.index.first
            results = self.solver.solve_problems(
                problems, held=len(self._held) - rebuilt
            )
            for idx in dirty:
                for part in self._entries[idx].parts:
                    del self._held[part.first]
                self._entries[idx].parts = []
            for problem, shares in zip(problems, results):
                first = min(map(first_of.__getitem__, problem.group_ids))
                part = _Part(first, problem, shares)
                self._entries[self._entry_of[problem.group_ids[0]]] \
                    .parts.append(part)
                self._held[first] = part
            self._dirty.clear()
            self.rates = {}
            for first in sorted(self._held):
                self.rates.update(self._held[first].shares)
            alloc_span.tag(epoch=self.epoch, flows=len(self.rates))
        incr("batch.epochs")
        observe("runtime.epoch.latency_ms", alloc_span.duration_s * 1e3)
        return dict(self.rates)

    def release(self, flow_ids: Iterable[str]) -> None:
        """Retire a batch of flows (unknown/inactive ids are ignored)."""
        retired = 0
        for fid in flow_ids:
            if fid in self.active:
                self.active.discard(fid)
                self._dirty.add(self._entry_of[fid])
                retired += 1
            self.rates.pop(fid, None)
            self.admission.drop_waiting(fid)
        incr("batch.release.flows", retired)

    def rate_of(self, flow_id: str) -> float:
        """Last committed rate of ``flow_id`` (0.0 when not allocated)."""
        return self.rates.get(flow_id, 0.0)

    # ------------------------------------------------------------------
    # Analysis plumbing
    # ------------------------------------------------------------------
    def active_analysis(
        self, flows: Optional[Sequence[Flow]] = None
    ) -> ContentionAnalysis:
        """Cold-rebuild-identical analysis of ``flows`` (default: every
        active flow, in universe order).

        The engine's one analysis recipe,
        :func:`~repro.core.contention.restricted_analysis` over the
        universe.  :meth:`allocate` runs it over the active flows of its
        dirty store entries; the default is the cold reference the
        monolithic differential tests run
        :func:`~repro.core.allocation.basic_fairness_lp_allocation` over.
        """
        if flows is None:
            flows = [
                f for fid, f in self._flows.items() if fid in self.active
            ]
        return restricted_analysis(
            self.analysis, flows, f"{self.analysis.scenario.name}-batch"
        )
