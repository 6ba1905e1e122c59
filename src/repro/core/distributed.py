"""Phase 1, distributed form (Sec. IV-B): 2PA-D.

Each node works from *local* information only:

1.  **Overhearing.**  A node directly overhears every subflow whose sender
    or receiver is within its transmission range (it hears the RTS/CTS or
    data frames of that hop).
2.  **Neighbor exchange.**  Nodes exchange overheard-subflow lists with
    their immediate neighbors, so a node *knows* the subflows overheard
    within its two-hop neighborhood.  Per Huang & Bensaou (the paper's
    ref. [5]), that suffices to construct every contention-graph clique
    consisting solely of locally-known subflows ("local cliques").
3.  **Intra-flow constraint propagation.**  Every node on a flow's path
    forwards its local cliques that involve the flow, as coefficient
    arrays ``(n_{i,k}, i)``, up- and downstream; eventually each node on
    the path possesses *all constraints that include its flow*.
4.  **Local optimization.**  Each flow's source solves a local LP —
    maximize the total effective throughput of every flow appearing in its
    known constraints, subject to those constraints and to *local* basic
    fairness.  The local basic per-unit share is ``B / Σ w_j v_j`` taken
    over the flows known in the two-hop neighborhood (a superset-blind,
    hence *higher*, version of the global basic share — exactly why Table I
    shows B/3 at node A but B/8 globally).
5.  The flow adopts the share its own variable receives in its source's
    local LP solution.

The per-node LPs and solutions reproduce Table I of the paper exactly; see
``tests/test_distributed.py``.

Step 3's exchange is lossless and instantaneous by default.  Passing a
``channel`` (see :class:`repro.resilience.channel.UnreliableChannel`)
replaces it with an acknowledged, retransmitting exchange over a faulted
medium; when that exchange does not fully converge, :meth:`run` degrades
gracefully to conservative shares instead of optimizing over incomplete
constraint views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Set

from ..graphs import maximal_cliques
from ..lp import LinearProgram, LPSolution, lexicographic_maxmin
from ..obs.registry import incr, observe, set_gauge
from ..obs.trace import span
from .allocation import AllocationResult
from .contention import ContentionAnalysis
from .model import NodeId, Scenario, SubflowId

Clique = FrozenSet[SubflowId]


@dataclass
class LocalView:
    """Everything one node knows after overhearing and neighbor exchange."""

    node: NodeId
    overheard: Set[SubflowId] = field(default_factory=set)
    known: Set[SubflowId] = field(default_factory=set)
    local_cliques: List[Clique] = field(default_factory=list)
    received_cliques: List[Clique] = field(default_factory=list)

    def known_flows(self) -> Set[str]:
        """Flows with at least one subflow known in the 2-hop neighborhood."""
        return {sid.flow for sid in self.known}

    def all_cliques(self) -> List[Clique]:
        """Local plus propagated cliques, deduplicated, deterministic."""
        merged = {c for c in self.local_cliques} | set(self.received_cliques)
        return sorted(merged, key=lambda c: (-len(c), sorted(map(str, c))))


@dataclass
class LocalProblem:
    """The local LP a flow source builds and solves."""

    node: NodeId
    flow_ids: List[str]
    lp: LinearProgram
    solution: LPSolution
    basic_per_unit: float


class DistributedAllocator:
    """Runs the full distributed phase-1 protocol on a scenario."""

    def __init__(
        self,
        scenario: Scenario,
        backend: str = "revised",
        analysis: ContentionAnalysis = None,
        channel=None,
    ) -> None:
        self.scenario = scenario
        self.backend = backend
        # A precomputed analysis (e.g. restricted from a universe by
        # repro.core.contention.restricted_analysis) skips the O(S^2)
        # rebuild; it must describe exactly this scenario.  The local cliques of 2PA-D below are
        # built from each node's view, not from it.
        self.analysis = (analysis if analysis is not None
                         else ContentionAnalysis(scenario))
        #: Optional unreliable message channel
        #: (:class:`repro.resilience.channel.UnreliableChannel`).  ``None``
        #: keeps the lossless, instantaneous exchange below — the default
        #: path is untouched and byte-identical to the channel-free code.
        self.channel = channel
        self.views: Dict[NodeId, LocalView] = {}
        self.problems: Dict[NodeId, LocalProblem] = {}
        self._shares: Dict[str, float] = {}
        #: Convergence statistics of the last :meth:`propagate_constraints`
        #: run: synchronous gossip rounds and clique-transfer messages until
        #: every path node holds all constraints involving its flow, plus a
        #: ``status`` (always ``"converged"`` on the lossless path; an
        #: unreliable channel may report ``"converged-partial"`` or
        #: ``"timed-out"`` instead of raising).
        self.convergence: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Step 1 + 2: overhearing and local clique construction
    # ------------------------------------------------------------------
    def build_local_views(self) -> Dict[NodeId, LocalView]:
        """Populate each node's overheard/known subflows and local cliques."""
        with span("2pad.build_views"):
            return self._build_local_views()

    def _build_local_views(self) -> Dict[NodeId, LocalView]:
        net = self.scenario.network
        subflows = self.scenario.all_subflows()

        overheard: Dict[NodeId, Set[SubflowId]] = {
            n: set() for n in net.nodes
        }
        for node in net.nodes:
            for sub in subflows:
                if net.in_range(node, sub.sender) or net.in_range(
                    node, sub.receiver
                ):
                    overheard[node].add(sub.sid)

        for node in net.nodes:
            view = LocalView(node=node, overheard=set(overheard[node]))
            view.known = set(overheard[node])
            for nbr in net.neighbors(node):
                view.known |= overheard[nbr]
            local_graph = self.analysis.graph.subgraph(view.known)
            view.local_cliques = maximal_cliques(local_graph)
            self.views[node] = view
        return self.views

    # ------------------------------------------------------------------
    # Step 3: intra-flow propagation of constraints
    # ------------------------------------------------------------------
    def propagate_constraints(self) -> None:
        """Push clique constraints up/down every flow's path.

        After propagation, each node on flow ``F_i``'s path holds every
        local clique (from any path node) that contains a subflow of
        ``F_i``.

        The exchange is simulated as the protocol actually runs: per flow,
        synchronous gossip rounds in which every path node offers the
        flow-relevant cliques it holds to its path neighbors, until a round
        moves nothing.  The fixpoint is identical to a one-shot union over
        path nodes (only cliques that are *local* at some path node ever
        enter the flood, so no cross-flow leakage occurs), but the rounds
        and message counts now measure the real convergence cost —
        ``rounds`` grows with path length, ``messages`` with constraint
        density.  Statistics land in :attr:`convergence` and the active
        metrics registry (``2pad.*``).
        """
        if not self.views:
            self.build_local_views()
        with span("2pad.propagate",
                  lossy=self.channel is not None) as prop_span:
            if self.channel is None:
                self._propagate_constraints()
            else:
                self.convergence = self.channel.propagate(self)
            prop_span.tag(
                status=self.convergence.get("status"),
                max_rounds=self.convergence.get("max_rounds"),
                messages=self.convergence.get("total_messages"),
            )

    def _propagate_constraints(self) -> None:
        # Reset up front and update incrementally per flow: if a fault
        # makes one flow's exchange raise mid-run, the record still holds
        # the completed flows' stats (status "in-progress") instead of
        # stale numbers from an earlier run corrupting later metrics.
        total_messages = 0
        rounds_per_flow: Dict[str, int] = {}
        self.convergence = {
            "rounds_per_flow": rounds_per_flow,
            "max_rounds": 0,
            "total_messages": 0,
            "status": "in-progress",
        }
        for flow in self.scenario.flows:
            with span("2pad.flow", flow=flow.flow_id) as flow_span:
                path = list(flow.path)
                holding: Dict[NodeId, Set[Clique]] = {
                    node: {
                        clique
                        for clique in self.views[node].local_cliques
                        if any(sid.flow == flow.flow_id for sid in clique)
                    }
                    for node in path
                }
                rounds = 0
                flow_messages = 0
                while True:
                    transfers: List[Tuple[NodeId, Clique]] = []
                    for i, node in enumerate(path):
                        for j in (i - 1, i + 1):
                            if not 0 <= j < len(path):
                                continue
                            neighbor = path[j]
                            for clique in holding[node]:
                                if clique not in holding[neighbor]:
                                    transfers.append((neighbor, clique))
                    if not transfers:
                        break
                    rounds += 1
                    flow_messages += len(transfers)
                    total_messages += len(transfers)
                    for neighbor, clique in transfers:
                        holding[neighbor].add(clique)
                rounds_per_flow[flow.flow_id] = rounds
                self.convergence["max_rounds"] = max(
                    rounds_per_flow.values(), default=0
                )
                self.convergence["total_messages"] = total_messages
                observe("2pad.rounds_to_convergence", rounds)
                flow_span.tag(rounds=rounds, messages=flow_messages)
                for node in path:
                    view = self.views[node]
                    own = set(view.local_cliques)
                    for clique in sorted(
                        holding[node],
                        key=lambda c: (-len(c), sorted(map(str, c))),
                    ):
                        if (clique not in own
                                and clique not in view.received_cliques):
                            view.received_cliques.append(clique)
        self.convergence["status"] = "converged"
        incr("2pad.messages", total_messages)
        set_gauge("2pad.max_rounds",
                  float(self.convergence["max_rounds"]))

    # ------------------------------------------------------------------
    # Step 4: local optimization at each flow source
    # ------------------------------------------------------------------
    def local_per_unit_share(self, node: NodeId) -> float:
        """``B / Σ w_j v_j`` over the flows known in ``node``'s 2-hop view."""
        view = self.views[node]
        flow_by_id = {f.flow_id: f for f in self.scenario.flows}
        denom = sum(
            flow_by_id[fid].weight * flow_by_id[fid].virtual_length
            for fid in sorted(view.known_flows())
        )
        if denom <= 0:
            raise ValueError(f"node {node!r} has empty local basic share")
        return self.scenario.capacity / denom

    def solve_local(self, node: NodeId) -> LocalProblem:
        """Build and solve the local LP at ``node``.

        Constraints: the node's local cliques plus everything propagated to
        it; variables: every flow those cliques mention.  Lower bounds:

        * flows the node knows from its own 2-hop neighborhood use the
          node's local basic per-unit share (``B / Σ w v`` over known
          flows);
        * flows known only through propagated constraints carry their own
          *source's* local basic share — the propagation payload
          ``(n_{i,k}, i)`` is extended with it.  (Applying the receiving
          node's myopic per-unit share to a propagated flow can render the
          local LP infeasible: node A of the Fig. 1 scenario would demand
          B/2 for both flows against the clique r̂1 + 2 r̂2 <= B.)

        If the mixed bounds are still jointly infeasible (possible when
        several myopic sources overestimate simultaneously), all lower
        bounds are scaled by the largest feasible factor before the
        throughput maximization — shares stay proportional to the locally
        computed basic shares.
        """
        with span("2pad.local_lp", node=str(node)):
            problem = self._solve_local(node)
        incr("2pad.local_lps")
        return problem

    def _solve_local(self, node: NodeId) -> LocalProblem:
        view = self.views[node]
        b = self.scenario.capacity
        flow_by_id = {f.flow_id: f for f in self.scenario.flows}

        cliques = view.all_cliques()
        flow_ids = sorted({sid.flow for c in cliques for sid in c})
        if not flow_ids:
            raise ValueError(f"node {node!r} knows no flows")

        known = view.known_flows()
        per_unit = self.local_per_unit_share(node)

        bounds: Dict[str, float] = {}
        for fid in flow_ids:
            flow = flow_by_id[fid]
            if fid in known:
                bounds[fid] = flow.weight * per_unit
            else:
                bounds[fid] = flow.weight * self.local_per_unit_share(
                    flow.source
                )

        constraint_rows = []
        for k, clique in enumerate(cliques):
            counts: Dict[str, int] = {}
            # In subflow order, not the frozenset's hash order: the
            # bound scale sums each clique's load over these counts.
            for sid in sorted(clique):
                counts[sid.flow] = counts.get(sid.flow, 0) + 1
            constraint_rows.append((k, counts))

        def build(scale: float) -> LinearProgram:
            lp = LinearProgram()
            for fid in flow_ids:
                lp.add_variable(f"r_{fid}", objective_coeff=1.0)
            for k, counts in constraint_rows:
                lp.add_constraint(
                    {f"r_{fid}": float(n) for fid, n in counts.items()},
                    b,
                    label=f"local-clique-{k}@{node}",
                )
            for fid in flow_ids:
                lp.set_lower_bound(f"r_{fid}", bounds[fid] * scale)
            return lp

        weights = {f"r_{fid}": flow_by_id[fid].weight for fid in flow_ids}
        lp = build(1.0)
        solution = lexicographic_maxmin(
            lp, weights, fix_objective=True, backend=self.backend
        )
        if not solution.is_optimal:
            scale = self._max_bound_scale(constraint_rows, bounds, b)
            lp = build(scale)
            solution = lexicographic_maxmin(
                lp, weights, fix_objective=True, backend=self.backend
            )
        if not solution.is_optimal:
            raise RuntimeError(
                f"local LP at {node!r} is {solution.status}:\n{lp.pretty()}"
            )
        problem = LocalProblem(
            node=node,
            flow_ids=flow_ids,
            lp=lp,
            solution=solution,
            basic_per_unit=per_unit,
        )
        self.problems[node] = problem
        return problem

    def _max_bound_scale(
        self,
        constraint_rows,
        bounds: Mapping[str, float],
        capacity: float,
    ) -> float:
        """Largest λ with ``Σ n_{i,k} (λ · bound_i) <= B`` for all cliques."""
        scale = 1.0
        for _, counts in constraint_rows:
            load = sum(bounds[fid] * n for fid, n in counts.items())
            if load > 0:
                scale = min(scale, capacity / load)
        # Back off slightly so the scaled bounds are strictly feasible.
        return scale * (1.0 - 1e-12)

    # ------------------------------------------------------------------
    # Step 5: adopt source-local shares
    # ------------------------------------------------------------------
    def run(self) -> AllocationResult:
        """Execute the whole protocol; each flow takes its source's share.

        When an unreliable channel reports anything other than full
        convergence, the run degrades gracefully instead of solving local
        LPs from incomplete constraint views: confirmed flows keep their
        LP share, unconfirmed flows are clamped to their basic share, and
        a capacity governor enforces Eq. (6) on the mixture (see
        :func:`repro.resilience.degrade.degraded_allocation`).
        """
        with span("2pad.run", lossy=self.channel is not None) as run_span:
            self.build_local_views()
            self.propagate_constraints()
            if (self.channel is not None
                    and self.convergence.get("status") != "converged"):
                from ..resilience.degrade import degraded_allocation

                result = degraded_allocation(self)
                self._shares = dict(result.shares)
                incr("2pad.runs")
                incr("2pad.degraded_runs")
                run_span.tag(degraded=True)
                return result
            run_span.tag(degraded=False)
            for flow in self.scenario.flows:
                problem = self.problems.get(flow.source) or self.solve_local(
                    flow.source
                )
                self._shares[flow.flow_id] = problem.solution[
                    f"r_{flow.flow_id}"
                ]
            if self.channel is not None:
                # Resilient mode promises Eq. (6) under *every* fault
                # plan, including a fully converged one: the local LPs
                # bound each source's view but do not globally prevent a
                # clique from being oversubscribed by independently
                # solved sources, so run the capacity governor here too.
                from ..resilience.degrade import (
                    enforce_clique_capacity,
                    global_basic_shares,
                )

                safe, clamped = enforce_clique_capacity(
                    self.analysis, self._shares,
                    floors=global_basic_shares(self.analysis),
                )
                if clamped:
                    self._shares = safe
                    incr("resilience.degrade.capacity_clamp")
        incr("2pad.runs")
        return AllocationResult(
            "distributed-local-lp",
            dict(self._shares),
            self.scenario.capacity,
        )

    def local_problem_for_flow(self, flow_id: str) -> LocalProblem:
        """The local LP solved at ``flow_id``'s source (after ``run``)."""
        flow = self.scenario.flow(flow_id)
        if flow.source not in self.problems:
            raise KeyError(f"run() has not solved {flow.source!r} yet")
        return self.problems[flow.source]


def run_distributed(
    scenario: Scenario,
    backend: str = "revised",
    analysis: ContentionAnalysis = None,
    channel=None,
) -> AllocationResult:
    """One-shot convenience wrapper (2PA-D phase 1)."""
    return DistributedAllocator(
        scenario, backend, analysis=analysis, channel=channel
    ).run()
