"""Workloads of the allocator benchmark: seeded open-loop traffic replayed
through the two production allocation entry points.

* ``mesh-openloop`` drives
  :meth:`repro.resilience.runtime.AllocatorRuntime.advance`, one epoch of
  flow-up / flow-down churn events per call.
* ``batch-churn`` drives :class:`repro.perf.shard.BatchAllocationEngine`
  with ``release`` / ``register`` / ``allocate`` per epoch.

Each workload's structure (topology, flow universe) is fixed; only the
arrival trace comes from the run's seed, drawn with
:func:`repro.traffic.openloop.draw_arrival_trace`.  The trace starts with a
pre-roll whose still-in-service flows are registered during set-up, so the
measured epochs begin near the stationary active-set size instead of
ramping up from empty.

A :class:`Session` builds its engine from the universe, is started with
a trace, and exposes ``step`` (one epoch, the only timed call), ``check``
(Eq. 6 and the Sec. II-D floors on the committed epoch, never timed) and
the quality figures of the last committed epoch.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.contention import ContentionAnalysis, contention_graph_from_pairs
from repro.core.model import Flow, Network, Scenario, Subflow, SubflowId
from repro.perf.shard import BatchAllocationEngine
from repro.resilience.admission import ADMIT
from repro.resilience.epochs import ChurnEvent
from repro.resilience.runtime import AllocatorRuntime, RuntimeConfig
from repro.scenarios.random_topology import make_random_scenario
from repro.traffic.openloop import OpenLoopConfig, draw_arrival_trace
from repro.verify.invariants import check_basic_fairness, check_clique_capacity

#: Eq. (6) tolerance: the runtime's own validation tolerance (float
#: simplex results meet their constraints to ~1e-6).
CAPACITY_TOL = 1e-6

#: Epochs run after each set-up and before the measured block.
WARMUP = 5

#: Trace epochs drawn after the pre-roll; covers the warm-up and the
#: measured block of every workload.
HORIZON = 600

#: batch-churn universe: star islands, and one-hop flows per island.
ISLANDS = 150
LEAVES = 4


# ----------------------------------------------------------------------
# Fixed structures
# ----------------------------------------------------------------------
def mesh_universe() -> Scenario:
    """80 random nodes, 16 shortest-path flows of at most 5 hops that
    all contend transitively: one contention component."""
    return make_random_scenario(num_nodes=80, num_flows=16, seed=7,
                                max_hops=5)


def star_universe() -> ContentionAnalysis:
    """``ISLANDS`` hub-and-spoke cells of ``LEAVES`` one-hop flows, one
    clique each.

    Graph and cliques are handed to :class:`ContentionAnalysis`
    precomputed, the documented recipe for large synthetic universes.
    Each cell's basic floors sum to capacity, so every flow is admissible.
    """
    nodes: List[str] = []
    links: List[Tuple[str, str]] = []
    flows: List[Flow] = []
    subflows: List[Subflow] = []
    pairs: List[Tuple[SubflowId, SubflowId]] = []
    cliques = []
    for i in range(ISLANDS):
        hub = f"h{i}"
        nodes.append(hub)
        cell: List[SubflowId] = []
        for j in range(LEAVES):
            leaf, fid = f"n{i}_{j}", f"f{i}_{j}"
            nodes.append(leaf)
            links.append((hub, leaf))
            flows.append(Flow(fid, (hub, leaf), 1.0))
            sid = SubflowId(fid, 1)
            subflows.append(Subflow(sid, hub, leaf, 1.0))
            pairs += [(other, sid) for other in cell]
            cell.append(sid)
        cliques.append(frozenset(cell))
    scenario = Scenario(Network.from_links(nodes, links), flows,
                        name=f"star-islands-{ISLANDS}")
    graph = contention_graph_from_pairs(subflows, pairs)
    return ContentionAnalysis(scenario, graph=graph, cliques=cliques)


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Traffic:
    """An arrival trace indexed by epoch, plus its pre-roll occupancy."""

    by_epoch: Dict[int, List[Tuple[str, int]]]
    initial: List[Tuple[str, int]]  # (flow, remaining service epochs)


def draw_traffic(seed: int, flow_ids: Sequence[str],
                 config: OpenLoopConfig, preroll: int) -> Traffic:
    """Draw the trace of ``seed``: ``preroll + HORIZON`` epochs.  Flows
    still in service when the pre-roll ends (a re-offer of an in-service
    flow is a duplicate, as in the engines) become the initial
    registration."""
    trace = draw_arrival_trace(np.random.default_rng(seed), flow_ids,
                               preroll + HORIZON, config)
    by_epoch: Dict[int, List[Tuple[str, int]]] = {}
    until: Dict[str, int] = {}
    for a in trace.arrivals:
        if a.epoch < preroll:
            if until.get(a.flow, -1) <= a.epoch:
                until[a.flow] = a.epoch + a.duration
        else:
            by_epoch.setdefault(a.epoch - preroll, []).append(
                (a.flow, a.duration))
    initial = sorted((f, u - preroll) for f, u in until.items() if u > preroll)
    return Traffic(by_epoch, initial)


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
@dataclass
class Step:
    """Outcome of one epoch: events acted on (admission decisions plus
    departures; none when the epoch fails), seconds spent in the engine
    calls, and the error that kept it from committing, if any."""

    events: int
    seconds: float
    error: str = ""

    @property
    def committed(self) -> bool:
        return not self.error


class Session:
    """One engine replaying one trace; subclasses build and drive the
    engine from a universe."""

    def __init__(self, flows: Sequence[Flow]) -> None:
        self.traffic = Traffic({}, [])  # set by start()
        self.flow_ids = [f.flow_id for f in flows]
        self.weights = {f.flow_id: f.weight for f in flows}
        self.index = 0  # next trace epoch
        self.until: Dict[str, int] = {}  # in-service flow -> departure epoch
        self.admitted = 0
        self.decisions = 0
        self.shares: Dict[str, float] = {}

    @property
    def exhausted(self) -> bool:
        return self.index >= HORIZON

    def _due(self) -> List[str]:
        return sorted(f for f, u in self.until.items() if u <= self.index)

    def _tally(self, decisions) -> None:
        self.decisions += len(decisions)
        self.admitted += sum(1 for d in decisions if d.action == ADMIT)

    def quality(self) -> Tuple[float, float]:
        """(sum of committed shares, min share/weight) of the last epoch."""
        if not self.shares:
            return 0.0, 0.0
        return (sum(self.shares.values()),
                min(s / self.weights[f] for f, s in self.shares.items()))

    def check(self, shares: Optional[Dict[str, float]] = None) -> List[str]:
        """Eq. (6) and basic-floor violations of the committed epoch
        (of ``shares`` instead, when given)."""
        analysis = self.analysis()
        shares = self.shares if shares is None else shares
        problems: List[str] = []
        active = {f.flow_id for f in analysis.scenario.flows}
        if set(shares) != active:
            problems.append("shares do not cover exactly the active flows")
        for result in (
            check_clique_capacity(analysis, shares, tol=CAPACITY_TOL),
            check_basic_fairness(analysis, shares),
        ):
            if not result.ok:
                problems.append(f"{result.name}: {result.details}")
        return problems

    def start(self, traffic: Traffic) -> None:
        """Take the trace, register the pre-roll's in-service flows and
        allocate once."""
        self.traffic = traffic
        step = self._epoch(traffic.initial, ())
        if not step.committed:
            raise RuntimeError(f"initial registration failed: {step.error}")
        self.admitted = self.decisions = 0

    def step(self, root=nullcontext) -> Step:
        """Run the next trace epoch; only the engine calls are timed, inside
        ``root()`` (the traced run's epoch span)."""
        result = self._epoch(self.traffic.by_epoch.get(self.index, ()),
                             self._due(), root)
        self.index += 1
        return result

    # Engine binding --------------------------------------------------
    def _epoch(self, arrivals: Sequence[Tuple[str, int]],
               departures: Sequence[str], root=nullcontext) -> Step:
        raise NotImplementedError

    def analysis(self) -> ContentionAnalysis:
        raise NotImplementedError

    def queue_depth(self) -> int:
        raise NotImplementedError


class RuntimeSession(Session):
    """:class:`AllocatorRuntime` fed flow-up / flow-down events."""

    def __init__(self, universe: Scenario) -> None:
        super().__init__(universe.flows)
        self.runtime = AllocatorRuntime(universe, RuntimeConfig())
        self.runtime.current_analysis()  # the lazy topology/contention build
        self.duration: Dict[str, int] = {}

    def _epoch(self, arrivals: Sequence[Tuple[str, int]],
               departures: Sequence[str], root=nullcontext) -> Step:
        rt = self.runtime
        epoch = rt.epoch + 1
        events = [ChurnEvent(epoch, "flow-down", flow=f) for f in departures]
        # Departures apply before arrivals, so a departing flow may re-enter.
        staying = rt.active.difference(departures)
        for fid, duration in arrivals:
            if fid not in staying:
                self.duration[fid] = duration
            events.append(ChurnEvent(epoch, "flow-up", flow=fid))
        snapshot = rt.admission.snapshot()
        t0 = time.perf_counter()
        try:
            with root():
                record = rt.advance(events)
        except Exception as exc:  # a failed epoch: roll back, go on
            elapsed = time.perf_counter() - t0
            rt.admission.restore(snapshot)
            return Step(0, elapsed, f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        decisions = rt.admission.decisions[len(snapshot["decisions"]):]
        self._tally(decisions)
        for fid in departures:
            self.until.pop(fid, None)
        for fid in rt.active - staying:
            self.until[fid] = self.index + self.duration[fid]
        self.shares = record.shares
        return Step(len(decisions) + len(departures), elapsed)

    def analysis(self) -> ContentionAnalysis:
        return self.runtime.current_analysis()

    def queue_depth(self) -> int:
        return len(self.runtime.admission.waiting)


class BatchSession(Session):
    """:class:`BatchAllocationEngine` fed release / register / allocate."""

    def __init__(self, universe: ContentionAnalysis) -> None:
        super().__init__(universe.scenario.flows)
        self.engine = BatchAllocationEngine(universe)

    def _epoch(self, arrivals: Sequence[Tuple[str, int]],
               departures: Sequence[str], root=nullcontext) -> Step:
        eng = self.engine
        staying = eng.active.difference(departures)
        batch: Dict[str, int] = {}  # arrival -> service epochs
        for fid, duration in arrivals:
            if fid not in staying and fid not in batch:
                batch[fid] = duration
        snapshot = eng.admission.snapshot()
        t0 = time.perf_counter()
        try:
            with root():
                if departures:
                    eng.release(departures)
                decisions = eng.register(list(batch)) if batch else []
                shares = eng.allocate()
        except Exception as exc:  # a failed epoch: roll back, go on
            elapsed = time.perf_counter() - t0
            eng.admission.restore(snapshot)
            eng.active.intersection_update(staying)
            return Step(0, elapsed, f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        self._tally(decisions)
        for fid in departures:
            del self.until[fid]
        for d in decisions:
            if d.action == ADMIT:
                self.until[d.flow_id] = self.index + batch[d.flow_id]
        self.shares = shares
        return Step(len(decisions) + len(departures), elapsed)

    def analysis(self) -> ContentionAnalysis:
        return self.engine.active_analysis()

    def queue_depth(self) -> int:
        return len(self.engine.admission.waiting)


# ----------------------------------------------------------------------
# Workload specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """A fixed structure, its traffic, and how long to run it.

    A run replays the same block of ``epochs`` measured epochs, each
    replay from a fresh set-up.
    """

    name: str
    universe: Callable[[], object]
    session: Type[Session]
    traffic: OpenLoopConfig
    preroll: int
    epochs: int


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # One component, ~12 of 16 flows active; half the offers hit an
    # active flow, ~10 arrivals and ~10 departures per epoch change the
    # set, so nearly every epoch is dirty with a set the memo has not
    # seen, and the LP size barely varies across seeds.
    Workload("mesh-openloop", mesh_universe, RuntimeSession,
             OpenLoopConfig(rate=20.0, duration_mean=1.5),
             preroll=100, epochs=120),
    # ~54% of 600 flows active, so some island is always full; ~9
    # offers and ~4 arrivals and ~4 departures per epoch.
    Workload("batch-churn", star_universe, BatchSession,
             OpenLoopConfig(rate=9.0, duration_mean=85.0),
             preroll=340, epochs=150),
)}


def setup(workload: Workload,
          seed: int) -> Tuple[Session, Dict[str, float]]:
    """Build one session from scratch on the trace of ``seed``; returns
    it with its set-up times.

    Every lazy build happens here: the runtime's topology and contention
    structure (``current_analysis``), and the initial registration plus
    first allocate of the pre-roll's in-service flows.
    """
    clock = time.perf_counter
    t0 = clock()
    universe = workload.universe()
    t1 = clock()
    session = workload.session(universe)
    t2 = clock()
    traffic = draw_traffic(seed, session.flow_ids, workload.traffic,
                           workload.preroll)
    t3 = clock()
    session.start(traffic)
    t4 = clock()
    return session, {
        "setup.universe_s": t1 - t0,
        "setup.topology_s": t2 - t1,
        "setup.trace_s": t3 - t2,
        "setup.register_s": t4 - t3,
    }
