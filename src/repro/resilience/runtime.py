"""The long-lived allocator runtime: epochs, churn, checkpoints, admission.

The paper solves one static allocation; its motivating setting (Sec. I)
is a mobile ad hoc network where links break, nodes crash, and flows
come and go.  :class:`AllocatorRuntime` closes that gap: it holds the
committed allocation state of a *lifetime* of operation and advances it
through explicit **epochs**, each triggered by a batch of
:class:`~repro.resilience.epochs.ChurnEvent`\\ s.

One epoch is a pure function of ``(committed state, config seed, epoch
index, events)``:

1. **Apply events** in canonical order (capacity restored before
   removed, membership last); events referencing entities unknown to
   the base scenario are skipped and counted, so shrunk reproducers
   stay well defined.
2. **Diff the topology.**  Down nodes and links are removed from the
   base network (an out-of-range link neither carries traffic nor
   interferes); the resulting topology state — reduced network,
   repaired routes, the contention analysis of all routable flows —
   is cached per ``(down-links, down-nodes)`` signature and *rebuilt
   identically* on restore, because every ingredient is deterministic:
   routes come from a fresh :class:`~repro.routing.dsr.DsrProtocol`
   flooding in sorted order, contention from
   :class:`~repro.perf.incremental.IncrementalContention` over the
   routable flows in base-scenario order; every later analysis and
   admission probe restricts its cliques instead of enumerating.
3. **Re-route and suspend.**  Active flows whose path broke take the
   DSR repair route; flows with no route (or a dead endpoint) are
   suspended into the admission queue with a machine-readable reason.
4. **Admission.**  Queued flows retry FIFO, then the epoch's arrivals
   are gated: a flow is admitted only if Eq. (6) holds with *every*
   active flow (candidate included) at its Sec. II-D basic share —
   which proves every existing flow keeps its floor.  Non-admits are
   queued or rejected, each with a ``reason`` in the decision log.
5. **Solve** on the final active set — the centralized phase-1 LP
   split per contention component by
   :class:`~repro.perf.shard.ShardedSolver` (unchanged components served
   from its memo; bitwise equal to the monolithic 2PA-C solve, which
   lives on only as a test oracle), or full 2PA-D through the resilience
   stack (lossy channel, degradation ladder, LP fallback chain) with a
   per-epoch fault plan drawn from a *fresh* seeded registry, so replay
   after restore consumes identical randomness; lossless 2PA-D results
   are memoized per active set.
6. **Dampen.**  With ``hysteresis=h``, a flow's share moves at most a
   fraction ``h`` per epoch (no flapping), but never below
   ``min(solver share, basic floor)``; a damped allocation is re-passed
   through the floor-aware capacity governor.
7. **Validate** Eq. (6) and the basic-share floor; on failure the epoch
   falls back to the basic floors (feasible for the admitted set by the
   admission predicate) and records the violation.
8. **Commit** — state swaps atomically in memory, the epoch record
   joins the journal, and (when configured) a crash-consistent
   checkpoint is written via :mod:`repro.resilience.checkpoint`.

Because nothing before step 8 mutates committed allocation state, a
crash at *any* point — mid-epoch or at an epoch boundary — restores
from the last checkpoint and replays to a bitwise-identical state
(``tests/test_checkpoint.py`` proves it differentially).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from ..core.contention import ContentionAnalysis
from ..core.distributed import DistributedAllocator
from ..core.model import Flow, Network, Scenario
from ..obs.events import emit_event
from ..obs.registry import incr, observe, phase_timer
from ..obs.trace import span
from ..perf.incremental import IncrementalContention
from ..perf.shard import ShardedSolver
from ..perf.warm import WarmLPCache
from ..routing.dsr import DsrProtocol
from ..scenarios.io import scenario_from_dict, scenario_to_dict
from ..sim.rng import RngRegistry
from ..verify.invariants import check_basic_fairness, check_clique_capacity
from .admission import (
    ADMIT,
    REASON_ENDPOINT_DOWN,
    REASON_FLOOR,
    REASON_OK,
    REASON_OVERLOAD,
    REASON_UNROUTABLE,
    AdmissionController,
    basic_share_feasible,
)
from .channel import UnreliableChannel
from .checkpoint import CheckpointCorruptError, load_checkpoint, save_checkpoint
from .degrade import (
    ResilientLPBackend,
    enforce_clique_capacity,
    global_basic_shares,
)
from .epochs import ChurnEvent, ChurnTimeline
from .faults import FaultInjector, FaultPlan

__all__ = ["AllocatorRuntime", "EpochRecord", "RuntimeConfig"]

#: Validation tolerance for the per-epoch Eq. (6) check — the same LP
#: tolerance the verification fuzzer applies to phase-1 allocations
#: (float simplex results satisfy their constraints to ~1e-6, not 1e-9).
_VALIDATE_TOL = 1e-6


def _link_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _topo_key_str(down_links: Iterable[Tuple[str, str]],
                  down_nodes: Iterable[str]) -> str:
    return json.dumps(
        [sorted([a, b] for a, b in down_links), sorted(down_nodes)],
        separators=(",", ":"),
    )


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of one runtime; serialized into every checkpoint.

    ``checkpoint_path`` is deliberately *not* serialized — it names a
    location in the current environment, and a restored runtime keeps
    checkpointing to wherever it was restored from.  ``jobs`` is not
    serialized either: it sizes the shard process pool of the machine
    the runtime happens to run on, and the solved shares are bitwise
    identical at every job count, so carrying it across restores would
    only break payload equality between differently-parallel replicas.

    There is one solve pipeline: universe-restricted contention, the
    component-sharded centralized solve, the active-set memo for
    lossless 2PA-D, and per-epoch validation always run.  The monolithic
    2PA-C solve they are bitwise equal to is a test oracle
    (:func:`repro.verify.oracles.cold_journal_mismatches`).
    :meth:`from_dict` ignores the keys of earlier, configurable
    pipelines, so their checkpoints still load.
    """

    seed: int = 0
    mode: str = "centralized"  # "centralized" | "distributed"
    hysteresis: Optional[float] = None
    loss: float = 0.0
    crash_prob: float = 0.0
    admission: bool = True
    max_queue: int = 32
    #: Epochs a flow may sit in the waiting queue before age-based
    #: eviction (``None`` disables it — the historical behaviour).
    max_queue_age: Optional[int] = None
    jobs: Optional[int] = 1
    stream_prefix: Tuple = ("runtime",)
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in ("centralized", "distributed"):
            raise ValueError(f"unknown runtime mode {self.mode!r}")
        if self.hysteresis is not None and not 0.0 < self.hysteresis:
            raise ValueError(
                f"hysteresis must be positive, got {self.hysteresis}"
            )
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss must be a probability, got {self.loss}")
        if not 0.0 <= self.crash_prob <= 1.0:
            raise ValueError(
                f"crash_prob must be a probability, got {self.crash_prob}"
            )
        if self.max_queue < 0:
            raise ValueError(
                f"max_queue must be non-negative, got {self.max_queue}"
            )
        if self.max_queue_age is not None and self.max_queue_age < 0:
            raise ValueError(
                f"max_queue_age must be None or non-negative, got "
                f"{self.max_queue_age}"
            )
        object.__setattr__(
            self, "stream_prefix", tuple(self.stream_prefix)
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "mode": self.mode,
            "hysteresis": self.hysteresis,
            "loss": self.loss,
            "crash_prob": self.crash_prob,
            "admission": self.admission,
            "max_queue": self.max_queue,
            "max_queue_age": self.max_queue_age,
            "stream_prefix": list(self.stream_prefix),
        }

    @classmethod
    def from_dict(
        cls,
        doc: Mapping[str, object],
        checkpoint_path: Optional[str] = None,
    ) -> "RuntimeConfig":
        hysteresis = doc.get("hysteresis")
        return cls(
            seed=int(doc.get("seed", 0)),
            mode=str(doc.get("mode", "centralized")),
            hysteresis=None if hysteresis is None else float(hysteresis),
            loss=float(doc.get("loss", 0.0)),
            crash_prob=float(doc.get("crash_prob", 0.0)),
            admission=bool(doc.get("admission", True)),
            max_queue=int(doc.get("max_queue", 32)),
            max_queue_age=(
                None if doc.get("max_queue_age") is None
                else int(doc["max_queue_age"])
            ),
            stream_prefix=tuple(doc.get("stream_prefix", ("runtime",))),
            checkpoint_path=checkpoint_path,
        )


@dataclass
class EpochRecord:
    """One committed epoch: the journal entry and artifact row."""

    epoch: int
    events: List[Dict] = field(default_factory=list)
    active: List[str] = field(default_factory=list)
    shares: Dict[str, float] = field(default_factory=dict)
    status: str = ""
    admissions: List[Dict] = field(default_factory=list)
    queued: List[str] = field(default_factory=list)
    rerouted: List[str] = field(default_factory=list)
    suspended: List[str] = field(default_factory=list)
    skipped_events: int = 0
    damped: bool = False
    fallback_basic: bool = False
    checks: List[List] = field(default_factory=list)
    convergence: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(bool(ok) for _name, ok, _details in self.checks)

    def failed_checks(self) -> List[Tuple[str, str]]:
        return [(str(name), str(details))
                for name, ok, details in self.checks if not ok]

    def to_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "events": list(self.events),
            "active": list(self.active),
            "shares": dict(self.shares),
            "status": self.status,
            "admissions": list(self.admissions),
            "queued": list(self.queued),
            "rerouted": list(self.rerouted),
            "suspended": list(self.suspended),
            "skipped_events": self.skipped_events,
            "damped": self.damped,
            "fallback_basic": self.fallback_basic,
            "checks": [list(c) for c in self.checks],
            "convergence": dict(self.convergence),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "EpochRecord":
        return cls(
            epoch=int(doc["epoch"]),
            events=[dict(e) for e in doc.get("events", [])],
            active=[str(f) for f in doc.get("active", [])],
            shares={str(k): float(v)
                    for k, v in doc.get("shares", {}).items()},
            status=str(doc.get("status", "")),
            admissions=[dict(a) for a in doc.get("admissions", [])],
            queued=[str(f) for f in doc.get("queued", [])],
            rerouted=[str(f) for f in doc.get("rerouted", [])],
            suspended=[str(f) for f in doc.get("suspended", [])],
            skipped_events=int(doc.get("skipped_events", 0)),
            damped=bool(doc.get("damped", False)),
            fallback_basic=bool(doc.get("fallback_basic", False)),
            checks=[[str(c[0]), bool(c[1]), str(c[2])]
                    for c in doc.get("checks", [])],
            convergence=dict(doc.get("convergence", {})),
        )


class _TopologyState:
    """Everything derived from one ``(down-links, down-nodes)`` signature.

    Built once per signature, as a pure function of the base scenario
    and the outage sets: the reduced network, a repaired route for every
    base flow that still has one (base path if intact, else a fresh DSR
    discovery — all flows routed at construction in base order, so route
    results never depend on call history), and the contention structure
    over the routable flows.
    """

    def __init__(
        self,
        base: Scenario,
        down_links: Iterable[Tuple[str, str]],
        down_nodes: Iterable[str],
    ) -> None:
        self.down_links = frozenset(_link_key(a, b) for a, b in down_links)
        self.down_nodes = frozenset(down_nodes)
        self.key_str = _topo_key_str(self.down_links, self.down_nodes)
        self.pristine = not self.down_links and not self.down_nodes
        self.routed: Dict[str, Flow] = {}
        self.unroutable: Dict[str, str] = {}
        self.rerouted: Set[str] = set()

        if self.pristine:
            self.network = base.network
            for flow in base.flows:
                self.routed[flow.flow_id] = flow
            self.scenario = base
        else:
            alive = [n for n in base.network.nodes
                     if n not in self.down_nodes]
            alive_set = set(alive)
            links = [
                (a, b) for a, b in base.network.links()
                if a in alive_set and b in alive_set
                and _link_key(a, b) not in self.down_links
            ]
            self.network = Network.from_links(alive, links)
            link_set = {_link_key(a, b) for a, b in links}
            protocol = DsrProtocol(self.network)
            for flow in base.flows:
                fid = flow.flow_id
                if (flow.source not in alive_set
                        or flow.destination not in alive_set):
                    self.unroutable[fid] = REASON_ENDPOINT_DOWN
                    continue
                intact = all(n in alive_set for n in flow.path) and all(
                    _link_key(flow.path[i], flow.path[i + 1]) in link_set
                    for i in range(len(flow.path) - 1)
                )
                if intact:
                    self.routed[fid] = flow
                    continue
                route = protocol.find_route(flow.source, flow.destination)
                if route is None:
                    self.unroutable[fid] = REASON_UNROUTABLE
                else:
                    self.routed[fid] = Flow(fid, list(route), flow.weight)
                    self.rerouted.add(fid)
            self.scenario = Scenario(
                self.network,
                [self.routed[f.flow_id] for f in base.flows
                 if f.flow_id in self.routed],
                name=base.name,
                capacity=base.capacity,
            )
        self.base_order = [f.flow_id for f in base.flows
                           if f.flow_id in self.routed]
        self.contention = IncrementalContention(self.scenario)

    def ordered(self, flow_ids: Iterable[str]) -> List[str]:
        wanted = set(flow_ids)
        return [fid for fid in self.base_order if fid in wanted]

    def floors_feasible(self, flow_ids: Iterable[str]) -> bool:
        """The admission predicate over ``flow_ids``, in base order."""
        ids = self.ordered(flow_ids)
        return basic_share_feasible(
            self.contention.universe.cliques_touching(ids),
            [self.routed[fid] for fid in ids], self.scenario.capacity,
        )


class AllocatorRuntime:
    """Long-lived, epoch-advancing, checkpointable allocation service.

    The base ``scenario`` fixes the node universe and the universe of
    *known* flows (their ids, weights, and preferred paths); churn then
    selects which of them are active and which parts of the topology
    are up.  The runtime starts at epoch ``-1`` with nothing active —
    feed it a :class:`~repro.resilience.epochs.ChurnTimeline` via
    :meth:`run_timeline` (whose ``initial_active`` become epoch-0
    arrivals, admission-gated like any other), drive it epoch by epoch
    with :meth:`advance`, or use the :meth:`set_active` convenience that
    diffs a target membership into events (the dynamic experiment's
    entry point).

    If :meth:`advance` raises, the committed state is unchanged but the
    admission log may hold decisions from the aborted epoch — discard
    the instance and :meth:`restore` from the last checkpoint, exactly
    as a crashed process would.
    """

    def __init__(
        self,
        scenario: Scenario,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        self.scenario = scenario
        self.config = config if config is not None else RuntimeConfig()
        self.epoch = -1
        self.active: Set[str] = set()
        self.down_links: Set[Tuple[str, str]] = set()
        self.down_nodes: Set[str] = set()
        self.shares: Dict[str, float] = {}
        self.journal: List[EpochRecord] = []
        self.last_convergence: Dict[str, object] = {}
        self.admitted_epoch: Dict[str, int] = {}
        self.admission = AdmissionController(
            max_queue=self.config.max_queue,
            max_queue_age=self.config.max_queue_age,
        )
        #: Warm LP bases for the 2PA-D resilient backend.
        self._warm = WarmLPCache()
        #: Lossless 2PA-D shares per ``(topology, active set)``.
        self._memo: Dict[Tuple[str, frozenset], Dict] = {}
        #: Component-sharded centralized solver; its per-component memo
        #: serves unchanged components across epochs.
        self._shard: Optional[ShardedSolver] = (
            ShardedSolver(backend="simplex", jobs=self.config.jobs)
            if self.config.mode == "centralized" else None
        )
        self._topo: Dict[Tuple[frozenset, frozenset], _TopologyState] = {}
        self._base_index = {
            f.flow_id: i for i, f in enumerate(scenario.flows)
        }
        #: Test hook: called at ``("staged", epoch)`` after the epoch is
        #: fully computed but before commit, and ``("pre-checkpoint",
        #: epoch)`` after the in-memory commit but before the checkpoint
        #: write.  Raising from it simulates a crash at that point.
        self.crash_hook: Optional[Callable[[str, int], None]] = None
        #: Overload watchdog seam: called with a phase label at every
        #: phase boundary and at every per-flow admission probe.  Pure
        #: observation unless it raises (the overload layer raises
        #: ``EpochDeadlineExceeded`` on budget breach — nothing is
        #: committed then, per the :meth:`advance` contract).  Not
        #: serialized: a restored runtime starts unwatched.
        self.watchdog: Optional[Callable[[str], None]] = None

    def _tick(self, point: str) -> None:
        """Give the watchdog a chance to interrupt between work units."""
        if self.watchdog is not None:
            self.watchdog(point)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _topology(
        self,
        down_links: Iterable[Tuple[str, str]],
        down_nodes: Iterable[str],
    ) -> _TopologyState:
        key = (
            frozenset(_link_key(a, b) for a, b in down_links),
            frozenset(down_nodes),
        )
        topo = self._topo.get(key)
        if topo is None:
            with phase_timer("runtime.topology.build"):
                topo = _TopologyState(self.scenario, key[0], key[1])
            self._topo[key] = topo
            incr("runtime.topology.builds")
        return topo

    def current_analysis(self) -> ContentionAnalysis:
        """Contention analysis of the committed active set."""
        topo = self._topology(self.down_links, self.down_nodes)
        return topo.contention.analysis_for(
            topo.ordered(self.active), name=f"{self.scenario.name}-active"
        )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admission_reason(
        self, topo: _TopologyState, active: Set[str], fid: str
    ) -> Tuple[str, str]:
        """The verdict for admitting ``fid`` on ``topo`` next to ``active``."""
        unroutable = topo.unroutable.get(fid)
        if unroutable is not None:
            return unroutable, f"flow {fid} has no usable path"
        if not self.config.admission:
            return REASON_OK, ""
        if topo.floors_feasible(active | {fid}):
            return REASON_OK, ""
        return (
            REASON_FLOOR,
            "Eq. (6) fails with every active flow at its basic share",
        )

    # ------------------------------------------------------------------
    # The epoch pipeline
    # ------------------------------------------------------------------
    def advance(
        self, events: Sequence[ChurnEvent] = (),
        *,
        freeze_admission: bool = False,
        clamp_basic: bool = False,
    ) -> EpochRecord:
        """Run one epoch; returns the committed record.

        The whole pipeline (stage + commit) runs under the
        ``runtime.epoch`` timer and span; each of the eight phases
        opens its own ``runtime.phase.*`` child inside.  Wall latency
        of the complete epoch feeds the ``runtime.epoch.latency_ms``
        histogram the SLO report summarizes.

        The keyword flags are the overload ladder's hooks (both default
        off, leaving the epoch byte-identical to historical behaviour):
        ``freeze_admission`` skips every admission probe — arrivals are
        queued unprobed under ``REASON_OVERLOAD`` and the waiting queue
        is not retried; ``clamp_basic`` skips the LP entirely and
        commits the Sec. II-D basic floors through the capacity
        governor (status ``overload-clamp``).
        """
        epoch = self.epoch + 1
        t0 = time.perf_counter()
        with phase_timer("runtime.epoch"), \
                span("runtime.epoch", epoch=epoch) as epoch_span:
            staged = self._stage(
                epoch, events,
                freeze_admission=freeze_admission,
                clamp_basic=clamp_basic,
            )
            if self.crash_hook is not None:
                self.crash_hook("staged", epoch)
            with phase_timer("runtime.phase.commit"), \
                    span("runtime.phase.commit"):
                self._commit(*staged)
            record = staged[0]
            epoch_span.tag(
                status=record.status,
                active=len(record.active),
                damped=record.damped,
                fallback_basic=record.fallback_basic,
            )
        observe(
            "runtime.epoch.latency_ms", (time.perf_counter() - t0) * 1e3
        )
        return staged[0]

    def run_timeline(self, timeline: ChurnTimeline) -> List[EpochRecord]:
        """Advance through every remaining epoch of ``timeline``.

        Resumable: a runtime restored at epoch ``k`` continues with
        epoch ``k + 1``.  The timeline's ``initial_active`` flows enter
        as epoch-0 arrivals (admission-gated like any arrival).
        """
        records: List[EpochRecord] = []
        for epoch in range(self.epoch + 1, timeline.epochs):
            events = list(timeline.epoch_events(epoch))
            if epoch == 0:
                events = [
                    ChurnEvent(0, "flow-up", flow=fid)
                    for fid in timeline.initial_active
                ] + events
            records.append(self.advance(events))
        return records

    def set_active(self, flow_ids: Iterable[str]) -> Dict[str, float]:
        """Diff a target membership into one epoch of flow events.

        Convenience for callers that think in active *sets* rather than
        event streams (the dynamic experiment).  Always advances one
        epoch, even on a no-op diff — a re-solve of an unchanged set is
        memoized, so the cost is one cache hit.
        """
        wanted = set(flow_ids)
        unknown = wanted - set(self._base_index)
        if unknown:
            raise KeyError(f"unknown flows {sorted(unknown)}")
        epoch = self.epoch + 1
        events = [
            ChurnEvent(epoch, "flow-up", flow=fid)
            for fid in sorted(wanted - self.active)
        ] + [
            ChurnEvent(epoch, "flow-down", flow=fid)
            for fid in sorted(self.active - wanted)
        ]
        self.advance(events)
        return dict(self.shares)

    # -- staging --------------------------------------------------------
    def _stage(self, epoch: int, events: Sequence[ChurnEvent],
               freeze_admission: bool = False, clamp_basic: bool = False):
        active = set(self.active)
        down_links = set(self.down_links)
        down_nodes = set(self.down_nodes)
        admitted = dict(self.admitted_epoch)
        known_nodes = set(self.scenario.network.positions)
        skipped = 0
        arrivals: List[str] = []
        applied: List[Dict] = []

        # Phase 1 — APPLY: fold the event batch into the staged sets.
        with phase_timer("runtime.phase.apply"), \
                span("runtime.phase.apply") as apply_span:
            self._tick("apply")
            for ev in sorted(events, key=ChurnEvent.sort_key):
                ok = True
                if ev.kind in ("node-up", "node-down"):
                    if ev.node in known_nodes:
                        (down_nodes.discard if ev.kind == "node-up"
                         else down_nodes.add)(ev.node)
                    else:
                        ok = False
                elif ev.kind in ("link-up", "link-down"):
                    if all(n in known_nodes for n in ev.link):
                        (down_links.discard if ev.kind == "link-up"
                         else down_links.add)(ev.link)
                    else:
                        ok = False
                elif ev.kind == "flow-down":
                    if ev.flow in self._base_index:
                        active.discard(ev.flow)
                        admitted.pop(ev.flow, None)
                        self.admission.drop_waiting(ev.flow)
                    else:
                        ok = False
                elif ev.kind == "flow-up":
                    if (ev.flow in self._base_index
                            and ev.flow not in active
                            and ev.flow not in arrivals):
                        arrivals.append(ev.flow)
                    elif ev.flow not in self._base_index:
                        ok = False
                if ok:
                    applied.append(ev.to_dict())
                else:
                    skipped += 1
                    incr("runtime.epoch.skipped_events")
            apply_span.tag(applied=len(applied), skipped=skipped)

        # Phase 2 — DIFF: resolve the topology for the staged outage sets
        # (cache hit or full rebuild).
        with phase_timer("runtime.phase.diff"), \
                span("runtime.phase.diff") as diff_span:
            self._tick("diff")
            topo = self._topology(down_links, down_nodes)
            diff_span.tag(
                pristine=topo.pristine,
                routable=len(topo.routed),
                unroutable=len(topo.unroutable),
            )

        # Phase 3 — SUSPEND: park active flows the new topology cannot
        # carry, then shrink newest-first until the floors fit.
        with phase_timer("runtime.phase.suspend"), \
                span("runtime.phase.suspend") as suspend_span:
            self._tick("suspend")
            suspended: List[str] = []
            for fid in sorted(active & set(topo.unroutable),
                              key=self._base_index.get):
                active.discard(fid)
                admitted.pop(fid, None)
                suspended.append(fid)
                self.admission.decide(
                    fid, epoch, topo.unroutable[fid],
                    "active flow lost its path",
                )
            rerouted = topo.ordered(active & topo.rerouted)

            # Suspend newest-first until the survivors' basic floors fit —
            # a topology change can shrink cliques around flows admitted
            # under roomier conditions (only reachable with shortcut
            # paths; DSR repairs and generated flows are shortcut-free).
            if self.config.admission and active:
                for _ in range(len(active)):
                    if topo.floors_feasible(active):
                        break
                    victim = max(
                        active,
                        key=lambda f: (admitted.get(f, -1),
                                       self._base_index[f]),
                    )
                    active.discard(victim)
                    admitted.pop(victim, None)
                    suspended.append(victim)
                    self.admission.decide(
                        victim, epoch, REASON_FLOOR,
                        "topology change made the active floors "
                        "infeasible",
                    )
            suspend_span.tag(suspended=len(suspended),
                             rerouted=len(rerouted))

        # Phase 4 — ADMIT: FIFO retry of the waiting queue, then this
        # epoch's arrivals; publish queue-state gauges afterwards.
        with phase_timer("runtime.phase.admit"), \
                span("runtime.phase.admit") as admit_span:
            self._tick("admit")
            if self.admission.max_queue_age is not None:
                self.admission.evict_aged(epoch)
            if freeze_admission:
                # Overload freeze rung: no feasibility probes at all.
                # Arrivals pile into the bounded queue (overflow becomes
                # REASON_QUEUE_FULL rejects) and the waiting queue is
                # not retried — the next healthy epoch drains it.
                for fid in arrivals:
                    self.admission.decide(
                        fid, epoch, REASON_OVERLOAD,
                        "admission frozen under overload shedding",
                    )
                incr("runtime.epoch.frozen_arrivals", len(arrivals))
            else:
                for fid in list(self.admission.waiting):
                    self._tick("admit")
                    if fid in active:
                        self.admission.drop_waiting(fid)
                        continue
                    if fid in suspended:
                        continue  # just parked this epoch; retry next one
                    reason, _details = self._admission_reason(topo, active,
                                                              fid)
                    if reason == REASON_OK:
                        self.admission.readmit(fid, epoch)
                        active.add(fid)
                        admitted[fid] = epoch
                for fid in arrivals:
                    self._tick("admit")
                    reason, details = self._admission_reason(topo, active,
                                                             fid)
                    decision = self.admission.decide(fid, epoch, reason,
                                                     details)
                    if decision.action == ADMIT:
                        active.add(fid)
                        admitted[fid] = epoch
            self.admission.observe_queue(epoch)
            admit_span.tag(arrivals=len(arrivals),
                           queue_depth=len(self.admission.waiting))

        # Phases 5–7 — SOLVE / DAMPEN / VALIDATE live in _solve.
        shares, status, checks, convergence, damped, fallback = (
            self._solve(epoch, topo, active, clamp_basic=clamp_basic)
        )

        record = EpochRecord(
            epoch=epoch,
            events=applied,
            active=sorted(active),
            shares={fid: shares[fid] for fid in sorted(shares)},
            status=status,
            admissions=self._epoch_admissions(epoch),
            queued=list(self.admission.waiting),
            rerouted=rerouted,
            suspended=suspended,
            skipped_events=skipped,
            damped=damped,
            fallback_basic=fallback,
            checks=checks,
            convergence=convergence,
        )
        return record, active, down_links, down_nodes, admitted

    def _epoch_admissions(self, epoch: int) -> List[Dict[str, object]]:
        """This epoch's admission decisions, serialized.

        The log is appended in epoch order, so they are its trailing run
        with this epoch number — including any the overload wrapper
        logged before the epoch was staged.  Only that run is visited,
        so the cost follows the epoch, not the length of the log.
        """
        decisions = self.admission.decisions
        start = len(decisions)
        while start > 0 and decisions[start - 1].epoch == epoch:
            start -= 1
        return [d.to_dict() for d in decisions[start:]]

    # -- solving --------------------------------------------------------
    def _solve(
        self, epoch: int, topo: _TopologyState, active: Set[str],
        clamp_basic: bool = False,
    ):
        # Phase 5 — SOLVE: sharded centralized LP, 2PA-D memo hit, or
        # full 2PA-D, tagged with the path taken.
        with phase_timer("runtime.phase.solve"), \
                span("runtime.phase.solve") as solve_span:
            self._tick("solve")
            ids = topo.ordered(active)
            if not ids:
                solve_span.tag(path="empty", flows=0)
                return {}, "empty", [], {}, False, False

            analysis = topo.contention.analysis_for(
                ids, name=f"{self.scenario.name}-active"
            )
            lossless = (self.config.loss == 0.0
                        and self.config.crash_prob == 0.0)
            memo_key = (topo.key_str, frozenset(ids))
            convergence: Dict[str, object] = {}

            if clamp_basic:
                # Overload clamp rung: skip the LP, hand every flow its
                # Sec. II-D basic share through the floor-aware capacity
                # governor — O(cliques) work, feasible by the admission
                # predicate, the ladder's terminal safe state.
                clamp_floors = global_basic_shares(analysis)
                with phase_timer("runtime.alloc.clamp"):
                    raw, _clamped = enforce_clique_capacity(
                        analysis, dict(clamp_floors), floors=clamp_floors
                    )
                status = "overload-clamp"
                incr("runtime.epoch.overload_clamps")
                solve_span.tag(path="overload-clamp")
            elif self._shard is not None:
                # Component-sharded 2PA-C: the per-component memo keyed
                # by structural fingerprint serves unchanged components
                # (an unchanged epoch is all reuse, no dirty solves).
                with phase_timer("runtime.alloc.solve"):
                    raw = self._shard.solve(analysis)
                status = "converged"
                stats = self._shard.last_stats
                if stats.get("components", 0) and not stats.get("dirty", 0):
                    # Fully memo-served epoch — the sharded analogue of
                    # a global memo hit.
                    incr("runtime.alloc.memo_hits")
                solve_span.tag(
                    path="sharded",
                    components=int(stats.get("components", 0)),
                    dirty=int(stats.get("dirty", 0)),
                    reused=int(stats.get("reused", 0)),
                )
            elif lossless and memo_key in self._memo:
                entry = self._memo[memo_key]
                raw = dict(entry["shares"])
                status = str(entry["status"])
                incr("runtime.alloc.memo_hits")
                solve_span.tag(path="memo")
            else:
                # Distributed 2PA-D through the PR-4 resilience stack.  A
                # fresh registry per epoch keyed only by (seed, prefix,
                # epoch) keeps the draw pure: replay after restore
                # consumes identical streams regardless of what ran
                # before.
                registry = RngRegistry(self.config.seed)
                prefix = tuple(self.config.stream_prefix) + (epoch,)
                if lossless:
                    plan = FaultPlan()
                else:
                    plan = FaultPlan.draw(
                        registry.stream(prefix + ("plan",)),
                        nodes=topo.network.nodes,
                        loss=self.config.loss,
                        crash_prob=self.config.crash_prob,
                    )
                injector = FaultInjector(
                    plan, registry, prefix=prefix + ("channel",)
                )
                channel = UnreliableChannel(injector)
                backend = ResilientLPBackend(cache=self._warm)
                with phase_timer("runtime.alloc.solve"):
                    allocator = DistributedAllocator(
                        analysis.scenario, backend=backend,
                        analysis=analysis, channel=channel,
                    )
                    raw = dict(allocator.run().shares)
                status = str(
                    allocator.convergence.get("status", "unknown")
                )
                per_flow = allocator.convergence.get("per_flow", {})
                convergence = {
                    "status": status,
                    "max_rounds": allocator.convergence.get("max_rounds"),
                    "total_messages": allocator.convergence.get(
                        "total_messages"
                    ),
                    "unconfirmed": sum(
                        1 for info in per_flow.values()
                        if not info.get("confirmed")
                    ),
                }
                if lossless:
                    self._memo[memo_key] = {"shares": dict(raw),
                                            "status": status}
                solve_span.tag(path="distributed")
            solve_span.tag(flows=len(ids), status=status)

        # Phase 6 — DAMPEN: hysteresis-bounded movement, never below the
        # cleared floor, re-governed for clique capacity when it bites.
        with phase_timer("runtime.phase.dampen"), \
                span("runtime.phase.dampen") as dampen_span:
            self._tick("dampen")
            shares = dict(raw)
            floors = global_basic_shares(analysis)
            damped = False
            h = self.config.hysteresis
            if h is not None and self.shares:
                for fid in shares:
                    prev = self.shares.get(fid)
                    if prev is None:
                        continue  # new/readmitted flow: no rate to protect
                    bounded = min(max(shares[fid], prev * (1.0 - h)),
                                  prev * (1.0 + h))
                    # Damping must never hold a flow below the floor its
                    # solver share already cleared (Sec. II-D is an
                    # invariant, smoothness is not).
                    bounded = max(bounded, min(raw[fid],
                                               floors.get(fid, 0.0)))
                    if bounded != shares[fid]:
                        shares[fid] = bounded
                        damped = True
                if damped:
                    incr("runtime.epoch.damped")
                    shares, _clamped = enforce_clique_capacity(
                        analysis, shares, floors=floors
                    )
            dampen_span.tag(damped=damped)

        # Phase 7 — VALIDATE: Eq. (6) + basic floors, falling back to
        # the floor allocation when the solved shares fail.
        with phase_timer("runtime.phase.validate"), \
                span("runtime.phase.validate") as validate_span:
            self._tick("validate")
            fallback = False
            cap = check_clique_capacity(analysis, shares, tol=_VALIDATE_TOL)
            floor = check_basic_fairness(analysis, shares)
            if not (cap.ok and floor.ok):
                fallback = True
                incr("runtime.epoch.fallback_basic")
                shares = dict(floors)
                status = "fallback-basic"
                cap = check_clique_capacity(analysis, shares,
                                            tol=_VALIDATE_TOL)
                floor = check_basic_fairness(analysis, shares)
            checks = [
                ["epoch.clique_capacity", cap.ok, cap.details],
                ["epoch.basic_floor", floor.ok, floor.details],
            ]
            validate_span.tag(fallback_basic=fallback, checked=True)
        return shares, status, checks, convergence, damped, fallback

    # -- committing -----------------------------------------------------
    def _commit(
        self,
        record: EpochRecord,
        active: Set[str],
        down_links: Set[Tuple[str, str]],
        down_nodes: Set[str],
        admitted: Dict[str, int],
    ) -> None:
        self.active = active
        self.down_links = down_links
        self.down_nodes = down_nodes
        self.admitted_epoch = admitted
        self.shares = dict(record.shares)
        self.epoch = record.epoch
        self.journal.append(record)
        self.last_convergence = dict(record.convergence)
        incr("runtime.epoch.count")
        incr("runtime.epoch.committed")
        if record.rerouted:
            incr("runtime.epoch.reroutes", len(record.rerouted))
        if record.suspended:
            incr("runtime.epoch.suspended", len(record.suspended))
        emit_event(
            "epoch.commit",
            epoch=record.epoch,
            status=record.status,
            active=len(record.active),
            queued=len(record.queued),
            damped=record.damped,
            fallback_basic=record.fallback_basic,
        )
        if self.crash_hook is not None:
            self.crash_hook("pre-checkpoint", record.epoch)
        if self.config.checkpoint_path is not None:
            self.save(self.config.checkpoint_path)

    def commit_carryover(self, record: EpochRecord) -> None:
        """Commit an epoch that *reuses* the last validated allocation.

        The overload layer calls this after a deadline breach: the
        aborted epoch computed nothing trustworthy, so the committed
        active set, shares, and topology stay exactly as they were —
        only the epoch index moves and the journal gains the breach
        record.  Checkpointing and commit telemetry behave like a
        normal commit, so restore-and-replay sees the breach too.
        """
        if record.epoch != self.epoch + 1:
            raise ValueError(
                f"carryover epoch {record.epoch} is not the successor "
                f"of committed epoch {self.epoch}"
            )
        self.epoch = record.epoch
        self.journal.append(record)
        incr("runtime.epoch.count")
        incr("runtime.epoch.committed")
        emit_event(
            "epoch.commit",
            epoch=record.epoch,
            status=record.status,
            active=len(record.active),
            queued=len(record.queued),
            damped=False,
            fallback_basic=False,
        )
        if self.crash_hook is not None:
            self.crash_hook("pre-checkpoint", record.epoch)
        if self.config.checkpoint_path is not None:
            self.save(self.config.checkpoint_path)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_payload(self) -> Dict[str, object]:
        """The complete committed state as a JSON-ready dict.

        Two runtimes that executed the same epochs on the same seed
        produce *equal* payloads — including cache contents and LRU
        order — whether or not one of them crashed and restored along
        the way; the differential tests compare exactly this.  Clique
        structure is not cached state: each topology re-derives it from
        the scenario.
        """
        memo = [
            {
                "key": [tk, sorted(ids)],
                "shares": dict(entry["shares"]),
                "status": entry["status"],
            }
            for (tk, ids), entry in self._memo.items()
        ]
        return {
            "scenario": scenario_to_dict(self.scenario),
            "config": self.config.to_dict(),
            "epoch": self.epoch,
            "active": sorted(self.active),
            "down_links": sorted([a, b] for a, b in self.down_links),
            "down_nodes": sorted(self.down_nodes),
            "admitted_epoch": dict(sorted(self.admitted_epoch.items())),
            "shares": {fid: self.shares[fid]
                       for fid in sorted(self.shares)},
            "journal": [r.to_dict() for r in self.journal],
            "admission": self.admission.snapshot(),
            "last_convergence": dict(self.last_convergence),
            "caches": {
                "warm": self._warm.dump_state(),
                "memo": memo,
                "shard": (self._shard.dump_state()
                          if self._shard is not None else None),
            },
            "contention_edges": self._current_edges(),
        }

    def _current_edges(self) -> List[List[str]]:
        """Contention edges of the current topology's routable flows —
        a cheap structural fingerprint verified on restore."""
        topo = self._topology(self.down_links, self.down_nodes)
        return sorted(
            sorted([str(u), str(v)])
            for u, v in topo.contention.full_graph.edges()
        )

    def save(self, path: Optional[str] = None) -> str:
        """Atomically checkpoint to ``path`` (default: the configured one)."""
        target = path if path is not None else self.config.checkpoint_path
        if target is None:
            raise ValueError("no checkpoint path configured or given")
        return save_checkpoint(self.state_payload(), target)

    @classmethod
    def restore(
        cls,
        path: str,
        scenario: Optional[Scenario] = None,
    ) -> "AllocatorRuntime":
        """Rebuild a runtime from a checkpoint, verified end to end.

        ``scenario`` may be passed to assert the checkpoint belongs to
        it (mismatch raises :class:`CheckpointCorruptError`); omitted,
        the scenario is rebuilt from the checkpoint itself.
        """
        payload = load_checkpoint(path)
        if scenario is None:
            scenario = scenario_from_dict(payload["scenario"])
        elif scenario_to_dict(scenario) != payload["scenario"]:
            raise CheckpointCorruptError(
                f"{path}: checkpoint belongs to a different scenario "
                f"than {scenario.name!r}"
            )
        config = RuntimeConfig.from_dict(
            payload.get("config", {}), checkpoint_path=str(path)
        )
        rt = cls(scenario, config)
        rt.epoch = int(payload["epoch"])
        rt.active = {str(f) for f in payload.get("active", [])}
        rt.down_links = {
            _link_key(str(l[0]), str(l[1]))
            for l in payload.get("down_links", [])
        }
        rt.down_nodes = {str(n) for n in payload.get("down_nodes", [])}
        rt.admitted_epoch = {
            str(k): int(v)
            for k, v in payload.get("admitted_epoch", {}).items()
        }
        rt.shares = {str(k): float(v)
                     for k, v in payload.get("shares", {}).items()}
        rt.journal = [EpochRecord.from_dict(r)
                      for r in payload.get("journal", [])]
        rt.admission.restore(payload.get("admission", {}))
        rt.last_convergence = dict(payload.get("last_convergence", {}))
        caches = payload.get("caches", {})
        if caches.get("warm"):
            rt._warm.load_state(caches["warm"])
        if rt._shard is not None and caches.get("shard"):
            rt._shard.load_state(caches["shard"])
        for entry in caches.get("memo") or []:
            tk, ids = entry["key"]
            rt._memo[(str(tk), frozenset(str(f) for f in ids))] = {
                "shares": {str(k): float(v)
                           for k, v in entry["shares"].items()},
                "status": str(entry["status"]),
            }
        expected = payload.get("contention_edges")
        if expected is not None:
            actual = rt._current_edges()
            if actual != expected:
                raise CheckpointCorruptError(
                    f"{path}: contention structure rebuilt from the "
                    f"scenario does not match the checkpointed one"
                )
        return rt
