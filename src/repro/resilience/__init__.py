"""``repro.resilience``: faults, lossy 2PA-D, degradation, long-lived runtime.

The distributed phase-1 protocol (Sec. IV-B) is specified over an
idealized exchange; this package makes the reproduction breakable on
purpose — and trustworthy anyway:

* :mod:`~repro.resilience.faults` — seeded, serializable, shrinkable
  fault plans (message drop/duplicate/delay, ack loss, node
  crash/restart, link flaps) and the injector that turns them into
  reproducible per-message decisions;
* :mod:`~repro.resilience.channel` — an unreliable constraint-propagation
  channel with per-message acks, bounded retransmits, exponential
  backoff with deterministic jitter, and a convergence detector
  (``converged`` / ``converged-partial`` / ``timed-out``);
* :mod:`~repro.resilience.degrade` — the graceful-degradation ladder
  (local LP for confirmed flows, basic-share clamp for unconfirmed ones,
  a floor-aware clique-capacity governor for the mixture) and the LP
  fallback chain warm float simplex → cold float simplex →
  exact-Fraction solver;
* :mod:`~repro.resilience.epochs` — seeded, serializable, shrinkable
  churn timelines (link up/down, node crash/rejoin, flow
  arrival/departure) partitioned into epochs;
* :mod:`~repro.resilience.runtime` — the long-lived
  :class:`AllocatorRuntime` that consumes a timeline epoch by epoch:
  topology diffing, DSR route repair, admission control, hysteresis
  damping, per-epoch invariant validation, crash-consistent
  checkpoints;
* :mod:`~repro.resilience.admission` — the Sec. II-D admission
  predicate (admit only if every active flow keeps its basic floor
  under Eq. (6)) and the queue/reject controller;
* :mod:`~repro.resilience.checkpoint` — atomic, checksummed,
  schema-versioned snapshots with typed load failures;
* :mod:`~repro.resilience.campaign` — chaos (fault plans), churn
  (timelines, with a mid-timeline crash + restore differential) and
  overload (open-loop arrival traces) campaigns on one skeleton, with
  the paper's safety invariants checked on every run.

CLI: ``repro-experiments chaos --cases 50 --seed 0 --loss 0,0.1,0.3``
and ``repro-experiments churn --cases 30 --epochs 10 --loss 0,0.2``.
"""

from .admission import (
    ADMIT,
    QUEUE,
    REJECT,
    AdmissionController,
    AdmissionDecision,
    basic_share_feasible,
)
from .channel import (
    CONVERGED,
    CONVERGED_PARTIAL,
    TIMED_OUT,
    ChannelStats,
    UnreliableChannel,
    worst_status,
)
from .checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointSchemaError,
    SCHEMA_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from .degrade import (
    ResilientLPBackend,
    degraded_allocation,
    enforce_clique_capacity,
    global_basic_shares,
)
from .epochs import ChurnEvent, ChurnTimeline
from .faults import (
    ArrivalBurst,
    FaultInjector,
    FaultPlan,
    LinkFaults,
    LinkFlap,
    NodeCrash,
    WorkerCrash,
    WorkerFaultInjector,
    WorkerFaultSpec,
    WorkerHang,
)
from .runtime import AllocatorRuntime, EpochRecord, RuntimeConfig
from .overload import (
    EpochDeadline,
    EpochDeadlineExceeded,
    OverloadConfig,
    OverloadRuntime,
    RUNG_NAMES,
)
from .campaign import (
    CampaignReport,
    CaseChecks,
    Violation,
    measure_sustainable_rate,
    run_chaos,
    run_chaos_case,
    run_churn,
    run_churn_case,
    run_overload,
    run_overload_case,
)

__all__ = [
    "ADMIT",
    "QUEUE",
    "REJECT",
    "AdmissionController",
    "AdmissionDecision",
    "basic_share_feasible",
    "CONVERGED",
    "CONVERGED_PARTIAL",
    "TIMED_OUT",
    "ChannelStats",
    "UnreliableChannel",
    "worst_status",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointSchemaError",
    "SCHEMA_VERSION",
    "load_checkpoint",
    "save_checkpoint",
    "ResilientLPBackend",
    "degraded_allocation",
    "enforce_clique_capacity",
    "global_basic_shares",
    "ChurnEvent",
    "ChurnTimeline",
    "ArrivalBurst",
    "FaultInjector",
    "FaultPlan",
    "LinkFaults",
    "LinkFlap",
    "NodeCrash",
    "WorkerCrash",
    "WorkerFaultInjector",
    "WorkerFaultSpec",
    "WorkerHang",
    "AllocatorRuntime",
    "EpochRecord",
    "RuntimeConfig",
    "EpochDeadline",
    "EpochDeadlineExceeded",
    "OverloadConfig",
    "OverloadRuntime",
    "RUNG_NAMES",
    "CampaignReport",
    "CaseChecks",
    "Violation",
    "run_chaos",
    "run_chaos_case",
    "run_churn",
    "run_churn_case",
    "measure_sustainable_rate",
    "run_overload",
    "run_overload_case",
]
