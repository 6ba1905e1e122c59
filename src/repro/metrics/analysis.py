"""Post-hoc analysis of measured results against allocation targets.

Bridges the simulation outputs (:class:`MetricsCollector`) and the
analytic layer: did the run satisfy the paper's fairness definitions?
How closely did measured throughput track the allocated shares?  Where
did the losses happen?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..core.fairness_defs import jain_index
from .collector import MetricsCollector


@dataclass(frozen=True)
class AdherenceReport:
    """How closely measured flow throughput tracked the target shares."""

    per_flow_ratio: Dict[str, float]   # measured / target, normalized
    adherence_index: float             # Jain index of the ratios (1 = exact)
    max_relative_error: float          # worst |ratio - mean| / mean

    @property
    def is_tight(self) -> bool:
        return self.max_relative_error < 0.15


def share_adherence(
    metrics: MetricsCollector,
    target_shares: Mapping[str, float],
) -> AdherenceReport:
    """Compare measured per-flow delivery against target shares.

    Only the *ratios* matter (the MAC cannot reach 100% channel
    utilization), so measured counts are normalized by the target shares
    and compared with each other.
    """
    ratios: Dict[str, float] = {}
    for fid, target in target_shares.items():
        if target <= 0:
            raise ValueError(f"target share of flow {fid!r} must be > 0")
        measured = metrics.flows[fid].delivered_end_to_end
        ratios[fid] = measured / target
    values = list(ratios.values())
    mean = sum(values) / len(values) if values else 0.0
    max_err = (
        max(abs(v - mean) for v in values) / mean if mean > 0 else 0.0
    )
    return AdherenceReport(
        per_flow_ratio=ratios,
        adherence_index=jain_index(values),
        max_relative_error=max_err,
    )


def measured_fairness_index(metrics: MetricsCollector,
                            weights: Optional[Mapping[str, float]] = None
                            ) -> float:
    """Jain index of measured weight-normalized end-to-end throughputs."""
    values = []
    for fid, flow_metrics in metrics.flows.items():
        w = float((weights or {}).get(fid, 1.0))
        values.append(flow_metrics.delivered_end_to_end / w)
    return jain_index(values)


def intra_flow_balance(metrics: MetricsCollector) -> Dict[str, float]:
    """Per flow: min/max ratio of its subflow delivery counts.

    1.0 means perfectly balanced hops (2PA's goal); small values mean an
    upstream hop outran a downstream one — the buffer-overflow signature
    of single-hop-fair schedulers.
    """
    out: Dict[str, float] = {}
    for flow in metrics.scenario.flows:
        counts = [
            metrics.subflow_delivered[s.sid] for s in flow.subflows
        ]
        hi = max(counts)
        out[flow.flow_id] = (min(counts) / hi) if hi > 0 else 1.0
    return out


@dataclass(frozen=True)
class LossBreakdown:
    """Where the in-network losses happened."""

    relay_queue_drops: Dict[str, int]
    downstream_mac_drops: Dict[str, int]
    source_drops: Dict[str, int]
    total_in_network: int

    def dominated_by_buffers(self) -> bool:
        """True when buffer overflow (not MAC retries) drives the losses."""
        q = sum(self.relay_queue_drops.values())
        m = sum(self.downstream_mac_drops.values())
        return q >= m


def loss_breakdown(metrics: MetricsCollector) -> LossBreakdown:
    """Split lost packets by mechanism and by flow."""
    return LossBreakdown(
        relay_queue_drops={
            fid: m.relay_queue_drops for fid, m in metrics.flows.items()
        },
        downstream_mac_drops={
            fid: m.mac_drops_downstream
            for fid, m in metrics.flows.items()
        },
        source_drops={
            fid: m.source_drops for fid, m in metrics.flows.items()
        },
        total_in_network=metrics.total_lost_packets(),
    )


def utilization(metrics: MetricsCollector,
                data_rate_mbps: float = 2.0,
                packet_bytes: int = 512) -> float:
    """Delivered end-to-end payload bits as a fraction of one channel.

    Values above 1.0 indicate spatial reuse (several regions active
    concurrently); the paper's "total effective throughput" normalized.
    """
    if metrics.duration <= 0:
        raise RuntimeError("run duration not set")
    bits = sum(
        m.delivered_end_to_end for m in metrics.flows.values()
    ) * packet_bytes * 8
    return bits / (metrics.duration * data_rate_mbps)
