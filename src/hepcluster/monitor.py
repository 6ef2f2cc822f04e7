"""Traffic sampling, rate computation, and plain-text cluster health summary."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .model import ClusterSpec, Role
from .planner import FleetState

HEALTH_UP = "up"
HEALTH_DEGRADED = "degraded"
HEALTH_UNREACHABLE = "unreachable"


@dataclass(frozen=True)
class TrafficSample:
    timestamp: float
    counters: dict[tuple[str, str], tuple[int, int]]  # (node, iface) -> (rx, tx)


@dataclass
class RateReport:
    rates: dict[tuple[str, str], tuple[float, float]] = field(default_factory=dict)
    health: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "rates": [
                {"node": n, "interface": i,
                 "rx_rate": rx, "tx_rate": tx}
                for (n, i), (rx, tx) in sorted(self.rates.items())
            ],
            "health": dict(sorted(self.health.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def take_sample(state: FleetState, timestamp: float) -> TrafficSample:
    """Snapshot counters for every reachable node."""
    counters = {}
    for hostname, node in state.nodes.items():
        if not node.reachable:
            continue
        for iface, (rx, tx) in node.counters.items():
            counters[(hostname, iface)] = (rx, tx)
    return TrafficSample(timestamp=timestamp, counters=counters)


def compute_rates(prev: TrafficSample, cur: TrafficSample) -> RateReport:
    """Per-interface byte rates; counter decreases (resets) clamp to zero."""
    dt = cur.timestamp - prev.timestamp
    if dt <= 0:
        raise ValueError("sample timestamps must strictly increase")
    report = RateReport()
    for key, (rx1, tx1) in sorted(cur.counters.items()):
        rx0, tx0 = prev.counters.get(key, (rx1, tx1))
        rx_rate = (rx1 - rx0) / dt if rx1 >= rx0 else 0.0
        tx_rate = (tx1 - tx0) / dt if tx1 >= tx0 else 0.0
        report.rates[key] = (rx_rate, tx_rate)
    return report


def health_check(state: FleetState, spec: ClusterSpec) -> dict[str, str]:
    """Per-node health: up, degraded (missing storage mount), or unreachable."""
    mount = spec.storage_mount
    out = {}
    for node_spec in spec.nodes:
        node = state.nodes.get(node_spec.hostname)
        if node is None or not node.reachable:
            out[node_spec.hostname] = HEALTH_UNREACHABLE
        elif node_spec.role is Role.WORKER and mount not in node.mounts:
            out[node_spec.hostname] = HEALTH_DEGRADED
        else:
            out[node_spec.hostname] = HEALTH_UP
    return out


def render_summary(report: RateReport) -> str:
    """Fixed-width traffic table, sorted by hostname then interface."""
    lines = [f"{'NODE':<10}{'IFACE':<8}{'RX/s':>12}{'TX/s':>12}  HEALTH"]
    for (node, iface), (rx, tx) in sorted(report.rates.items()):
        health = report.health.get(node, HEALTH_UP)
        lines.append(f"{node:<10}{iface:<8}{rx:>12.1f}{tx:>12.1f}  {health}")
    with_rates = {n for n, _ in report.rates}
    for node, health in sorted(report.health.items()):
        if node not in with_rates:
            lines.append(f"{node:<10}{'-':<8}{'-':>12}{'-':>12}  {health}")
    return "\n".join(lines) + "\n"
