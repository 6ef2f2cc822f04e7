"""Plan execution through a pluggable backend, one action at a time."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Protocol

from .model import ClusterSpec, spec_hash
from .planner import (INFRASTRUCTURE, KINDS, Action, Blobs, NodeState, Plan,
                      _recheck, diff, observe)


class BackendError(Exception):
    """A backend capability failed."""


class NodeUnreachableError(BackendError):
    """Target node cannot be reached (powered off, crashed, or isolated)."""


class TransportError(BackendError):
    """The transport itself failed, independent of node power state."""


class Backend(Protocol):
    """Capability contract shared by the simulated fleet and real transports.

    Every capability is idempotent and returns True when it changed
    state, False when the requested state already held. The executor
    calls a backend from one thread, so a backend needs no locks of its
    own; a transport that runs calls concurrently brings its own.
    """

    def hostnames(self) -> list[str]: ...
    def read_state(self, node: str) -> NodeState:
        """A reachable node's state, as a snapshot the caller owns.

        Raises NodeUnreachableError when the node cannot be reached.
        """
    def power(self, node: str, on: bool) -> bool: ...
    def write_file(self, node: str, path: str, data: bytes) -> bool: ...
    def append_file(self, node: str, path: str, data: bytes) -> bool: ...
    def mount(self, node: str, source: str, mountpoint: str) -> bool: ...
    def create_user(self, node: str, username: str, group: str,
                    shell: str, home: str) -> bool: ...
    def sync_accounts(self, node: str,
                      table: dict[str, tuple[str, str, str]]) -> bool:
        """Create or correct every account in `table` in one call.

        `table` maps username -> (group, shell, home), in username order.
        Returns True if any account changed.
        """
    def enable_quota(self, node: str) -> bool: ...
    def set_quota(self, node: str, username: str, soft: int, hard: int) -> bool: ...
    def set_marker(self, node: str, marker: str) -> bool: ...
    def enable_monitor(self, node: str) -> bool: ...


@dataclass
class ActionResult:
    action_id: str
    status: str  # applied | already_satisfied | failed | skipped
    error: str = ""
    seconds: float = 0.0


@dataclass
class ExecutionReport:
    results: list[ActionResult] = field(default_factory=list)
    status: str = "converged"  # converged | partial | aborted

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.results:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def to_dict(self) -> dict:
        # wall times excluded: report serialization stays byte-stable
        return {
            "status": self.status,
            "results": [{"action_id": r.action_id, "status": r.status,
                         **({"error": r.error} if r.error else {})}
                        for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _run_action(action: Action, backend: Backend, blobs: Blobs) -> ActionResult:
    start = time.monotonic()
    try:
        changed = KINDS[action.kind].run(backend, action.target,
                                         action.payload, blobs)
    except BackendError as exc:
        return ActionResult(action.id, "failed", error=str(exc),
                            seconds=time.monotonic() - start)
    status = "applied" if changed else "already_satisfied"
    return ActionResult(action.id, status, seconds=time.monotonic() - start)


def apply(plan: Plan, backend: Backend, spec: ClusterSpec) -> ExecutionReport:
    """Apply a plan's actions one at a time, in plan order.

    A failed action skips the rest of its node's actions in its phase and
    every action of later phases.
    """
    report = ExecutionReport()
    if plan.spec_hash != spec_hash(spec):
        report.status = "aborted"
        return report

    if not plan.actions:  # nothing to run, nothing to verify
        return report

    blobs = Blobs(plan.blobs)
    failed_phase, failed_nodes = None, set()
    for action in plan.actions:
        if failed_nodes and (action.phase != failed_phase
                             or action.target in failed_nodes):
            report.results.append(ActionResult(action.id, "skipped"))
            continue
        result = _run_action(action, backend, blobs)
        report.results.append(result)
        if result.status == "failed":
            failed_phase = action.phase
            failed_nodes.add(action.target)

    if failed_nodes:
        report.status = "partial"
    else:
        # the plan's spec_hash is the spec's, so its templates are the ones
        # `diff(spec, ...)` would build again
        state = observe(backend)
        pending = _recheck(plan, state)
        if pending is None:
            pending = diff(spec, state).actions
        report.status = "converged" if not pending else "partial"
    return report


def run_power(sequence: list[Action], backend: Backend) -> ExecutionReport:
    """Execute a power sequence strictly serially, stopping at first failure."""
    report, blobs = ExecutionReport(), Blobs()
    for action in sequence:
        if action.target == INFRASTRUCTURE:
            # network gear and UPS are not controllable targets
            result = ActionResult(action.id, "already_satisfied")
        elif report.status == "partial":
            result = ActionResult(action.id, "skipped")
        else:
            result = _run_action(action, backend, blobs)
            if result.status == "failed":
                report.status = "partial"
        report.results.append(result)
    return report
