"""Plan execution through a pluggable backend, phase by phase."""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Protocol

from .model import ClusterSpec, spec_hash
from .planner import (INFRASTRUCTURE, KINDS, PHASES, Action, Blobs,
                      NodeState, Plan, diff, observe)

DEFAULT_MAX_PARALLEL = 4


class BackendError(Exception):
    """A backend capability failed."""


class NodeUnreachableError(BackendError):
    """Target node cannot be reached (powered off, crashed, or isolated)."""


class TransportError(BackendError):
    """The transport itself failed, independent of node power state."""


class Backend(Protocol):
    """Capability contract shared by the simulated fleet and real transports.

    Every capability is idempotent and returns True when it changed
    state, False when the requested state already held.
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


def run_node(actions: list[Action], backend: Backend,
             blobs: Blobs) -> list[ActionResult]:
    """Run actions in order; after the first failure the rest are skipped."""
    results = []
    for action in actions:
        result = _run_action(action, backend, blobs)
        results.append(result)
        if result.status == "failed":
            results += [ActionResult(a.id, "skipped")
                        for a in actions[len(results):]]
            break
    return results


def apply(plan: Plan, backend: Backend, spec: ClusterSpec, *,
          max_parallel_nodes: int = DEFAULT_MAX_PARALLEL) -> ExecutionReport:
    """Apply a plan phase by phase; nodes within a phase run concurrently.

    One pool of `max_parallel_nodes` threads serves the whole run.
    """
    report = ExecutionReport()
    if plan.spec_hash != spec_hash(spec):
        report.status = "aborted"
        return report

    if not plan.actions:  # nothing to run, nothing to verify
        return report

    blobs = Blobs(plan.blobs)
    by_phase: dict[str, list[Action]] = {}
    for action in plan.actions:
        by_phase.setdefault(action.phase, []).append(action)

    lock = threading.Lock()

    def drain(queue: Iterator[tuple[str, list[Action]]]) -> list[ActionResult]:
        """Run nodes taken from the shared queue until it is empty."""
        results = []
        while True:
            with lock:
                item = next(queue, None)
            if item is None:
                return results
            results += run_node(item[1], backend, blobs)

    failed = False
    with ThreadPoolExecutor(max_workers=max_parallel_nodes) as pool:
        for phase in PHASES:
            actions = by_phase.get(phase, [])
            if not actions:
                continue
            if failed:
                report.results += [ActionResult(a.id, "skipped")
                                   for a in actions]
                continue
            per_node: dict[str, list[Action]] = {}
            for action in actions:
                per_node.setdefault(action.target, []).append(action)
            # a few drain tasks share one queue of nodes, not one task per node
            queue = iter(sorted(per_node.items()))
            tasks = [pool.submit(drain, queue)
                     for _ in range(min(max_parallel_nodes, len(per_node)))]
            # report in plan order regardless of completion order
            indexed = {r.action_id: r for t in tasks for r in t.result()}
            report.results += [indexed[a.id] for a in actions]
            if any(r.status == "failed" for r in indexed.values()):
                failed = True

    if failed:
        report.status = "partial"
    else:
        post = diff(spec, observe(backend))
        report.status = "converged" if not post.actions else "partial"
    return report


def run_power(sequence: list[Action], backend: Backend) -> ExecutionReport:
    """Execute a power sequence strictly serially, stopping at first failure."""
    # network gear and UPS are not controllable targets
    ran = {r.action_id: r for r in run_node(
        [a for a in sequence if a.target != INFRASTRUCTURE], backend,
        Blobs())}
    results = [ran.get(a.id) or ActionResult(a.id, "already_satisfied")
               for a in sequence]
    failed = any(r.status == "failed" for r in results)
    return ExecutionReport(results, "partial" if failed else "converged")
