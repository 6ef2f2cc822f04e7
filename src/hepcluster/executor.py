"""Plan execution through a pluggable backend, one action at a time."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .model import ClusterSpec, spec_hash
# `diff` is not called here, but stays importable as `executor.diff`: the
# benchmark's tracer wraps `diff`, `observe` and `spec_hash` through this
# module's namespace, and stops at a name it lacks
from .planner import (INFRASTRUCTURE, KINDS, Action, Backend, BackendError,
                      Blobs, Plan, _basis, _pending, diff, observe)


@dataclass
class ActionResult:
    action_id: str
    status: str  # applied | already_satisfied | failed | skipped
    error: str = ""


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
        return {
            "status": self.status,
            "results": [{"action_id": r.action_id, "status": r.status,
                         **({"error": r.error} if r.error else {})}
                        for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def apply(plan: Plan, backend: Backend, spec: ClusterSpec) -> ExecutionReport:
    """Apply a plan's actions one at a time, in plan order.

    A failed action skips the rest of its node's actions in its phase and
    every action of later phases. A plan built by hand, not by `diff`, is
    run with the spec's templates, so an invalid spec raises PlanError (its
    `violations` are `validate(spec)`) before any action runs.
    """
    report = ExecutionReport()
    if plan.spec_hash != spec_hash(spec):
        report.status = "aborted"
        return report

    if not plan.actions:  # nothing to run, nothing to verify
        return report

    templates, blobs = _basis(plan, spec)
    failed_phase, failed_nodes = None, set()
    results, new = report.results, object.__new__
    for action in plan.actions:
        if failed_nodes and (action.phase != failed_phase
                             or action.target in failed_nodes):
            results.append(ActionResult(action.id, "skipped"))
            continue
        try:
            changed = KINDS[action.kind].run(backend, action.target,
                                             action.payload, blobs)
        except BackendError as exc:
            results.append(ActionResult(action.id, "failed", str(exc)))
            failed_phase = action.phase
            failed_nodes.add(action.target)
            continue
        # built as `ActionResult(...)` builds it, in field order, without
        # its `__init__` frame: one result per action
        result = new(ActionResult)
        result.action_id = action.id
        result.status = "applied" if changed else "already_satisfied"
        result.error = ""
        results.append(result)

    if failed_nodes:
        report.status = "partial"
    else:
        # the plan's spec_hash is the spec's, so its templates are the ones
        # `diff(spec, ...)` would build again
        pending = _pending(templates, blobs, observe(backend))
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
            try:
                changed = KINDS[action.kind].run(backend, action.target,
                                                 action.payload, blobs)
            except BackendError as exc:
                result = ActionResult(action.id, "failed", str(exc))
                report.status = "partial"
            else:
                result = ActionResult(
                    action.id, "applied" if changed else "already_satisfied")
        report.results.append(result)
    return report
