"""Spans recorded from outside the program, by wrapping the names its modules call.

`Tracer.install` replaces module attributes and `SimFleet` methods with
timing wrappers and `Tracer.uninstall` puts the originals back.  A span is
recorded only under an open root span (one CLI invocation), so calls the
benchmark makes itself between invocations are not counted.

What cannot be seen from here: lock waits inside `SimFleet` and queue
waits in the executor's thread pool.  They land in the self time of the
enclosing span (a `SimFleet` method or `executor.apply`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from hepcluster import cli, configgen, executor, monitor, planner
from hepcluster.simfleet import SimFleet

MUTATING = ("power", "write_file", "append_file", "mount", "create_user",
            "enable_quota", "set_quota", "set_marker", "enable_monitor")

_WRAPPED = "_perfbench_span"


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    thread: int
    start: float
    end: float
    note: Any = None  # small result summary, e.g. a changed flag or a count
    error: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _mesh_bytes(mesh) -> int:
    return sum(len(c) for c in mesh.authorized_content.values())


def _targets() -> list[tuple[Any, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, note) for every wrapped call site."""
    out = [
        (cli, "parse_spec", "model.parse_spec", None),
        (cli, "validate", "model.validate", None),
        (planner, "validate", "model.validate", None),
        (planner, "spec_hash", "model.spec_hash", None),
        (executor, "spec_hash", "model.spec_hash", None),
        (configgen, "gen_key_mesh", "configgen.gen_key_mesh", _mesh_bytes),
        (planner, "observe", "planner.observe", None),
        (planner, "diff", "planner.diff", lambda plan: len(plan.actions)),
        (executor, "observe", "planner.observe", None),
        (executor, "diff", "planner.diff", lambda plan: len(plan.actions)),
        (planner.Plan, "to_json", "planner.plan_to_json", None),
        (executor, "apply", "executor.apply", lambda report: report.counts()),
        (executor, "run_power", "executor.run_power", None),
        (monitor, "health_check", "monitor.health_check", None),
        (monitor, "take_sample", "monitor.take_sample", None),
        (monitor, "compute_rates", "monitor.compute_rates", None),
        (monitor, "render_summary", "monitor.render", None),
        (SimFleet, "hostnames", "simfleet.hostnames", None),
        (SimFleet, "read_state", "simfleet.read_state", None),
        (SimFleet, "load", "simfleet.load", None),
        (SimFleet, "save", "simfleet.save", None),
        (SimFleet, "state_hash", "simfleet.state_hash", None),
    ]
    out += [(SimFleet, name, f"simfleet.{name}", bool) for name in MUTATING]
    return out


def find_wrappers() -> list[str]:
    """Names of call sites that currently hold a benchmark wrapper."""
    found = []
    for owner, attr, _, _ in _targets():
        value = vars(owner)[attr]
        if hasattr(getattr(value, "__func__", value), _WRAPPED):
            found.append(f"{owner.__name__}.{attr}")
    return found


class Tracer:
    """Collects spans from wrapped call sites, across the executor's threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> Optional[int]:
        if stack:
            return stack[-1]
        # a pool thread's first call belongs to the span open on the main
        # thread, which is blocked waiting for the pool
        if self._main_stack:
            return self._main_stack[-1]
        return None

    def _timed(self, name: str, parent: Optional[int], note, fn, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        stack.append(span_id)
        result, error = None, True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            error = False
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(
                span_id, parent, name, threading.get_ident(), start, end,
                note(result) if note and not error else None, error))

    def root(self, name: str, fn: Callable, *args, **kwargs):
        """Call `fn` under a new root span."""
        return self._timed(name, None, None, fn, args, kwargs)

    def _wrap(self, name: str, fn: Callable, note) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._parent(tracer._stack())
            if parent is None:
                return fn(*args, **kwargs)
            return tracer._timed(name, parent, note, fn, args, kwargs)

        setattr(wrapper, _WRAPPED, name)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, note in _targets():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, note))
            else:
                wrapped = self._wrap(name, original, note)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        """One span per line; times in seconds from the first span's start,
        threads numbered in order of appearance."""
        t0 = min((s.start for s in self.spans), default=0.0)
        threads: dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                rec = {"id": s.id, "parent": s.parent, "name": s.name,
                       "thread": threads.setdefault(s.thread, len(threads)),
                       "start": round(s.start - t0, 7),
                       "end": round(s.end - t0, 7)}
                if s.note is not None:
                    rec["note"] = s.note
                if s.error:
                    rec["error"] = True
                f.write(json.dumps(rec, separators=(",", ":")) + "\n")


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the union of its children's intervals.

    Children from pool threads overlap one another; each instant inside
    the span is subtracted at most once.
    """
    covered = 0.0
    cur_start = cur_end = None
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, span.start), min(c.end, span.end)
        if hi <= lo:
            continue
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.seconds - covered


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures per CLI invocation, summed over calls.

    Returns {metric name: (value, unit)}.  Only spans under a `cli.main`
    root count; `simfleet.state_hash_s` is the one exception and is summed
    over every state_hash span, because the program itself never calls it.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    roots: dict[int, int] = {}

    def root_of(s: Span) -> int:
        chain = []
        while s.parent is not None and s.id not in roots:
            chain.append(s.id)
            s = by_id[s.parent]
        top = roots.get(s.id, s.id)
        for i in chain:
            roots[i] = top
        return top

    ops = [s for s in spans if s.parent is None and s.name == "cli.main"]
    op_ids = {s.id for s in ops}
    counted = [s for s in spans if root_of(s) in op_ids]
    n_ops = max(len(ops), 1)

    def total(name: str) -> tuple[float, int]:
        hits = [s for s in counted if s.name == name]
        return sum(s.seconds for s in hits), len(hits)

    def parent_name(s: Span) -> str:
        return by_id[s.parent].name if s.parent is not None else ""

    m: dict[str, tuple[float, str]] = {}

    def per_op(metric: str, value: float, unit: str) -> None:
        m[metric] = (value / n_ops, unit)

    for name in ("model.parse_spec", "model.validate", "model.spec_hash",
                 "configgen.gen_key_mesh", "planner.observe", "planner.diff",
                 "planner.plan_to_json", "executor.apply", "executor.run_power",
                 "monitor.health_check", "monitor.take_sample",
                 "monitor.compute_rates", "monitor.render",
                 "simfleet.load", "simfleet.save"):
        seconds, calls = total(name)
        per_op(f"{name}_s", seconds, "s")
        if name in ("model.validate", "model.spec_hash",
                    "planner.observe", "planner.diff"):
            per_op(f"{name}_calls", calls, "count")

    per_op("configgen.mesh_bytes",
           sum(s.note or 0 for s in counted if s.name == "configgen.gen_key_mesh"),
           "bytes")
    per_op("planner.actions_pending",
           sum(s.note or 0 for s in counted if s.name == "planner.diff"),
           "count")

    applies = [s for s in counted if s.name == "executor.apply"]
    per_op("executor.self_s",
           sum(self_time(s, children.get(s.id, [])) for s in applies), "s")
    verify_s = sum(s.seconds for s in counted
                   if s.name in ("planner.observe", "planner.diff")
                   and parent_name(s) == "executor.apply")
    per_op("executor.verify_s", verify_s, "s")
    for status, metric in (("applied", "applied"),
                           ("already_satisfied", "satisfied"),
                           ("failed", "failed"), ("skipped", "skipped")):
        per_op(f"executor.actions_{metric}",
               sum((s.note or {}).get(status, 0) for s in applies), "count")

    # enable_monitor calls set_marker: count only the outer call
    fleet = [s for s in counted if not parent_name(s).startswith("simfleet.")]
    reads = [s for s in fleet if s.name == "simfleet.read_state"]
    per_op("simfleet.read_state_calls", len(reads), "count")
    per_op("simfleet.read_state_s", sum(s.seconds for s in reads), "s")
    mutating = [s for s in fleet
                if s.name.removeprefix("simfleet.") in MUTATING]
    per_op("simfleet.mutating_calls", len(mutating), "count")
    per_op("simfleet.mutating_s", sum(s.seconds for s in mutating), "s")
    per_op("simfleet.create_user_calls",
           sum(1 for s in mutating if s.name == "simfleet.create_user"), "count")
    changed = sum(1 for s in mutating if s.note)
    m["simfleet.changed_ratio"] = (changed / len(mutating) if mutating else 0.0,
                                   "ratio")
    m["simfleet.state_hash_s"] = (
        sum(s.seconds for s in spans if s.name == "simfleet.state_hash"), "s")

    per_op("cli.self_s",
           sum(self_time(s, children.get(s.id, [])) for s in ops), "s")
    return m
