"""Workloads, the closed-loop CLI client, correctness checks and metrics.

One client runs one `hepcluster` invocation at a time, in-process through
`hepcluster.cli.main(argv)` with the CLI defaults, and captures what it
writes to stdout and stderr.  Every timing is wall time around that call,
scaled to a machine of fixed speed by a reference kernel timed before each
set-up and each cycle (see `reference_kernel`).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import specgen
import tracer as tracing
from hepcluster import cli
from hepcluster.executor import apply
from hepcluster.model import parse_spec, spec_hash
from hepcluster.planner import Plan, diff, observe
from hepcluster.simfleet import SimFleet

SETUP_REPEATS = 7
KERNELS_PER_CYCLE = 3
UNREACHABLE_WARNING = "unreachable, planning full provisioning"
# The reference kernel's time on the reference machine: reported timings are
# what the run would have measured on a machine that runs the kernel this fast.
REFERENCE_KERNEL_S = 0.05


def reference_kernel() -> float:
    """Time a fixed pure-Python loop, to follow the machine's current speed.

    On a shared host the speed of the whole process drifts by tens of
    percent over seconds to minutes, and the program, which spends its time
    in the interpreter, slows with it.  The median of this kernel over a run
    follows that drift, so timings divided by it are steady between runs.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    users: int
    cycle: str  # key into CYCLES; every cycle but "fresh" starts converged


# Sized so that a 32 s run holds at least ten cycles on a 2-core machine,
# where one invocation varies by 5-15% between repeats: each timing is then
# a median of ten or more.  At N=1000 drift-repair held two cycles a run.
WORKLOADS = {w.name: w for w in (
    Workload("fresh-mesh", 600, 50, "fresh"),
    Workload("fresh-accounts", 60, 1000, "fresh"),
    Workload("steady-noop", 600, 50, "steady"),
    Workload("drift-repair", 300, 50, "drift"),
)}


class _Sink:
    """Write target that keeps references to the chunks, copying nothing."""

    def __init__(self) -> None:
        self.chunks: list[str] = []

    def write(self, s: str) -> int:
        self.chunks.append(s)
        return len(s)

    def flush(self) -> None:
        pass

    def data(self) -> bytes:
        return "".join(self.chunks).encode("utf-8")


@dataclass
class Op:
    role: str
    seconds: float
    ok: bool
    out_bytes: int = 0
    digest: str = ""
    warnings: int = 0
    traced: bool = False


@dataclass
class Reference:
    """What a fleet converged in-process from the same spec looks like."""
    state_hash: str
    fresh_plan_digest: str
    empty_plan_digest: str


@dataclass
class Result:
    ops: list[Op] = field(default_factory=list)
    cycles: list[float] = field(default_factory=list)
    traced_cycles: list[float] = field(default_factory=list)
    state_bytes: list[int] = field(default_factory=list)
    fault_repair: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    setup_s: float = 0.0
    kernel: list[float] = field(default_factory=list)
    tracer: Optional[tracing.Tracer] = None

    @property
    def scale(self) -> float:
        """Factor that turns this run's wall times into reference seconds."""
        return REFERENCE_KERNEL_S / statistics.median(self.kernel)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Runs CLI operations against one spec and state file, checking each."""

    def __init__(self, workload: Workload, seed: int, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.spec_path = os.path.join(work_dir, "spec.json")
        self.state_path = os.path.join(work_dir, "state.json")
        self.result = Result()
        self.tracer: Optional[tracing.Tracer] = None
        self.spec = None
        self.ref: Optional[Reference] = None
        self.crashed, self.isolated = specgen.pick_faults(workload.workers, seed)
        self._plan_digests: dict[str, str] = {}

    # -- set-up ---------------------------------------------------------

    def _set_up_once(self):
        w = self.workload
        specgen.write_spec(specgen.make_spec(w.workers, w.users, self.seed),
                           self.spec_path)
        with open(self.spec_path, "rb") as f:
            spec = parse_spec(f.read())
        fleet = SimFleet(spec)
        # the fresh fleet logs one unreachable warning per node
        with contextlib.redirect_stderr(_Sink()):
            plan = diff(spec, observe(fleet))
            report = apply(plan, fleet, spec)
        if report.status != "converged":
            raise RuntimeError(f"reference fleet did not converge: {report.status}")
        if w.cycle != "fresh":
            fleet.save(self.state_path)
        elif os.path.exists(self.state_path):
            os.remove(self.state_path)
        return spec, fleet, plan

    def set_up(self) -> None:
        """Generate the spec and reach the start state, several times.

        Each repeat converges a reference fleet in-process through the
        public API; the converged workloads start from it.  The median
        repeat is the set-up time.
        """
        times = []
        for _ in range(SETUP_REPEATS):
            last = None  # the previous repeat's fleet would slow the next
            gc.collect()
            self.result.kernel.append(reference_kernel())
            t0 = time.perf_counter()
            last = self._set_up_once()
            times.append(time.perf_counter() - t0)
        self.result.setup_s = statistics.median(times)
        spec, fleet, plan = last
        self.spec = spec
        self.ref = Reference(
            state_hash=fleet.state_hash(),
            fresh_plan_digest=_sha(plan.to_json().encode("utf-8")),
            empty_plan_digest=_sha(
                Plan(actions=(), spec_hash=spec_hash(spec)).to_json()
                .encode("utf-8")))

    # -- operations -----------------------------------------------------

    def _problem(self, text: str) -> None:
        self.result.problems.append(text)

    def run(self, role: str, argv: list[str], expect: int = 0,
            check: Optional[Callable[[Op, bytes], Optional[str]]] = None) -> Op:
        """One CLI invocation: time it, then check exit code and output."""
        out, err = _Sink(), _Sink()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            if self.tracer is not None:
                rc = self.tracer.root("cli.main", cli.main, argv)
            else:
                rc = cli.main(argv)
            seconds = time.perf_counter() - t0
        data = out.data()
        stderr = "".join(err.chunks)
        op = Op(role, seconds, ok=True, out_bytes=len(data), digest=_sha(data),
                warnings=stderr.count(UNREACHABLE_WARNING),
                traced=self.tracer is not None)
        if rc != expect:
            op.ok = False
            self._problem(f"{role}: exit {rc}, expected {expect}: "
                          f"{stderr.strip()[-300:]}")
        elif check is not None:
            problem = check(op, data)
            if problem:
                op.ok = False
                self._problem(f"{role}: {problem}")
        self.result.ops.append(op)
        return op

    def _args(self, *words: str) -> list[str]:
        return [*words, self.spec_path, "--state", self.state_path]

    def plan(self, role: str = "plan", want: Optional[str] = None) -> Op:
        def check(op: Op, data: bytes) -> Optional[str]:
            first = self._plan_digests.setdefault(role, op.digest)
            if op.digest != first:
                return "plan output differs from the earlier identical plan"
            if want is not None and op.digest != want:
                return "plan output differs from the in-process reference plan"
            return None
        return self.run(role, self._args("plan") + ["--format", "machine"],
                        check=check)

    def status(self, unreachable: frozenset = frozenset()) -> Op:
        def check(op: Op, data: bytes) -> Optional[str]:
            health = dict(line.split() for line in data.decode().splitlines())
            want = {n: "unreachable" if n in unreachable else "up"
                    for n in (specgen.hostname(i)
                              for i in range(self.workload.workers + 1))}
            if health != want:
                bad = sorted(h for h in want if health.get(h) != want[h])
                return f"unexpected health for {bad[:5]}"
            return None
        return self.run("status", self._args("status"), check=check)

    def _edit_fleet(self, edit: Callable[[SimFleet], None]) -> None:
        fleet = SimFleet.load(self.state_path, self.spec)
        edit(fleet)
        fleet.save(self.state_path)

    def _record_state_bytes(self) -> None:
        self.result.state_bytes.append(os.path.getsize(self.state_path))

    # -- cycles ---------------------------------------------------------

    def cycle_fresh(self) -> None:
        if os.path.exists(self.state_path):
            os.remove(self.state_path)
        self.plan(want=self.ref.fresh_plan_digest)
        self.run("apply", self._args("apply"))
        self.status()
        self._record_state_bytes()

    def cycle_steady(self) -> None:
        self.plan(want=self.ref.empty_plan_digest)
        self.status()
        self.run("monitor", self._args("monitor"))
        self.run("apply", self._args("apply"))
        self._record_state_bytes()

    def cycle_drift(self) -> None:
        self.run("power_off", self._args("power", "off"))
        self.run("power_on", self._args("power", "on"))
        self.run("apply", self._args("apply"))  # every worker remounts

        def inject(fleet: SimFleet) -> None:
            for host in self.crashed:
                fleet.inject_fault(host, "crash")
            fleet.inject_fault(self.isolated, "unreachable")
        self._edit_fleet(inject)
        self.status(unreachable=frozenset(self.crashed + [self.isolated]))
        self.plan()
        t0 = time.perf_counter()
        self.run("apply_partial", self._args("apply"), expect=2)
        self._edit_fleet(lambda fleet: fleet.clear_fault(self.isolated))
        self.run("apply_repair", self._args("apply"))
        if self.tracer is None:
            self.result.fault_repair.append(time.perf_counter() - t0)
        self._record_state_bytes()

    # -- final checks ---------------------------------------------------

    def state_matches_reference(self) -> bool:
        fleet = SimFleet.load(self.state_path, self.spec)
        return fleet.state_hash() == self.ref.state_hash

    def final_checks(self) -> None:
        """End converged: a plan with nothing pending and the reference state."""
        self.plan("final_plan", want=self.ref.empty_plan_digest)
        t0 = time.perf_counter()
        if self.tracer is not None:
            same = self.tracer.root("bench.state_check",
                                    self.state_matches_reference)
        else:
            same = self.state_matches_reference()
        self.result.ops.append(Op("state_check", time.perf_counter() - t0, same))
        if not same:
            self._problem("final state differs from the in-process reference")


CYCLES = {"fresh": Runner.cycle_fresh, "steady": Runner.cycle_steady,
          "drift": Runner.cycle_drift}


@contextlib.contextmanager
def _traced(runner: Runner, tracer: Optional[tracing.Tracer]):
    """Install `tracer`'s wrappers for the block; no-op when it is None."""
    if tracer is None:
        yield
        return
    tracer.install()
    runner.tracer = tracer
    try:
        yield
    finally:
        runner.tracer = None
        tracer.uninstall()


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work_dir: str, trace_path: Optional[str] = None) -> Result:
    """Set up, run cycles for about `seconds`, then check the end state.

    The set-ups count against `seconds`, and a new cycle starts only
    while it is expected to end before the deadline, so a run lasts at
    most `seconds` plus the final checks.  With `trace`, cycles alternate
    untraced and traced, so one run gives both the per-layer spans and the
    tracing overhead.
    """
    os.makedirs(work_dir, exist_ok=True)
    runner = Runner(workload, seed, work_dir)
    res = runner.result
    deadline = time.perf_counter() + seconds
    try:
        runner.set_up()
        cycle = CYCLES[workload.cycle]
        tracer = tracing.Tracer() if trace else None
        min_cycles = 2 if trace else 1
        done: list[float] = []
        while True:
            traced = trace and len(done) % 2 == 1
            gc.collect()
            res.kernel.extend(reference_kernel() for _ in range(KERNELS_PER_CYCLE))
            t0 = time.perf_counter()
            with _traced(runner, tracer if traced else None):
                cycle(runner)
            done.append(time.perf_counter() - t0)
            (res.traced_cycles if traced else res.cycles).append(done[-1])
            expected_end = time.perf_counter() + statistics.median(done)
            if len(done) >= min_cycles and expected_end > deadline:
                break
        with _traced(runner, tracer):
            runner.final_checks()
        leftover = tracing.find_wrappers()
        res.ops.append(Op("no_wrappers", 0.0, ok=not leftover))
        if leftover:
            res.problems.append(f"wrappers left installed: {leftover}")
        res.tracer = tracer
        if tracer is not None and trace_path:
            tracer.write_jsonl(trace_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return res


# -- metrics --------------------------------------------------------------

def _median(ops: list[Op], role: str, attr: str = "seconds") -> float:
    values = [getattr(op, attr) for op in ops
              if op.role == role and not op.traced]
    return statistics.median(values) if values else 0.0


def counts(res: Result) -> tuple[int, int]:
    """(attempted, failed) over CLI invocations and end-of-run checks."""
    return len(res.ops), sum(1 for op in res.ops if not op.ok)


def _scaled(res: Result, metrics: dict[str, tuple[float, str]]
            ) -> dict[str, tuple[float, str]]:
    """Turn every timing (unit `s`) into reference seconds."""
    return {name: (value * res.scale if unit == "s" else value, unit)
            for name, (value, unit) in metrics.items()}


def end_to_end(res: Result) -> dict[str, tuple[float, str]]:
    ops = res.ops
    return _scaled(res, {
        "setup_s": (res.setup_s, "s"),
        "cycle_s": (statistics.median(res.cycles), "s"),
        "plan_s": (_median(ops, "plan"), "s"),
        "apply_s": (_median(ops, "apply"), "s"),
        "status_s": (_median(ops, "status"), "s"),
        "plan_bytes": (_median(ops, "plan", "out_bytes"), "bytes"),
        "state_bytes": (statistics.median(res.state_bytes), "bytes"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    })


def workload_views(workload: Workload, res: Result) -> dict[str, tuple[float, str]]:
    """The same timings under the operation names an operator would use."""
    ops = res.ops
    attempted, failed = counts(res)
    out: dict[str, tuple[float, str]] = {}
    if workload.cycle == "fresh":
        out["plan_fresh_s"] = (_median(ops, "plan"), "s")
        out["apply_fresh_s"] = (_median(ops, "apply"), "s")
    elif workload.cycle == "steady":
        out["plan_noop_s"] = (_median(ops, "plan"), "s")
        out["apply_noop_s"] = (_median(ops, "apply"), "s")
        out["monitor_s"] = (_median(ops, "monitor"), "s")
    else:
        offs = [op.seconds for op in ops
                if op.role == "power_off" and not op.traced]
        ons = [op.seconds for op in ops
               if op.role == "power_on" and not op.traced]
        out["power_cycle_s"] = (
            statistics.median(a + b for a, b in zip(offs, ons)), "s")
        out["remount_s"] = (_median(ops, "apply"), "s")
        out["fault_repair_s"] = (statistics.median(res.fault_repair), "s")
    out["failed_ops_ratio"] = (failed / attempted, "ratio")
    return _scaled(res, out)


def per_layer(res: Result) -> dict[str, tuple[float, str]]:
    m = tracing.layer_metrics(res.tracer.spans)
    traced = [op for op in res.ops if op.traced]
    m["planner.warnings"] = (
        sum(op.warnings for op in traced) / max(len(traced), 1), "count")
    m["trace.overhead_ratio"] = (
        statistics.median(res.traced_cycles) / statistics.median(res.cycles),
        "ratio")
    return _scaled(res, m)
