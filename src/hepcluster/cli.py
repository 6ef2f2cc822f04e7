"""Command-line entry point: validate, gen, plan, apply, status, power, monitor."""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import gc
import math
import os
import sys

from . import configgen, executor, monitor, planner
from .model import ClusterSpec, SpecError, parse_spec, validate
from .simfleet import SimFleet, StateError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_FAILURE = 2
EXIT_TRANSPORT = 3
EXIT_USAGE = 4

GEN_ARTIFACTS = ("exports", "fstab", "env", "aliases", "motd", "users", "quotas")


# a result's status, padded to its column of a report line
_STATUS_COLUMN = {status: f"{status:<18}" for status in
                  ("applied", "already_satisfied", "failed", "skipped")}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hepcluster",
                     description="Converge a master/worker compute cluster "
                                 "to a declarative specification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, state=True):
        p.add_argument("spec", help="path to the cluster spec file")
        if state:
            p.add_argument("--state", required=True,
                           help="simulated fleet state file")

    add_common(sub.add_parser("validate", help="check the spec"), state=False)

    p = sub.add_parser("gen", help="print a generated artifact")
    p.add_argument("artifact", choices=GEN_ARTIFACTS)
    p.add_argument("spec")

    add_common(sub.add_parser("plan", help="diff spec against fleet state"))
    add_common(sub.add_parser("apply", help="converge the fleet to the spec"))
    add_common(sub.add_parser("status", help="report per-node health"))

    p = sub.add_parser("power", help="run the start or stop sequence")
    p.add_argument("direction", choices=["on", "off"])
    add_common(p)

    p = sub.add_parser("monitor", help="sample traffic and print rates")
    add_common(p)
    p.add_argument("--interval", type=float, default=2.0)
    p.add_argument("--rate", type=float, default=1000.0,
                   help="simulated traffic rate in bytes/second")
    for name in ("plan", "apply", "status", "monitor"):
        sub.choices[name].add_argument("--format", choices=["table", "machine"],
                                       default="table")
    return parser


# built once per process: a build costs far more than a parse
_PARSER = _build_parser()


def _load_spec(path: str) -> ClusterSpec:
    """The parsed and validated spec; every subcommand loads it here."""
    with open(path, "rb") as f:
        spec = parse_spec(f.read())
    violations = validate(spec)
    if violations:
        raise planner.PlanError(violations)
    return spec


def _load_fleet(args, spec: ClusterSpec) -> SimFleet:
    if os.path.exists(args.state):
        return SimFleet.load(args.state, spec)
    return SimFleet(spec)


@contextlib.contextmanager
def _state_lock(path: str):
    """Advisory lock guarding mutating subcommands; busy lock fails fast."""
    lock_path = path + ".lock"
    with open(lock_path, "w") as f:
        try:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            raise planner.TransportError(
                f"state file {path} is locked by another invocation") from None
        try:
            yield
        finally:
            fcntl.flock(f, fcntl.LOCK_UN)


def _cmd_validate(args, out) -> int:
    spec = _load_spec(args.spec)
    print(f"spec OK: {len(spec.nodes)} nodes, {len(spec.users)} users", file=out)
    return EXIT_OK


# What the spec must define for an artifact that needs it
_GEN_NEEDS = {"env": "apps", "aliases": "alias_guards", "quotas": "user quotas"}


def _cmd_gen(args, out) -> int:
    spec = _load_spec(args.spec)
    name = args.artifact
    files = configgen.spec_files(spec)
    if name in files:
        text = files[name].text
    elif name == "users":
        text = "\n".join(configgen.gen_users_commands(list(spec.users))) + "\n"
    elif name == "quotas" and any(u.has_quota for u in spec.users):
        text = "\n".join(
            configgen.gen_quota_commands(spec.storage, list(spec.users))) + "\n"
    else:
        raise SpecError(f"spec defines no {_GEN_NEEDS[name]}")
    out.write(text)
    return EXIT_OK


def _cmd_plan(args, out) -> int:
    spec = _load_spec(args.spec)
    fleet = _load_fleet(args, spec)
    plan = planner.diff(spec, planner.observe(fleet))
    if args.format == "machine":
        out.write(plan.to_json())
    else:
        lines = [f"{a.phase}  {a.target:<16}{a.kind}\n" for a in plan.actions]
        lines.append(f"{len(plan.actions)} pending action(s)\n")
        out.write("".join(lines))
    return EXIT_OK


def _cmd_apply(args, out) -> int:
    spec = _load_spec(args.spec)
    # locked before loading, so no other invocation's save can be lost
    with _state_lock(args.state):
        fleet = _load_fleet(args, spec)
        plan = planner.diff(spec, planner.observe(fleet))
        report = executor.apply(plan, fleet, spec)
        # an empty plan makes no backend call, so the file already holds
        # the fleet as loaded
        if plan.actions or not os.path.exists(args.state):
            fleet.save(args.state)
    _print_report(report, args.format, out)
    return EXIT_OK if report.status == "converged" else EXIT_FAILURE


def _print_report(report: executor.ExecutionReport, fmt: str, out) -> None:
    if fmt == "machine":
        out.write(report.to_json())
        return
    lines = [f"{_STATUS_COLUMN[r.status]}{r.action_id}  ({r.error})\n"
             if r.error else f"{_STATUS_COLUMN[r.status]}{r.action_id}\n"
             for r in report.results]
    counts = " ".join(f"{k}={v}" for k, v in sorted(report.counts().items()))
    lines.append(f"plan {report.status}: {counts or 'nothing to do'}\n")
    out.write("".join(lines))


def _cmd_status(args, out) -> int:
    spec = _load_spec(args.spec)
    fleet = _load_fleet(args, spec)
    state = planner.observe(fleet)
    health = monitor.health_check(state, spec)
    if args.format == "machine":
        import json
        out.write(json.dumps({"health": health}, indent=2, sort_keys=True) + "\n")
    else:
        out.write("".join([f"{host:<16}{health[host]}\n"
                           for host in sorted(health)]))
    return EXIT_OK


def _cmd_power(args, out) -> int:
    spec = _load_spec(args.spec)
    direction = "start" if args.direction == "on" else "stop"
    sequence = planner.power_sequence(direction, spec)
    with _state_lock(args.state):
        fleet = _load_fleet(args, spec)
        report = executor.run_power(sequence, fleet)
        fleet.save(args.state)
    out.write("".join([f"{_STATUS_COLUMN[r.status]}{a.kind} {a.target}\n"
                       for a, r in zip(sequence, report.results)]))
    return EXIT_OK if report.status == "converged" else EXIT_FAILURE


def _cmd_monitor(args, out) -> int:
    if not args.interval > 0:  # also rejects nan
        raise UsageError(f"--interval must be positive, got {args.interval}")
    if args.rate < 0:
        raise UsageError(f"--rate must not be negative, got {args.rate}")
    if not math.isfinite(args.interval * args.rate):
        raise UsageError(f"--interval {args.interval} times --rate "
                         f"{args.rate} is not a finite number of bytes")
    spec = _load_spec(args.spec)
    fleet = _load_fleet(args, spec)
    # two snapshots separated by one simulated interval; state is not saved
    state0 = planner.observe(fleet)
    sample0 = monitor.take_sample(state0, fleet.clock)
    profile = {h: args.rate for h in fleet.hostnames()}
    fleet.sim_tick(args.interval, profile)
    state1 = planner.observe(fleet)
    sample1 = monitor.take_sample(state1, fleet.clock)
    if sample1.timestamp <= sample0.timestamp:
        raise planner.TransportError("monitor interval produced no time window")
    report = monitor.compute_rates(sample0, sample1)
    report.health = monitor.health_check(state1, spec)
    if args.format == "machine":
        out.write(report.to_json())
    else:
        out.write(monitor.render_summary(report))
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "gen": _cmd_gen,
    "plan": _cmd_plan,
    "apply": _cmd_apply,
    "status": _cmd_status,
    "power": _cmd_power,
    "monitor": _cmd_monitor,
}


def main(argv=None) -> int:
    # a command's objects live until it returns and hold next to no cycles,
    # so cyclic GC is paused for the command, then the caller's setting restored
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _PARSER.parse_args(argv)
        return _COMMANDS[args.subcommand](args, sys.stdout)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except planner.PlanError as exc:
        # `validate` reports on stdout; for the others it is an error
        report = sys.stdout if args.subcommand == "validate" else sys.stderr
        for v in exc.violations:
            print(f"violation [{v.code}] {v.message}", file=report)
        return EXIT_VALIDATION
    except planner.TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except StateError as exc:
        print(f"state error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:  # a spec or state path it cannot open
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    finally:
        if enabled:
            gc.enable()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
