"""Scaling shape, not speed: plan and state bytes grow linearly in fleet size.

Every node trusts every other node (the P3 key mesh), so a file that
repeats the N-line authorized_keys per node grows quadratically.  Every
worker holds every account, so a plan or state file that repeats the
U-account table per worker grows as N x U.  Doubling the workers (and the users) must no more
than about double the bytes.

A no-op `diff` checks postconditions once per group of workers with equal
observed state, so its count of `holds` calls does not grow with N.

`Plan.to_json` encodes each distinct payload object once, and the hosts
of a template share its payloads, so its count of encoder calls does not
grow with N either. The flat payloads (the master's per-user ones) are
encoded together in one call, so the count does not grow with U.

`diff` runs each spec-file generator once, however many nodes use its
file, and a fresh `apply` runs each of them and the key mesh once: the
post-apply verify reuses the templates its plan was built from.

A fresh `apply` makes one account sync call per worker, so adding users
adds only the master's per-user backend calls, not one call per worker.

`status`, a fresh `apply` and a fresh `plan` make a bounded number of
Python-level calls per user and per worker. `status` checks the common
node and user record of the spec in one expression and builds it
directly, and type-checks each state-file node record in the pass that
builds the node, with one call per mount, quota and counter; `diff`
builds its actions without a `KINDS` check each, and `apply` runs and
verifies a plan with the templates it was built from. Unlike wall time,
a call count holds on a noisy host.
"""

import contextlib
import cProfile
import io
import json
import pathlib
import tempfile

from hepcluster import (apply, configgen, diff, observe, parse_spec,
                        planner)
from hepcluster.cli import main
from hepcluster.simfleet import SimFleet

WORKERS = 40
USERS = 5
MAX_GROWTH = 2.2


def _bytes(scaled_spec, tmp_path, capsys, workers: int,
           users: int = USERS) -> tuple[int, int]:
    """(fresh machine plan bytes, converged state file bytes)."""
    spec = tmp_path / f"spec{workers}-{users}.json"
    spec.write_text(json.dumps(scaled_spec(workers, users)))
    state = tmp_path / f"state{workers}-{users}.json"
    argv = [str(spec), "--state", str(state)]
    assert main(["plan", *argv, "--format", "machine"]) == 0
    plan_bytes = len(capsys.readouterr().out.encode())
    assert main(["apply", *argv]) == 0
    capsys.readouterr()
    return plan_bytes, state.stat().st_size


def test_bytes_at_most_linear_in_workers(scaled_spec, tmp_path, capsys):
    plan_n, state_n = _bytes(scaled_spec, tmp_path, capsys, WORKERS)
    plan_2n, state_2n = _bytes(scaled_spec, tmp_path, capsys, 2 * WORKERS)
    assert plan_2n <= MAX_GROWTH * plan_n, plan_2n / plan_n
    assert state_2n <= MAX_GROWTH * state_n, state_2n / state_n


def test_plan_bytes_linear_in_workers_plus_users(scaled_spec, tmp_path,
                                                 capsys):
    plan_n, state_n = _bytes(scaled_spec, tmp_path, capsys, WORKERS, WORKERS)
    plan_2n, state_2n = _bytes(scaled_spec, tmp_path, capsys, 2 * WORKERS,
                               2 * WORKERS)
    assert plan_2n <= MAX_GROWTH * plan_n, plan_2n / plan_n
    assert state_2n <= MAX_GROWTH * state_n, state_2n / state_n


def _count_holds(monkeypatch) -> list[str]:
    """Kind names of every postcondition check from now on, in call order."""
    calls: list[str] = []
    for name, kind in list(planner.KINDS.items()):
        def holds(node, payload, blobs, name=name, inner=kind.holds):
            calls.append(name)
            return inner(node, payload, blobs)
        monkeypatch.setitem(planner.KINDS, name,
                            planner.Kind(kind.phases, kind.run, holds))
    return calls


def _converged(scaled_spec, workers: int):
    spec = parse_spec(json.dumps(scaled_spec(workers, USERS)))
    fleet = SimFleet(spec)
    apply(diff(spec, observe(fleet)), fleet, spec)
    return spec, fleet


def _holds_checks(spec, fleet, calls: list[str]) -> int:
    state = observe(fleet)
    calls.clear()
    diff(spec, state)
    return len(calls)


def test_noop_diff_checks_do_not_grow_with_workers(scaled_spec, monkeypatch):
    calls = _count_holds(monkeypatch)
    counts = []
    for workers in (WORKERS, 2 * WORKERS):
        spec, fleet = _converged(scaled_spec, workers)
        assert diff(spec, observe(fleet)).actions == ()
        counts.append(_holds_checks(spec, fleet, calls))
    assert counts[0] == counts[1], counts


def test_diff_checks_do_not_grow_with_crashed_workers(scaled_spec,
                                                      monkeypatch):
    calls = _count_holds(monkeypatch)
    spec, fleet = _converged(scaled_spec, WORKERS)
    converged = _holds_checks(spec, fleet, calls)
    crashed = 0
    for k in (1, 4, 16):
        for w in spec.workers[crashed:k]:
            fleet.inject_fault(w.hostname, "crash")
        crashed = k
        assert _holds_checks(spec, fleet, calls) == converged, k


def _plans(scaled_spec, sizes) -> list:
    plans = []
    for workers, users in sizes:
        spec = parse_spec(json.dumps(scaled_spec(workers, users)))
        plans.append(diff(spec, observe(SimFleet(spec))))
    return plans


def _encodings(plan, monkeypatch) -> int:
    """Encoder calls `plan.to_json` makes: each `json.dumps` call and each
    call of the flat payloads' encoder. Between them they encode the blobs
    and every distinct payload object exactly once."""
    dumped: list = []
    flat: list = []
    dumps, encode = planner.json.dumps, planner._FLAT_ENCODER.encode
    with monkeypatch.context() as m:
        m.setattr(planner.json, "dumps", lambda obj, **kwargs: (
            dumped.append(obj) or dumps(obj, **kwargs)))
        m.setattr(planner._FLAT_ENCODER, "encode", lambda obj: (
            flat.append(obj) or encode(obj)))
        plan.to_json()
    encoded = dumped + [payload for payloads in flat for payload in payloads]
    wanted = {id(a.payload) for a in plan.actions} | {id(plan.blobs)}
    assert sorted(map(id, encoded)) == sorted(wanted)
    return len(dumped) + len(flat)


def test_plan_json_encodings_do_not_grow_with_workers(scaled_spec,
                                                     monkeypatch):
    plans = _plans(scaled_spec, [(WORKERS, USERS), (2 * WORKERS, USERS)])
    counts = [_encodings(plan, monkeypatch) for plan in plans]
    assert len(plans[1].actions) > len(plans[0].actions)
    assert counts[0] == counts[1], counts


def test_plan_json_encodings_do_not_grow_with_users(scaled_spec,
                                                   monkeypatch):
    plans = _plans(scaled_spec, [(WORKERS, USERS), (WORKERS, 4 * USERS)])
    counts = [_encodings(plan, monkeypatch) for plan in plans]
    assert len(plans[1].actions) > len(plans[0].actions)
    assert counts[0] == counts[1], counts
    for plan, count in zip(plans, counts):
        # one call for every flat payload, one for the blobs, and one per
        # distinct empty or nested payload
        other = {id(a.payload) for a in plan.actions if not a.payload or any(
            isinstance(v, (dict, list)) for v in a.payload.values())}
        assert count <= 2 + len(other), (count, len(other))


def _fresh_apply_calls(scaled_spec, mutation_counter, users: int) -> int:
    spec = parse_spec(json.dumps(scaled_spec(WORKERS, users)))
    fleet = SimFleet(spec)
    backend = mutation_counter(fleet)
    report = apply(diff(spec, observe(fleet)), backend, spec)
    assert report.status == "converged"
    return backend.calls


def test_fresh_apply_calls_grow_with_users_not_workers_times_users(
        scaled_spec, mutation_counter):
    users = 20
    few = _fresh_apply_calls(scaled_spec, mutation_counter, users)
    many = _fresh_apply_calls(scaled_spec, mutation_counter, 2 * users)
    # the master's CreateUser and SetQuota per added user, nothing per worker
    assert many - few <= 2 * users + 2, (few, many)


GENERATORS = ("gen_exports", "gen_fstab_mount", "gen_env_profile",
              "gen_alias_guards", "gen_motd")


def _count_generators(monkeypatch, names) -> list[str]:
    """Names of the `configgen` functions `names` in call order, from now on."""
    calls: list[str] = []
    for name in names:
        def counted(*args, name=name, inner=getattr(configgen, name)):
            calls.append(name)
            return inner(*args)
        monkeypatch.setattr(configgen, name, counted)
    return calls


def test_diff_runs_each_generator_once(scaled_spec, monkeypatch):
    calls = _count_generators(monkeypatch, GENERATORS)
    for workers in (WORKERS, 2 * WORKERS):
        spec = parse_spec(json.dumps(scaled_spec(workers, USERS)))
        state = observe(SimFleet(spec))
        calls.clear()
        diff(spec, state)
        assert sorted(calls) == sorted(GENERATORS), workers


def test_fresh_apply_runs_each_generator_once(scaled_spec, tmp_path,
                                              monkeypatch):
    """The post-apply verify reuses the plan's templates, so one fresh
    `apply` builds the spec files and the key mesh once."""
    names = GENERATORS + ("gen_key_mesh",)
    calls = _count_generators(monkeypatch, names)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(scaled_spec(WORKERS, USERS)))
    argv = ["apply", str(spec), "--state", str(tmp_path / "state.json")]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    assert out.getvalue().splitlines()[-1].startswith("plan converged:")
    assert sorted(calls) == sorted(names)


# Python-level calls one invocation may add per user and per worker.
STATUS_CALLS_PER_USER = 7
STATUS_CALLS_PER_WORKER = 30
APPLY_CALLS_PER_USER = 20
APPLY_CALLS_PER_WORKER = 112
PLAN_CALLS_PER_USER = 16
PLAN_CALLS_PER_WORKER = 36


def _cli_calls(scaled_spec, tmp_path, words: list[str], workers: int,
               users: int, converged: bool) -> int:
    """Python-level calls of one `main([*words, spec, "--state", state])`,
    on a converged fleet or on none: the calls cProfile records for code
    objects, which leaves out C builtins."""
    run = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    spec = run / "spec.json"
    spec.write_text(json.dumps(scaled_spec(workers, users)))
    argv = [str(spec), "--state", str(run / "state.json")]
    profiler = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        if converged:
            assert main(["apply", *argv]) == 0
        assert profiler.runcall(main, [*words, *argv]) == 0
    return sum(entry.callcount for entry in profiler.getstats()
               if not isinstance(entry.code, str))


def _calls_per_user_and_worker(scaled_spec, tmp_path, words: list[str],
                               converged: bool) -> tuple[float, float]:
    """Calls added per user (10 workers, 40 -> 120 users) and per worker
    (5 users, 40 -> 120 workers), after one run that pays the process's
    one-time costs (imports, regex compiles)."""
    def calls(workers, users):
        return _cli_calls(scaled_spec, tmp_path, words, workers, users,
                          converged)
    calls(10, USERS)
    few_users = calls(10, 40)
    per_user = (calls(10, 120) - few_users) / 80
    few_workers = calls(40, USERS)
    per_worker = (calls(120, USERS) - few_workers) / 80
    return per_user, per_worker


def test_status_calls_per_user_and_per_worker(scaled_spec, tmp_path):
    per_user, per_worker = _calls_per_user_and_worker(
        scaled_spec, tmp_path, ["status"], converged=True)
    assert per_user <= STATUS_CALLS_PER_USER, per_user
    assert per_worker <= STATUS_CALLS_PER_WORKER, per_worker


def test_fresh_apply_calls_per_user_and_per_worker(scaled_spec, tmp_path):
    per_user, per_worker = _calls_per_user_and_worker(
        scaled_spec, tmp_path, ["apply"], converged=False)
    assert per_user <= APPLY_CALLS_PER_USER, per_user
    assert per_worker <= APPLY_CALLS_PER_WORKER, per_worker


def test_fresh_plan_calls_per_user_and_per_worker(scaled_spec, tmp_path):
    per_user, per_worker = _calls_per_user_and_worker(
        scaled_spec, tmp_path, ["plan", "--format", "machine"],
        converged=False)
    assert per_user <= PLAN_CALLS_PER_USER, per_user
    assert per_worker <= PLAN_CALLS_PER_WORKER, per_worker
