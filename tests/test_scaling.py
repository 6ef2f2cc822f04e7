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

`status`, `apply` and `plan` on a fresh and on a converged fleet, and
`power off` and `power on`, make a bounded number of Python-level calls
per user and per worker. `status` checks the common node and user record
of the spec in one expression and builds it directly, and type-checks
each distinct state-file record once, however many nodes share it; a
spec computes its master, workers and storage mount once; `diff` builds
its actions without a `KINDS` check each; `apply` runs each action in
its own loop, builds each result directly, and verifies a plan with the
templates it was built from. Unlike wall time, a call count holds on a
noisy host.

The state file stores each distinct node record once, and a host's
entry is an index into them, so a converged fleet of alike workers
writes the same few records at any size and its state bytes grow by
about one key-mesh line and one index entry per worker. `load` and
`save` make a bounded number of Python-level calls per worker, and
`to_dict` finds each account table's digest by identity or by its
encoded bytes, so its work grows linearly with the number of distinct
tables, never with their square.

Nodes with equal account tables hold one table, which no snapshot copies
and no comparison walks per node, so the peak of memory that `tracemalloc`
traces in `status`, a converged `apply` and a fresh `apply` grows with
workers + users, not with their product. Like a call count, it does not
depend on the host's speed.
"""

import contextlib
import cProfile
import io
import json
import pathlib
import tempfile
import tracemalloc

import pytest

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


# State bytes a converged paper-shaped fleet may add per added worker: its
# key-mesh line (about 60 bytes) and its index entry (about 15).
STATE_BYTES_PER_WORKER = 150


def test_converged_state_stores_each_distinct_record_once(scaled_spec,
                                                          tmp_path, capsys):
    sizes, records = [], []
    for workers in (WORKERS, 2 * WORKERS):
        sizes.append(_bytes(scaled_spec, tmp_path, capsys, workers)[1])
        raw = json.loads((tmp_path / f"state{workers}-{USERS}.json")
                         .read_text())
        assert len(raw["nodes"]) == workers + 1
        records.append(len(raw["records"]))
    assert records == [2, 2], records
    per_worker = (sizes[1] - sizes[0]) / WORKERS
    assert per_worker <= STATE_BYTES_PER_WORKER, (sizes, per_worker)


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
STATUS_CALLS_PER_USER = 4
STATUS_CALLS_PER_WORKER = 8
APPLY_CALLS_PER_USER = 12
APPLY_CALLS_PER_WORKER = 44
CONVERGED_APPLY_CALLS_PER_USER = 7
CONVERGED_APPLY_CALLS_PER_WORKER = 9
PLAN_CALLS_PER_USER = 4
PLAN_CALLS_PER_WORKER = 9
CONVERGED_PLAN_CALLS_PER_USER = 7
CONVERGED_PLAN_CALLS_PER_WORKER = 9
POWER_OFF_CALLS_PER_USER = 4
POWER_OFF_CALLS_PER_WORKER = 10
POWER_ON_CALLS_PER_USER = 4
POWER_ON_CALLS_PER_WORKER = 9

# The commands run before the measured one: none (a fresh fleet), one
# `apply` (a converged fleet), or that and a `power off` (a stopped one).
FRESH: list[list[str]] = []
CONVERGED = [["apply"]]
STOPPED = [["apply"], ["power", "off"]]


def _cli_run(scaled_spec, tmp_path, words: list[str], workers: int,
             users: int, before: list[list[str]], call) -> None:
    """`call(main, [*words, spec, "--state", state])`, which must return
    0, after `main` has run each command of `before` on the same files."""
    run = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    spec = run / "spec.json"
    spec.write_text(json.dumps(scaled_spec(workers, users)))
    argv = [str(spec), "--state", str(run / "state.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        for earlier in before:
            assert main([*earlier, *argv]) == 0
        assert call(main, [*words, *argv]) == 0


def _cli_calls(scaled_spec, tmp_path, words: list[str], workers: int,
               users: int, before: list[list[str]]) -> int:
    """Python-level calls of one `_cli_run`'s `main`: the calls cProfile
    records for code objects, which leaves out C builtins."""
    profiler = cProfile.Profile()
    _cli_run(scaled_spec, tmp_path, words, workers, users, before,
             profiler.runcall)
    return sum(entry.callcount for entry in profiler.getstats()
               if not isinstance(entry.code, str))


def _calls_per_user_and_worker(scaled_spec, tmp_path, words: list[str],
                               before: list[list[str]]
                               ) -> tuple[float, float]:
    """Calls added per user (10 workers, 40 -> 120 users) and per worker
    (5 users, 40 -> 120 workers), after one run that pays the process's
    one-time costs (imports, regex compiles)."""
    def calls(workers, users):
        return _cli_calls(scaled_spec, tmp_path, words, workers, users,
                          before)
    calls(10, USERS)
    few_users = calls(10, 40)
    per_user = (calls(10, 120) - few_users) / 80
    few_workers = calls(40, USERS)
    per_worker = (calls(120, USERS) - few_workers) / 80
    return per_user, per_worker


def test_status_calls_per_user_and_per_worker(scaled_spec, tmp_path):
    per_user, per_worker = _calls_per_user_and_worker(
        scaled_spec, tmp_path, ["status"], CONVERGED)
    assert per_user <= STATUS_CALLS_PER_USER, per_user
    assert per_worker <= STATUS_CALLS_PER_WORKER, per_worker


def test_fresh_apply_calls_per_user_and_per_worker(scaled_spec, tmp_path):
    per_user, per_worker = _calls_per_user_and_worker(
        scaled_spec, tmp_path, ["apply"], FRESH)
    assert per_user <= APPLY_CALLS_PER_USER, per_user
    assert per_worker <= APPLY_CALLS_PER_WORKER, per_worker


def test_converged_apply_calls_per_user_and_per_worker(scaled_spec,
                                                       tmp_path):
    per_user, per_worker = _calls_per_user_and_worker(
        scaled_spec, tmp_path, ["apply"], CONVERGED)
    assert per_user <= CONVERGED_APPLY_CALLS_PER_USER, per_user
    assert per_worker <= CONVERGED_APPLY_CALLS_PER_WORKER, per_worker


def test_fresh_plan_calls_per_user_and_per_worker(scaled_spec, tmp_path):
    per_user, per_worker = _calls_per_user_and_worker(
        scaled_spec, tmp_path, ["plan", "--format", "machine"], FRESH)
    assert per_user <= PLAN_CALLS_PER_USER, per_user
    assert per_worker <= PLAN_CALLS_PER_WORKER, per_worker


def test_converged_plan_calls_per_user_and_per_worker(scaled_spec,
                                                      tmp_path):
    per_user, per_worker = _calls_per_user_and_worker(
        scaled_spec, tmp_path, ["plan"], CONVERGED)
    assert per_user <= CONVERGED_PLAN_CALLS_PER_USER, per_user
    assert per_worker <= CONVERGED_PLAN_CALLS_PER_WORKER, per_worker


def test_power_off_calls_per_user_and_per_worker(scaled_spec, tmp_path):
    per_user, per_worker = _calls_per_user_and_worker(
        scaled_spec, tmp_path, ["power", "off"], CONVERGED)
    assert per_user <= POWER_OFF_CALLS_PER_USER, per_user
    assert per_worker <= POWER_OFF_CALLS_PER_WORKER, per_worker


def test_power_on_calls_per_user_and_per_worker(scaled_spec, tmp_path):
    per_user, per_worker = _calls_per_user_and_worker(
        scaled_spec, tmp_path, ["power", "on"], STOPPED)
    assert per_user <= POWER_ON_CALLS_PER_USER, per_user
    assert per_worker <= POWER_ON_CALLS_PER_WORKER, per_worker


# Python-level calls one `SimFleet.load` plus `save` may add per worker.
LOAD_SAVE_CALLS_PER_WORKER = 2


def _load_save_calls(scaled_spec, tmp_path, workers: int) -> int:
    """Python-level calls of loading and saving a converged fleet's file."""
    spec, fleet = _converged(scaled_spec, workers)
    path = str(tmp_path / f"load-save{workers}.json")
    fleet.save(path)
    profiler = cProfile.Profile()
    profiler.runcall(lambda: SimFleet.load(path, spec).save(path))
    return sum(entry.callcount for entry in profiler.getstats()
               if not isinstance(entry.code, str))


def test_load_and_save_calls_per_worker(scaled_spec, tmp_path):
    """Calls added per worker (5 users, 40 -> 120 workers), after one run
    that pays the one-time costs."""
    _load_save_calls(scaled_spec, tmp_path, 10)
    few = _load_save_calls(scaled_spec, tmp_path, 40)
    per_worker = (_load_save_calls(scaled_spec, tmp_path, 120) - few) / 80
    assert per_worker <= LOAD_SAVE_CALLS_PER_WORKER, per_worker


class _Table(dict):
    """An account table that counts its comparisons with other tables."""
    compared = 0
    __hash__ = None

    def __eq__(self, other):
        _Table.compared += 1
        return dict.__eq__(self, other)


def _to_dict_cost(scaled_spec, workers: int) -> tuple[int, int]:
    """(table comparisons, Python-level calls) of one `to_dict` of a
    converged fleet whose every node holds its own account table: the
    spec's accounts and one of its own, as one `create_user` per node
    gives."""
    spec, fleet = _converged(scaled_spec, workers)
    for host, node in fleet.nodes.items():
        node.accounts = _Table(node.accounts, **{
            f"x{host}": ("users", "/bin/sh", f"/Jugrid/x{host}")})
    _Table.compared = 0
    profiler = cProfile.Profile()
    raw = profiler.runcall(fleet.to_dict)
    assert len(raw["blobs"]) >= workers + 1  # one account table per node
    return _Table.compared, sum(entry.callcount
                                for entry in profiler.getstats()
                                if not isinstance(entry.code, str))


def test_to_dict_cost_linear_in_distinct_account_tables(scaled_spec):
    """4 times the distinct tables cost at most 4 times the comparisons
    and calls; comparing each new table with every earlier one costs 16
    times the comparisons."""
    _to_dict_cost(scaled_spec, 10)
    few, many = (_to_dict_cost(scaled_spec, w)
                 for w in (WORKERS, 4 * WORKERS))
    assert many[0] <= 4 * few[0], (few, many)
    assert many[1] <= 4 * few[1], (few, many)


def test_to_dict_digests_each_distinct_blob_once(scaled_spec, monkeypatch):
    """A fleet whose every node has its own record (per-host traffic)
    hashes each distinct blob once per `to_dict`, not once per record:
    hashing the key mesh, which has a line per node, once per record
    would cost time quadratic in the number of nodes."""
    from types import SimpleNamespace
    from hepcluster import planner
    spec, fleet = _converged(scaled_spec, WORKERS)
    fleet.sim_tick(1.0, {h: float(i) for i, h in enumerate(fleet.nodes)})
    hashed: list[bytes] = []

    def sha256(data, inner=planner.hashlib.sha256):
        hashed.append(data)
        return inner(data)
    monkeypatch.setattr(planner, "hashlib", SimpleNamespace(sha256=sha256))
    raw = fleet.to_dict()
    assert len(raw["records"]) == WORKERS + 1
    assert len(hashed) == len(raw["blobs"])


# How much one invocation's peak of traced memory may grow when workers and
# users both grow 4 times: about 4 when it is linear in workers + users, 16
# when it is linear in workers x users.
PEAK_GROWTH = 5.0


def _cli_peak(scaled_spec, tmp_path, words: list[str], workers: int,
              users: int, before: list[list[str]]) -> int:
    """Peak bytes `tracemalloc` traces during one `_cli_run`'s `main`."""
    peaks: list[int] = []

    def traced(func, argv):
        tracemalloc.start()
        try:
            return func(argv)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    _cli_run(scaled_spec, tmp_path, words, workers, users, before, traced)
    return peaks[0]


@pytest.mark.parametrize("words, before", [
    (["status"], CONVERGED), (["apply"], CONVERGED), (["apply"], FRESH)],
    ids=["status", "converged-apply", "fresh-apply"])
def test_peak_memory_grows_with_workers_plus_users(scaled_spec, tmp_path,
                                                   words, before):
    """A first run pays the process's one-time allocations."""
    def peak(workers, users):
        return _cli_peak(scaled_spec, tmp_path, words, workers, users,
                         before)
    peak(20, 200)
    small, large = peak(20, 200), peak(80, 800)
    assert large <= PEAK_GROWTH * small, (small, large, large / small)
