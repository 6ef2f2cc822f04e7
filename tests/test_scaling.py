"""Scaling shape, not speed: plan and state bytes grow linearly in fleet size.

Every node trusts every other node (the P3 key mesh), so a file that
repeats the N-line authorized_keys per node grows quadratically.  Every
worker holds every account, so a plan or state file that repeats the
U-account table per worker grows as N x U.  Doubling the workers (and the users) must no more
than about double the bytes.
"""

import json

from hepcluster.cli import main

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
