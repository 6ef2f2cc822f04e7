"""Scaling shape, not speed: plan and state bytes grow linearly in fleet size.

Every node trusts every other node (the P3 key mesh), so a file that
repeats the N-line authorized_keys per node grows quadratically.  Doubling
the workers must no more than about double the bytes.
"""

import json

from hepcluster.cli import main

WORKERS = 40
USERS = 5
MAX_GROWTH = 2.2


def _spec(paper_spec_text: bytes, workers: int) -> dict:
    raw = json.loads(paper_spec_text)
    master, worker = raw["nodes"][0], raw["nodes"][1]
    master["interfaces"][0]["ip"] = "10.1.3.1"
    raw["nodes"] = [master] + [
        {**worker, "hostname": f"node{i:02d}",
         "interfaces": [{"name": "eth0", "ip": f"10.1.3.{i + 1}"}]}
        for i in range(1, workers + 1)]
    user = raw["users"][0]
    raw["users"] = [{**user, "username": f"user{i}"} for i in range(USERS)]
    raw["motd"]["worker_range"] = ["node01", f"node{workers:02d}"]
    return raw


def _bytes(paper_spec_text, tmp_path, capsys, workers: int) -> tuple[int, int]:
    """(fresh machine plan bytes, converged state file bytes)."""
    spec = tmp_path / f"spec{workers}.json"
    spec.write_text(json.dumps(_spec(paper_spec_text, workers)))
    state = tmp_path / f"state{workers}.json"
    argv = [str(spec), "--state", str(state)]
    assert main(["plan", *argv, "--format", "machine"]) == 0
    plan_bytes = len(capsys.readouterr().out.encode())
    assert main(["apply", *argv]) == 0
    capsys.readouterr()
    return plan_bytes, state.stat().st_size


def test_bytes_at_most_linear_in_workers(paper_spec_text, tmp_path, capsys):
    plan_n, state_n = _bytes(paper_spec_text, tmp_path, capsys, WORKERS)
    plan_2n, state_2n = _bytes(paper_spec_text, tmp_path, capsys, 2 * WORKERS)
    assert plan_2n <= MAX_GROWTH * plan_n, plan_2n / plan_n
    assert state_2n <= MAX_GROWTH * state_n, state_2n / state_n
