import json
from pathlib import Path

import pytest

from hepcluster.model import parse_spec
from hepcluster.planner import Backend, BackendError
from hepcluster.simfleet import SimFleet

SPEC_PATH = Path(__file__).resolve().parent.parent / "docs" / "cluster.spec.json"


@pytest.fixture(scope="session")
def paper_spec_text() -> bytes:
    return SPEC_PATH.read_bytes()


@pytest.fixture(scope="session")
def paper_spec(paper_spec_text):
    return parse_spec(paper_spec_text)


@pytest.fixture(scope="session")
def scaled_spec(paper_spec_text):
    """Builder of the paper topology with `workers` workers and `users` users."""
    def build(workers: int, users: int) -> dict:
        raw = json.loads(paper_spec_text)
        master, worker = raw["nodes"][0], raw["nodes"][1]
        master["interfaces"][0]["ip"] = "10.1.3.1"
        raw["nodes"] = [master] + [
            {**worker, "hostname": f"node{i:02d}",
             "interfaces": [{"name": "eth0", "ip": f"10.1.3.{i + 1}"}]}
            for i in range(1, workers + 1)]
        user = raw["users"][0]
        raw["users"] = [{**user, "username": f"user{i}"} for i in range(users)]
        raw["motd"]["worker_range"] = ["node01", f"node{workers:02d}"]
        return raw
    return build


@pytest.fixture(scope="session")
def ipv6_spec_text(paper_spec_text):
    """Builder of the paper topology on the link-local subnet `fe80::/64`,
    with `master_ip` as the master's internal address."""
    def build(master_ip: str) -> bytes:
        raw = json.loads(paper_spec_text)
        raw["subnet"] = "fe80::/64"
        raw["nodes"][0]["interfaces"][0]["ip"] = master_ip
        for i, worker in enumerate(raw["nodes"][1:], 2):
            worker["interfaces"][0]["ip"] = f"fe80::{i}"
        return json.dumps(raw).encode()
    return build


@pytest.fixture
def defect_spec_text(paper_spec_text) -> bytes:
    """Topology with node03 reusing node02's address, as published."""
    raw = json.loads(paper_spec_text)
    for node in raw["nodes"]:
        if node["hostname"] == "node03":
            node["interfaces"][0]["ip"] = "10.1.3.195"
    return json.dumps(raw).encode()


@pytest.fixture
def fleet(paper_spec) -> SimFleet:
    return SimFleet(paper_spec)


def converge(spec, fleet):
    """Plan and apply until the diff is empty; returns the last report."""
    from hepcluster import apply, diff, observe
    plan = diff(spec, observe(fleet))
    return apply(plan, fleet, spec)


@pytest.fixture
def converged_fleet(paper_spec, fleet) -> SimFleet:
    report = converge(paper_spec, fleet)
    assert report.status == "converged"
    return fleet


def state_record(raw: dict, host: str) -> dict:
    """The record of `host` in a state file's JSON form: `nodes` maps each
    hostname to an index into `records`, and hosts in equal states share
    one record, so editing it edits each of them."""
    return raw["records"][raw["nodes"][host]]


@pytest.fixture(scope="session", name="state_record")
def state_record_fixture():
    """`state_record`, for tests that read or damage a state file."""
    return state_record


# Every backend call that can change a node: the whole contract but the reads.
MUTATORS = frozenset(name for name in dir(Backend)
                     if not name.startswith("_")) - {"hostnames", "read_state"}


class MutationCounter:
    """Backend wrapper that counts the calls that can change a node.

    It records each such call it lets through as `(name, args)` in `log`.
    With a `budget` it raises BackendError in place of every such call
    after the first `budget`.
    """

    def __init__(self, inner, budget: int | None = None):
        self._inner = inner
        self._budget = budget
        self.log: list[tuple[str, tuple]] = []

    @property
    def calls(self) -> int:
        return len(self.log)

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name not in MUTATORS:
            return attr

        def counted(*args, **kwargs):
            if self._budget is not None and self.calls >= self._budget:
                raise BackendError("injected abort")
            self.log.append((name, args))
            return attr(*args, **kwargs)
        return counted


@pytest.fixture(scope="session")
def mutation_counter():
    """The `MutationCounter` class, for tests that wrap a backend."""
    return MutationCounter
