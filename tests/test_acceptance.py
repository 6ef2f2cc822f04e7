"""End-to-end acceptance gate: one test per release criterion.

Each test prints a PASS line when its criterion holds so the gate can be
read off a plain `pytest -s tests/test_acceptance.py` run.
"""

import json
import random
import time

import pytest

from hepcluster import (
    apply,
    compute_rates,
    diff,
    observe,
    power_sequence,
    render_summary,
)
from hepcluster.cli import main
from hepcluster.configgen import (
    gen_alias_guards,
    gen_env_profile,
    gen_exports,
    gen_fstab_mount,
    gen_motd,
)
from hepcluster.model import GIB, MIB, TIB, Role, parse_spec, partition_plan
from hepcluster.monitor import take_sample
from hepcluster.planner import PHASES
from hepcluster.simfleet import QuotaExceededError, SimFleet


def ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_c01_golden_exports(paper_spec):
    gf = gen_exports(paper_spec.storage, [w.hostname for w in paper_spec.workers])
    assert gf.content == \
        b"/Jugrid node01(rw,rsync) node02(rw,rsync) node03(rw,rsync)\n"
    ok(1, "exports line matches byte-exactly")


def test_c02_golden_fstab():
    gf = gen_fstab_mount("10.1.3.193", "/Jugrid", "/home")
    assert gf.content == b"10.1.3.193:/Jugrid /home nfs defaults 0 0\n"
    ok(2, "fstab line matches byte-exactly")


def test_c03_golden_environment(paper_spec):
    text = gen_env_profile(list(paper_spec.apps), paper_spec.storage.path).text
    lines = text.splitlines()
    assert "export ROOTSYS=/Jugrid/alice/root" in lines
    assert "export ALICE_LEVEL=AliRoot" in lines
    platform = [l for l in lines if l.startswith("export PLATFORM=")]
    assert platform and "`root-config --arch`" in platform[0]
    ok(3, "environment profile contains the required export lines")


def test_c04_golden_alias_message(paper_spec):
    gf = gen_alias_guards(list(paper_spec.alias_guards),
                          paper_spec.motd.worker_range)
    assert ("Please login to any worker node from node01-node03 "
            "to run root/aliroot") in gf.text
    ok(4, "alias guard message matches verbatim")


def test_c05_golden_motd(paper_spec):
    text = gen_motd(paper_spec.motd).text
    assert "WELCOME TO HEP CLUSTER" in text
    assert "Vivek Chalotra" in text and "vivekathep@gmail.com" in text
    ok(5, "MOTD contains banner and contact fragments")


def test_c06_validation_catches_published_defect(defect_spec_text, tmp_path,
                                                 capsys):
    from hepcluster.model import validate
    report = validate(parse_spec(defect_spec_text))
    assert len(report) == 1 and report[0].code == "duplicate-ip"
    path = tmp_path / "defect.json"
    path.write_bytes(defect_spec_text)
    assert main(["validate", str(path)]) == 1
    capsys.readouterr()
    ok(6, "duplicate-IP topology yields exactly one violation and exit 1")


def test_c07_partition_plans():
    worker = {e.mountpoint: e.size_bytes
              for e in partition_plan(Role.WORKER, TIB).entries}
    assert worker == {"/boot": 500 * MIB, "/home": 100 * GIB,
                      "/": 100 * GIB, "swap": 8 * GIB}
    master = {e.mountpoint: e.size_bytes
              for e in partition_plan(Role.MASTER, 6 * TIB, 4 * TIB).entries}
    assert master == {"/boot": 500 * MIB, "/home": 100 * GIB,
                      "/": 100 * GIB, "swap": 16 * GIB, "/Jugrid": 4 * TIB}
    ok(7, "partition tables are field-exact for both roles")


def test_c08_convergence_and_idempotence(paper_spec):
    start = time.monotonic()
    fleet = SimFleet(paper_spec)
    report = apply(diff(paper_spec, observe(fleet)), fleet, paper_spec)
    assert report.status == "converged"
    assert diff(paper_spec, observe(fleet)).actions == ()
    before = fleet.state_hash()
    rerun = apply(diff(paper_spec, observe(fleet)), fleet, paper_spec)
    assert rerun.results == []
    second = apply(report_plan := diff(paper_spec, observe(SimFleet(paper_spec))),
                   fleet, paper_spec)
    assert all(r.status == "already_satisfied" for r in second.results)
    assert fleet.state_hash() == before
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    ok(8, f"fresh fleet converges and re-apply is a no-op ({elapsed:.2f}s)")


def test_c09_crash_retry_convergence(paper_spec, mutation_counter):
    start = time.monotonic()
    rng = random.Random(1841)
    total = len(diff(paper_spec, observe(SimFleet(paper_spec))).actions)
    for trial in range(100):
        fleet = SimFleet(paper_spec)
        budget = rng.randrange(0, total + 1)
        apply(diff(paper_spec, observe(fleet)),
              mutation_counter(fleet, budget), paper_spec)
        report = apply(diff(paper_spec, observe(fleet)), fleet, paper_spec)
        assert report.status == "converged", f"trial {trial}"
        assert diff(paper_spec, observe(fleet)).actions == ()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    ok(9, f"100 random abort points all reconverge ({elapsed:.1f}s)")


def test_c10_phase_and_power_ordering(paper_spec):
    plan = diff(paper_spec, observe(SimFleet(paper_spec)))
    indices = [PHASES.index(a.phase) for a in plan.actions]
    assert indices == sorted(indices)
    start = power_sequence("start", paper_spec)
    stop = power_sequence("stop", paper_spec)
    start_nodes = [a.target for a in start if a.target != "infrastructure"]
    assert start_nodes[0] == "node00"
    stop_nodes = [a.target for a in stop]
    assert stop_nodes[-1] == "node00"
    for seq in (start, stop, list(plan.actions)):
        assert not any(a.kind == "PowerOff" and a.target == "infrastructure"
                       for a in seq)
    ok(10, "phases monotone; master first on, last off; gear never off")


def test_c11_quota_enforcement(paper_spec):
    fleet = SimFleet(paper_spec)
    apply(diff(paper_spec, observe(fleet)), fleet, paper_spec)
    fleet.sim_write("node01", "user1", "/Jugrid/user1/a", b"x" * MIB)
    with pytest.raises(QuotaExceededError):
        fleet.sim_write("node01", "user1", "/Jugrid/user1/b",
                        b"x" * (3 * MIB // 2))
    assert fleet.quota_used("user1") == MIB
    rng = random.Random(5)
    nodes = fleet.hostnames()
    for _ in range(1000):
        try:
            fleet.sim_write(rng.choice(nodes), "user1",
                            f"/Jugrid/user1/f{rng.randrange(64)}",
                            b"q" * rng.randrange(1, 32 * 1024))
        except QuotaExceededError:
            pass
        used = sum(len(d) for owner, d in fleet.shared_files.values()
                   if owner == "user1")
        assert used == fleet.quota_used("user1")
        assert used <= fleet.nodes["node00"].quotas["user1"][1]
    ok(11, "hard limit enforced atomically; conservation holds over "
           "1000 randomized writes")


def test_c12_shared_storage_transparency(paper_spec):
    fleet = SimFleet(paper_spec)
    apply(diff(paper_spec, observe(fleet)), fleet, paper_spec)
    payload = b"histogram data \x00\x01\x02"
    fleet.sim_write("node01", "user1", "/Jugrid/user1/result", payload)
    assert fleet.sim_read("node02", "/Jugrid/user1/result") == payload
    assert fleet.sim_read("node03", "/Jugrid/user1/result") == payload
    ok(12, "bytes written via node01 read back identically on node02/node03")


def test_c13_monitoring_determinism(paper_spec):
    fleet = SimFleet(paper_spec)
    apply(diff(paper_spec, observe(fleet)), fleet, paper_spec)
    profile = {h: 1000.0 for h in fleet.hostnames()}
    s0 = take_sample(observe(fleet), fleet.clock)
    fleet.sim_tick(2.0, profile)
    s1 = take_sample(observe(fleet), fleet.clock)
    report = compute_rates(s0, s1)
    assert all(r == (1000.0, 1000.0) for r in report.rates.values())
    fleet.power("node02", False)
    fleet.power("node02", True)
    s2 = take_sample(observe(fleet), fleet.clock + 2.0)
    reset = compute_rates(s1, s2)
    assert reset.rates[("node02", "eth0")] == (0.0, 0.0)
    assert render_summary(report) == render_summary(
        compute_rates(s0, s1))
    ok(13, "constant profile reports exactly 1000 B/s; reset clamps to 0; "
           "table is byte-stable")
