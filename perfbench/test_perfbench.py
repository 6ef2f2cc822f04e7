"""Tests of the benchmark itself: generator, tracer arithmetic, checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import bench
import specgen
import tracer as tracing
from hepcluster import configgen
from hepcluster.model import parse_spec, partition_plan_for, validate
from hepcluster.planner import node_public_keys
from hepcluster.simfleet import SimFleet

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workers,users", [(1, 1), (2, 3), (9, 40), (120, 15)])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_generated_spec_is_valid(workers, users, seed):
    spec = parse_spec(json.dumps(specgen.make_spec(workers, users, seed)))
    assert validate(spec) == []
    assert len(spec.workers) == workers and len(spec.users) == users
    for node in spec.nodes:
        partition_plan_for(spec, node)  # raises DiskTooSmallError if it does not fit
    worker_names = [w.hostname for w in spec.workers]
    configgen.gen_exports(spec.storage, worker_names)
    configgen.gen_fstab_mount(spec.master.internal_ip(spec.subnet),
                              spec.storage.path, spec.worker_mountpoint)
    configgen.gen_env_profile(list(spec.apps), spec.storage.path)
    configgen.gen_alias_guards(list(spec.alias_guards), spec.motd.worker_range)
    configgen.gen_motd(spec.motd)
    configgen.gen_key_mesh(node_public_keys(spec))


def test_generator_is_seeded():
    assert specgen.make_spec(20, 30, 5) == specgen.make_spec(20, 30, 5)
    a, b = specgen.make_spec(20, 30, 5), specgen.make_spec(20, 30, 6)
    assert [u["username"] for u in a["users"]] != [u["username"] for u in b["users"]]
    assert a["nodes"] != b["nodes"]  # addresses differ
    assert specgen.pick_faults(1000, 3) == specgen.pick_faults(1000, 3)


def test_faults_are_disjoint_and_sized():
    crashed, isolated = specgen.pick_faults(1000, 11)
    assert len(crashed) == 100 and len(set(crashed)) == 100
    assert isolated not in crashed
    assert specgen.hostname(0) not in crashed + [isolated]  # never the master


def _span(i, start, end, parent=None, name="x"):
    return tracing.Span(i, parent, name, thread=0, start=start, end=end)


def test_self_time_subtracts_union_of_overlapping_children():
    parent = _span(1, 0.0, 10.0)
    children = [
        _span(2, 1.0, 3.0, 1),    # main thread
        _span(3, 2.0, 5.0, 1),    # pool thread, overlaps the first
        _span(4, 4.0, 6.0, 1),    # another pool thread, overlaps the second
        _span(5, 9.0, 12.0, 1),   # runs past the parent's end
    ]
    # covered: [1, 6] and [9, 10] -> 6 of 10 seconds
    assert tracing.self_time(parent, children) == pytest.approx(4.0)
    assert tracing.self_time(parent, []) == pytest.approx(10.0)


def test_pool_thread_calls_are_children_of_the_open_main_span():
    class Target:
        def work(self):
            return True

    tr = tracing.Tracer()
    wrapped = tr._wrap("leaf", Target.work, bool)

    def fan_out():
        with ThreadPoolExecutor(max_workers=3) as pool:
            return [f.result() for f in [pool.submit(wrapped, Target())
                                         for _ in range(6)]]

    wrapped(Target())  # outside any root: not recorded
    tr.root("root", fan_out)
    roots = [s for s in tr.spans if s.name == "root"]
    leaves = [s for s in tr.spans if s.name == "leaf"]
    assert len(roots) == 1 and len(leaves) == 6
    assert all(s.parent == roots[0].id and s.note is True for s in leaves)


def test_install_and_uninstall_leave_no_wrapper():
    assert tracing.find_wrappers() == []
    tr = tracing.Tracer()
    tr.install()
    try:
        assert len(tracing.find_wrappers()) == len(tracing._targets())
    finally:
        tr.uninstall()
    assert tracing.find_wrappers() == []


def _small_runner(tmp_path):
    workload = bench.Workload("tiny", workers=3, users=2, cycle="steady")
    runner = bench.Runner(workload, seed=4, work_dir=str(tmp_path))
    runner.set_up()
    return runner


def test_unexpected_exit_code_fails_the_operation(tmp_path):
    runner = _small_runner(tmp_path)
    op = runner.run("apply", runner._args("apply"), expect=2)
    assert not op.ok and bench.counts(runner.result) == (1, 1)
    assert "exit 0, expected 2" in runner.result.problems[0]


def test_state_check_fails_when_one_mount_is_removed(tmp_path):
    runner = _small_runner(tmp_path)
    assert runner.state_matches_reference()
    fleet = SimFleet.load(runner.state_path, runner.spec)
    fleet.nodes[specgen.hostname(2)].mounts.clear()
    fleet.save(runner.state_path)
    assert not runner.state_matches_reference()


@pytest.mark.parametrize("cycle", ["fresh", "steady", "drift"])
@pytest.mark.parametrize("trace", [False, True])
def test_small_workload_runs_clean(tmp_path, cycle, trace):
    workload = bench.Workload("tiny", workers=4, users=3, cycle=cycle)
    res = bench.run_workload(workload, seed=2, seconds=0.0, trace=trace,
                             work_dir=str(tmp_path / "work"))
    assert res.problems == []
    attempted, failed = bench.counts(res)
    assert attempted > 0 and failed == 0
    metrics = bench.per_layer(res) if trace else bench.end_to_end(res)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = declared["per_layer" if trace else "end_to_end"]
    assert {(m["name"], m["unit"]) for m in listed} == {
        (name, unit) for name, (_, unit) in metrics.items()}
    assert all(value > 0 for value, _ in bench.end_to_end(res).values())
    if trace:
        assert metrics["executor.apply_s"][0] > 0
        assert metrics["trace.overhead_ratio"][0] > 0
    assert tracing.find_wrappers() == []


def test_traced_run_alternates_untraced_and_traced_cycles(tmp_path):
    workload = bench.Workload("tiny", workers=2, users=1, cycle="steady")
    res = bench.run_workload(workload, seed=3, seconds=3.0, trace=True,
                             work_dir=str(tmp_path / "work"))
    assert res.problems == []
    assert len(res.cycles) + len(res.traced_cycles) >= 4
    assert abs(len(res.cycles) - len(res.traced_cycles)) <= 1
    assert sum(op.traced for op in res.ops if op.role == "plan") == len(
        res.traced_cycles)


def test_timings_are_scaled_by_the_reference_kernel():
    res = bench.Result(cycles=[2.0], state_bytes=[10], setup_s=1.0,
                       kernel=[0.1, 0.3, 0.1])  # median 0.1
    res.ops = [bench.Op("plan", 0.6, ok=True, out_bytes=7)]
    scale = bench.REFERENCE_KERNEL_S / 0.1
    metrics = bench.end_to_end(res)
    assert metrics["setup_s"][0] == pytest.approx(1.0 * scale)
    assert metrics["cycle_s"][0] == pytest.approx(2.0 * scale)
    assert metrics["plan_s"][0] == pytest.approx(0.6 * scale)
    assert metrics["plan_bytes"][0] == 7 and metrics["state_bytes"][0] == 10
