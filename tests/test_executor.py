import dataclasses
import json
import random
import threading

import pytest
from hypothesis import assume, given, settings, strategies as st

from hepcluster import apply, diff, observe, power_sequence, run_power
from hepcluster.model import (TIB, VALID_RAID_LEVELS, parse_spec, spec_hash,
                              validate)
from hepcluster.planner import Plan, PlanError
from hepcluster.simfleet import SimFleet


class TestApply:
    def test_full_plan_converges(self, paper_spec, fleet):
        plan = diff(paper_spec, observe(fleet))
        report = apply(plan, fleet, paper_spec)
        assert report.status == "converged"
        assert all(r.status == "applied" for r in report.results)
        assert diff(paper_spec, observe(fleet)).actions == ()

    def test_reapply_already_satisfied(self, paper_spec, fleet):
        plan = diff(paper_spec, observe(fleet))
        apply(plan, fleet, paper_spec)
        report = apply(plan, fleet, paper_spec)
        assert report.status == "converged"
        assert all(r.status == "already_satisfied" for r in report.results)

    def test_stale_plan_hash_aborts(self, paper_spec, fleet, mutation_counter):
        plan = diff(paper_spec, observe(fleet))
        stale = Plan(actions=plan.actions, spec_hash="0" * 64)
        backend = mutation_counter(fleet)
        report = apply(stale, backend, paper_spec)
        assert report.status == "aborted"
        assert report.results == []
        assert backend.calls == 0

    def test_failed_mount_aborts_later_phases(self, paper_spec, fleet):
        # the failing node skips the rest of its phase, the other nodes
        # finish it, and every later phase is skipped
        plan = diff(paper_spec, observe(fleet))
        fleet.inject_fault("node01", "fail_next_capability", "mount")
        report = apply(plan, fleet, paper_spec)
        assert report.status == "partial"
        statuses = [r.status for r in report.results]
        at = statuses.index("failed")
        failed = plan.actions[at]
        assert "mount" in failed.id
        for i, action in enumerate(plan.actions):
            skipped = i > at and (action.phase != failed.phase
                                  or action.target == failed.target)
            assert statuses[i] == ("failed" if i == at else
                                   "skipped" if skipped else "applied")

    def test_report_in_plan_order(self, paper_spec, fleet):
        plan = diff(paper_spec, observe(fleet))
        report = apply(plan, fleet, paper_spec)
        assert [r.action_id for r in report.results] == \
            [a.id for a in plan.actions]

    def test_backend_calls_follow_plan_order_per_node(self, paper_spec, fleet,
                                                      mutation_counter):
        plan = diff(paper_spec, observe(fleet))
        backend = mutation_counter(fleet)
        apply(plan, backend, paper_spec)
        expected = []
        for a in plan.actions:
            name, args = self.CALLS[a.kind](a.payload, plan.blobs)
            expected.append((name, (a.target, *args)))
        assert backend.log == expected
        assert backend.threads == {threading.current_thread()}

    # Each action kind's one backend call: (capability, args after the host).
    CALLS = {
        "PowerOn": lambda p, blobs: ("power", (True,)),
        "LayoutStorage": lambda p, blobs: ("set_marker", ("raid",)),
        "InstallBase": lambda p, blobs: ("set_marker", ("base-os",)),
        "WriteFile": lambda p, blobs: (
            "write_file", (p["path"], blobs[p["digest"]].encode())),
        "AppendFile": lambda p, blobs: (
            "append_file", (p["path"], blobs[p["digest"]].encode())),
        "PersistMount": lambda p, blobs: (
            "append_file", (p["path"], blobs[p["digest"]].encode())),
        "Mount": lambda p, blobs: ("mount", (p["source"], p["mountpoint"])),
        "CreateUser": lambda p, blobs: (
            "create_user", (p["username"], p["group"], p["shell"], p["home"])),
        "SyncAccounts": lambda p, blobs: (
            "sync_accounts", ({u: tuple(v) for u, v in
                               json.loads(blobs[p["digest"]]).items()},)),
        "EnableQuota": lambda p, blobs: ("enable_quota", ()),
        "SetQuota": lambda p, blobs: (
            "set_quota", (p["username"], p["soft_bytes"], p["hard_bytes"])),
        "InstallApp": lambda p, blobs: ("set_marker", (f"app:{p['name']}",)),
        "EnableMonitor": lambda p, blobs: ("enable_monitor", ()),
    }


class TestCrashRetry:
    def test_random_abort_points_always_converge(self, paper_spec,
                                                 mutation_counter):
        rng = random.Random(20110713)
        full = diff(paper_spec, observe(SimFleet(paper_spec)))
        for _ in range(25):
            fleet = SimFleet(paper_spec)
            budget = rng.randrange(0, len(full.actions) + 1)
            plan = diff(paper_spec, observe(fleet))
            apply(plan, mutation_counter(fleet, budget), paper_spec)
            replan = diff(paper_spec, observe(fleet))
            report = apply(replan, fleet, paper_spec)
            assert report.status == "converged"
            assert diff(paper_spec, observe(fleet)).actions == ()


@st.composite
def _specs(draw, scaled_spec) -> dict:
    """`scaled_spec` with 1-6 workers and 0-4 users, each drawn, and a
    subset of its apps and alias guards."""
    workers = draw(st.integers(1, 6))
    raw = scaled_spec(workers, draw(st.integers(0, 4)))
    for node in raw["nodes"][1:]:
        node["raid_level"] = draw(st.sampled_from(VALID_RAID_LEVELS))
        if draw(st.booleans()):  # may not fit the disk: validate says so
            node["swap_bytes"] = draw(st.integers(0, TIB))
    for user in raw["users"]:
        if draw(st.booleans()):
            soft = draw(st.integers(0, TIB))
            user.update(quota_soft_bytes=soft,
                        quota_hard_bytes=draw(st.integers(soft, 2 * TIB)))
        else:
            del user["quota_soft_bytes"], user["quota_hard_bytes"]
    raw["apps"] = [a for a in raw["apps"] if draw(st.booleans())]
    raw["alias_guards"] = [g for g in raw["alias_guards"]
                           if draw(st.booleans())]
    mountpoint = draw(st.sampled_from([None, "/Jugrid", "/data"]))
    if mountpoint is None:
        del raw["storage"]["mountpoint_on_workers"]
    else:
        raw["storage"]["mountpoint_on_workers"] = mountpoint
    return raw


class TestGeneratedSpecs:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_valid_spec_converges_in_one_apply(self, scaled_spec,
                                               tmp_path_factory, data):
        spec = parse_spec(json.dumps(data.draw(_specs(scaled_spec))))
        assume(not validate(spec))
        fleet = SimFleet(spec)
        report = apply(diff(spec, observe(fleet)), fleet, spec)
        assert report.status == "converged"
        # the saved state reads back converged
        path = str(tmp_path_factory.mktemp("state") / "fleet.json")
        fleet.save(path)
        assert diff(spec, observe(SimFleet.load(path, spec))).actions == ()


class TestVerify:
    """The post-apply verify re-checks the plan's templates on the fleet
    as it now is; a plan `diff` did not build is run and verified with
    the templates of its spec."""

    def test_plan_of_another_spec_aborts(self, paper_spec, scaled_spec, fleet,
                                         mutation_counter):
        other = parse_spec(json.dumps(scaled_spec(3, 2)))
        plan = diff(other, observe(SimFleet(other)))
        backend = mutation_counter(fleet)
        report = apply(plan, backend, paper_spec)
        assert report.status == "aborted"
        assert report.results == []
        assert backend.calls == 0

    def test_reuses_the_plans_templates(self, paper_spec, fleet, monkeypatch):
        from hepcluster import executor
        plan = diff(paper_spec, observe(fleet))
        monkeypatch.setattr(executor, "diff", None)  # not called
        assert apply(plan, fleet, paper_spec).status == "converged"

    @pytest.mark.parametrize("by_diff", [True, False],
                             ids=["diff-plan", "hand-built-plan"])
    def test_converged_unless_an_action_did_not_hold(self, paper_spec,
                                                     monkeypatch, by_diff):
        for lying in (False, True):
            fleet = SimFleet(paper_spec)
            plan = diff(paper_spec, observe(fleet))
            if not by_diff:
                plan = Plan(plan.actions, plan.spec_hash, plan.blobs)
            if lying:  # reports each mount done, mounts nothing
                monkeypatch.setattr(fleet, "mount", lambda *args: True)
            report = apply(plan, fleet, paper_spec)
            assert {r.status for r in report.results} == {"applied"}
            assert report.status == ("partial" if lying else "converged")

    def test_hand_built_plan_of_an_invalid_spec_runs_nothing(
            self, paper_spec, fleet, mutation_counter):
        invalid = dataclasses.replace(  # the last worker listed twice
            paper_spec, nodes=paper_spec.nodes + paper_spec.nodes[-1:])
        assert validate(invalid)
        plan = diff(paper_spec, observe(fleet))
        plan = Plan(plan.actions, spec_hash(invalid), plan.blobs)
        backend = mutation_counter(fleet)
        with pytest.raises(PlanError, match="used more than once"):
            apply(plan, backend, invalid)
        assert backend.calls == 0


class TestRunPower:
    def test_start_sequence(self, paper_spec, fleet, mutation_counter):
        backend = mutation_counter(fleet)
        report = run_power(power_sequence("start", paper_spec), backend)
        assert report.status == "converged"
        assert all(n.power == "on" for n in fleet.nodes.values())
        assert backend.log == [("power", (h, True)) for h in
                               ("node00", "node01", "node02", "node03")]

    def test_stop_sequence(self, paper_spec, fleet, mutation_counter):
        run_power(power_sequence("start", paper_spec), fleet)
        backend = mutation_counter(fleet)
        report = run_power(power_sequence("stop", paper_spec), backend)
        assert report.status == "converged"
        assert backend.log == [("power", (h, False)) for h in
                               ("node03", "node02", "node01", "node00")]

    def test_start_when_on_is_noop(self, paper_spec, fleet):
        seq = power_sequence("start", paper_spec)
        run_power(seq, fleet)
        report = run_power(seq, fleet)
        assert all(r.status == "already_satisfied" for r in report.results)

    def test_stops_at_first_failure(self, paper_spec, fleet):
        seq = power_sequence("start", paper_spec)
        fleet.inject_fault("node01", "fail_next_capability", "power")
        report = run_power(seq, fleet)
        assert report.status == "partial"
        statuses = [r.status for r in report.results]
        assert statuses == ["already_satisfied", "applied", "failed",
                            "skipped", "skipped"]
