import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from hepcluster import apply, diff, observe, power_sequence
from hepcluster.planner import (KINDS, PHASES, Action, Blobs, PlanError,
                                satisfied)
from hepcluster.simfleet import SimFleet


class TestObserve:
    def test_fresh_fleet_unreachable(self, paper_spec, fleet):
        state = observe(fleet)
        assert set(state.nodes) == {"node00", "node01", "node02", "node03"}
        assert all(not n.reachable for n in state.nodes.values())
        assert all(n.power == "off" for n in state.nodes.values())

    def test_converged_fleet_reachable(self, paper_spec, converged_fleet):
        state = observe(converged_fleet)
        assert all(n.reachable and n.power == "on"
                   for n in state.nodes.values())

    def test_crashed_worker_flagged(self, paper_spec, converged_fleet):
        converged_fleet.inject_fault("node02", "crash")
        state = observe(converged_fleet)
        assert not state.nodes["node02"].reachable
        assert state.nodes["node01"].reachable


class TestDiff:
    def test_fresh_fleet_covers_all_phases(self, paper_spec, fleet):
        plan = diff(paper_spec, observe(fleet))
        phases = {a.phase for a in plan.actions}
        assert phases == set(PHASES)

    def test_expected_action_counts(self, paper_spec, fleet):
        # hand-enumerated for the 4-node, 1-user, 3-app topology
        plan = diff(paper_spec, observe(fleet))
        per_phase = {}
        for a in plan.actions:
            per_phase[a.phase] = per_phase.get(a.phase, 0) + 1
        assert per_phase == {"P0": 4, "P1": 4, "P2": 4, "P3": 4,
                             "P4": 7, "P5": 4, "P6": 2, "P7": 7,
                             "P8": 2, "P9": 4}

    def test_converged_fleet_empty_plan(self, paper_spec, converged_fleet):
        plan = diff(paper_spec, observe(converged_fleet))
        assert plan.actions == ()

    def test_preseeded_keys_skip_p3(self, paper_spec, converged_fleet):
        # wipe everything except power + authorized_keys, re-diff
        for node in converged_fleet.nodes.values():
            node.files = {p: d for p, d in node.files.items()
                          if p.endswith("authorized_keys")}
            node.markers.clear()
            node.mounts.clear()
        plan = diff(paper_spec, observe(converged_fleet))
        assert not [a for a in plan.actions if a.phase == "P3"]
        assert [a for a in plan.actions if a.phase == "P1"]

    def test_invalid_spec_rejected(self, defect_spec_text, fleet):
        from hepcluster.model import parse_spec
        with pytest.raises(PlanError):
            diff(parse_spec(defect_spec_text), observe(fleet))

    def test_monotone_phases(self, paper_spec, fleet):
        plan = diff(paper_spec, observe(fleet))
        indices = [PHASES.index(a.phase) for a in plan.actions]
        assert indices == sorted(indices)

    def test_deterministic(self, paper_spec, fleet):
        a = diff(paper_spec, observe(fleet))
        b = diff(paper_spec, observe(fleet))
        assert a == b

    def test_no_duplicate_actions(self, paper_spec, fleet):
        plan = diff(paper_spec, observe(fleet))
        seen = {(a.kind, a.target, str(sorted(a.payload.items())))
                for a in plan.actions}
        assert len(seen) == len(plan.actions)

    def test_file_payloads_are_digests_of_plan_blobs(self, paper_spec, fleet):
        import hashlib
        plan = diff(paper_spec, observe(fleet))
        used = set()
        for a in plan.actions:
            if a.kind in ("WriteFile", "AppendFile", "PersistMount"):
                assert set(a.payload) == {"path", "digest"}
                used.add(a.payload["digest"])
            elif a.kind == "SyncAccounts":
                assert set(a.payload) == {"digest"}
                used.add(a.payload["digest"])
        assert used == set(plan.blobs)
        for digest, text in plan.blobs.items():
            assert hashlib.sha256(text.encode()).hexdigest() == digest
        mesh = {a.payload["digest"] for a in plan.actions if a.phase == "P3"}
        assert len(mesh) == 1  # every node's authorized_keys is one blob

    def test_sync_accounts_share_one_account_table(self, paper_spec, fleet):
        plan = diff(paper_spec, observe(fleet))
        syncs = [a for a in plan.actions if a.kind == "SyncAccounts"]
        assert len(syncs) == len(paper_spec.workers)
        digests = {a.payload["digest"] for a in syncs}
        assert len(digests) == 1  # one account-table blob per plan
        table = json.loads(plan.blobs[digests.pop()])
        assert table == {u.username: [u.group, u.shell, u.home]
                         for u in paper_spec.users}

    def test_blobs_only_for_pending_actions(self, paper_spec, converged_fleet):
        converged_fleet.nodes["node00"].files.pop("/etc/motd")
        plan = diff(paper_spec, observe(converged_fleet))
        assert [a.kind for a in plan.actions] == ["WriteFile"]
        assert list(plan.blobs) == [plan.actions[0].payload["digest"]]

    def test_empty_plan_has_no_blobs_key(self, paper_spec, converged_fleet):
        plan = diff(paper_spec, observe(converged_fleet))
        assert plan.to_json() == (
            '{\n  "spec_hash": "%s",\n  "actions": []\n}\n' % plan.spec_hash)

    def test_serialization_round_trip(self, paper_spec, fleet):
        from hepcluster.planner import Plan
        plan = diff(paper_spec, observe(fleet))
        assert Plan.from_json(plan.to_json()) == plan


class TestKinds:
    def test_each_kind_unsatisfied_before_run_and_satisfied_after(
            self, paper_spec, fleet):
        # run a fresh plan one action at a time: P0 powers the fleet on, so
        # every later action runs on powered-on nodes
        plan = diff(paper_spec, observe(fleet))
        blobs = Blobs(plan.blobs)
        for action in plan.actions:
            assert not satisfied(action, observe(fleet), blobs), action.id
            kind = KINDS[action.kind]
            assert kind.run(fleet, action.target, action.payload, blobs)
            assert satisfied(action, observe(fleet), blobs), action.id
        # PowerOff is only ever emitted by power_sequence
        assert {a.kind for a in plan.actions} == set(KINDS) - {"PowerOff"}

    def test_blobs_decode_each_account_table_once(self, paper_spec, fleet):
        import sys
        from concurrent.futures import ThreadPoolExecutor
        plan = diff(paper_spec, observe(fleet))
        digest = next(a.payload["digest"] for a in plan.actions
                      if a.kind == "SyncAccounts")
        blobs = Blobs(plan.blobs)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                tables = list(pool.map(lambda _: blobs.accounts(digest),
                                       range(64), timeout=60))
        finally:
            sys.setswitchinterval(old)
        assert all(t is tables[0] for t in tables)
        assert tables[0] == {u.username: (u.group, u.shell, u.home)
                             for u in paper_spec.users}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown action kind"):
            Action("p0-node00-00-reboot", "P0", "node00", "Reboot")

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_kind_outside_its_phases_rejected(self, kind):
        phase = next(p for p in PHASES if p not in KINDS[kind].phases)
        with pytest.raises(ValueError, match="not allowed in phase"):
            Action(f"{phase.lower()}-node00-00-x", phase, "node00", kind)


class TestMinimality:
    def test_each_action_disappears_when_satisfied(self, paper_spec):
        fresh = SimFleet(paper_spec)
        full = diff(paper_spec, observe(fresh))
        reference = SimFleet(paper_spec)
        apply(full, reference, paper_spec)
        # knock out one satisfied aspect at a time and check reappearance
        for mutate, expected_kind in [
            (lambda f: f.nodes["node01"].mounts.clear(), "Mount"),
            (lambda f: f.nodes["node00"].files.pop("/etc/motd"), "WriteFile"),
            (lambda f: f.nodes["node00"].markers.discard("app:root"),
             "InstallApp"),
            (lambda f: f.nodes["node00"].quotas.clear(), "SetQuota"),
            (lambda f: f.nodes["node03"].accounts.clear(), "SyncAccounts"),
        ]:
            fleet = SimFleet(paper_spec)
            apply(diff(paper_spec, observe(fleet)), fleet, paper_spec)
            mutate(fleet)
            plan = diff(paper_spec, observe(fleet))
            assert any(a.kind == expected_kind for a in plan.actions)


class TestIdempotenceProperty:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_converges_from_randomized_partial_state(self, paper_spec, seed):
        rng = random.Random(seed)
        fleet = SimFleet(paper_spec)
        apply(diff(paper_spec, observe(fleet)), fleet, paper_spec)
        # random damage: remove mounts, files, markers, power off nodes
        for node in fleet.nodes.values():
            if rng.random() < 0.3:
                fleet.inject_fault(node.hostname, "crash")
            if rng.random() < 0.4:
                node.mounts.clear()
            if rng.random() < 0.4 and node.files:
                node.files.pop(rng.choice(sorted(node.files)))
            if rng.random() < 0.4 and node.markers:
                node.markers.discard(rng.choice(sorted(node.markers)))
        apply(diff(paper_spec, observe(fleet)), fleet, paper_spec)
        assert diff(paper_spec, observe(fleet)).actions == ()


class TestPowerSequence:
    def test_start_order(self, paper_spec):
        seq = power_sequence("start", paper_spec)
        targets = [a.target for a in seq]
        assert targets == ["infrastructure", "node00",
                           "node01", "node02", "node03"]
        assert all(a.kind == "PowerOn" for a in seq)

    def test_stop_order(self, paper_spec):
        seq = power_sequence("stop", paper_spec)
        targets = [a.target for a in seq]
        assert targets.index("node00") == len(targets) - 1
        assert all(a.kind == "PowerOff" for a in seq)
        assert "infrastructure" not in targets

    def test_stop_is_reversed_start_on_nodes(self, paper_spec):
        start = [a.target for a in power_sequence("start", paper_spec)
                 if a.target != "infrastructure"]
        stop = [a.target for a in power_sequence("stop", paper_spec)]
        assert list(reversed(start)) == stop

    def test_no_infrastructure_power_off(self, paper_spec):
        for direction in ("start", "stop"):
            for a in power_sequence(direction, paper_spec):
                assert not (a.target == "infrastructure"
                            and a.kind == "PowerOff")

    def test_unknown_direction(self, paper_spec):
        with pytest.raises(ValueError):
            power_sequence("reboot", paper_spec)
