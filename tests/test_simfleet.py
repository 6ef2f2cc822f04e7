import base64
import copy
import dataclasses
import json
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from hepcluster import apply, diff, observe, parse_spec
from hepcluster.planner import NodeUnreachableError
from hepcluster.planner import NodeState
from hepcluster.model import MIB
from hepcluster.simfleet import (CAPABILITIES, FaultInjectedError,
                                 QuotaExceededError, SimFleet)


class TestQuota:
    def test_write_below_limit(self, paper_spec, converged_fleet):
        converged_fleet.sim_write("node01", "user1", "/Jugrid/user1/a.root",
                                  b"x" * MIB)
        assert converged_fleet.quota_used("user1") == MIB

    def test_hard_limit_rejected_atomically(self, paper_spec, converged_fleet):
        converged_fleet.sim_write("node01", "user1", "/Jugrid/user1/a.root",
                                  b"x" * MIB)
        with pytest.raises(QuotaExceededError):
            converged_fleet.sim_write("node01", "user1",
                                      "/Jugrid/user1/b.root",
                                      b"x" * (3 * MIB // 2))
        assert converged_fleet.quota_used("user1") == MIB
        assert "/Jugrid/user1/b.root" not in converged_fleet.shared_files

    def test_overwrite_counts_delta(self, paper_spec, converged_fleet):
        converged_fleet.sim_write("node01", "user1", "/Jugrid/user1/a", b"x" * MIB)
        converged_fleet.sim_write("node02", "user1", "/Jugrid/user1/a",
                                  b"y" * (2 * MIB))
        assert converged_fleet.quota_used("user1") == 2 * MIB

    def test_unknown_user(self, paper_spec, converged_fleet):
        from hepcluster.planner import BackendError
        with pytest.raises(BackendError, match="unknown user"):
            converged_fleet.sim_write("node01", "nobody", "/Jugrid/x", b"x")

    def test_no_mount(self, paper_spec, fleet):
        from hepcluster.planner import BackendError
        fleet.power("node00", True)
        fleet.power("node01", True)
        with pytest.raises(BackendError, match="no mount"):
            fleet.sim_write("node01", "user1", "/Jugrid/x", b"x")

    def test_quota_conservation_randomized(self, paper_spec, converged_fleet):
        rng = random.Random(42)
        nodes = ["node00", "node01", "node02", "node03"]
        for i in range(300):
            size = rng.randrange(1, 64 * 1024)
            path = f"/Jugrid/user1/f{rng.randrange(40)}"
            try:
                converged_fleet.sim_write(rng.choice(nodes), "user1",
                                          path, b"z" * size)
            except QuotaExceededError:
                pass
            used = sum(len(d) for o, d in
                       converged_fleet.shared_files.values() if o == "user1")
            assert used == converged_fleet.quota_used("user1")
            hard = converged_fleet.nodes["node00"].quotas["user1"][1]
            assert used <= hard


_WRITES = st.lists(st.tuples(st.integers(0, 3),  # node
                             st.integers(0, 2),  # user
                             st.integers(0, 4),  # path
                             st.integers(0, 3 * MIB // 4)),  # size
                   max_size=20)


class TestQuotaCounter:
    @settings(max_examples=15, deadline=None)
    @given(before=_WRITES, after=_WRITES)
    def test_counter_equals_rescan(self, scaled_spec, tmp_path_factory,
                                   before, after):
        """Writes, a save/load round trip, more writes: usage = a rescan."""
        spec = parse_spec(json.dumps(scaled_spec(3, 3)))
        fleet = SimFleet(spec)
        apply(diff(spec, observe(fleet)), fleet, spec)
        hosts, users = fleet.hostnames(), [u.username for u in spec.users]

        def check(fleet):
            assert {u: fleet.quota_used(u) for u in users} == {
                u: sum(len(d) for o, d in fleet.shared_files.values()
                       if o == u) for u in users}

        def write(fleet, writes):
            for node, user, path, size in writes:
                try:  # users share paths: one overwrites another's file
                    fleet.sim_write(hosts[node], users[user],
                                    f"/Jugrid/f{path}", b"q" * size)
                except QuotaExceededError:
                    pass
                check(fleet)

        write(fleet, before)
        state = tmp_path_factory.mktemp("state") / "fleet.json"
        fleet.save(str(state))
        loaded = SimFleet.load(str(state), spec)
        check(loaded)  # load rebuilds the counter
        write(loaded, after)


class TestSharedStore:
    def test_mount_transparency(self, paper_spec, converged_fleet):
        payload = b"analysis output"
        converged_fleet.sim_write("node01", "user1",
                                  "/Jugrid/user1/out.root", payload)
        for reader in ("node02", "node03", "node00"):
            assert converged_fleet.sim_read(
                reader, "/Jugrid/user1/out.root") == payload

    def test_custom_mountpoint(self, paper_spec_text):
        import json
        from hepcluster import apply
        from hepcluster.model import parse_spec
        raw = json.loads(paper_spec_text)
        raw["storage"]["mountpoint_on_workers"] = "/home"
        raw["users"][0]["home"] = "/Jugrid/user1"
        spec = parse_spec(json.dumps(raw))
        fleet = SimFleet(spec)
        apply(diff(spec, observe(fleet)), fleet, spec)
        fleet.sim_write("node01", "user1", "/home/user1/f", b"abc")
        assert fleet.sim_read("node02", "/home/user1/f") == b"abc"
        assert fleet.sim_read("node00", "/Jugrid/user1/f") == b"abc"


class TestTick:
    def test_counters_advance(self, paper_spec, converged_fleet):
        converged_fleet.sim_tick(2.0, {"node01": 1000.0})
        assert converged_fleet.nodes["node01"].counters["eth0"] == (2000, 2000)

    def test_off_node_unchanged(self, paper_spec, converged_fleet):
        converged_fleet.power("node02", False)
        converged_fleet.sim_tick(2.0, {"node02": 1000.0})
        assert converged_fleet.nodes["node02"].counters["eth0"] == (0, 0)

    def test_additivity(self, paper_spec, converged_fleet):
        converged_fleet.sim_tick(1.0, {"node01": 500.0})
        converged_fleet.sim_tick(1.0, {"node01": 500.0})
        assert converged_fleet.nodes["node01"].counters["eth0"] == (1000, 1000)

    def test_negative_duration(self, paper_spec, converged_fleet):
        with pytest.raises(ValueError):
            converged_fleet.sim_tick(-1.0)

    def test_power_cycle_resets_counters(self, paper_spec, converged_fleet):
        converged_fleet.sim_tick(1.0, {"node01": 1000.0})
        converged_fleet.power("node01", False)
        assert converged_fleet.nodes["node01"].counters["eth0"] == (0, 0)


class TestBuiltSnapshots:
    """`read_state` builds its snapshot with positional arguments; every
    snapshot equals, reprs and lays out its `vars` like the keyword-built
    `NodeState(...)` of the node's fields."""

    @staticmethod
    def _assert_built_alike(fleet):
        hosts = [h for h in fleet.hostnames()
                 if fleet.nodes[h].reachable and fleet.nodes[h].power == "on"]
        assert hosts
        for host in hosts:
            node = fleet.nodes[host]
            got = fleet.read_state(host)
            built = NodeState(
                host, reachable=True, power=node.power,
                files=dict(node.files), mounts=set(node.mounts),
                accounts=node.accounts,
                quota_enabled=node.quota_enabled, quotas=dict(node.quotas),
                markers=set(node.markers), counters=dict(node.counters))
            assert got == built and repr(got) == repr(built)
            assert list(vars(got)) == list(vars(built))
            assert sys.getsizeof(vars(got)) == sys.getsizeof(vars(built))
            assert got.accounts is node.accounts

    def test_converged_fleet(self, paper_spec, converged_fleet):
        converged_fleet.sim_tick(2.0, {"node01": 1000.0})
        converged_fleet.sim_write("node01", "user1", "/Jugrid/user1/a.root",
                                  b"x" * MIB)
        converged_fleet.power("node02", False)
        self._assert_built_alike(converged_fleet)

    def test_loaded_fleet(self, scaled_spec, tmp_path):
        spec = parse_spec(json.dumps(scaled_spec(6, 3)))
        fleet = SimFleet(spec)
        apply(diff(spec, observe(fleet)), fleet, spec)
        fleet.inject_fault("node03", "crash")
        fleet.save(str(tmp_path / "state.json"))
        self._assert_built_alike(SimFleet.load(str(tmp_path / "state.json"),
                                               spec))


class TestFaults:
    def test_fail_next_capability(self, paper_spec, fleet):
        from hepcluster import apply
        plan = diff(paper_spec, observe(fleet))
        fleet.inject_fault("node02", "fail_next_capability", "mount")
        report = apply(plan, fleet, paper_spec)
        failed = [r for r in report.results if r.status == "failed"]
        assert len(failed) == 1 and "node02" in failed[0].action_id

    def test_unreachable(self, paper_spec, converged_fleet):
        converged_fleet.inject_fault("node03", "unreachable")
        state = observe(converged_fleet)
        assert not state.nodes["node03"].reachable
        converged_fleet.clear_fault("node03")
        assert observe(converged_fleet).nodes["node03"].reachable

    def test_crash_then_replan(self, paper_spec, converged_fleet):
        converged_fleet.inject_fault("node02", "crash")
        plan = diff(paper_spec, observe(converged_fleet))
        kinds = {(a.kind, a.target) for a in plan.actions}
        assert ("PowerOn", "node02") in kinds
        assert ("Mount", "node02") in kinds
        assert not any(t != "node02" for _, t in kinds)

    def test_unknown_node(self, paper_spec, fleet):
        from hepcluster.planner import BackendError
        with pytest.raises(BackendError):
            fleet.inject_fault("node99", "crash")

    # one call of each capability `_enter` guards, on a converged worker
    CALLS = {
        "read_state": (),
        "power": (True,),
        "write_file": ("/etc/a", b"x"),
        "append_file": ("/etc/a", b"x"),
        "mount": ("node00:/Jugrid", "/Jugrid"),
        "create_user": ("u", "g", "/bin/bash", "/Jugrid/u"),
        "sync_accounts": ({"u": ("g", "/bin/bash", "/Jugrid/u")},),
        "enable_quota": (),
        "set_quota": ("u", 1, 2),
        "set_marker": ("base-os",),
        "enable_monitor": (),
        "sim_write": ("user1", "/Jugrid/user1/f", b"x"),
        "sim_read": ("/Jugrid/user1/f",),
    }

    def test_calls_cover_every_capability(self):
        assert set(self.CALLS) == CAPABILITIES

    @pytest.mark.parametrize("capability", sorted(CALLS))
    def test_fault_fails_that_capability_once(self, converged_fleet,
                                              capability):
        call = {name: (lambda name=name, args=args: getattr(
            converged_fleet, name)("node01", *args))
            for name, args in self.CALLS.items()}
        call["sim_write"]()  # the file sim_read reads
        converged_fleet.inject_fault("node01", "fail_next_capability",
                                     capability)
        for name in self.CALLS:
            if name != capability:
                call[name]()
        with pytest.raises(FaultInjectedError,
                           match=f"injected failure of {capability} on node01"):
            call[capability]()
        call[capability]()

    def test_fault_on_enable_monitor_fails_apply(self, paper_spec, fleet):
        plan = diff(paper_spec, observe(fleet))
        fleet.inject_fault("node02", "fail_next_capability", "enable_monitor")
        report = apply(plan, fleet, paper_spec)
        assert report.status == "partial"
        failed = [r.action_id for r in report.results if r.status == "failed"]
        assert failed == ["p9-node02-00-enable-monitor"]

    @pytest.mark.parametrize("fault, own_error", [
        (None, "node01 is powered off"),
        ("unreachable", "node01 is unreachable")])
    def test_injected_fault_fires_before_node_error(self, fleet, fault,
                                                    own_error):
        """A fresh node is off; an injected fault is checked first, fires
        once, and the next call gets the node's own error."""
        if fault:
            fleet.inject_fault("node01", fault)
        fleet.inject_fault("node01", "fail_next_capability", "set_marker")
        with pytest.raises(NodeUnreachableError, match=own_error):
            fleet.read_state("node01")
        with pytest.raises(FaultInjectedError) as first:
            fleet.set_marker("node01", "raid")
        assert type(first.value) is FaultInjectedError
        assert str(first.value) == "injected failure of set_marker on node01"
        with pytest.raises(NodeUnreachableError, match=f"^{own_error}$"):
            fleet.set_marker("node01", "raid")
        assert "raid" not in fleet.nodes["node01"].markers

    def test_unknown_capability(self, fleet):
        with pytest.raises(ValueError, match="unknown capability 'set_markers'"):
            fleet.inject_fault("node01", "fail_next_capability", "set_markers")


class TestUnknownHost:
    @pytest.mark.parametrize("name,args", [
        ("read_state", ()),
        ("power", (True,)),
        ("write_file", ("/etc/a", b"x")),
        ("append_file", ("/etc/a", b"x")),
        ("mount", ("node00:/Jugrid", "/Jugrid")),
        ("create_user", ("u", "g", "/bin/bash", "/Jugrid/u")),
        ("enable_quota", ()),
        ("set_quota", ("u", 1, 2)),
        ("set_marker", ("base-os",)),
        ("enable_monitor", ()),
        ("sync_accounts", ({"u": ("g", "/bin/bash", "/Jugrid/u")},)),
    ])
    def test_backend_error_not_key_error(self, fleet, name, args):
        from hepcluster.planner import BackendError
        with pytest.raises(BackendError, match="unknown node 'node99'"):
            getattr(fleet, name)("node99", *args)


class TestPowerIsolation:
    def test_off_node_rejects_capabilities(self, paper_spec, fleet):
        with pytest.raises(NodeUnreachableError):
            fleet.write_file("node01", "/etc/motd", b"x")
        with pytest.raises(NodeUnreachableError):
            fleet.read_state("node01")
        assert fleet.power("node01", True) is True

    def test_mount_needs_master_up(self, converged_fleet):
        from hepcluster.planner import BackendError
        converged_fleet.power("node00", False)
        with pytest.raises(BackendError,
                           match="cannot mount node00:/Jugrid: node00 is down"):
            converged_fleet.mount("node01", "node00:/Jugrid", "/Jugrid")


class TestIdempotentCapabilities:
    def test_twice_equals_once(self, paper_spec, fleet):
        calls = [
            ("power", ("node01", True)),
            ("write_file", ("node01", "/etc/a", b"one")),
            ("append_file", ("node01", "/etc/b", b"frag\n")),
            ("create_user", ("node01", "u", "g", "/bin/bash", "/Jugrid/u")),
            ("sync_accounts", ("node01",
                               {"v": ("g", "/bin/bash", "/Jugrid/v")})),
            ("enable_quota", ("node01",)),
            ("set_quota", ("node01", "u", 1, 2)),
            ("set_marker", ("node01", "base-os")),
            ("enable_monitor", ("node01",)),
        ]
        fleet.power("node00", True)
        fleet.set_marker("node00", "raid")
        calls.append(("mount", ("node01", "node00:/Jugrid", "/Jugrid")))
        for name, args in calls:
            assert getattr(fleet, name)(*args) is True
            first = fleet.state_hash()
            assert getattr(fleet, name)(*args) is False
            assert fleet.state_hash() == first


class TestSyncAccounts:
    TABLE = {"alice": ("users", "/bin/bash", "/Jugrid/alice"),
             "bob": ("users", "/bin/bash", "/Jugrid/bob"),
             "carol": ("users", "/bin/bash", "/Jugrid/carol")}

    def test_powered_off_node_unreachable(self, paper_spec, fleet):
        with pytest.raises(NodeUnreachableError):
            fleet.sync_accounts("node01", self.TABLE)
        assert fleet.nodes["node01"].accounts == {}

    def test_injected_fault_fails_once(self, paper_spec, fleet):
        from hepcluster.simfleet import FaultInjectedError
        fleet.power("node01", True)
        fleet.inject_fault("node01", "fail_next_capability", "sync_accounts")
        with pytest.raises(FaultInjectedError):
            fleet.sync_accounts("node01", self.TABLE)
        assert fleet.nodes["node01"].accounts == {}
        assert fleet.sync_accounts("node01", self.TABLE) is True
        assert fleet.nodes["node01"].accounts == self.TABLE

    def test_corrects_differing_accounts_once(self, paper_spec, fleet):
        fleet.power("node01", True)
        fleet.create_user("node01", "alice", *self.TABLE["alice"])
        fleet.create_user("node01", "carol", "users", "/bin/sh",
                          "/Jugrid/carol")
        assert fleet.sync_accounts("node01", self.TABLE) is True
        assert fleet.nodes["node01"].accounts == self.TABLE
        assert fleet.sync_accounts("node01", self.TABLE) is False
        assert fleet.nodes["node01"].accounts == self.TABLE

    def test_nodes_do_not_share_the_table(self, paper_spec, fleet):
        """Empty nodes take the caller's table itself; an account change
        on one node, by either capability, copies it first, so neither
        `table` nor another node changes."""
        table = dict(self.TABLE)
        for host in ("node01", "node02", "node03"):
            fleet.power(host, True)
            assert fleet.sync_accounts(host, table) is True
        assert fleet.nodes["node01"].accounts is table
        fleet.create_user("node01", "dave", "users", "/bin/sh",
                          "/Jugrid/dave")
        fleet.create_user("node01", "alice", "users", "/bin/sh",
                          "/Jugrid/alice")
        erin = {"erin": ("users", "/bin/bash", "/Jugrid/erin")}
        assert fleet.sync_accounts("node02", erin) is True
        assert fleet.nodes["node02"].accounts == {**self.TABLE, **erin}
        assert fleet.nodes["node01"].accounts == {
            **self.TABLE, "alice": ("users", "/bin/sh", "/Jugrid/alice"),
            "dave": ("users", "/bin/sh", "/Jugrid/dave")}
        assert fleet.nodes["node03"].accounts == table == self.TABLE

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(st.tuples(
        st.sampled_from(["create", "sync", "read", "reload"]),
        st.sampled_from(["node01", "node02"]),
        st.sampled_from(["alice", "bob", "carol"]),
        st.sampled_from(["/bin/bash", "/bin/sh"])), max_size=25))
    # an edit after a read, after taking a caller's table, and of a
    # loaded table two nodes share
    @example(steps=[("create", "node01", "alice", "/bin/bash"),
                    ("read", "node01", "alice", "/bin/bash"),
                    ("create", "node01", "bob", "/bin/bash")])
    @example(steps=[("create", "node01", "alice", "/bin/bash"),
                    ("sync", "node01", "alice", "/bin/sh"),
                    ("create", "node01", "bob", "/bin/sh")])
    @example(steps=[("create", "node01", "alice", "/bin/sh"),
                    ("create", "node02", "alice", "/bin/sh"),
                    ("reload", "node01", "alice", "/bin/sh"),
                    ("sync", "node01", "alice", "/bin/bash")])
    def test_account_changes_match_a_model(self, paper_spec, steps):
        """However tables come to be shared (sync, read, reload), each
        node's accounts follow its own calls only, and no snapshot or
        caller's table ever changes."""
        import tempfile
        fleet = SimFleet(paper_spec)
        for host in fleet.nodes:
            fleet.power(host, True)
        model = {host: {} for host in fleet.nodes}
        tables = [dict(list(self.TABLE.items())[:k]) for k in (1, 3)]
        held = [(t, copy.deepcopy(t)) for t in tables]  # (table, its value)
        for op, host, user, shell in steps:
            if op == "create":
                account = ("users", shell, f"/Jugrid/{user}")
                fleet.create_user(host, user, *account)
                model[host][user] = account
            elif op == "sync":
                table = tables[shell == "/bin/sh"]
                fleet.sync_accounts(host, table)
                model[host].update(table)
            elif op == "read":
                snap = fleet.read_state(host).accounts
                held.append((snap, copy.deepcopy(snap)))
            else:
                with tempfile.TemporaryDirectory() as tmp:
                    fleet.save(f"{tmp}/fleet.json")
                    fleet = SimFleet.load(f"{tmp}/fleet.json", paper_spec)
            assert {h: n.accounts for h, n in fleet.nodes.items()} == model
            assert all(table == value for table, value in held)


class TestPersistence:
    def test_save_load_round_trip(self, paper_spec, converged_fleet, tmp_path):
        converged_fleet.sim_write("node01", "user1", "/Jugrid/user1/x",
                                  bytes(range(256)))
        path = tmp_path / "fleet.json"
        converged_fleet.save(str(path))
        loaded = SimFleet.load(str(path), paper_spec)
        assert loaded.state_hash() == converged_fleet.state_hash()
        assert loaded.sim_read("node02", "/Jugrid/user1/x") == bytes(range(256))

    def test_unreachable_is_saved_and_pending_failure_is_not(
            self, paper_spec, converged_fleet, tmp_path):
        from hepcluster.simfleet import FaultInjectedError
        converged_fleet.inject_fault("node03", "unreachable")
        converged_fleet.inject_fault("node02", "fail_next_capability")
        path = tmp_path / "fleet.json"
        converged_fleet.save(str(path))
        with pytest.raises(FaultInjectedError):
            converged_fleet.read_state("node02")
        loaded = SimFleet.load(str(path), paper_spec)
        with pytest.raises(NodeUnreachableError):
            loaded.read_state("node03")
        assert loaded.read_state("node02").reachable
        assert loaded.state_hash() == converged_fleet.state_hash()

    def test_keys_no_longer_written_are_ignored(self, paper_spec,
                                                converged_fleet, tmp_path,
                                                state_record):
        """Files that still hold `master`, `storage_root` and each node's
        `role` load, and their next save drops them."""
        path = tmp_path / "fleet.json"
        converged_fleet.save(str(path))
        raw = json.loads(path.read_text())
        raw.update(master="node00", storage_root="/Jugrid")
        for host in raw["nodes"]:
            state_record(raw, host)["role"] = (
                "master" if host == "node00" else "worker")
        path.write_text(json.dumps(raw))
        loaded = SimFleet.load(str(path), paper_spec)
        assert loaded.state_hash() == converged_fleet.state_hash()
        loaded.save(str(path))
        assert "role" not in path.read_text()

    def test_failed_save_keeps_previous_file(self, paper_spec, converged_fleet,
                                             tmp_path, monkeypatch):
        import os
        path = tmp_path / "fleet.json"
        SimFleet(paper_spec).save(str(path))
        before = path.read_bytes()

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError, match="disk full"):
            converged_fleet.save(str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["fleet.json"]

    def test_loaded_nodes_share_one_bytes_object(self, paper_spec,
                                                 converged_fleet, tmp_path):
        path = tmp_path / "fleet.json"
        converged_fleet.save(str(path))
        loaded = SimFleet.load(str(path), paper_spec)
        from hepcluster.configgen import SSH_AUTHORIZED_KEYS_PATH
        keys = {id(n.files[SSH_AUTHORIZED_KEYS_PATH])
                for n in loaded.nodes.values()}
        assert len(keys) == 1

    def test_equal_account_tables_share_one_blob(self, paper_spec,
                                                 converged_fleet,
                                                 state_record):
        raw = converged_fleet.to_dict()
        digests = {state_record(raw, h)["accounts"] for h in raw["nodes"]}
        plan = diff(paper_spec, observe(SimFleet(paper_spec)))
        sync = {a.payload["digest"] for a in plan.actions
                if a.kind == "SyncAccounts"}
        assert len(digests) == 1 and digests == sync
        assert digests <= set(raw["blobs"])

    def test_round_trip_keeps_each_nodes_accounts(self, paper_spec,
                                                  converged_fleet, tmp_path):
        converged_fleet.nodes["node02"].accounts = {}  # a wiped worker
        path = tmp_path / "fleet.json"
        converged_fleet.save(str(path))
        loaded = SimFleet.load(str(path), paper_spec)
        assert {h: n.accounts for h, n in loaded.nodes.items()} == \
            {h: n.accounts for h, n in converged_fleet.nodes.items()}
        assert loaded.nodes["node02"].accounts == {}
        # a node changes only its own
        loaded.create_user("node01", "dave", "users", "/bin/sh",
                           "/Jugrid/dave")
        assert "dave" in loaded.nodes["node01"].accounts
        assert loaded.nodes["node03"].accounts == \
            converged_fleet.nodes["node03"].accounts != {}

    def test_loaded_workers_share_one_table_until_one_edits(
            self, paper_spec, converged_fleet, tmp_path):
        path = tmp_path / "fleet.json"
        converged_fleet.save(str(path))
        loaded = SimFleet.load(str(path), paper_spec)
        table = loaded.nodes["node03"].accounts
        assert loaded.nodes["node01"].accounts is table
        snapshot = observe(loaded)
        assert snapshot.nodes["node01"].accounts is table
        before = dict(table)
        assert loaded.create_user("node01", "dave", "users", "/bin/sh",
                                  "/Jugrid/dave") is True
        assert loaded.nodes["node01"].accounts == {
            **before, "dave": ("users", "/bin/sh", "/Jugrid/dave")}
        assert loaded.nodes["node03"].accounts is table
        assert table == before
        assert snapshot.nodes["node01"].accounts == before

    @pytest.mark.parametrize("change", [
        lambda f: f.write_file("node01", "/etc/fstab", b"changed\n"),
        lambda f: f.write_file("node01", "/etc/new", b"new\n"),
        lambda f: f.append_file("node01", "/etc/bashrc", b"export X=1\n"),
        lambda f: f.mount("node01", "node00:/Jugrid", "/data"),
        lambda f: f.set_marker("node01", "extra"),
        lambda f: f.enable_monitor("node01"),
        lambda f: f.enable_quota("node01"),
        lambda f: f.set_quota("node01", "user1", 1, 2),
        lambda f: f.power("node01", False),
        lambda f: f.sim_tick(1.0, {"node01": 10.0}) or True,
    ], ids=["write_file", "write_new_file", "append_file", "mount",
            "set_marker", "enable_monitor", "enable_quota", "set_quota",
            "power_off", "sim_tick"])
    def test_nodes_sharing_a_record_change_alone(
            self, paper_spec, converged_fleet, tmp_path, state_record,
            change):
        """Workers that share one record in the file are loaded as nodes
        that share no file, mount, quota, marker or counter object."""
        for host in ("node01", "node02", "node03"):  # so enable_monitor acts
            converged_fleet.nodes[host].markers.discard("monitor")
        path = tmp_path / "fleet.json"
        converged_fleet.save(str(path))
        raw = json.loads(path.read_text())
        assert len(raw["records"]) == 2
        assert state_record(raw, "node01") is state_record(raw, "node03")
        loaded = SimFleet.load(str(path), paper_spec)
        before = copy.deepcopy(loaded.nodes)
        assert change(loaded) is True
        assert loaded.nodes["node01"] != before["node01"]
        fresh = SimFleet.load(str(path), paper_spec)
        for host in ("node00", "node02", "node03"):
            assert loaded.nodes[host] == before[host] == fresh.nodes[host]
        assert fresh.nodes["node01"] == before["node01"]

    def test_load_builds_each_node_once(self, paper_spec, converged_fleet,
                                        tmp_path, monkeypatch):
        """A node the file lists is built from its record, not built empty
        and then overwritten; only a node the file lacks is built empty."""
        from hepcluster import simfleet
        path = tmp_path / "fleet.json"
        converged_fleet.save(str(path))
        raw = json.loads(path.read_text())
        del raw["nodes"]["node02"]
        path.write_text(json.dumps(raw))
        built = []

        every = len(dataclasses.fields(NodeState))

        def counted(*args, **kwargs):  # (hostname, given every field)
            built.append((args[0], len(args) + len(kwargs) == every))
            return NodeState(*args, **kwargs)
        monkeypatch.setattr(simfleet, "NodeState", counted)
        SimFleet.load(str(path), paper_spec)
        assert sorted(built) == [("node00", True), ("node01", True),
                                 ("node02", False), ("node03", True)]

    def test_node_the_file_lacks_keeps_the_defaults(self, paper_spec,
                                                    converged_fleet, tmp_path,
                                                    state_record):
        path = tmp_path / "fleet.json"
        converged_fleet.save(str(path))
        raw = json.loads(path.read_text())
        del raw["nodes"]["node02"]
        raw["nodes"]["node99"] = raw["nodes"]["node01"]  # not in the spec
        state_record(raw, "node03")["counters"].update(eth9=[5, 6])
        path.write_text(json.dumps(raw))
        loaded = SimFleet.load(str(path), paper_spec)
        assert list(loaded.nodes) == [n.hostname for n in paper_spec.nodes]
        assert loaded.nodes["node02"] == SimFleet(paper_spec).nodes["node02"]
        for host in ("node00", "node01", "node03"):
            assert loaded.nodes[host] == converged_fleet.nodes[host]
        # counters are kept only for the spec's interfaces
        assert list(loaded.nodes["node03"].counters) == ["eth0"]

    def test_bad_counter_of_an_interface_the_spec_lacks_rejects_the_file(
            self, paper_spec, converged_fleet, tmp_path, state_record):
        """Each record is type-checked whole, once, whichever hosts use it."""
        from hepcluster.simfleet import StateError
        path = tmp_path / "fleet.json"
        converged_fleet.save(str(path))
        raw = json.loads(path.read_text())
        state_record(raw, "node03")["counters"].update(eth9="x")
        path.write_text(json.dumps(raw))
        with pytest.raises(StateError, match="counter 'x' is not a pair"):
            SimFleet.load(str(path), paper_spec)

    @pytest.mark.parametrize("key,value,error", [
        ("owner", ["user1"], "TypeError: shared file '/Jugrid/user1/x' "
                             "owner ['user1'] is not str"),
        ("data", 5, "TypeError: shared file '/Jugrid/user1/x' data 5 "
                    "is not str"),
        ("data", "!!!!", "ValueError: shared file '/Jugrid/user1/x' data "
                         "is not base64"),
        ("data", "d\u00e9", "ValueError: shared file '/Jugrid/user1/x' data "
                           "is not base64"),
    ], ids=["owner-list", "data-int", "data-not-base64", "data-not-ascii"])
    def test_damaged_shared_file_names_its_path(
            self, paper_spec, converged_fleet, tmp_path, key, value, error):
        from hepcluster.simfleet import StateError
        converged_fleet.sim_write("node01", "user1", "/Jugrid/user1/x", b"x")
        path = tmp_path / "fleet.json"
        converged_fleet.save(str(path))
        raw = json.loads(path.read_text())
        raw["shared_files"]["/Jugrid/user1/x"][key] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(StateError) as caught:
            SimFleet.load(str(path), paper_spec)
        assert f"is damaged ({error}" in str(caught.value)

    def test_file_depends_only_on_content(self, paper_spec, converged_fleet,
                                          state_record):
        """A node whose files were written in another order, or whose
        account table is an equal copy, shares its record with the others,
        and the file text does not change."""
        before = converged_fleet._canonical()
        node = converged_fleet.nodes["node02"]
        node.files = dict(reversed(node.files.items()))
        assert list(node.files) != list(converged_fleet.nodes["node01"].files)
        node = converged_fleet.nodes["node03"]
        node.accounts = dict(node.accounts)
        assert node.accounts is not converged_fleet.nodes["node01"].accounts
        raw = converged_fleet.to_dict()
        assert len(raw["records"]) == 2
        assert state_record(raw, "node02") is state_record(raw, "node01")
        assert state_record(raw, "node03") is state_record(raw, "node01")
        assert converged_fleet._canonical() == before

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_round_trip_after_random_history(self, paper_spec, tmp_path_factory,
                                             seed):
        rng = random.Random(seed)
        fleet = SimFleet(paper_spec)
        for host in fleet.hostnames():
            if rng.random() < 0.8:
                fleet.power(host, True)
        for host in fleet.hostnames():
            if fleet.nodes[host].power == "on" and rng.random() < 0.5:
                fleet.write_file(host, f"/etc/f{rng.randrange(3)}",
                                 bytes([rng.randrange(32, 127)]) * 10)
        path = tmp_path_factory.mktemp("state") / "fleet.json"
        fleet.save(str(path))
        assert SimFleet.load(str(path), paper_spec).state_hash() == \
            fleet.state_hash()


# odd values, among them pairs whose two items share a wrong type
_ODD = [None, True, 0, 1.5, "", "x", "on", [], {}, ["a"], ["a", "b"],
        [1.5, 2.5], [True, False], [None, None], [1, 2], [1, True],
        [1, 2, 3], {"eth0": [1, 2]}, {"u": [1, 2]}]


@st.composite
def _damaged_state(draw, text: str, state_record) -> tuple[str, bool]:
    """A state file with one node's record index, or one field of a
    record, or one element of it, or the owner or data of a shared file,
    replaced by an odd value or deleted; the host may be one the spec does
    not name. Also whether the damage is to an index, which must not
    load."""
    raw = json.loads(text)
    host = draw(st.sampled_from(sorted(raw["nodes"])))
    if draw(st.booleans()):
        raw["records"].append(json.loads(json.dumps(state_record(raw, host))))
        raw["nodes"]["node99"] = len(raw["records"]) - 1
        host = draw(st.sampled_from([host, "node99"]))
    what = draw(st.integers(0, 4))
    if what == 0:
        raw["nodes"][host] = draw(st.sampled_from(
            [True, False, -1, len(raw["records"]), "0", None, 0.0, [0]]))
        return json.dumps(raw), True
    if what == 1:
        entry = raw["shared_files"][draw(st.sampled_from(
            sorted(raw["shared_files"])))]
        key = draw(st.sampled_from(["owner", "data"]))
        if draw(st.booleans()):
            del entry[key]
        else:  # "!!!!" is no base64, though a lax decoder reads b""
            entry[key] = draw(st.sampled_from(_ODD + ["!!!!"]))
        return json.dumps(raw), False
    record = state_record(raw, host)
    key = draw(st.sampled_from(sorted(record)))
    how = draw(st.sampled_from(["field", "element", "delete"]))
    value = draw(st.sampled_from(_ODD))
    if how == "delete":
        del record[key]
    elif how == "element" and isinstance(record[key], list):
        at = draw(st.integers(0, len(record[key])))
        record[key][at:at + draw(st.integers(0, 1))] = [value]
    elif how == "element" and isinstance(record[key], dict):
        keys = sorted(record[key]) + ["eth0", "user1", "new"]
        record[key][draw(st.sampled_from(keys))] = value
    else:
        record[key] = value
    return json.dumps(raw), False


def _typed_pair(value, kind: type) -> bool:
    return (type(value) is tuple and len(value) == 2
            and type(value[0]) is kind and type(value[1]) is kind)


class TestLoadTypeCheck:
    """`load` type-checks each node record and each shared file: a damaged
    file raises StateError or gives nodes and shared files of the
    documented types, each shared file's data the base64 text names."""

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(data=st.data())
    def test_damaged_file_errs_or_loads_typed_nodes(self, paper_spec,
                                                    tmp_path_factory, data,
                                                    state_record):
        from hepcluster.simfleet import StateError
        fleet = SimFleet(paper_spec)
        apply(diff(paper_spec, observe(fleet)), fleet, paper_spec)
        fleet.sim_tick(1.0, {"node01": 10.0})
        fleet.sim_write("node01", "user1", "/Jugrid/user1/x", b"data")
        path = str(tmp_path_factory.mktemp("state") / "fleet.json")
        text, bad_index = data.draw(_damaged_state(fleet._canonical(),
                                                   state_record))
        with open(path, "w") as f:
            f.write(text)
        try:
            loaded = SimFleet.load(path, paper_spec)
        except StateError:
            return
        assert not bad_index
        assert list(loaded.nodes) == [n.hostname for n in paper_spec.nodes]
        for spec_node in paper_spec.nodes:
            node = loaded.nodes[spec_node.hostname]
            assert type(node.reachable) is bool
            assert node.power in ("on", "off")
            assert all(type(p) is str and type(d) is bytes
                       for p, d in node.files.items())
            assert all(_typed_pair(m, str) for m in node.mounts)
            assert all(type(u) is str and type(a) is tuple and len(a) == 3
                       and all(type(x) is str for x in a)
                       for u, a in node.accounts.items())
            assert type(node.quota_enabled) is bool
            assert all(type(u) is str and _typed_pair(q, int)
                       for u, q in node.quotas.items())
            assert all(type(m) is str for m in node.markers)
            assert list(node.counters) == [i.name for i in
                                           spec_node.interfaces]
            assert all(_typed_pair(c, int) for c in node.counters.values())
        shared = json.loads(text)["shared_files"]
        assert {p: (o, base64.b64encode(d).decode())
                for p, (o, d) in loaded.shared_files.items()} == \
            {p: (e["owner"], e["data"]) for p, e in shared.items()}
        assert all(type(o) is str and type(d) is bytes
                   for o, d in loaded.shared_files.values())
