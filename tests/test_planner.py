import ast
import copy
import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hepcluster import (apply, diff, observe, parse_spec, power_sequence,
                        validate)
from hepcluster.planner import (KINDS, PHASES, Action, Blobs,
                                NodeState, Plan, PlanError, TransportError,
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

    def test_snapshot_and_fleet_do_not_share_state(self, paper_spec,
                                                   converged_fleet):
        """A later change never reaches a snapshot, and editing a snapshot
        never reaches the fleet. A snapshot's `accounts` is the node's
        table, not to be edited: account changes go through the backend,
        and a snapshot replaces its table rather than edit it."""
        import copy
        fleet = converged_fleet
        state = observe(fleet)
        before = copy.deepcopy(state)
        fleet.sim_tick(5.0, {h: 100.0 for h in fleet.hostnames()})
        fleet.nodes["node01"].mounts.clear()
        intruder = ("users", "/bin/sh", "/Jugrid/intruder")
        fleet.create_user("node01", "intruder", *intruder)
        fleet.sync_accounts("node02", {"intruder": intruder})
        fleet.nodes["node00"].quotas["user1"] = (1, 2)
        assert observe(fleet) != before  # the edits are visible to a new read
        assert state == before

        nodes, digest = copy.deepcopy(fleet.nodes), fleet.state_hash()
        for snap in state.nodes.values():
            snap.power = "off"
            for part in (snap.files, snap.mounts, snap.quotas, snap.markers,
                         snap.counters):
                part.clear()
            snap.accounts = {}
        assert fleet.nodes == nodes
        assert fleet.state_hash() == digest

    def test_failed_read_leaves_the_node_unobserved(self, paper_spec,
                                                    converged_fleet):
        converged_fleet.inject_fault("node02", "fail_next_capability",
                                     "read_state")
        state = observe(converged_fleet)
        assert state.nodes["node02"] == NodeState("node02")
        assert all(n.reachable for h, n in state.nodes.items() if h != "node02")
        fresh = diff(paper_spec, observe(SimFleet(paper_spec)))
        assert diff(paper_spec, state).actions == tuple(
            a for a in fresh.actions if a.target == "node02")

    def test_transport_error_propagates(self, converged_fleet, monkeypatch):
        def read_state(hostname):
            raise TransportError("connection lost")
        monkeypatch.setattr(converged_fleet, "read_state", read_state)
        with pytest.raises(TransportError, match="connection lost"):
            observe(converged_fleet)

    def test_read_state_is_a_node_state(self, paper_spec, converged_fleet):
        master = paper_spec.master.hostname
        snap = converged_fleet.read_state(master)
        assert isinstance(snap, NodeState)
        assert snap.hostname == master and snap.reachable
        quotas = {u.username: (u.quota_soft_bytes, u.quota_hard_bytes)
                  for u in paper_spec.users if u.has_quota}
        assert quotas and snap.quotas == quotas


_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hepcluster"


def _imported(module: Path) -> set[str]:
    """Every name `module` imports, as `a.b` for `from a import b`."""
    imported = set()
    for node in ast.walk(ast.parse(module.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{a.name}"
                            for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    return imported


def test_lower_modules_never_import_the_executor():
    """The backend contract lives in `planner`, so no module below the CLI
    needs `executor`, and the package's imports have no cycle."""
    for name in ("planner", "simfleet", "model", "configgen", "monitor"):
        assert not {m for m in _imported(_PACKAGE / f"{name}.py")
                    if "executor" in m.split(".")}, name


def test_package_runs_in_one_thread():
    """No module starts a thread or a process: the executor is serial, and
    a backend is called from one thread."""
    for module in _PACKAGE.glob("*.py"):
        assert not {m for m in _imported(module) if m.split(".")[0] in
                    ("threading", "concurrent", "multiprocessing")}, module


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
        spec = parse_spec(defect_spec_text)
        with pytest.raises(PlanError) as exc:
            diff(spec, observe(fleet))
        assert exc.value.violations == validate(spec)

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



def _dumps_plan(plan) -> str:
    """The plan as one `json.dumps(indent=2)` of its dict form: the reference."""
    out = {"spec_hash": plan.spec_hash,
           "actions": [{"id": a.id, "phase": a.phase, "target": a.target,
                        "kind": a.kind, "payload": a.payload}
                       for a in plan.actions]}
    if plan.blobs:
        out["blobs"] = plan.blobs
    return json.dumps(out, indent=2) + "\n"


# Strings that could confuse a splitter of encoded payloads: quotes,
# backslashes, newlines, braces, the text that joins two flat payloads,
# line separators, non-ASCII and lone surrogates.
_TRICKY = st.sampled_from(['"', "\\", "\n", "{", "}", "},\n        {",
                           '"},\n        {"', "\u2028", "\u00e9\u96c6",
                           "\ud800", "\udfff", ": ", ","])
_TEXT = st.lists(st.one_of(_TRICKY, st.text(max_size=4)),
                 max_size=4).map("".join)
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    _TEXT)
_PAYLOAD = st.one_of(
    st.builds(dict),  # a new empty dict each time
    st.dictionaries(_TEXT, _SCALAR, min_size=1, max_size=4),  # flat
    st.dictionaries(st.one_of(st.integers(), st.booleans()), _SCALAR,
                    min_size=1, max_size=3),  # flat, keys the encoder converts
    st.dictionaries(_TEXT, st.tuples(_SCALAR, _SCALAR), min_size=1,
                    max_size=3),
    st.dictionaries(_TEXT, st.recursive(
        _SCALAR, lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(_TEXT, inner, max_size=3)),
        max_leaves=6), max_size=4),  # nested
)
_KIND_PHASES = sorted((kind, phase) for kind, k in KINDS.items()
                      for phase in k.phases)


@st.composite
def _plans(draw) -> Plan:
    """A plan whose actions pick payloads from a pool, so some share one."""
    pool = draw(st.lists(_PAYLOAD, min_size=1, max_size=6))
    actions = draw(st.lists(st.builds(
        lambda kind_phase, i, target, index: Action(
            i, kind_phase[1], target, kind_phase[0], pool[index]),
        st.sampled_from(_KIND_PHASES), _TEXT, _TEXT,
        st.integers(0, len(pool) - 1)), max_size=12))
    return Plan(tuple(actions), draw(_TEXT),
                draw(st.dictionaries(_TEXT, _TEXT, max_size=3)))


class TestPlanJson:
    """`Plan.to_json` encodes each payload once, to the reference's bytes."""

    @staticmethod
    def _plan(scaled_spec, case):
        raw = scaled_spec(*((4, 200) if case == "many-users" else (12, 3)))
        if case == "non-ascii":  # escaped in a blob and in a payload
            raw["motd"]["banner"] = "WILLKOMMEN \u2014 \u00c5\u00e4 \u96c6\u7fa4"
            raw["apps"][0]["source_url"] = "https://\u00e9xample.org/\"a\"\nb"
        spec = parse_spec(json.dumps(raw))
        fleet = SimFleet(spec)
        if case in ("partial", "empty"):
            apply(diff(spec, observe(fleet)), fleet, spec)
        if case == "partial":
            for host in ("node03", "node07"):
                fleet.inject_fault(host, "crash")
            fleet.inject_fault("node05", "unreachable")
        plan = diff(spec, observe(fleet))
        if case == "round-trip":  # payloads as decoding gives: none shared
            plan = Plan(tuple(dataclasses.replace(
                a, payload=copy.deepcopy(a.payload)) for a in plan.actions),
                plan.spec_hash, plan.blobs)
        elif case == "blobs-only":  # no action opens or closes the list
            plan = Plan((), plan.spec_hash, plan.blobs)
        elif case in ("one-flat", "one-empty", "nested-only"):
            kinds = {"one-flat": "CreateUser", "one-empty": "PowerOn",
                     "nested-only": "LayoutStorage"}
            actions = tuple(a for a in plan.actions if a.kind == kinds[case])
            plan = Plan(actions[:1] if case.startswith("one") else actions,
                        plan.spec_hash, plan.blobs)
        return plan

    @pytest.mark.parametrize("case", ["fresh", "partial", "empty",
                                      "non-ascii", "round-trip",
                                      "many-users", "blobs-only", "one-flat",
                                      "one-empty", "nested-only"])
    def test_bytes_equal_one_json_dumps(self, scaled_spec, case):
        plan = self._plan(scaled_spec, case)
        assert bool(plan.actions) == (case not in ("empty", "blobs-only"))
        assert bool(plan.blobs) == (case != "empty")
        assert plan.to_json() == _dumps_plan(plan)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(plan=_plans())
    def test_random_payloads_equal_one_json_dumps(self, plan):
        assert plan.to_json() == _dumps_plan(plan)


class TestUnreachableWarning:
    """One WARNING per `diff` counts the unreachable nodes and names at
    most five of them, however many."""

    @staticmethod
    def _warnings(caplog, spec, fleet) -> list[str]:
        caplog.clear()
        with caplog.at_level("WARNING", logger="hepcluster.planner"):
            diff(spec, observe(fleet))
        return [r.getMessage() for r in caplog.records]

    def test_fresh_fleet_one_record(self, scaled_spec, caplog):
        spec = parse_spec(json.dumps(scaled_spec(40, 5)))
        [message] = self._warnings(caplog, spec, SimFleet(spec))
        assert len(spec.nodes) == 41
        assert message == ("41 node(s) unreachable, planning full "
                           "provisioning: node00, node01, node02, node03, "
                           "node04 and 36 more")

    def test_converged_fleet_names_only_crashed(self, scaled_spec, caplog):
        spec = parse_spec(json.dumps(scaled_spec(40, 5)))
        fleet = SimFleet(spec)
        apply(diff(spec, observe(fleet)), fleet, spec)
        assert self._warnings(caplog, spec, fleet) == []
        for host in ("node17", "node03"):
            fleet.inject_fault(host, "crash")
        assert self._warnings(caplog, spec, fleet) == [
            "2 node(s) unreachable, planning full provisioning: "
            "node03, node17"]


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
        plan = diff(paper_spec, observe(fleet))
        digest = next(a.payload["digest"] for a in plan.actions
                      if a.kind == "SyncAccounts")
        blobs = Blobs(plan.blobs)
        tables = [blobs.accounts(digest) for _ in range(64)]
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


_NAME = st.text(max_size=8)
_ACCOUNTS = st.dictionaries(st.text(min_size=1, max_size=8),
                            st.tuples(_NAME, _NAME, _NAME), max_size=8)


class TestBlobs:
    @settings(max_examples=50, deadline=None)
    @given(texts=st.lists(st.text(max_size=64), max_size=8),
           tables=st.lists(_ACCOUNTS, max_size=4))
    def test_texts_round_trip_and_digests_are_sha256(self, texts, tables):
        store = Blobs()
        digests = ([store.add(t.encode("utf-8")) for t in texts]
                   + [store.add_accounts(t) for t in tables])
        written = store.texts()
        assert list(written) == sorted(set(digests))
        reread = Blobs(written)
        for d in digests:
            assert reread[d] == store[d]
            assert hashlib.sha256(store[d]).hexdigest() == d

    @settings(max_examples=50, deadline=None)
    @given(table=_ACCOUNTS, order=st.randoms(use_true_random=False))
    def test_equal_account_tables_share_one_digest(self, table, order):
        items = list(table.items())
        order.shuffle(items)
        store = Blobs()
        digest = store.add_accounts(table)
        assert store.add_accounts(dict(items)) == digest
        assert digest == hashlib.sha256(json.dumps(
            table, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        for blobs in (store, Blobs(store.texts())):
            read = blobs.accounts(digest)
            assert list(read) == sorted(table) and read == table
            assert all(type(v) is tuple for v in read.values())

    @settings(max_examples=60, deadline=None)
    @given(table=_ACCOUNTS.filter(bool), steps=st.lists(st.tuples(
        st.sampled_from(["equal", "shell", "drop", "add"]),
        st.integers(0, 7)), max_size=12))
    def test_added_tables_digest_their_own_json(self, table, steps):
        """A sequence of equal tables made of distinct objects, mixed with
        tables that differ in one entry: each call returns the sha256 of
        its own table's sorted compact JSON."""
        store = Blobs()
        for how, pick in [("equal", 0)] + steps:
            users = sorted(table)
            user = users[pick % len(users)]
            # new dicts of new tuples of new strings, equal by value
            made = {u: tuple("".join(list(x)) for x in v)
                    for u, v in table.items()}
            if how == "shell":
                made[user] = (*made[user][:2], made[user][2] + "/x")
            elif how == "drop":
                del made[user]
            elif how == "add":
                made[user + "+"] = made[user]
            want = hashlib.sha256(json.dumps(
                made, sort_keys=True, separators=(",", ":")).encode()
            ).hexdigest()
            assert store.add_accounts(made) == want
            decoded = {u: tuple(v) for u, v in
                       sorted(json.loads(store[want].decode()).items())}
            read = store.accounts(want)
            assert read == decoded and list(read) == list(decoded)
            assert all(type(v) is tuple for v in read.values())

    def test_an_equal_table_is_found_without_comparing_tables(self):
        """The master's table and the workers' equal tables of other
        objects share one digest, found by their encoded bytes alone: no
        entry is ever compared with another table's."""
        compared = []

        class Name(str):
            __hash__ = str.__hash__

            def __eq__(self, other):
                compared.append(self)
                return str.__eq__(self, other)

        def entries():
            return {f"u{i}": (Name("g"), Name("/bin/sh"), Name(f"/home/u{i}"))
                    for i in range(50)}
        store = Blobs()
        digest = store.add_accounts(entries())  # the master's
        shared = entries()
        for table in [dict(shared) for _ in range(4)] + [shared, shared]:
            assert store.add_accounts(table) == digest  # the workers'
        assert compared == []
        assert store.texts() == {digest: store[digest].decode()}

    def test_a_table_edited_after_adding_gets_its_own_digest(self):
        """The store keeps no added table: one edited in place and added
        again digests its new content, and the first digest still reads
        back the first content."""
        table = {"amy": ("users", "/bin/bash", "/home/amy")}
        store = Blobs()
        first = store.add_accounts(table)
        first_bytes = store[first]
        table["zed"] = ("users", "/bin/sh", "/home/zed")
        second = store.add_accounts(table)
        assert second == hashlib.sha256(json.dumps(
            table, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        assert store.accounts(first) == {
            u: tuple(v) for u, v in json.loads(first_bytes).items()}
        assert "zed" not in store.accounts(first)

    @pytest.mark.parametrize("damage", [
        lambda texts, d: texts.update({d: texts[d] + "\n"}),
        lambda texts, d: texts.update({d.upper(): texts.pop(d)}),
    ], ids=["text", "digest"])
    def test_blob_must_match_its_digest(self, damage):
        store = Blobs()
        digest = store.add(b"10.1.3.193:/Jugrid /Jugrid nfs defaults 0 0\n")
        texts = store.texts()
        damage(texts, digest)
        with pytest.raises(ValueError, match="does not match its digest"):
            Blobs(texts)


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
            # a table loaded or synced nodes share: replaced, not cleared
            (lambda f: setattr(f.nodes["node03"], "accounts", {}),
             "SyncAccounts"),
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


_MUTATIONS = ("mounts", "files", "markers", "accounts", "quotas",
              "quota-off", "append", "crash", "unreachable")


def _mutate(fleet, node, what: str, pick: int) -> None:
    """Damage one node of a converged fleet in one way."""
    if what in ("crash", "unreachable"):
        fleet.inject_fault(node.hostname, what)
    elif what == "quota-off":
        node.quota_enabled = False
    elif what == "append":
        if node.files:
            path = sorted(node.files)[pick % len(node.files)]
            node.files[path] += b"# local\n"
    else:  # drop one mount, file, marker, account or quota
        if what == "accounts":  # nodes may share one table: edit a copy
            node.accounts = dict(node.accounts)
        items = getattr(node, what)
        if items:
            key = sorted(items)[pick % len(items)]
            items.pop(key) if isinstance(items, dict) else items.discard(key)


class TestGroupedDiff:
    """`diff` checks postconditions once per group of equal node states.

    Oracle: every action of a fresh plan whose postcondition fails on the
    observed state, checked one action at a time by `satisfied`.
    """

    @settings(max_examples=40, deadline=None)
    @given(scaled=st.booleans(),
           mutations=st.lists(st.tuples(st.sampled_from(_MUTATIONS),
                                        st.integers(0, 8),  # first node
                                        st.integers(1, 4),  # node step
                                        st.integers(0, 50)),  # item
                              max_size=8))
    # every other worker loses one thing: its neighbours differ in one field
    @example(scaled=True, mutations=[("mounts", 1, 2, 0)])
    @example(scaled=True, mutations=[("files", 1, 2, 1)])
    @example(scaled=True, mutations=[("markers", 1, 2, 2)])
    @example(scaled=True, mutations=[("accounts", 1, 2, 0)])
    @example(scaled=True, mutations=[("append", 1, 2, 0)])
    def test_equals_per_action_oracle(self, paper_spec, scaled_spec, scaled,
                                      mutations):
        spec = (parse_spec(json.dumps(scaled_spec(8, 3))) if scaled
                else paper_spec)
        full = diff(spec, observe(SimFleet(spec)))  # every desired action
        fleet = SimFleet(spec)
        apply(full, fleet, spec)
        hosts = sorted(fleet.nodes)
        # a stride of nodes gets each mutation, so equal states recur
        for name, first, step, pick in mutations:
            for host in hosts[first % len(hosts)::step]:
                _mutate(fleet, fleet.nodes[host], name, pick)
        state = observe(fleet)
        plan = diff(spec, state)
        expected = tuple(a for a in full.actions
                         if not satisfied(a, state, Blobs(full.blobs)))
        assert plan.actions == expected
        used = {a.payload["digest"] for a in expected if "digest" in a.payload}
        assert list(plan.blobs) == sorted(used)
        assert all(plan.blobs[d] == full.blobs[d] for d in used)


class TestBuiltActions:
    @settings(max_examples=30, deadline=None)
    @given(scaled=st.booleans(),
           mutations=st.lists(st.tuples(st.sampled_from(_MUTATIONS),
                                        st.integers(0, 8), st.integers(1, 4),
                                        st.integers(0, 50)), max_size=4))
    def test_diff_actions_equal_hand_built_ones(self, paper_spec, scaled_spec,
                                                scaled, mutations):
        """`diff` builds its actions without `__post_init__`; they equal,
        repr and hash like `Action(...)` and stay frozen."""
        spec = (parse_spec(json.dumps(scaled_spec(6, 4))) if scaled
                else paper_spec)
        fleet = SimFleet(spec)
        if mutations:
            apply(diff(spec, observe(fleet)), fleet, spec)
            hosts = sorted(fleet.nodes)
            for name, first, step, pick in mutations:
                for host in hosts[first % len(hosts)::step]:
                    _mutate(fleet, fleet.nodes[host], name, pick)
        for got in diff(spec, observe(fleet)).actions:
            built = Action(got.id, got.phase, got.target, got.kind,
                           got.payload)
            assert got == built and repr(got) == repr(built)
            assert vars(got) == vars(built)
            assert list(vars(got)) == list(vars(built))
            assert sys.getsizeof(vars(got)) == sys.getsizeof(vars(built))
            for action in (got, built):  # a dict payload is unhashable
                with pytest.raises(TypeError, match="unhashable"):
                    hash(action)
            assert hash(dataclasses.replace(got, payload=None)) == \
                hash(dataclasses.replace(built, payload=None))
            with pytest.raises(dataclasses.FrozenInstanceError):
                got.id = "x"
            assert dataclasses.replace(got, target="nodeXX") == \
                Action(got.id, got.phase, "nodeXX", got.kind, got.payload)
            with pytest.raises(ValueError, match="not allowed in phase"):
                dataclasses.replace(got, phase=next(
                    p for p in PHASES if p not in KINDS[got.kind].phases))

    @pytest.mark.parametrize("direction", ["start", "stop"])
    @pytest.mark.parametrize("workers", [1, 3, 12])
    def test_power_actions_equal_hand_built_ones(self, scaled_spec, direction,
                                                 workers):
        """`power_sequence` builds its actions without `__post_init__`;
        they equal, repr and hash like `Action(...)` and stay frozen."""
        spec = parse_spec(json.dumps(scaled_spec(workers, 2)))
        sequence = power_sequence(direction, spec)
        assert len(sequence) == workers + 1 + (direction == "start")
        for got in sequence:
            built = Action(got.id, got.phase, got.target, got.kind,
                           got.payload)
            assert got == built and repr(got) == repr(built)
            assert vars(got) == vars(built)
            assert list(vars(got)) == list(vars(built))
            assert sys.getsizeof(vars(got)) == sys.getsizeof(vars(built))
            with pytest.raises(TypeError, match="unhashable"):
                hash(got)
            assert hash(dataclasses.replace(got, payload=None)) == \
                hash(dataclasses.replace(built, payload=None))
            with pytest.raises(dataclasses.FrozenInstanceError):
                got.target = "x"
            with pytest.raises(ValueError, match="not allowed in phase"):
                dataclasses.replace(got, phase="P1")


class TestExecutionOrder:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(workers=st.integers(1, 12), users=st.integers(1, 150),
           mutations=st.lists(st.tuples(st.sampled_from(_MUTATIONS),
                                        st.integers(0, 8), st.integers(1, 4),
                                        st.integers(0, 50)), max_size=4))
    # P5 and P6 of 100 rows or more, and hosts node100 and node101 that
    # sort between node10 and node11
    @example(workers=101, users=120, mutations=[("crash", 1, 7, 0),
                                                ("unreachable", 3, 11, 0)])
    def test_diff_emits_actions_sorted(self, scaled_spec, workers, users,
                                       mutations):
        """`diff` emits its actions in execution order, which is that of
        sorting them by (phase, target, id), on a fresh fleet and after an
        apply and damage."""
        spec = parse_spec(json.dumps(scaled_spec(workers, users)))
        fleet = SimFleet(spec)
        plans = [diff(spec, observe(fleet))]
        apply(plans[0], fleet, spec)
        hosts = sorted(fleet.nodes)
        for name, first, step, pick in mutations:
            for host in hosts[first % len(hosts)::step]:
                _mutate(fleet, fleet.nodes[host], name, pick)
        plans.append(diff(spec, observe(fleet)))
        for plan in plans:
            assert list(plan.actions) == sorted(
                plan.actions, key=lambda a: (a.phase, a.target, a.id))


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

    def test_ids_match_the_plan_power_on_ids(self, paper_spec, fleet):
        start = [a.id for a in power_sequence("start", paper_spec)]
        stop = [a.id for a in power_sequence("stop", paper_spec)]
        assert start[0] == "p0-infrastructure-00-power-on"
        plan = diff(paper_spec, observe(fleet))
        assert start[1:] == [a.id for a in plan.actions if a.kind == "PowerOn"]
        assert stop == [f"p0-node0{i}-00-power-off" for i in (3, 2, 1, 0)]

    def test_invalid_spec_names_violations(self, defect_spec_text):
        spec = parse_spec(defect_spec_text)
        for direction in ("start", "stop"):
            with pytest.raises(PlanError, match="address 10.1.3.195 assigned "
                                                "to multiple nodes") as exc:
                power_sequence(direction, spec)
            assert exc.value.violations == validate(spec)
