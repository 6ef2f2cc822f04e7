import dataclasses
import hashlib
import ipaddress
import json
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from hepcluster import configgen, model

from hepcluster.model import (
    GIB,
    MIB,
    TIB,
    DiskTooSmallError,
    InterfaceSpec,
    NodeSpec,
    Role,
    SpecFormatError,
    SpecSyntaxError,
    parse_spec,
    partition_plan,
    serialize_spec,
    spec_hash,
    spec_to_dict,
    validate,
)


def _spec_with(spec_text, where, key, value):
    """The spec with `key` of the object at path `where` set to `value`."""
    raw = json.loads(spec_text)
    obj = raw
    for step in where:
        obj = obj[step]
    obj[key] = value
    return parse_spec(json.dumps(raw))


class TestParse:
    def test_paper_topology(self, paper_spec):
        assert len(paper_spec.nodes) == 4
        assert paper_spec.master.hostname == "node00"
        assert [w.hostname for w in paper_spec.workers] == \
            ["node01", "node02", "node03"]
        assert paper_spec.storage.path == "/Jugrid"

    def test_empty_file_is_missing_field(self):
        with pytest.raises(SpecFormatError, match="missing required"):
            parse_spec(b"{}")

    def test_truncated_json_reports_position(self):
        with pytest.raises(SpecSyntaxError, match="line"):
            parse_spec(b'{"name": ')

    def test_duplicate_key_names_the_key(self, paper_spec_text):
        text = paper_spec_text.decode().rstrip().rstrip("}")
        text += ', "subnet": "10.0.0.0/8"}'
        with pytest.raises(SpecSyntaxError, match="'subnet'"):
            parse_spec(text)

    def test_long_duplicate_key_is_cut(self):
        key = "k" * 100_000
        with pytest.raises(SpecSyntaxError) as err:
            parse_spec(f'{{"{key}": 1, "{key}": 2}}')
        assert str(err.value) == f"duplicate key '{'k' * 30}...{'k' * 31}'"

    def test_unknown_field_rejected(self, paper_spec_text):
        raw = json.loads(paper_spec_text)
        raw["colour"] = "blue"
        with pytest.raises(SpecFormatError, match="'colour'"):
            parse_spec(json.dumps(raw))

    def test_defaults_applied(self):
        spec = parse_spec(json.dumps({
            "name": "tiny",
            "subnet": "10.0.0.0/24",
            "nodes": [
                {"hostname": "m", "role": "master", "disk_bytes": 6 * TIB,
                 "interfaces": [{"name": "eth0", "ip": "10.0.0.1"},
                                {"name": "eth1"}]},
                {"hostname": "w", "role": "worker", "disk_bytes": TIB,
                 "interfaces": [{"name": "eth0", "ip": "10.0.0.2"}]},
            ],
            "storage": {"path": "/Jugrid", "size_bytes": 4 * TIB},
            "users": [{"username": "u1", "group": "users"}],
        }))
        assert spec.storage.export_options == ("rw", "sync")
        assert spec.worker_mountpoint == "/Jugrid"
        assert spec.users[0].shell == "/bin/bash"
        assert spec.users[0].home == "/Jugrid/u1"
        assert spec.motd.banner == "WELCOME TO HEP CLUSTER"

    def test_bad_raid_level(self, paper_spec_text):
        raw = json.loads(paper_spec_text)
        raw["nodes"][0]["raid_level"] = 2
        with pytest.raises(SpecFormatError, match="raid_level"):
            parse_spec(json.dumps(raw))

    # a string is a number only as ASCII digits: no sign, whitespace, `_`
    # or other digits, though int() takes all of those
    @pytest.mark.parametrize("value", [
        "lots", None, 2097152.9, 2.0, " 4398046511104", "+4398046511104",
        "4_398_046_511_104", "4398046511104\n", "\u0664\u0663\u0669\u0668"])
    @pytest.mark.parametrize("where,key", [
        (("nodes", 1), "disk_bytes"), (("storage",), "size_bytes"),
        (("users", 0), "quota_soft_bytes"), (("users", 0), "quota_hard_bytes")])
    def test_non_integer_size_rejected(self, paper_spec_text, where, key,
                                       value):
        raw = json.loads(paper_spec_text)
        obj = raw
        for step in where:
            obj = obj[step]
        obj[key] = value
        with pytest.raises(SpecFormatError, match=(
                f"{key} {re.escape(repr(value))} in .* is not an integer")):
            parse_spec(json.dumps(raw))

    def test_swap_bytes_optional_integer(self, paper_spec_text):
        raw = json.loads(paper_spec_text)
        worker = raw["nodes"][1]
        worker["swap_bytes"] = "x"
        with pytest.raises(SpecFormatError, match="swap_bytes"):
            parse_spec(json.dumps(raw))
        worker["swap_bytes"] = str(2 * GIB)
        assert parse_spec(json.dumps(raw)).nodes[1].swap_bytes == 2 * GIB
        worker["swap_bytes"] = None  # null: the role default
        assert parse_spec(json.dumps(raw)).nodes[1].swap_bytes is None
        del worker["swap_bytes"]  # absent: the role default
        assert parse_spec(json.dumps(raw)).nodes[1].swap_bytes is None

    def test_round_trip(self, paper_spec):
        again = parse_spec(serialize_spec(paper_spec))
        assert again == paper_spec
        assert spec_hash(again) == spec_hash(paper_spec)

    def test_round_trip_keeps_an_empty_address(self, paper_spec_text):
        spec = _spec_with(paper_spec_text, ("nodes", 0, "interfaces", 1),
                          "ip", "")
        assert validate(spec) == []
        again = parse_spec(serialize_spec(spec))
        assert again == spec and again.nodes[0].interfaces[1].ip == ""
        assert spec_hash(again) == spec_hash(spec)


def _asdict_reference(spec) -> dict:
    """The spec dict as `dataclasses.asdict` gives it, patched for JSON."""
    d = dataclasses.asdict(spec)
    for node in d["nodes"]:
        node["role"] = node["role"].value
        node["interfaces"] = [
            {"name": i["name"], **({"ip": i["ip"]} if i["ip"] is not None else {})}
            for i in node["interfaces"]
        ]
        if node["swap_bytes"] is None:
            del node["swap_bytes"]
    d["motd"]["worker_range"] = list(spec.motd.worker_range)
    return d


def _with_swap(raw):
    raw["nodes"][1]["swap_bytes"] = 2 * GIB


def _without_ip(raw):
    del raw["nodes"][0]["interfaces"][1]["ip"]


def _empty_ip(raw):
    raw["nodes"][0]["interfaces"][1]["ip"] = ""


def _bare(raw):
    for key in ("users", "apps", "alias_guards"):
        raw.pop(key, None)


class TestSpecDict:
    @pytest.mark.parametrize("edit", [None, _with_swap, _without_ip, _empty_ip,
                                      _bare],
                             ids=["paper", "swap", "no-ip", "empty-ip", "bare"])
    def test_equals_asdict_reference(self, paper_spec_text, edit):
        raw = json.loads(paper_spec_text)
        if edit:
            edit(raw)
        spec = parse_spec(json.dumps(raw))
        ref = _asdict_reference(spec)
        got = spec_to_dict(spec)
        # tuples and lists serialize alike; compare the JSON forms
        assert json.loads(json.dumps(got)) == json.loads(json.dumps(ref))
        assert serialize_spec(spec) == \
            json.dumps(ref, indent=2, sort_keys=True) + "\n"
        canonical = json.dumps(ref, sort_keys=True, separators=(",", ":"))
        assert spec_hash(spec) == \
            hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestDerivedFacts:
    """`master`, `workers` and `storage_mount` are computed once per spec
    object, and an error is raised again on every access."""

    def test_computed_once_per_spec(self, paper_spec_text):
        spec = parse_spec(paper_spec_text)
        assert spec.master is spec.master
        assert spec.workers is spec.workers
        assert spec.storage_mount is spec.storage_mount
        assert spec.master is spec.nodes[0]
        assert spec.workers == spec.nodes[1:]
        assert type(spec.workers) is tuple
        assert spec.storage_mount == ("node00:/Jugrid", "/Jugrid")

    @pytest.mark.parametrize("masters", [(), (0, 1)], ids=["none", "two"])
    def test_master_error_on_every_access(self, paper_spec_text, masters):
        spec = parse_spec(paper_spec_text)
        spec = dataclasses.replace(spec, nodes=tuple(
            dataclasses.replace(
                n, role=Role.MASTER if i in masters else Role.WORKER)
            for i, n in enumerate(spec.nodes)))
        for _ in range(2):
            with pytest.raises(ValueError, match="expected exactly one "
                               f"master, found {len(masters)}$"):
                spec.master
            with pytest.raises(ValueError, match="exactly one master"):
                spec.storage_mount

    def test_replace_gets_its_own_values(self, paper_spec_text):
        spec = parse_spec(paper_spec_text)
        assert (spec.master.hostname, len(spec.workers),
                spec.storage_mount) == ("node00", 3,
                                        ("node00:/Jugrid", "/Jugrid"))
        nodes = tuple(dataclasses.replace(n, hostname=f"x{n.hostname}")
                      for n in spec.nodes[:3])
        other = dataclasses.replace(spec, nodes=nodes)
        assert other.master is nodes[0]
        assert other.workers == nodes[1:]
        assert other.storage_mount == ("xnode00:/Jugrid", "/Jugrid")
        assert spec.master.hostname == "node00" and len(spec.workers) == 3


class TestValidate:
    def test_paper_topology_valid(self, paper_spec):
        assert validate(paper_spec) == []

    @pytest.mark.parametrize("subnet", ["10.1.3.0/33", "10.1.3.1/24", "nnn"])
    def test_bad_subnet_one_violation(self, paper_spec_text, subnet):
        for _ in range(2):  # a new spec object, checked again
            spec = _spec_with(paper_spec_text, (), "subnet", subnet)
            assert validate(spec) == [model.Violation(
                "bad-subnet", f"subnet {subnet!r} is not a CIDR")]

    def test_validate_is_pure(self, paper_spec):
        assert validate(paper_spec) == validate(paper_spec)

    def test_duplicate_ip_single_violation(self, defect_spec_text):
        report = validate(parse_spec(defect_spec_text))
        assert len(report) == 1
        assert report[0].code == "duplicate-ip"
        assert "10.1.3.195" in report[0].message

    @pytest.mark.parametrize("repeat", [
        {"group": "other"},
        {"quota_soft_bytes": 2 * MIB, "quota_hard_bytes": 4 * MIB},
        {}], ids=["other-group", "other-quotas", "same"])
    def test_duplicate_username_single_violation(self, paper_spec_text,
                                                 repeat):
        """A username listed twice would give the master two accounts of
        one name to converge, so no plan could ever be empty."""
        raw = json.loads(paper_spec_text)
        raw["users"] += [{**raw["users"][0], **repeat},
                         {**raw["users"][0], "username": "user2"}]
        assert validate(parse_spec(json.dumps(raw))) == [model.Violation(
            "duplicate-user", "username 'user1' used more than once",
            "user1")]

    def test_two_masters(self, paper_spec_text):
        raw = json.loads(paper_spec_text)
        raw["nodes"][1]["role"] = "master"
        raw["nodes"][1]["interfaces"].append({"name": "eth1"})
        report = validate(parse_spec(json.dumps(raw)))
        assert any(v.code == "multiple-master" for v in report)

    def test_home_outside_storage(self, paper_spec_text):
        raw = json.loads(paper_spec_text)
        raw["users"][0]["home"] = "/home/user1"
        report = validate(parse_spec(json.dumps(raw)))
        assert any(v.code == "home-mismatch" for v in report)

    def test_quota_order(self, paper_spec_text):
        raw = json.loads(paper_spec_text)
        raw["users"][0]["quota_soft_bytes"] = 10 * MIB
        report = validate(parse_spec(json.dumps(raw)))
        assert any(v.code == "quota-order" for v in report)

    def test_worker_without_internal_ip(self, paper_spec_text):
        raw = json.loads(paper_spec_text)
        raw["nodes"][1]["interfaces"][0]["ip"] = "192.168.1.2"
        report = validate(parse_spec(json.dumps(raw)))
        assert any(v.code == "ip-outside-subnet" for v in report)

    def test_motd_range_must_name_workers(self, paper_spec_text):
        raw = json.loads(paper_spec_text)
        raw["motd"]["worker_range"] = ["node01", "node09"]
        report = validate(parse_spec(json.dumps(raw)))
        assert any(v.code == "motd-range" for v in report)

    def test_disk_too_small_for_partition_plan(self, paper_spec_text):
        raw = json.loads(paper_spec_text)
        raw["nodes"][0]["disk_bytes"] = 10**9
        violations = validate(parse_spec(json.dumps(raw)))
        assert [(v.code, v.subject) for v in violations] == [
            ("disk-too-small", "node00")]

    @pytest.mark.parametrize("where,key", [
        (("motd",), "banner"), (("motd",), "contact_name"),
        (("storage",), "path"), (("nodes", 2), "hostname")])
    @pytest.mark.parametrize("char", ["\t", "\r", "\n"])
    def test_line_breaking_characters(self, paper_spec_text, where, key, char):
        spec = _spec_with(paper_spec_text, where, key, f"a{char}b")
        assert "forbidden-whitespace" in [v.code for v in validate(spec)]

    # Each edit puts `c` in a value that its violation shows without quotes.
    _BARE = {
        "master-interfaces": lambda raw, c: raw["nodes"][0].update(
            hostname=f"node{c}00",
            interfaces=raw["nodes"][0]["interfaces"][:1]),
        "worker-interfaces": lambda raw, c: raw["nodes"][1].update(
            hostname=f"node{c}01",
            interfaces=[*raw["nodes"][1]["interfaces"],
                        {"name": "eth1", "ip": "10.1.3.250"}]),
        "home-mismatch": lambda raw, c: raw["users"][0].update(
            username=f"user{c}1", home="/home/user1"),
        "duplicate-ip": lambda raw, c: [
            n["interfaces"][0].update(ip=f"10.1.3{c}.1")
            for n in raw["nodes"][1:3]],
    }

    @pytest.mark.parametrize("code", sorted(_BARE))
    @pytest.mark.parametrize("char", list(
        "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_bare_value_keeps_a_violation_on_one_line(self, paper_spec_text,
                                                      code, char):
        """`str.splitlines` breaks at `char`; a message shows it escaped."""
        raw = json.loads(paper_spec_text)
        self._BARE[code](raw, char)
        report = validate(parse_spec(json.dumps(raw)))
        assert code in [v.code for v in report]
        assert all(len(v.message.splitlines()) == 1 for v in report), report

    @pytest.mark.parametrize("where,key,value,subject", [
        (("storage",), "path", "/Jug rid", "/Jug rid"),
        (("storage",), "mountpoint_on_workers", "/Jug rid", "/Jug rid"),
        (("storage",), "mountpoint_on_workers", "/Jug\vrid", "/Jug\vrid"),
        (("storage",), "mountpoint_on_workers", "/Jug\xa0rid", "/Jug\xa0rid"),
        (("storage",), "export_options", ["rw", "no root_squash"],
         "no root_squash"),
        (("apps", 0), "install_path", "/Jugrid/alice/my root",
         "/Jugrid/alice/my root"),
    ])
    def test_whitespace_in_line_fields(self, paper_spec_text, where, key,
                                       value, subject):
        report = validate(_spec_with(paper_spec_text, where, key, value))
        assert [v.subject for v in report
                if v.code == "forbidden-whitespace"] == [subject]

    def test_runs_once_per_spec_object(self, paper_spec_text, monkeypatch):
        from hepcluster import diff, model, observe
        from hepcluster.simfleet import SimFleet
        calls = []
        check = model._find_violations
        monkeypatch.setattr(model, "_find_violations",
                            lambda spec: calls.append(spec) or check(spec))
        spec = parse_spec(paper_spec_text)
        validate(spec).append("not kept")
        assert validate(spec) == []
        diff(spec, observe(SimFleet(spec)))
        assert calls == [spec]

    @pytest.mark.parametrize("where,key,value", [
        (("users", 0), "username", "x; rm -rf /"),
        (("users", 0), "username", "1user"),
        (("users", 0), "username", "u" * 33),
        (("users", 0), "group", "Users"),
        (("users", 0), "group", "a b"),
        (("users", 0), "shell", "bash"),
        (("users", 0), "shell", "/bin/bash -i"),
        (("nodes", 2), "hostname", "node_02"),
        (("nodes", 2), "hostname", "-node02"),
        (("nodes", 2), "hostname", "n" * 64),
        (("nodes", 2, "interfaces", 0), "name", "eth0;reboot"),
        (("nodes", 2, "interfaces", 0), "name", ""),
        ((), "alias_guards", ["root", "x$(id)"]),
        (("storage",), "path", "/Jugrid`id`"),
        (("storage",), "mountpoint_on_workers", "/Jugrid$(id)"),
        (("storage",), "mountpoint_on_workers", "/Jugrid;id"),
        (("apps", 0), "install_path", "/Jugrid/alice/root`id`"),
        (("storage",), "export_options", ["rw", "rw),*(rw"]),
        (("storage",), "export_options", ["sync", "*(rw"]),
        (("storage",), "export_options", ["rw", ""]),
        (("storage",), "export_options", ["rw", "sync;id"]),
    ])
    def test_bad_name(self, paper_spec_text, where, key, value):
        report = validate(_spec_with(paper_spec_text, where, key, value))
        bad = value[-1] if isinstance(value, list) else value
        assert [v.subject for v in report if v.code == "bad-name"] == [bad]

    @pytest.mark.parametrize("where,key,value", [
        (("users", 0), "group", "_hep-1"),
        (("users", 0), "username", "u" * 32),
        (("users", 0), "shell", "/usr/local/bin/zsh-5.9+x"),
        (("nodes", 0), "hostname", "0"),
        (("nodes", 0), "hostname", "a-" + "b" * 61),
        (("nodes", 2, "interfaces", 0), "name", "bond0.100:1"),
        ((), "alias_guards", ["root", "aliroot", "root.exe", "g++", "_x-1"]),
        (("storage",), "export_options",
         ["rw", "sync", "no_subtree_check", "anonuid=65534", "sec=krb5:krb5i",
          "fsid=0", "mountpoint=/Jugrid-1.x"]),
    ])
    def test_good_name(self, paper_spec_text, where, key, value):
        assert validate(_spec_with(paper_spec_text, where, key, value)) == []

    @pytest.mark.parametrize("edits,subject", [
        ({("nodes", 2): {"hostname": "node 02"}}, "node 02"),
        ({("storage",): {"path": "/Jug rid", "mountpoint_on_workers": ""}},
         "/Jug rid"),
    ], ids=["hostname", "storage-path-as-mountpoint"])
    def test_whitespace_is_reported_once(self, paper_spec_text, edits,
                                         subject):
        """A value with whitespace is one `forbidden-whitespace` violation:
        not also `bad-name`, and not once more as the worker mountpoint
        that defaults to it."""
        raw = json.loads(paper_spec_text)
        for where, values in edits.items():
            obj = raw
            for step in where:
                obj = obj[step]
            obj.update(values)
        report = validate(parse_spec(json.dumps(raw)))
        assert [(v.code, v.subject) for v in report
                if v.code in ("bad-name", "forbidden-whitespace")] == [
            ("forbidden-whitespace", subject)]

    @pytest.mark.parametrize("master_ip,expected", [
        ("fe80::1", []),
        ("fe80::1%eth0", []),
        ("fe80::1%eth0\tx", [("forbidden-whitespace", "fe80::1%eth0\tx")]),
        ("fe80::1%eth0 x", [("forbidden-whitespace", "fe80::1%eth0 x")]),
        ("fe80::1%eth0;x", [("bad-name", "fe80::1%eth0;x")]),
    ], ids=["plain", "zone", "zone-tab", "zone-space", "zone-semicolon"])
    def test_master_address(self, ipv6_spec_text, master_ip, expected):
        """The master's internal address goes into each worker's fstab line,
        so a zone must follow the interface name rule."""
        report = validate(parse_spec(ipv6_spec_text(master_ip)))
        assert [(v.code, v.subject) for v in report] == expected

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(zone=st.text())
    @example(zone="eth0\tx")
    def test_master_zone_validates_or_generates(self, ipv6_spec_text, zone):
        """Whatever the zone text, a spec `validate` accepts has its files."""
        spec = parse_spec(ipv6_spec_text(f"fe80::1%{zone}"))
        if not validate(spec):
            configgen.spec_files(spec)

    def test_export_options_that_open_another_export(self, paper_spec_text):
        """Options that close the host's parentheses would export the
        storage read-write to every host; each is a bad name, and one with
        whitespace keeps only its forbidden-whitespace violation."""
        spec = _spec_with(paper_spec_text, ("storage",), "export_options",
                          ["rw)", "*(rw", "no root_squash"])
        assert [(v.code, v.subject) for v in validate(spec)] == [
            ("bad-name", "rw)"), ("bad-name", "*(rw"),
            ("forbidden-whitespace", "no root_squash")]

    def test_spec_without_workers(self, paper_spec_text):
        raw = json.loads(paper_spec_text)
        raw["nodes"] = raw["nodes"][:1]
        raw["motd"]["worker_range"] = ["", ""]
        assert [v.code for v in validate(parse_spec(json.dumps(raw)))] == [
            "no-workers"]

    def test_valid_spec_homes_under_storage(self, paper_spec):
        for user in paper_spec.users:
            assert user.home.startswith(paper_spec.storage.path + "/")

    def test_multi_fault_spec_full_output(self, paper_spec_text):
        """Every violation of a spec with many faults, in order and word
        for word: a repeated hostname, one address on three hosts, a worker
        with two interfaces, one outside the subnet, two too-small disk
        shapes (one on two nodes) among good ones, a hostname with a tab,
        one that breaks the hostname rule and a bad export option."""
        raw = json.loads(paper_spec_text)
        worker = raw["nodes"][1]

        def node(hostname, *ips, disk_bytes=TIB):
            return {**worker, "hostname": hostname, "disk_bytes": disk_bytes,
                    "interfaces": [{"name": f"eth{i}", "ip": ip}
                                   for i, ip in enumerate(ips)]}
        raw["nodes"] += [
            node("node02", "10.1.3.210"),
            *(node(f"node{i:02d}", "10.1.3.220") for i in (4, 5, 6)),
            node("node07", "10.1.3.221", "10.1.3.222"),
            node("node08", "192.168.7.8"),
            node("node09", "10.1.3.230", disk_bytes=10**9),
            node("node10", "10.1.3.231"),
            node("node11", "10.1.3.232", disk_bytes=100 * GIB),
            node("node12", "10.1.3.233"),
            node("node13", "10.1.3.234", disk_bytes=10**9),
            node("node\t14", "10.1.3.235"),
            node("node15-", "10.1.3.236"),
        ]
        raw["storage"]["export_options"] = ["rw", "no,root"]
        report = validate(parse_spec(json.dumps(raw)))
        assert [(v.code, v.message, v.subject) for v in report] == [
            ("duplicate-hostname", "hostname 'node02' used more than once",
             "node02"),
            ("duplicate-ip", "address 10.1.3.220 assigned to multiple nodes: "
             "node04, node05, node06", "10.1.3.220"),
            ("worker-interfaces", "worker node07 must have exactly 1 "
             "interface", "node07"),
            ("ip-outside-subnet", "worker node08 interface is not inside "
             "10.1.3.0/24", "node08"),
            ("disk-too-small", "node node09: disk too small: need "
             "223862587392 bytes, have 1000000000 (short 222862587392)",
             "node09"),
            ("disk-too-small", "node node11: disk too small: need "
             "223862587392 bytes, have 107374182400 (short 116488404992)",
             "node11"),
            ("disk-too-small", "node node13: disk too small: need "
             "223862587392 bytes, have 1000000000 (short 222862587392)",
             "node13"),
            ("forbidden-whitespace", "hostname 'node\\t14' contains "
             "whitespace", "node\t14"),
            ("bad-name", "hostname 'node15-' does not match "
             "[A-Za-z0-9]([A-Za-z0-9-]{0,61}[A-Za-z0-9])?", "node15-"),
            ("bad-name", "export option 'no,root' does not match "
             "[A-Za-z0-9_=:/.-]+", "no,root"),
        ]


class TestPartitionPlan:
    def test_worker_table(self):
        table = partition_plan(Role.WORKER, TIB)
        got = {e.mountpoint: e.size_bytes for e in table.entries}
        assert got == {"/boot": 500 * MIB, "/home": 100 * GIB,
                       "/": 100 * GIB, "swap": 8 * GIB}
        assert len(table.entries) == 4

    def test_master_table(self):
        table = partition_plan(Role.MASTER, 6 * TIB, 4 * TIB)
        got = {e.mountpoint: e.size_bytes for e in table.entries}
        assert got["swap"] == 16 * GIB
        assert got["/Jugrid"] == 4 * TIB
        assert len(table.entries) == 5

    def test_volume_kinds(self):
        table = partition_plan(Role.WORKER, TIB)
        kinds = {e.mountpoint: e.volume_kind for e in table.entries}
        assert kinds["/boot"] == "boot"
        assert all(k == "lvm" for m, k in kinds.items() if m != "/boot")

    def test_disk_too_small(self):
        with pytest.raises(DiskTooSmallError) as exc:
            partition_plan(Role.WORKER, GIB)
        assert exc.value.shortfall > 0

    def test_output_satisfies_invariants(self):
        table = partition_plan(Role.MASTER, 6 * TIB, 4 * TIB)
        assert all(e.size_bytes > 0 for e in table.entries)
        assert table.total_bytes <= 6 * TIB
        assert sum(1 for e in table.entries if e.mountpoint == "/boot") == 1

    def test_swap_override(self):
        table = partition_plan(Role.WORKER, TIB, swap_bytes=2 * GIB)
        got = {e.mountpoint: e.size_bytes for e in table.entries}
        assert got["swap"] == 2 * GIB


# ---------------------------------------------------------------------------
# Each record's one-expression check must agree with its field-by-field
# reader: `parse_spec` returns what the readers return, or raises their
# exact message, for every record the check lets through or turns away.

def _outcome(text: str):
    try:
        return parse_spec(text)
    except (SpecFormatError, SpecSyntaxError) as exc:
        return type(exc), str(exc)


def _field_by_field(text: str):
    """What `parse_spec` gives with every record read by its reader."""
    with mock.patch.multiple(model, _parse_node=model._read_node,
                             _parse_user=model._read_user):
        return _outcome(text)


def _assert_built_alike(got: model.ClusterSpec,
                        ref: model.ClusterSpec) -> None:
    """Each node, interface and user record of `got`, which the fast paths
    build without the dataclass `__init__`, is its reader-built twin in
    `ref` in repr, hash and field types, and stays a frozen dataclass."""
    pairs = [*zip(got.nodes, ref.nodes), *zip(got.users, ref.users)]
    pairs += [pair for node, twin in zip(got.nodes, ref.nodes)
              for pair in zip(node.interfaces, twin.interfaces)]
    for record, twin in pairs:
        assert type(record) is type(twin)
        assert repr(record) == repr(twin) and hash(record) == hash(twin)
        assert [type(v) for v in vars(record).values()] == \
            [type(v) for v in vars(twin).values()]
        assert list(vars(record)) == [f.name for f in dataclasses.fields(twin)]
        first = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, first, "x")
        assert dataclasses.replace(record) == twin
        assert dataclasses.replace(record, **{first: "x"}) == \
            dataclasses.replace(twin, **{first: "x"})


# a path into the paper spec, to a record one of the fast paths reads, or
# (storage, motd) one that only its field-by-field reader reads
_RECORDS = [("nodes", 0), ("nodes", 1), ("nodes", 0, "interfaces", 0),
            ("nodes", 0, "interfaces", 1), ("nodes", 2, "interfaces", 0),
            ("users", 0), ("storage",), ("motd",)]
_ODD_VALUES = [None, "", True, 2.0, "12", [], {}, 0, ["", ""],
               ["node01", "node03"], [{"name": "eth0"}], "master"]
_PLACEHOLDER = "@record@"


def _record_text(pairs: list) -> str:
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}"
                           for k, v in pairs) + "}"


@st.composite
def _mutated_record(draw, spec_text: bytes) -> tuple[str, list]:
    """The paper spec with one record mutated: a field dropped or set to
    an odd value, an unknown key added, or a key repeated; the spec text
    and the mutated record's key/value pairs."""
    raw = json.loads(spec_text)
    path = draw(st.sampled_from(_RECORDS))
    parent = raw
    for step in path[:-1]:
        parent = parent[step]
    record = parent[path[-1]]
    names = sorted(_known_keys(path))
    pairs = list(record.items())
    for _ in range(draw(st.integers(1, 2))):
        how = draw(st.sampled_from(["drop", "set", "same", "unknown",
                                    "repeat"]))
        key = draw(st.sampled_from(names))
        if how == "drop":
            pairs = [(k, v) for k, v in pairs if k != key]
        elif how in ("set", "same"):  # one field, or several alike
            keys = {key} if how == "set" else set(draw(
                st.lists(st.sampled_from(names), min_size=2)))
            value = draw(st.sampled_from(_ODD_VALUES))
            pairs = [(k, v) for k, v in pairs if k not in keys]
            pairs += [(k, value) for k in sorted(keys)]
        elif how == "unknown":
            pairs.append(("colour", "blue"))
        elif pairs:
            k, v = draw(st.sampled_from(pairs))
            pairs.insert(draw(st.integers(0, len(pairs))), (k, v))
    parent[path[-1]] = _PLACEHOLDER
    text = json.dumps(raw).replace(json.dumps(_PLACEHOLDER),
                                   _record_text(pairs))
    return text, pairs


def _known_keys(path) -> frozenset:
    if "interfaces" in path:
        return model._KNOWN[InterfaceSpec]
    return model._KNOWN[{"nodes": NodeSpec, "users": model.UserSpec,
                         "storage": model.StorageSpec,
                         "motd": model.MotdSpec}[path[0]]]


def _first_repeat(pairs: list):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            return key
        seen.add(key)
    return None


class TestFastPaths:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(data=st.data())
    def test_records_read_as_field_by_field(self, paper_spec_text, data):
        text, pairs = data.draw(_mutated_record(paper_spec_text))
        got, ref = _outcome(text), _field_by_field(text)
        assert got == ref
        if isinstance(got, model.ClusterSpec):
            _assert_built_alike(got, ref)
        repeat = _first_repeat(pairs)
        if repeat is not None:
            assert got == (SpecSyntaxError, f"duplicate key {repeat!r}")

    @pytest.mark.parametrize("path,key", [
        (("users", 0), "home"), (("users", 0), "shell"),
        (("nodes", 1), "swap_bytes"), (("nodes", 1, "interfaces", 0), "ip"),
        (("storage",), "mountpoint_on_workers"), (("motd",), "banner")])
    def test_null_is_not_absent(self, paper_spec_text, path, key):
        raw = json.loads(paper_spec_text)
        record = raw
        for step in path:
            record = record[step]
        record[key] = None
        text = json.dumps(raw)
        assert _outcome(text) == _field_by_field(text)
        if key not in ("swap_bytes", "ip"):  # the two nullable fields
            assert _outcome(text)[0] is SpecFormatError


def _reference_internal_ip(node: NodeSpec, subnet: str):
    """`internal_ip` as `ipaddress` alone answers it."""
    net = ipaddress.ip_network(subnet)
    for iface in node.interfaces:
        if iface.ip is not None:
            try:
                if ipaddress.ip_address(iface.ip) in net:
                    return iface.ip
            except ValueError:
                continue
    return None


_SUBNETS = ["10.1.3.0/24", "10.0.0.0/8", "0.0.0.0/0", "192.168.1.128/25",
            "10.1.3.193/32", "fd00::/8", "::/0", "::ffff:0:0/96"]
_OCTETS = st.one_of(
    st.integers(0, 300).map(str),
    st.sampled_from(["", "00", "01", "007", "-1", "+1", " 1", "1\n", "0x1",
                     "٣", "１", "1_0", "255", "256"]))
_NEAR_IPV4 = st.one_of(
    st.lists(_OCTETS, min_size=4, max_size=4).map(".".join),
    st.lists(_OCTETS, min_size=3, max_size=5).map(".".join),
    st.text(alphabet="0123456789.:/ \nabf٣", max_size=18),
    st.ip_addresses(v=4).map(str),
    st.ip_addresses(network="10.1.3.0/24").map(str),
    st.ip_addresses(v=6).map(str),
    st.sampled_from(["::ffff:10.1.3.5", "10.1.3.5/24", "10.1.3.5%eth0"]))


class TestInternalIp:
    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(ips=st.lists(st.one_of(st.none(), _NEAR_IPV4), min_size=1,
                        max_size=3),
           subnet=st.sampled_from(_SUBNETS))
    @example(ips=["10.1.3.05"], subnet="10.1.3.0/24")
    @example(ips=["010.1.3.5"], subnet="0.0.0.0/0")
    @example(ips=["10.1.3.256", "10.1.3.7"], subnet="10.1.3.0/24")
    @example(ips=["١٠.1.3.5"], subnet="10.1.3.0/24")
    @example(ips=["10.1.3.5\n"], subnet="10.1.3.0/24")
    @example(ips=["10.1.3.5", "::ffff:10.1.3.5"], subnet="::ffff:0:0/96")
    def test_equals_ipaddress_reference(self, ips, subnet):
        node = NodeSpec("n", Role.WORKER,
                        tuple(InterfaceSpec(f"eth{i}", ip)
                              for i, ip in enumerate(ips)), TIB)
        assert node.internal_ip(subnet) == _reference_internal_ip(node, subnet)


def _address_violations(spec) -> list:
    """The `ip-outside-subnet`, `worker-interfaces` and master-address
    violations of `validate`, in order."""
    return [v for v in validate(spec)
            if v.code in ("ip-outside-subnet", "worker-interfaces")
            or v.message.startswith("master address ")]


def _reference_address_violations(spec) -> list:
    """The same violations derived node by node with
    `_reference_internal_ip`."""
    out = []
    for n in spec.nodes:
        internal = _reference_internal_ip(n, spec.subnet)
        if n.role is Role.MASTER:
            if internal is None:
                out.append(model.Violation(
                    "ip-outside-subnet", f"master {n.hostname} has no "
                    f"interface in subnet {spec.subnet}", n.hostname))
        elif len(n.interfaces) != 1:
            out.append(model.Violation(
                "worker-interfaces",
                f"worker {n.hostname} must have exactly 1 interface",
                n.hostname))
        elif internal is None:
            out.append(model.Violation(
                "ip-outside-subnet", f"worker {n.hostname} interface is not "
                f"inside {spec.subnet}", n.hostname))
    master = _reference_internal_ip(spec.nodes[0], spec.subnet)
    if master is not None and not model.ADDRESS.fullmatch(master):
        if re.search(r"\s", master):
            out.append(model.Violation(
                "forbidden-whitespace",
                f"master address {master!r} contains whitespace", master))
        else:
            out.append(model.Violation(
                "bad-name", f"master address {master!r} does not match "
                f"{model.ADDRESS.pattern}", master))
    return out


def _addressed_spec(paper_spec, subnet: str, master_ip, workers: list):
    """`paper_spec` with `subnet`, the master's internal address and one
    worker per tuple of interface addresses."""
    master = paper_spec.nodes[0]
    master = dataclasses.replace(master, interfaces=(
        InterfaceSpec("eth0", master_ip), master.interfaces[1]))
    worker = paper_spec.nodes[1]
    nodes = [master] + [
        dataclasses.replace(worker, hostname=f"node{i:02d}", interfaces=tuple(
            InterfaceSpec(f"eth{j}", ip) for j, ip in enumerate(ips)))
        for i, ips in enumerate(workers, start=1)]
    return dataclasses.replace(paper_spec, subnet=subnet, nodes=tuple(nodes))


_INSIDE = [(f"10.1.3.{i}",) for i in range(2, 7)]


class TestWorkerAddresses:
    """`validate` reads the workers' dotted quads in one pass; its address
    violations equal those `ipaddress` derives node by node."""

    def test_all_inside_in_one_pass(self, paper_spec):
        spec = _addressed_spec(paper_spec, "10.1.3.0/24", "10.1.3.1", _INSIDE)
        assert model._workers_inside(spec)
        assert _address_violations(spec) == []

    @pytest.mark.parametrize("odd", [
        "1.2.3", "0x7f.0.0.1", "010.0.0.1", "10.1.3.9 ", " 10.1.3.9",
        "10.1.3.9\n", "10.1.3.9\n10.1.3.10", "١٠.1.3.9", "１0.1.3.9",
        "::1", "::ffff:10.1.3.9", "fd00::9", "", "10.1.3.256", "10.2.3.9",
        None, (), ("10.1.3.9", "10.1.3.10"), ("10.1.3.9", None)])
    @pytest.mark.parametrize("subnet", ["10.1.3.0/24", "0.0.0.0/0",
                                        "fd00::/8", "::/0"])
    def test_odd_worker_equals_reference(self, paper_spec, odd, subnet):
        ips = odd if type(odd) is tuple else (odd,)
        for at in (0, 2, 5):  # first, middle, last worker
            workers = _INSIDE[:at] + [ips] + _INSIDE[at:]
            spec = _addressed_spec(paper_spec, subnet, "10.1.3.1", workers)
            assert _address_violations(spec) == \
                _reference_address_violations(spec)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(subnet=st.sampled_from(_SUBNETS),
           master_ip=st.one_of(st.none(), _NEAR_IPV4),
           workers=st.lists(st.one_of(
               st.tuples(st.ip_addresses(network="10.1.3.0/24").map(str)),
               st.lists(st.one_of(st.none(), _NEAR_IPV4),
                        max_size=2).map(tuple)), min_size=1, max_size=6))
    def test_generated_equals_reference(self, paper_spec, subnet, master_ip,
                                        workers):
        spec = _addressed_spec(paper_spec, subnet, master_ip, workers)
        assert _address_violations(spec) == \
            _reference_address_violations(spec)


class _Name(str):
    """A str subclass whose `str` and `repr` are not its content."""

    def __str__(self):
        return "other"

    __repr__ = __str__


_TEXT = st.one_of(st.text(max_size=8),
                  st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\t\r\n",
                                   "é", " ", "😀", "\ud800"]))
_INT = st.one_of(st.integers(0, 1 << 45), st.integers(10 ** 29, 10 ** 30 - 1))
_IFACES = st.lists(st.builds(InterfaceSpec, _TEXT,
                             st.one_of(st.none(), _TEXT)),
                   max_size=3).map(tuple)
_NODES = st.builds(NodeSpec, _TEXT, st.sampled_from(Role), _IFACES, _INT,
                   _INT, st.one_of(st.none(), _INT))
_SPECS = st.builds(
    model.ClusterSpec, _TEXT, _TEXT, st.lists(_NODES, max_size=4).map(tuple),
    st.builds(model.StorageSpec, _TEXT, _INT,
              st.lists(_TEXT, max_size=3).map(tuple), _TEXT),
    st.lists(st.builds(model.UserSpec, _TEXT, _TEXT, _TEXT, _TEXT, _INT, _INT),
             max_size=3).map(tuple),
    st.lists(st.builds(model.AppSpec, _TEXT, _TEXT, _TEXT),
             max_size=3).map(tuple),
    st.builds(model.MotdSpec, _TEXT, _TEXT, _TEXT, st.tuples(_TEXT, _TEXT)),
    st.lists(_TEXT, max_size=3).map(tuple))


def _node_edit(**changes):
    """The edit that sets `changes` on a spec's second node."""
    def edit(spec):
        nodes = list(spec.nodes)
        nodes[1] = dataclasses.replace(nodes[1], **changes)
        return dataclasses.replace(spec, nodes=tuple(nodes))
    return edit


# edits through the API that set a value `parse_spec` never gives
_API_EDITS = {
    "disk-true": _node_edit(disk_bytes=True),
    "disk-float": _node_edit(disk_bytes=2.0),
    "swap-false": _node_edit(swap_bytes=False),
    "raid-float": _node_edit(raid_level=3.0),
    "str-subclass-hostname": _node_edit(hostname=_Name("node01")),
    "none-hostname": _node_edit(hostname=None),
    "quota-true": lambda spec: dataclasses.replace(spec, users=(
        dataclasses.replace(spec.users[0], quota_soft_bytes=True),)),
    "size-float": lambda spec: dataclasses.replace(spec, storage=(
        dataclasses.replace(spec.storage, size_bytes=float(4 * TIB)))),
}


class TestCanonicalText:
    """`spec_hash` hashes one canonical text built from the records: the
    sorted-key compact JSON of the spec's dict form."""

    @staticmethod
    def _assert_canonical(spec):
        text = model._canonical_text(spec)
        compact = {"sort_keys": True, "separators": (",", ":")}
        assert text == json.dumps(spec_to_dict(spec), **compact)
        assert text == json.dumps(_asdict_reference(spec), **compact)
        assert spec_hash(spec) == \
            hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert serialize_spec(spec) == json.dumps(
            _asdict_reference(spec), indent=2, sort_keys=True) + "\n"

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(spec=_SPECS)
    def test_generated_specs(self, spec):
        self._assert_canonical(spec)

    @pytest.mark.parametrize("edit", [_with_swap, _without_ip, _empty_ip,
                                      _bare])
    def test_parsed_specs(self, paper_spec_text, edit):
        raw = json.loads(paper_spec_text)
        edit(raw)
        self._assert_canonical(parse_spec(json.dumps(raw)))

    @pytest.mark.parametrize("name", list(_API_EDITS))
    def test_api_built_specs(self, paper_spec, name):
        spec = _API_EDITS[name](paper_spec)
        self._assert_canonical(spec)
        text = model._canonical_text(spec)
        assert "True" not in text and "other" not in text
        if name == "disk-true":
            assert '"disk_bytes":true,' in text
