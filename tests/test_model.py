import dataclasses
import hashlib
import ipaddress
import json
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from hepcluster import model

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


def _asdict_reference(spec) -> dict:
    """The spec dict as `dataclasses.asdict` gives it, patched for JSON."""
    d = dataclasses.asdict(spec)
    for node in d["nodes"]:
        node["role"] = node["role"].value
        node["interfaces"] = [
            {"name": i["name"], **({"ip": i["ip"]} if i["ip"] else {})}
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


def _bare(raw):
    for key in ("users", "apps", "alias_guards"):
        raw.pop(key, None)


class TestSpecDict:
    @pytest.mark.parametrize("edit", [None, _with_swap, _without_ip, _bare],
                             ids=["paper", "swap", "no-ip", "bare"])
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


class TestValidate:
    def test_paper_topology_valid(self, paper_spec):
        assert validate(paper_spec) == []

    def test_validate_is_pure(self, paper_spec):
        assert validate(paper_spec) == validate(paper_spec)

    def test_duplicate_ip_single_violation(self, defect_spec_text):
        report = validate(parse_spec(defect_spec_text))
        assert len(report) == 1
        assert report[0].code == "duplicate-ip"
        assert "10.1.3.195" in report[0].message

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
        (("users", 0), "group", "Users"),
        (("users", 0), "group", "a b"),
        (("users", 0), "shell", "bash"),
        (("users", 0), "shell", "/bin/bash -i"),
        (("nodes", 2), "hostname", "node_02"),
        (("nodes", 2), "hostname", "-node02"),
        (("nodes", 2), "hostname", "n" * 64),
        (("nodes", 2, "interfaces", 0), "name", "eth0;reboot"),
        (("nodes", 2, "interfaces", 0), "name", ""),
    ])
    def test_bad_name(self, paper_spec_text, where, key, value):
        report = validate(_spec_with(paper_spec_text, where, key, value))
        assert [v.subject for v in report if v.code == "bad-name"] == [value]

    @pytest.mark.parametrize("where,key,value", [
        (("users", 0), "group", "_hep-1"),
        (("users", 0), "shell", "/usr/local/bin/zsh-5.9+x"),
        (("nodes", 0), "hostname", "0"),
        (("nodes", 0), "hostname", "a-" + "b" * 61),
        (("nodes", 2, "interfaces", 0), "name", "bond0.100:1"),
    ])
    def test_good_name(self, paper_spec_text, where, key, value):
        assert validate(_spec_with(paper_spec_text, where, key, value)) == []

    def test_spec_without_workers(self, paper_spec_text):
        raw = json.loads(paper_spec_text)
        raw["nodes"] = raw["nodes"][:1]
        raw["motd"]["worker_range"] = ["", ""]
        assert [v.code for v in validate(parse_spec(json.dumps(raw)))] == [
            "no-workers"]

    def test_valid_spec_homes_under_storage(self, paper_spec):
        for user in paper_spec.users:
            assert user.home.startswith(paper_spec.storage.path + "/")


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
        got = _outcome(text)
        assert got == _field_by_field(text)
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
