import json

import pytest

from hepcluster.model import (
    GIB,
    MIB,
    TIB,
    DiskTooSmallError,
    Role,
    SpecFormatError,
    SpecSyntaxError,
    parse_spec,
    partition_plan,
    serialize_spec,
    spec_hash,
    validate,
)


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

    @pytest.mark.parametrize("value", ["lots", None])
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
        with pytest.raises(SpecFormatError, match=key):
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
        raw = json.loads(paper_spec_text)
        obj = raw
        for step in where:
            obj = obj[step]
        obj[key] = f"a{char}b"
        codes = [v.code for v in validate(parse_spec(json.dumps(raw)))]
        assert "forbidden-whitespace" in codes

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
