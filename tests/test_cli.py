import contextlib
import functools
import gc
import io
import json
import operator
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hepcluster.cli import main


def _with_path(field: str, path: str):
    """Edit putting `path` into the paper spec's path field `field`."""
    def edit(raw):
        if field == "storage path":
            raw["storage"]["path"] = path
            raw["apps"] = []  # their install paths must lie under it
        elif field == "worker mountpoint":
            raw["storage"]["mountpoint_on_workers"] = path
        else:
            raw["apps"][0]["install_path"] = path
    return edit


# (id, field, value): shell syntax in each path that configgen writes into
# shell text unquoted
_SHELL_PATHS = [
    (f"{slug}-{syntax}", field, base + text)
    for slug, field, base in [
        ("storage-path", "storage path", "/Jugrid"),
        ("mountpoint", "worker mountpoint", "/Jugrid"),
        ("install-path", "app root install_path", "/Jugrid/alice/root")]
    for syntax, text in [("subshell", "$(id)"), ("backtick", "`id`"),
                         ("semicolon", ";id")]]


@pytest.fixture
def spec_file(paper_spec_text, tmp_path):
    path = tmp_path / "cluster.spec.json"
    path.write_bytes(paper_spec_text)
    return str(path)


@pytest.fixture
def defect_file(defect_spec_text, tmp_path):
    path = tmp_path / "defect.spec.json"
    path.write_bytes(defect_spec_text)
    return str(path)


@pytest.fixture
def state_file(tmp_path):
    return str(tmp_path / "fleet.json")


class TestValidate:
    def test_valid_spec(self, spec_file, capsys):
        assert main(["validate", spec_file]) == 0
        assert "spec OK" in capsys.readouterr().out

    def test_duplicate_ip_exits_1(self, defect_file, capsys):
        assert main(["validate", defect_file]) == 1
        out = capsys.readouterr().out
        assert "duplicate-ip" in out

    def test_unparsable_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["validate", str(bad)]) == 1
        assert "spec error" in capsys.readouterr().err

    def test_spec_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"name": "\xff"}')
        assert main(["validate", str(bad)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("spec error: spec is not UTF-8 text")

    @pytest.mark.parametrize("text", ["[]", '"spec"', "1", "null"])
    def test_non_object_spec(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "spec error: spec file must contain a JSON object\n")

    @pytest.mark.parametrize("command", ["validate", "plan", "apply"])
    def test_non_integer_disk_bytes(self, paper_spec_text, tmp_path, capsys,
                                    command):
        raw = json.loads(paper_spec_text)
        raw["nodes"][1]["disk_bytes"] = "lots"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        state = tmp_path / "fleet.json"
        argv = [command, str(bad)]
        if command != "validate":
            argv += ["--state", str(state)]
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("spec error: ")
        assert "disk_bytes" in lines[0]
        assert not state.exists()


    @pytest.mark.parametrize("command", ["validate", "plan", "apply", "gen",
                                         "status", "monitor", "power"])
    @pytest.mark.parametrize("edit,fragment", [
        (lambda raw: raw["nodes"][1].update(swap_bytes="x"),
         "spec error: swap_bytes"),
        (lambda raw: raw["nodes"][0].update(disk_bytes=1000000000),
         "violation [disk-too-small]"),
        (lambda raw: raw["users"][0].update(quota_hard_bytes=2097152.9),
         "spec error: quota_hard_bytes 2097152.9 in user 'user1' is not an "
         "integer"),
        (lambda raw: raw["motd"].update(banner="a\nb"),
         "violation [forbidden-whitespace]"),
        (lambda raw: raw["storage"].update(mountpoint_on_workers="/Jug rid"),
         "violation [forbidden-whitespace] worker mountpoint '/Jug rid' "
         "contains whitespace"),
        (lambda raw: raw.update(nodes=raw["nodes"][:1],
                                motd={**raw["motd"], "worker_range": ["", ""]}),
         "violation [no-workers]"),
        (lambda raw: raw["users"][0].update(username="x; rm -rf /",
                                            home="/Jugrid/x; rm -rf /"),
         "violation [bad-name] username 'x; rm -rf /'"),
        (lambda raw: raw["nodes"][1].update(role="login"),
         "spec error: unknown role 'login' in node 'node01'"),
        (lambda raw: raw["apps"][0].update(name="pythia"),
         "spec error: unknown app name 'pythia', expected one of "
         "('root', 'aliroot', 'geant3')"),
        (lambda raw: raw.update(subnet="10.1.3.0/33"),
         "violation [bad-subnet] subnet '10.1.3.0/33' is not a CIDR"),
        (lambda raw: raw["nodes"][0].update(
            interfaces=raw["nodes"][0]["interfaces"][:1]),
         "violation [master-interfaces] master node00 needs at least 2 "
         "interfaces"),
        (lambda raw: raw["nodes"][0]["interfaces"][0].update(ip="10.1.4.193"),
         "violation [ip-outside-subnet] master node00 has no interface in "
         "subnet 10.1.3.0/24"),
        (lambda raw: raw["storage"].update(mountpoint_on_workers="Jugrid"),
         "violation [storage-mountpoint] worker mountpoint must be absolute"),
        (lambda raw: raw["storage"].update(size_bytes=0),
         "violation [storage-size] storage size must be positive"),
        (lambda raw: raw["storage"].update(export_options=[]),
         "violation [export-options] export options must be non-empty"),
        (lambda raw: raw.update(alias_guards=["root", "x$(id)"]),
         "violation [bad-name] alias guard 'x$(id)' does not match "
         "[A-Za-z0-9_][A-Za-z0-9_.+-]*"),
        (lambda raw: raw["storage"].update(export_options=["rw),*(rw"]),
         "violation [bad-name] export option 'rw),*(rw' does not match "
         "[A-Za-z0-9_=:/.-]+"),
    ] + [(_with_path(field, value), f"violation [bad-name] {field} {value!r} "
          "does not match /[A-Za-z0-9_./+-]*")
         for _, field, value in _SHELL_PATHS],
        ids=["swap-bytes", "disk-too-small", "quota-float", "banner-newline",
             "mountpoint-space", "no-workers", "bad-username", "unknown-role",
             "unknown-app", "bad-subnet", "master-interfaces",
             "master-outside-subnet", "relative-mountpoint", "storage-size",
             "no-export-options", "bad-alias-guard", "export-option-paren"]
        + [f"shell-in-{case}" for case, _, _ in _SHELL_PATHS])
    def test_spec_that_cannot_plan_fails_validation(
            self, paper_spec_text, tmp_path, capsys, command, edit, fragment):
        raw = json.loads(paper_spec_text)
        edit(raw)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        state = tmp_path / "fleet.json"
        argv = [command, str(bad), "--state", str(state)]
        if command == "validate":
            argv = ["validate", str(bad)]
        elif command == "gen":
            argv = ["gen", "users", str(bad)]
        elif command == "power":
            argv.insert(1, "on")
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).splitlines()
        assert len(lines) == 1 and lines[0].startswith(fragment)
        assert "Traceback" not in captured.err
        assert not state.exists()

    @pytest.mark.parametrize("existing", [False, True],
                             ids=["no-state", "state"])
    @pytest.mark.parametrize("command", [["status"], ["monitor"], ["plan"],
                                         ["apply"], ["power", "on"]],
                             ids=lambda c: "-".join(c))
    def test_master_as_worker_fails_validation(
            self, spec_file, paper_spec_text, tmp_path, capsys, command,
            existing):
        state = tmp_path / "fleet.json"
        if existing:
            assert main(["apply", spec_file, "--state", str(state)]) == 0
            capsys.readouterr()
        before = state.read_bytes() if existing else b""
        raw = json.loads(paper_spec_text)
        raw["nodes"][0]["role"] = "worker"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main([*command, str(bad), "--state", str(state)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert lines and all(l.startswith("violation [") for l in lines)
        assert "violation [no-master] no node has role master" in lines
        assert state.exists() == existing
        if existing:
            assert state.read_bytes() == before

    @pytest.mark.parametrize("command", ["validate", "plan", "apply"])
    @pytest.mark.parametrize("repeat", [
        {"group": "other"}, {"quota_soft_bytes": 1, "quota_hard_bytes": 2}],
        ids=["other-group", "other-quotas"])
    def test_duplicate_username_fails_validation(
            self, paper_spec_text, tmp_path, command, repeat):
        """A second copy of user1 is one violation, not a spec that every
        `apply` leaves `partial` with one action pending."""
        raw = json.loads(paper_spec_text)
        raw["users"].append({**raw["users"][0], **repeat})
        bad, state = tmp_path / "bad.json", tmp_path / "fleet.json"
        bad.write_text(json.dumps(raw))
        argv = [command, str(bad)]
        if command != "validate":
            argv += ["--state", str(state)]
        assert _run(argv) == (1, [
            "violation [duplicate-user] username 'user1' used more than once"])
        assert not state.exists()

    @pytest.mark.parametrize("command", [["validate"], ["gen", "fstab"],
                                         ["plan"], ["apply"]],
                             ids=lambda c: "-".join(c))
    def test_master_zone_with_whitespace_fails_validation(
            self, ipv6_spec_text, tmp_path, command):
        """A tab in the master's zone would split each worker's fstab line:
        a violation, not a traceback from the file generator."""
        bad, state = tmp_path / "bad.json", tmp_path / "fleet.json"
        bad.write_bytes(ipv6_spec_text("fe80::1%eth0\tx"))
        argv = [*command, str(bad)]
        if command[0] in ("plan", "apply"):
            argv += ["--state", str(state)]
        assert _run(argv) == (1, [
            "violation [forbidden-whitespace] master address "
            "'fe80::1%eth0\\tx' contains whitespace"])
        assert not state.exists()


class TestGen:
    def test_exports(self, spec_file, capsys):
        assert main(["gen", "exports", spec_file]) == 0
        assert capsys.readouterr().out == \
            "/Jugrid node01(rw,rsync) node02(rw,rsync) node03(rw,rsync)\n"

    def test_all_artifacts_deterministic(self, spec_file, capsys):
        for artifact in ("exports", "fstab", "env", "aliases", "motd",
                         "users", "quotas"):
            assert main(["gen", artifact, spec_file]) == 0
            first = capsys.readouterr().out
            assert main(["gen", artifact, spec_file]) == 0
            assert capsys.readouterr().out == first

    def test_unknown_artifact_usage_error(self, spec_file, capsys):
        assert main(["gen", "sudoers", spec_file]) == 4

    @pytest.mark.parametrize("artifact,what", [
        ("env", "apps"), ("aliases", "alias_guards"), ("quotas", "user quotas"),
    ])
    def test_artifact_the_spec_does_not_define(
            self, paper_spec_text, tmp_path, capsys, artifact, what):
        raw = json.loads(paper_spec_text)
        del raw["apps"], raw["alias_guards"]
        for user in raw["users"]:
            user.pop("quota_soft_bytes", None)
            user.pop("quota_hard_bytes", None)
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(raw))
        assert main(["validate", str(bare)]) == 0
        capsys.readouterr()
        assert main(["gen", artifact, str(bare)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"spec error: spec defines no {what}\n"


    @pytest.mark.parametrize("artifact,host,slug", [
        ("exports", "node00", "exports"),
        ("fstab", "node01", "persist-mount"),
        ("env", "node02", "env-profile"),
        ("aliases", "node00", "alias-guards"),
        ("motd", "node00", "motd"),
    ])
    def test_gen_prints_what_apply_writes(self, spec_file, state_file,
                                          capsys, artifact, host, slug):
        assert main(["gen", artifact, spec_file]) == 0
        printed = capsys.readouterr().out
        assert main(["plan", spec_file, "--state", state_file,
                     "--format", "machine"]) == 0
        plan = json.loads(capsys.readouterr().out)
        [action] = [a for a in plan["actions"] if a["target"] == host
                    and a["id"].endswith(f"-{slug}")]
        assert plan["blobs"][action["payload"]["digest"]] == printed


class TestPlanApply:
    def test_plan_machine_format(self, spec_file, state_file, capsys):
        assert main(["plan", spec_file, "--state", state_file,
                     "--format", "machine"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["actions"]
        assert "spec_hash" in plan

    def test_machine_outputs_pinned(self, spec_file, state_file, capsys):
        """Byte-stable outputs for the example spec on a fresh state."""
        import hashlib
        from hepcluster.model import parse_spec
        from hepcluster.simfleet import SimFleet

        def digest(argv):
            assert main(argv + ["--state", state_file,
                                "--format", "machine"]) == 0
            return hashlib.sha256(
                capsys.readouterr().out.encode()).hexdigest()

        assert digest(["plan", spec_file]) == (
            "1b6d387df08f87474db6852d8173bceba91240431ba5ba8807dbeb11873a2138")
        assert digest(["apply", spec_file]) == (
            "542c70abb25fb08bf4ae145108cbaf6e2742f0435eb2642f367b48e7c383b65c")
        with open(spec_file, "rb") as f:
            spec = parse_spec(f.read())
        # the state hash covers the file form, so it follows STATE_FORMAT
        assert SimFleet.load(state_file, spec).state_hash() == (
            "f051ef1cafb488f4f57f581d7dd9f66c34d2dd115a0fef8a1f476bc59e133475")

    def test_plan_of_phases_over_100_rows_pinned(self, scaled_spec, tmp_path,
                                                 state_file, capsys):
        """P5 and P6 hold 120 rows each, numbered `-00-` to `-119-`, in
        the order that sorting the ids gives: `-100-` before `-11-`."""
        import hashlib
        spec = tmp_path / "scaled.spec.json"
        spec.write_text(json.dumps(scaled_spec(3, 120)))
        assert main(["plan", str(spec), "--state", state_file,
                     "--format", "machine"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() \
            == "e8606a48ceca99b8ccfbafbb471100f2e8a097f130016ab88f6575597b125757"

    def test_apply_then_reapply_idempotent(self, spec_file, state_file, capsys):
        assert main(["apply", spec_file, "--state", state_file]) == 0
        first = capsys.readouterr().out
        assert "applied" in first
        # second invocation loads the persisted state and does nothing
        assert main(["apply", spec_file, "--state", state_file]) == 0
        second = capsys.readouterr().out
        assert "nothing to do" in second

    def test_plan_does_not_mutate_state(self, spec_file, state_file, capsys):
        import hashlib, pathlib
        assert main(["apply", spec_file, "--state", state_file]) == 0
        capsys.readouterr()
        before = hashlib.sha256(
            pathlib.Path(state_file).read_bytes()).hexdigest()
        assert main(["plan", spec_file, "--state", state_file]) == 0
        assert main(["status", spec_file, "--state", state_file]) == 0
        assert main(["monitor", spec_file, "--state", state_file]) == 0
        after = hashlib.sha256(
            pathlib.Path(state_file).read_bytes()).hexdigest()
        assert before == after

    def test_apply_invalid_spec(self, defect_file, state_file, capsys):
        assert main(["apply", defect_file, "--state", state_file]) == 1

    def test_missing_state_flag(self, spec_file, capsys):
        assert main(["apply", spec_file]) == 4

    def test_deterministic_stdout(self, spec_file, tmp_path, capsys):
        outs = []
        for i in range(2):
            state = str(tmp_path / f"fleet{i}.json")
            assert main(["apply", spec_file, "--state", state]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestPaths:
    """A spec or state path that is a directory is a file error, exit 3."""

    def _fails_with_file_error(self, argv, directory, capsys):
        (directory / "keep").write_text("x")
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("file error: ")
        assert [p.name for p in directory.iterdir()] == ["keep"]
        assert (directory / "keep").read_text() == "x"

    @pytest.mark.parametrize("command", ["validate", "plan", "status",
                                         "apply"])
    def test_directory_as_spec(self, tmp_path, state_file, capsys, command):
        directory = tmp_path / "spec.d"
        directory.mkdir()
        argv = [command, str(directory)]
        if command != "validate":
            argv += ["--state", state_file]
        self._fails_with_file_error(argv, directory, capsys)

    @pytest.mark.parametrize("command", ["plan", "status", "apply"])
    def test_directory_as_state(self, spec_file, tmp_path, capsys, command):
        directory = tmp_path / "state.d"
        directory.mkdir()
        self._fails_with_file_error(
            [command, spec_file, "--state", str(directory)], directory, capsys)


class TestPowerStatus:
    def test_power_on_then_status(self, spec_file, state_file, capsys):
        assert main(["power", "on", spec_file, "--state", state_file]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "node" in l]
        assert lines[0].endswith("node00")
        assert main(["status", spec_file, "--state", state_file]) == 0
        status = capsys.readouterr().out
        # nodes are on but storage not yet mounted
        assert "node00" in status and "degraded" in status

    def test_power_off_lists_workers_first(self, spec_file, state_file,
                                           capsys):
        main(["power", "on", spec_file, "--state", state_file])
        capsys.readouterr()
        assert main(["power", "off", spec_file, "--state", state_file]) == 0
        out = capsys.readouterr().out
        order = [l.split()[-1] for l in out.splitlines()]
        assert order.index("node00") > order.index("node03")

    def test_power_on_when_on(self, spec_file, state_file, capsys):
        main(["power", "on", spec_file, "--state", state_file])
        capsys.readouterr()
        assert main(["power", "on", spec_file, "--state", state_file]) == 0
        out = capsys.readouterr().out
        assert "applied " not in out
        assert "already_satisfied" in out

    def test_status_after_apply_all_up(self, spec_file, state_file, capsys):
        main(["apply", spec_file, "--state", state_file])
        capsys.readouterr()
        assert main(["status", spec_file, "--state", state_file,
                     "--format", "machine"]) == 0
        health = json.loads(capsys.readouterr().out)["health"]
        assert set(health.values()) == {"up"}


class TestMonitor:
    def test_table_output(self, spec_file, state_file, capsys):
        main(["apply", spec_file, "--state", state_file])
        capsys.readouterr()
        assert main(["monitor", spec_file, "--state", state_file]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split()[0] == "NODE"
        assert "1000.0" in out

    def test_machine_output(self, spec_file, state_file, capsys):
        main(["apply", spec_file, "--state", state_file])
        capsys.readouterr()
        assert main(["monitor", spec_file, "--state", state_file,
                     "--format", "machine", "--interval", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(r["rx_rate"] == 1000.0 for r in data["rates"])

    def test_zero_rate_reads_idle(self, spec_file, state_file, capsys):
        main(["apply", spec_file, "--state", state_file])
        capsys.readouterr()
        assert main(["monitor", spec_file, "--state", state_file,
                     "--format", "machine", "--rate", "0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(r["rx_rate"] == 0.0 for r in data["rates"])

    def test_byte_stable(self, spec_file, state_file, capsys):
        main(["apply", spec_file, "--state", state_file])
        capsys.readouterr()
        outs = []
        for _ in range(2):
            assert main(["monitor", spec_file, "--state", state_file]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_interval_lost_in_a_huge_clock(self, spec_file, state_file,
                                           capsys):
        # 1e300 + 2.0 == 1e300: the two samples share one timestamp
        main(["apply", spec_file, "--state", state_file])
        with open(state_file) as f:
            raw = json.load(f)
        raw["clock"] = 1e300
        with open(state_file, "w") as f:
            json.dump(raw, f)
        capsys.readouterr()
        assert main(["monitor", spec_file, "--state", state_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "transport error: monitor interval produced no time window"]


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 4

    def test_usage_error_never_touches_state(self, spec_file, tmp_path,
                                             capsys):
        state = tmp_path / "untouched.json"
        for flags in (["--bogus"], ["--max-parallel", "2"]):
            assert main(["apply", spec_file, "--state", str(state),
                         *flags]) == 4
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("usage error: ")
            assert not state.exists()
            assert not (tmp_path / "untouched.json.lock").exists()

    @pytest.mark.parametrize("flags", [
        ["--interval", "0"], ["--interval", "-1"], ["--interval", "nan"],
        ["--interval", "inf"], ["--rate", "nan"], ["--rate", "inf"],
        ["--interval", "1e300", "--rate", "1e300"], ["--rate", "-1"],
        ["--rate", "-1000"]])
    def test_monitor_bad_numbers(self, spec_file, state_file, capsys, flags):
        assert main(["apply", spec_file, "--state", state_file]) == 0
        capsys.readouterr()
        with open(state_file, "rb") as f:
            before = f.read()
        assert main(["monitor", spec_file, "--state", state_file]
                    + flags) == 4
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: ")
        assert "Traceback" not in captured.err and captured.out == ""
        with open(state_file, "rb") as f:
            assert f.read() == before

    def test_missing_spec_file(self, state_file, capsys):
        assert main(["validate", "/nonexistent/spec.json"]) == 3


class TestStateFile:
    """A state file `load` cannot read exits 3 with one line, no traceback."""

    @staticmethod
    def _converge(spec_file, state_file, capsys):
        assert main(["apply", spec_file, "--state", state_file]) == 0
        capsys.readouterr()
        with open(state_file) as f:
            return json.load(f)

    @staticmethod
    def _assert_state_error(argv, capsys, fragment):
        assert main(argv) == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("state error: ")
        assert fragment in lines[0] and "Traceback" not in captured.err

    @pytest.mark.parametrize("command", [["plan"], ["apply"], ["status"],
                                         ["monitor"], ["power", "on"]])
    def test_bad_json(self, spec_file, state_file, capsys, command):
        with open(state_file, "w") as f:
            f.write('{"format": 2, "nodes": {')
        self._assert_state_error(
            [*command, spec_file, "--state", state_file], capsys,
            "not valid JSON")

    def test_old_format_rejected(self, spec_file, state_file, capsys):
        raw = self._converge(spec_file, state_file, capsys)
        del raw["format"]
        with open(state_file, "w") as f:
            json.dump(raw, f)
        self._assert_state_error(["apply", spec_file, "--state", state_file],
                                 capsys, "delete it and re-run apply")

    def test_missing_blob(self, spec_file, state_file, capsys, state_record):
        raw = self._converge(spec_file, state_file, capsys)
        digest = state_record(raw, "node02")["files"]["/etc/fstab"]
        del raw["blobs"][digest]
        with open(state_file, "w") as f:
            json.dump(raw, f)
        self._assert_state_error(["plan", spec_file, "--state", state_file],
                                 capsys, f"missing blob {digest}")

    def test_format_2_rejected(self, spec_file, state_file, capsys):
        raw = self._converge(spec_file, state_file, capsys)
        raw["format"] = 2
        with open(state_file, "w") as f:
            json.dump(raw, f)
        self._assert_state_error(["plan", spec_file, "--state", state_file],
                                 capsys, "not a format-4 state file")

    def test_format_3_rejected(self, spec_file, state_file, capsys,
                               state_record):
        """A format-3 file, which stored one record per node."""
        raw = self._converge(spec_file, state_file, capsys)
        raw["nodes"] = {h: state_record(raw, h) for h in raw["nodes"]}
        del raw["records"]
        raw["format"] = 3
        with open(state_file, "w") as f:
            json.dump(raw, f)
        for command in (["status"], ["plan"], ["apply"]):
            self._assert_state_error(
                [*command, spec_file, "--state", state_file], capsys,
                "not a format-4 state file; delete it and re-run apply")

    @pytest.mark.parametrize("text,fragment", [
        (None, "missing blob"),
        ("{nope", "damaged (JSONDecodeError"),
    ], ids=["missing", "not-json"])
    def test_bad_account_blob(self, spec_file, state_file, capsys, text,
                              fragment, state_record):
        import hashlib
        raw = self._converge(spec_file, state_file, capsys)
        digest = state_record(raw, "node02")["accounts"]
        if text is None:
            del raw["blobs"][digest]
        else:  # a blob that matches its digest but is no account table
            digest = hashlib.sha256(text.encode()).hexdigest()
            raw["blobs"][digest] = text
            state_record(raw, "node02")["accounts"] = digest
        with open(state_file, "w") as f:
            json.dump(raw, f)
        self._assert_state_error(["status", spec_file, "--state", state_file],
                                 capsys, fragment)

    @pytest.mark.parametrize("command", ["status", "plan", "apply"])
    def test_blob_not_matching_its_digest(self, spec_file, state_file, capsys,
                                          command, state_record):
        raw = self._converge(spec_file, state_file, capsys)
        digest = state_record(raw, "node02")["files"]["/etc/fstab"]
        assert " nfs " in raw["blobs"][digest]
        raw["blobs"][digest] = raw["blobs"][digest].replace(" nfs ", " xfs ")
        with open(state_file, "w") as f:
            json.dump(raw, f)
        with open(state_file, "rb") as f:
            before = f.read()
        self._assert_state_error(
            [command, spec_file, "--state", state_file], capsys,
            f"damaged (ValueError: blob {digest} does not match its digest)")
        with open(state_file, "rb") as f:
            assert f.read() == before

    @pytest.mark.parametrize("command", [["apply"], ["power", "on"],
                                         ["monitor"], ["status"]])
    @pytest.mark.parametrize("path,value,error", [
        (("nodes", "node00", "markers", 0), 1.5,
         "TypeError: marker 1.5 is not str"),
        (("nodes", "node01", "counters", "eth0"), "x",
         "TypeError: counter 'x' is not a pair of int"),
        (("nodes", "node00", "quotas", "user1"), [1, 2.5],
         "TypeError: quota [1, 2.5] is not a pair of int"),
        (("nodes", "node01", "mounts", 0), "a",
         "TypeError: mount 'a' is not a pair of str"),
        (("nodes", "node01", "power"), 5,
         "ValueError: power 5 is not on or off"),
        (("nodes", "node01", "unreachable"), 0,
         "TypeError: unreachable 0 is not bool"),
        (("nodes", "node00", "quota_enabled"), "yes",
         "TypeError: quota_enabled 'yes' is not bool"),
        (("clock",), "x", "TypeError: clock 'x' is not float"),
        (("clock",), float("inf"), "ValueError: clock inf is not finite"),
        (("nodes", "node00", "markers"), "on",
         "TypeError: markers 'on' is not list"),
        (("nodes", "node01", "mounts"), "",
         "TypeError: mounts '' is not list"),
        (("nodes", "node01", "mounts"), {},
         "TypeError: mounts {} is not list"),
        (("nodes", "node02"), True,
         "ValueError: node node02 record index True is not an int in 0..1"),
        (("nodes", "node02"), -1,
         "ValueError: node node02 record index -1 is not an int in 0..1"),
        (("nodes", "node02"), 2,
         "ValueError: node node02 record index 2 is not an int in 0..1"),
        (("nodes", "node02"), "1",
         "ValueError: node node02 record index '1' is not an int in 0..1"),
    ], ids=["marker", "counter", "quota", "mount", "power", "unreachable",
            "quota-enabled", "clock-str", "clock-inf", "markers-str",
            "mounts-str", "mounts-object", "index-bool", "index-negative",
            "index-out-of-range", "index-str"])
    def test_value_of_wrong_type(self, spec_file, state_file, capsys, command,
                                 path, value, error, state_record):
        raw = self._converge(spec_file, state_file, capsys)
        parent = raw
        # ("nodes", host, field, ...) is a field of host's record
        if path[:1] == ("nodes",) and len(path) > 2:
            parent, path = state_record(raw, path[1]), path[2:]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with open(state_file, "w") as f:
            json.dump(raw, f)
        self._assert_state_error(
            [*command, spec_file, "--state", state_file], capsys,
            f"is damaged ({error})")

    def test_converged_apply_leaves_file_untouched(self, spec_file,
                                                   state_file, capsys):
        import hashlib
        from hepcluster.model import parse_spec
        from hepcluster.simfleet import SimFleet
        self._converge(spec_file, state_file, capsys)
        with open(state_file, "rb") as f:
            before = f.read()
        stat = os.stat(state_file)
        assert main(["apply", spec_file, "--state", state_file]) == 0
        assert "nothing to do" in capsys.readouterr().out
        with open(state_file, "rb") as f:
            assert f.read() == before
        after = os.stat(state_file)
        assert (after.st_ino, after.st_mtime_ns) == (stat.st_ino,
                                                     stat.st_mtime_ns)
        with open(spec_file, "rb") as f:
            spec = parse_spec(f.read())
        # the untouched file is still the canonical text state_hash hashes
        assert SimFleet.load(state_file, spec).state_hash() == (
            hashlib.sha256(before.rstrip(b"\n")).hexdigest())

    def test_apply_that_runs_an_action_saves(self, spec_file, state_file,
                                             capsys):
        from hepcluster.model import parse_spec
        from hepcluster.simfleet import SimFleet
        self._converge(spec_file, state_file, capsys)
        with open(spec_file, "rb") as f:
            spec = parse_spec(f.read())
        fleet = SimFleet.load(state_file, spec)
        fleet.inject_fault("node03", "crash")
        fleet.save(state_file)
        stat = os.stat(state_file)
        assert main(["apply", spec_file, "--state", state_file]) == 0
        assert "applied" in capsys.readouterr().out
        assert os.stat(state_file).st_ino != stat.st_ino
        assert SimFleet.load(state_file, spec).nodes["node03"].power == "on"

    def test_state_file_shares_file_content(self, spec_file, state_file,
                                            capsys, state_record):
        raw = self._converge(spec_file, state_file, capsys)
        assert raw["format"] == 4
        from hepcluster.configgen import SSH_AUTHORIZED_KEYS_PATH
        keys = {state_record(raw, h)["files"][SSH_AUTHORIZED_KEYS_PATH]
                for h in raw["nodes"]}
        assert len(keys) == 1 and keys <= set(raw["blobs"])

    @pytest.mark.parametrize("command", [["apply"], ["power", "on"]])
    def test_busy_lock_fails_fast(self, spec_file, state_file, capsys,
                                  command):
        import fcntl
        with open(state_file + ".lock", "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert main([*command, spec_file, "--state", state_file]) == 3
        captured = capsys.readouterr()
        assert captured.err == (f"transport error: state file {state_file} "
                                "is locked by another invocation\n")
        assert captured.out == "" and not os.path.exists(state_file)

    @pytest.mark.parametrize("command", [["apply"], ["power", "on"]])
    def test_lock_held_while_fleet_loads(self, spec_file, state_file, capsys,
                                         monkeypatch, command):
        import fcntl
        from hepcluster import cli
        self._converge(spec_file, state_file, capsys)
        held = []
        original = cli.SimFleet.load

        def load(path, spec):
            with open(state_file + ".lock") as f:
                try:
                    fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    held.append(True)
                else:
                    fcntl.flock(f, fcntl.LOCK_UN)
                    held.append(False)
            return original(path, spec)

        monkeypatch.setattr(cli.SimFleet, "load", load)
        assert main([*command, spec_file, "--state", state_file]) == 0
        assert held == [True]


def _json_paths(value, path=()):
    """The path of every value nested in a JSON document."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                     st.text(max_size=8))
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                    st.dictionaries(st.text(max_size=8), _SCALARS,
                                    max_size=3))


@st.composite
def _mutated(draw, text: bytes) -> bytes:
    """The JSON document `text` truncated, with one byte flipped, or with
    one JSON value replaced or deleted."""
    how = draw(st.sampled_from(["replace", "delete", "truncate", "flip"]))
    if how == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if how == "flip":
        at = draw(st.integers(0, len(text) - 1))
        return (text[:at] + bytes([text[at] ^ draw(st.integers(1, 255))])
                + text[at + 1:])
    raw = json.loads(text)
    path = draw(st.sampled_from(list(_json_paths(raw))))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if how == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_VALUES)
    return json.dumps(raw).encode()


def _run(argv) -> tuple[int, list[str]]:
    """Exit code of `main`, and the lines it printed to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, (out.getvalue() + err.getvalue()).splitlines()


def test_installed_entry_point(paper_spec_text, tmp_path):
    """`python -m hepcluster.cli` runs `entry`, the installed script's
    target, which exits with `main`'s code and prints no traceback."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    truncated = tmp_path / "cluster.spec.json"
    truncated.write_bytes(paper_spec_text[:len(paper_spec_text) // 2])
    for argv, code, start in [
            (["validate", str(root / "docs" / "cluster.spec.json")], 0,
             "spec OK: 4 nodes, 1 users"),
            (["validate", str(truncated)], 1, "spec error: "),
            (["frobnicate"], 4, "usage error: ")]:
        run = subprocess.run([sys.executable, "-m", "hepcluster.cli", *argv],
                             capture_output=True, text=True, env=env,
                             cwd=tmp_path, timeout=60)
        lines = (run.stdout + run.stderr).splitlines()
        assert run.returncode == code, lines
        assert len(lines) == 1 and lines[0].startswith(start), lines
        assert "Traceback" not in run.stdout + run.stderr


@pytest.fixture(scope="module")
def converged_state(paper_spec_text, tmp_path_factory) -> bytes:
    """The paper fleet's state file after one `apply`."""
    tmp = tmp_path_factory.mktemp("converged")
    spec, state = tmp / "cluster.spec.json", tmp / "fleet.json"
    spec.write_bytes(paper_spec_text)
    assert _run(["apply", str(spec), "--state", str(state)])[0] == 0
    return state.read_bytes()


# a name far longer than any valid one
_LONG = "n" * 100_000
# as long, and ending in a line break
_BROKEN = _LONG[1:] + "\n"


class TestErrorContract:
    # JSON that `json.loads` rejects with a plain ValueError (an integer
    # literal past Python's 4300-digit limit) or a RecursionError
    _UNREADABLE = {"huge-integer": '"disk_bytes": ' + "9" * 5001,
                   "deep-nesting": "[" * 200_000}

    @pytest.mark.parametrize("command", ["validate", "plan", "apply"])
    @pytest.mark.parametrize("damage", sorted(_UNREADABLE))
    def test_spec_json_python_cannot_read(self, paper_spec_text, tmp_path,
                                          command, damage):
        text = self._UNREADABLE[damage]
        if damage == "huge-integer":  # in place of node01's disk size
            raw = json.loads(paper_spec_text)
            raw["nodes"][1]["disk_bytes"] = 123454321
            text = json.dumps(raw).replace('"disk_bytes": 123454321', text)
        spec, state = tmp_path / "cluster.spec.json", tmp_path / "fleet.json"
        spec.write_text(text)
        argv = [command, str(spec)]
        if command != "validate":
            argv += ["--state", str(state)]
        code, lines = _run(argv)
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(
            "spec error: spec is not readable JSON ("), lines
        assert not state.exists()

    @pytest.mark.parametrize("command", [["status"], ["plan"], ["apply"],
                                         ["monitor"], ["power", "on"]])
    def test_state_json_nested_too_deep(self, paper_spec_text, tmp_path,
                                        command):
        spec, state = tmp_path / "cluster.spec.json", tmp_path / "fleet.json"
        spec.write_bytes(paper_spec_text)
        state.write_text(self._UNREADABLE["deep-nesting"])
        code, lines = _run([*command, str(spec), "--state", str(state)])
        assert code == 3
        assert len(lines) == 1 and lines[0].startswith("state error: "), lines
        assert "is not valid JSON (maximum recursion depth" in lines[0]
        assert state.read_text() == self._UNREADABLE["deep-nesting"]

    # A list nested this deep is readable JSON; its whole `repr` would make
    # an error line of about 1,900 bytes.
    _DEEP_LIST = "[" * 900 + "]" * 900
    # bytes an error line may take besides the state file's path
    _LINE_BYTES = 200

    def test_deep_value_in_spec_is_a_short_line(self, paper_spec_text,
                                                tmp_path):
        raw = json.loads(paper_spec_text)
        raw["name"] = None
        spec = tmp_path / "cluster.spec.json"
        spec.write_text(json.dumps(raw).replace(
            '"name": null', '"name": ' + self._DEEP_LIST))
        code, lines = _run(["validate", str(spec)])
        assert code == 1
        assert len(lines) == 1, lines
        assert lines[0].startswith("spec error: name [")
        assert lines[0].endswith(" in spec is not a string")
        assert len(lines[0].encode()) <= self._LINE_BYTES

    @pytest.mark.parametrize("command", [["status"], ["apply"]])
    def test_deep_value_in_state_is_a_short_line(
            self, paper_spec_text, converged_state, tmp_path, state_record,
            command):
        raw = json.loads(converged_state)
        state_record(raw, "node01")["markers"] = ["base-os", None]
        spec, state = tmp_path / "cluster.spec.json", tmp_path / "fleet.json"
        spec.write_bytes(paper_spec_text)
        state.write_text(json.dumps(raw).replace(
            '"base-os", null', '"base-os", ' + self._DEEP_LIST))
        code, lines = _run([*command, str(spec), "--state", str(state)])
        assert code == 3
        assert len(lines) == 1 and lines[0].startswith(
            f"state error: {state} is damaged (TypeError: marker ["), lines
        assert lines[0].endswith(" is not str); delete it and re-run apply")
        assert len(lines[0].encode()) <= self._LINE_BYTES + len(str(state))

    @pytest.mark.parametrize("edit,start", [
        (lambda raw: raw["nodes"][1].update(hostname=_LONG, disk_bytes="lots"),
         "disk_bytes 'lots' in node 'nnn"),
        (lambda raw: raw["users"][0].update(username=_LONG, shell=1),
         "shell 1 in user 'nnn"),
        (lambda raw: raw["nodes"][1].update(role=_LONG), "unknown role 'nnn"),
        (lambda raw: raw["apps"][0].update(name=_LONG),
         "unknown app name 'nnn"),
        (lambda raw: raw["storage"].update({_LONG: 1}), "unknown field 'nnn"),
    ], ids=["hostname", "username", "role", "app-name", "field"])
    def test_long_name_in_spec_error_is_a_short_line(
            self, paper_spec_text, tmp_path, edit, start):
        raw = json.loads(paper_spec_text)
        edit(raw)
        spec = tmp_path / "cluster.spec.json"
        spec.write_text(json.dumps(raw))
        code, lines = _run(["validate", str(spec)])
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(
            "spec error: " + start), lines
        assert len(lines[0].encode()) <= self._LINE_BYTES

    @pytest.mark.parametrize("edit,start,count", [
        (lambda raw: raw["nodes"][2].update(hostname=_LONG),
         "violation [bad-name] hostname 'nnn", 1),
        (lambda raw: raw["nodes"][2].update(hostname="n" * 64),  # whole
         f"violation [bad-name] hostname '{'n' * 64}' does not match ", 1),
        (lambda raw: raw["nodes"][2].update(hostname=_LONG + " x"),
         "violation [forbidden-whitespace] hostname 'nnn", 1),
        (lambda raw: raw["motd"].update(banner=_LONG + "\n"),
         "violation [forbidden-whitespace] motd banner 'nnn", 1),
        (lambda raw: raw.update(subnet=_LONG),
         "violation [bad-subnet] subnet 'nnn", 1),
        (lambda raw: raw["apps"][0].update(install_path="/opt/" + _LONG),
         "violation [app-path] app root install path '/opt/nnn", 1),
        # one line per app
        (lambda raw: raw["storage"].update(path="/" + _LONG),
         "violation [app-path] app root install path '/Jugrid/alice/root' "
         "must be under /nnn", 3),
        # and a bad-name line for the hostname
        (lambda raw: raw["nodes"][0].update(
            hostname=_LONG, interfaces=raw["nodes"][0]["interfaces"][:1]),
         "violation [master-interfaces] master nnn", 2),
        # and an ip-outside-subnet line for each worker
        (lambda raw: [n["interfaces"][0].update(ip=_LONG)
                      for n in raw["nodes"][1:3]],
         "violation [duplicate-ip] address nnn", 3),
        # and a duplicate-ip line for each master address, each naming five
        (lambda raw: raw.update(nodes=[
            {**raw["nodes"][0], "hostname": f"master{i:04d}"}
            for i in range(2000)] + raw["nodes"][1:]),
         "violation [multiple-master] multiple nodes have role master: "
         "master0000, master0001, master0002, master0003, master0004 and "
         "1995 more", 3),
    ], ids=["hostname", "hostname-64", "hostname-space", "banner", "subnet",
            "install-path", "storage-path", "master-hostname", "duplicate-ip",
            "many-masters"])
    def test_long_value_in_violation_is_a_short_line(
            self, paper_spec_text, tmp_path, edit, start, count):
        raw = json.loads(paper_spec_text)
        edit(raw)
        spec = tmp_path / "cluster.spec.json"
        spec.write_text(json.dumps(raw))
        code, lines = _run(["validate", str(spec)])
        assert code == 1
        assert len(lines) == count and lines[0].startswith(start), lines
        assert all(len(line.encode()) <= self._LINE_BYTES for line in lines)

    def test_long_account_digest_is_a_short_line(
            self, paper_spec_text, converged_state, tmp_path, state_record):
        raw = json.loads(converged_state)
        state_record(raw, "node01")["accounts"] = "d" * 100_000
        spec, state = tmp_path / "cluster.spec.json", tmp_path / "fleet.json"
        spec.write_bytes(paper_spec_text)
        state.write_text(json.dumps(raw))
        code, lines = _run(["status", str(spec), "--state", str(state)])
        assert code == 3
        assert len(lines) == 1 and lines[0].startswith(
            f"state error: {state}: record "), lines
        assert " refers to missing blob ddd" in lines[0]
        assert len(lines[0].encode()) <= self._LINE_BYTES + len(str(state))

    @pytest.mark.parametrize("edit,start", [
        (lambda raw: raw["blobs"].update({_BROKEN: ""}), "ValueError: blob nnn"),
        (lambda raw: raw["nodes"].update({_BROKEN: "x"}), "ValueError: node nnn"),
        (lambda raw: raw["shared_files"].update(
            {"/" + _BROKEN: {"owner": 1, "data": ""}}),
         "TypeError: shared file '/nnn"),
        (lambda raw: raw["shared_files"].update(
            {"/" + _BROKEN: {"owner": "root", "data": 1}}),
         "TypeError: shared file '/nnn"),
        (lambda raw: raw["shared_files"].update(
            {"/" + _BROKEN: {"owner": "root", "data": "!"}}),
         "ValueError: shared file '/nnn"),
    ], ids=["blob-digest", "hostname", "shared-owner", "shared-data",
            "shared-base64"])
    def test_long_file_key_is_a_short_line(
            self, paper_spec_text, converged_state, tmp_path, edit, start):
        raw = json.loads(converged_state)
        edit(raw)
        spec, state = tmp_path / "cluster.spec.json", tmp_path / "fleet.json"
        spec.write_bytes(paper_spec_text)
        state.write_text(json.dumps(raw))
        code, lines = _run(["status", str(spec), "--state", str(state)])
        assert code == 3
        assert len(lines) == 1 and lines[0].startswith(
            f"state error: {state} is damaged ({start}"), lines
        assert len(lines[0].encode()) <= self._LINE_BYTES + len(str(state))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_long_string_in_state_is_a_short_line(
            self, paper_spec_text, converged_state, data):
        """Any one key or string value of the state file replaced by
        `_BROKEN`: a file `status` rejects gives one `state error:` line, and
        no line grows with the string."""
        raw = json.loads(converged_state)
        sites = []  # (path, whether the key itself is replaced)
        for path in _json_paths(raw):
            parent = functools.reduce(operator.getitem, path[:-1], raw)
            if isinstance(parent, dict):
                sites.append((path, True))
            if isinstance(parent[path[-1]], str):
                sites.append((path, False))
        path, is_key = data.draw(st.sampled_from(sites))
        parent = functools.reduce(operator.getitem, path[:-1], raw)
        if is_key:
            parent[_BROKEN] = parent.pop(path[-1])
        else:
            parent[path[-1]] = _BROKEN
        with tempfile.TemporaryDirectory() as tmp:
            spec = os.path.join(tmp, "cluster.spec.json")
            state = os.path.join(tmp, "fleet.json")
            with open(spec, "wb") as f:
                f.write(paper_spec_text)
            with open(state, "w") as f:
                json.dump(raw, f)
            code, lines = _run(["status", spec, "--state", state])
        if code == 3:
            assert len(lines) == 1 and lines[0].startswith(
                f"state error: {state}"), lines
        else:  # a marker, path, mount or name that the format takes as is
            assert code == 0, lines
        assert all(len(line.encode()) <= 1000 + len(state) for line in lines)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(data=st.data())
    def test_mutated_spec(self, paper_spec_text, data):
        spec_text = data.draw(_mutated(paper_spec_text))
        with tempfile.TemporaryDirectory() as tmp:
            spec = os.path.join(tmp, "cluster.spec.json")
            state = os.path.join(tmp, "fleet.json")
            with open(spec, "wb") as f:
                f.write(spec_text)
            runs = [_run(["validate", spec]),
                    _run(["plan", spec, "--state", state]),
                    _run(["apply", spec, "--state", state])]
            codes = [code for code, _ in runs]
            if codes[0] == 0:  # an accepted spec plans and converges
                assert codes == [0, 0, 0]
                return
            assert codes == [1, 1, 1]
            for _, lines in runs:
                assert lines and all(
                    line.startswith(("spec error: ", "violation ["))
                    for line in lines)
            assert not os.path.exists(state)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_mutated_state(self, paper_spec_text, converged_state, data,
                           state_record):
        """A damaged state file is one `state error:` line, never a crash."""
        state_text = data.draw(_mutated(converged_state))
        with tempfile.TemporaryDirectory() as tmp:
            spec = os.path.join(tmp, "cluster.spec.json")
            state = os.path.join(tmp, "fleet.json")
            with open(spec, "wb") as f:
                f.write(paper_spec_text)
            for command in (["status"], ["plan"], ["apply"], ["monitor"],
                            ["power", "on"]):
                with open(state, "wb") as f:
                    f.write(state_text)
                code, lines = _run([*command, spec, "--state", state])
                if code == 3:
                    assert len(lines) == 1, lines
                    assert lines[0].startswith("state error: ")
                elif code == 2:  # a simulated fault the file records
                    assert command[0] in ("apply", "power")
                    raw = json.loads(state_text)
                    assert any(state_record(raw, h)["unreachable"] is True
                               for h in raw["nodes"])
                else:
                    assert code == 0, (command, lines)


class TestGcPause:
    """`main` pauses cyclic GC for one command, then restores the caller's
    setting."""

    def test_command_runs_with_gc_paused(self, spec_file, state_file,
                                         monkeypatch):
        from hepcluster import planner
        seen, diff = [], planner.diff

        def recording(*args):
            seen.append(gc.isenabled())
            return diff(*args)
        monkeypatch.setattr(planner, "diff", recording)
        assert gc.isenabled()
        assert _run(["plan", spec_file, "--state", state_file])[0] == 0
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case,code", [("ok", 0), ("invalid-spec", 1),
                                           ("damaged-state", 3),
                                           ("usage", 4)])
    def test_caller_setting_restored(self, spec_file, defect_file, tmp_path,
                                     enabled, case, code):
        state = tmp_path / "fleet.json"
        state.write_text("{")
        argv = {"ok": ["validate", spec_file],
                "invalid-spec": ["validate", defect_file],
                "damaged-state": ["status", spec_file, "--state", str(state)],
                "usage": ["plan", spec_file]}[case]
        (gc.enable if enabled else gc.disable)()
        try:
            assert _run(argv)[0] == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_setting_restored_after_an_exception(self, spec_file, monkeypatch,
                                                 enabled):
        from hepcluster import cli

        def failing(args, out):
            raise RuntimeError("boom")
        monkeypatch.setitem(cli._COMMANDS, "validate", failing)
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(RuntimeError, match="boom"):
                main(["validate", spec_file])
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_cycles_do_not_grow_with_the_fleet(self, scaled_spec, tmp_path):
        """The premise of the pause: what `gc.collect()` finds after each
        subcommand is the same for 3 and for 40 workers."""
        def collected(workers: int) -> list[int]:
            spec = tmp_path / f"{workers}.spec.json"
            spec.write_text(json.dumps(scaled_spec(workers, 2)))
            state = ["--state", str(tmp_path / f"{workers}.fleet.json")]
            machine = ["--format", "machine"]
            counts = []
            gc.disable()
            try:
                for argv in (["validate"], ["gen", "users"], ["plan", *state],
                             ["plan", *state, *machine], ["apply", *state],
                             ["status", *state], ["status", *state, *machine],
                             ["monitor", *state],
                             ["monitor", *state, *machine],
                             ["power", "off", *state], ["power", "on", *state],
                             ["apply", *state, *machine]):
                    argv.insert(2 if argv[0] in ("gen", "power") else 1,
                                str(spec))
                    gc.collect()
                    _run(argv)
                    counts.append(gc.collect())
            finally:
                gc.enable()
            return counts
        assert collected(3) == collected(40)
