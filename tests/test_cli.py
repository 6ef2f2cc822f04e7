import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hepcluster.cli import main


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
    ], ids=["swap-bytes", "disk-too-small", "quota-float", "banner-newline",
            "mountpoint-space", "no-workers", "bad-username"])
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
            "bf70e54a62b57970da954e65523a62fa9095d15d1f3637d13b80773eb49b9a5a")

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

    def test_missing_blob(self, spec_file, state_file, capsys):
        raw = self._converge(spec_file, state_file, capsys)
        digest = raw["nodes"]["node02"]["files"]["/etc/fstab"]
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
                                 capsys, "not a format-3 state file")

    @pytest.mark.parametrize("text,fragment", [
        (None, "missing blob"),
        ("{nope", "damaged (JSONDecodeError"),
    ], ids=["missing", "not-json"])
    def test_bad_account_blob(self, spec_file, state_file, capsys, text,
                              fragment):
        import hashlib
        raw = self._converge(spec_file, state_file, capsys)
        digest = raw["nodes"]["node02"]["accounts"]
        if text is None:
            del raw["blobs"][digest]
        else:  # a blob that matches its digest but is no account table
            digest = hashlib.sha256(text.encode()).hexdigest()
            raw["blobs"][digest] = text
            raw["nodes"]["node02"]["accounts"] = digest
        with open(state_file, "w") as f:
            json.dump(raw, f)
        self._assert_state_error(["status", spec_file, "--state", state_file],
                                 capsys, fragment)

    @pytest.mark.parametrize("command", ["status", "plan", "apply"])
    def test_blob_not_matching_its_digest(self, spec_file, state_file, capsys,
                                          command):
        raw = self._converge(spec_file, state_file, capsys)
        digest = raw["nodes"]["node02"]["files"]["/etc/fstab"]
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
    ], ids=["marker", "counter", "quota", "mount", "power", "unreachable",
            "quota-enabled", "clock-str", "clock-inf"])
    def test_value_of_wrong_type(self, spec_file, state_file, capsys, command,
                                 path, value, error):
        raw = self._converge(spec_file, state_file, capsys)
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with open(state_file, "w") as f:
            json.dump(raw, f)
        self._assert_state_error(
            [*command, spec_file, "--state", state_file], capsys,
            f"is damaged ({error})")

    def test_state_file_shares_file_content(self, spec_file, state_file,
                                            capsys):
        raw = self._converge(spec_file, state_file, capsys)
        assert raw["format"] == 3
        from hepcluster.configgen import SSH_AUTHORIZED_KEYS_PATH
        keys = {n["files"][SSH_AUTHORIZED_KEYS_PATH]
                for n in raw["nodes"].values()}
        assert len(keys) == 1 and keys <= set(raw["blobs"])

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


@pytest.fixture(scope="module")
def converged_state(paper_spec_text, tmp_path_factory) -> bytes:
    """The paper fleet's state file after one `apply`."""
    tmp = tmp_path_factory.mktemp("converged")
    spec, state = tmp / "cluster.spec.json", tmp / "fleet.json"
    spec.write_bytes(paper_spec_text)
    assert _run(["apply", str(spec), "--state", str(state)])[0] == 0
    return state.read_bytes()


class TestErrorContract:
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
    def test_mutated_state(self, paper_spec_text, converged_state, data):
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
                    nodes = json.loads(state_text)["nodes"].values()
                    assert any(n["unreachable"] is True for n in nodes)
                else:
                    assert code == 0, (command, lines)
