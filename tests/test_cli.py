import json

import pytest

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


    @pytest.mark.parametrize("command", ["validate", "plan"])
    @pytest.mark.parametrize("edit,fragment", [
        (lambda raw: raw["nodes"][1].update(swap_bytes="x"),
         "spec error: swap_bytes"),
        (lambda raw: raw["nodes"][0].update(disk_bytes=1000000000),
         "violation [disk-too-small]"),
        (lambda raw: raw["motd"].update(banner="a\nb"),
         "violation [forbidden-whitespace]"),
    ], ids=["swap-bytes", "disk-too-small", "banner-newline"])
    def test_spec_that_cannot_plan_fails_validation(
            self, paper_spec_text, tmp_path, capsys, command, edit, fragment):
        raw = json.loads(paper_spec_text)
        edit(raw)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        argv = [command, str(bad)]
        if command == "plan":
            argv += ["--state", str(tmp_path / "fleet.json")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).splitlines()
        assert len(lines) == 1 and lines[0].startswith(fragment)
        assert "Traceback" not in captured.err


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
        assert SimFleet.load(state_file, spec).state_hash() == (
            "2d9d26b2fd9d95712ba9b7dc7c9b02439dfd8fac5cb677e7322072285771774e")

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

    def test_dry_run_does_not_create_state(self, spec_file, state_file,
                                           capsys):
        import os
        assert main(["apply", spec_file, "--state", state_file,
                     "--dry-run"]) == 0
        assert "would_apply" in capsys.readouterr().out
        assert not os.path.exists(state_file)

    def test_apply_invalid_spec(self, defect_file, state_file, capsys):
        assert main(["apply", defect_file, "--state", state_file]) == 1

    def test_missing_state_flag(self, spec_file, capsys):
        assert main(["apply", spec_file]) == 4

    def test_shell_backend_unconfigured(self, spec_file, capsys):
        assert main(["apply", spec_file, "--backend", "shell"]) == 3

    def test_deterministic_stdout(self, spec_file, tmp_path, capsys):
        outs = []
        for i in range(2):
            state = str(tmp_path / f"fleet{i}.json")
            assert main(["apply", spec_file, "--state", state]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


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

    def test_usage_error_never_touches_state(self, spec_file, tmp_path):
        import os
        state = str(tmp_path / "untouched.json")
        assert main(["apply", spec_file, "--state", state, "--bogus"]) == 4
        assert not os.path.exists(state)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_parallel_below_one(self, spec_file, tmp_path, capsys, value):
        state = tmp_path / "untouched.json"
        assert main(["apply", spec_file, "--state", str(state),
                     "--max-parallel", value]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: ")
        assert not state.exists()
        assert not (tmp_path / "untouched.json.lock").exists()

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

    def test_state_file_shares_file_content(self, spec_file, state_file,
                                            capsys):
        raw = self._converge(spec_file, state_file, capsys)
        assert raw["format"] == 2
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
