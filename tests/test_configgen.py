import itertools

import pytest

from hepcluster import configgen
from hepcluster.model import AppSpec, MotdSpec, StorageSpec, UserSpec


@pytest.fixture
def storage():
    return StorageSpec(path="/Jugrid", size_bytes=4 << 40,
                       export_options=("rw", "rsync"),
                       mountpoint_on_workers="/Jugrid")


WORKERS = ["node01", "node02", "node03"]


class TestExports:
    def test_paper_line(self, storage):
        gf = configgen.gen_exports(storage, WORKERS)
        assert gf.content == \
            b"/Jugrid node01(rw,rsync) node02(rw,rsync) node03(rw,rsync)\n"

    def test_single_worker_default_opts(self):
        storage = StorageSpec(path="/Jugrid", size_bytes=1)
        gf = configgen.gen_exports(storage, ["node01"])
        assert gf.content == b"/Jugrid node01(rw,sync)\n"

    def test_empty_workers(self, storage):
        with pytest.raises(ValueError):
            configgen.gen_exports(storage, [])

    def test_split_reproduces_worker_order(self, storage):
        gf = configgen.gen_exports(storage, WORKERS)
        fields = gf.text.strip().split(" ")
        assert fields[0] == "/Jugrid"
        assert [f.split("(")[0] for f in fields[1:]] == WORKERS


class TestFstab:
    def test_paper_line(self):
        gf = configgen.gen_fstab_mount("10.1.3.193", "/Jugrid", "/home")
        assert gf.content == b"10.1.3.193:/Jugrid /home nfs defaults 0 0\n"

    def test_default_mountpoint(self):
        gf = configgen.gen_fstab_mount("10.1.3.193", "/Jugrid", "/Jugrid")
        assert gf.content == b"10.1.3.193:/Jugrid /Jugrid nfs defaults 0 0\n"

    def test_pure_formatting(self):
        gf = configgen.gen_fstab_mount("0.0.0.0", "/a", "/b")
        assert gf.content == b"0.0.0.0:/a /b nfs defaults 0 0\n"


class TestKeyMesh:
    KEYS = {f"node0{i}": f"K{i}" for i in range(4)}

    def test_full_mesh(self):
        mesh = configgen.gen_key_mesh(self.KEYS)
        for host in self.KEYS:
            assert mesh.authorized_content[host] == b"K0\nK1\nK2\nK3\n"

    def test_every_login_pair_granted(self):
        # oracle: enumerate required (src, dst) pairs and check dst trusts src
        mesh = configgen.gen_key_mesh(self.KEYS)
        pairs = list(itertools.permutations(self.KEYS, 2))
        assert len(pairs) == 12
        for src, dst in pairs:
            lines = mesh.authorized_content[dst].decode().splitlines()
            assert self.KEYS[src] in lines

    def test_each_key_exactly_once(self):
        mesh = configgen.gen_key_mesh(self.KEYS)
        for host in self.KEYS:
            lines = mesh.authorized_content[host].decode().splitlines()
            for key in self.KEYS.values():
                assert lines.count(key) == 1

    def test_single_node(self):
        mesh = configgen.gen_key_mesh({"node00": "K0"})
        assert mesh.authorized_content["node00"] == b"K0\n"

    def test_missing_key(self):
        keys = dict(self.KEYS)
        keys["node02"] = ""
        with pytest.raises(ValueError, match="node02"):
            configgen.gen_key_mesh(keys)

    def test_order_independent(self):
        reordered = dict(reversed(list(self.KEYS.items())))
        assert configgen.gen_key_mesh(self.KEYS).authorized_content == \
            configgen.gen_key_mesh(reordered).authorized_content


APPS = [
    AppSpec("root", "/Jugrid/alice/root"),
    AppSpec("aliroot", "/Jugrid/alice/AliRoot"),
    AppSpec("geant3", "/Jugrid/alice/geant3"),
]


class TestEnvProfile:
    def test_root_export(self):
        gf = configgen.gen_env_profile([APPS[0]], "/Jugrid")
        assert "export ROOTSYS=/Jugrid/alice/root" in gf.text.splitlines()

    def test_all_apps(self):
        gf = configgen.gen_env_profile(APPS, "/Jugrid")
        lines = gf.text.splitlines()
        assert "export ALICE_LEVEL=AliRoot" in lines
        platform = [l for l in lines if l.startswith("export PLATFORM=")]
        assert platform and "`root-config --arch`" in platform[0]

    def test_block_order_fixed(self):
        gf = configgen.gen_env_profile(list(reversed(APPS)), "/Jugrid")
        text = gf.text
        assert text.index("# Root environment") \
            < text.index("# AliRoot environment") \
            < text.index("# Geant3 environment")

    def test_empty_apps(self):
        with pytest.raises(ValueError):
            configgen.gen_env_profile([], "/Jugrid")

    def test_unknown_app(self):
        with pytest.raises(ValueError, match="pythia"):
            configgen.gen_env_profile([AppSpec("pythia", "/Jugrid/pythia")],
                                      "/Jugrid")


class TestAliasGuards:
    def test_paper_message(self):
        gf = configgen.gen_alias_guards(["root", "aliroot"],
                                        ("node01", "node03"))
        assert len(gf.text.splitlines()) == 2
        assert ("Please login to any worker node from node01-node03 "
                "to run root/aliroot") in gf.text

    def test_degenerate_range(self):
        gf = configgen.gen_alias_guards(["root"], ("node01", "node01"))
        assert len(gf.text.splitlines()) == 1
        assert "node01-node01" in gf.text

    def test_empty_commands(self):
        with pytest.raises(ValueError):
            configgen.gen_alias_guards([], ("node01", "node03"))


class TestMotd:
    SPEC = MotdSpec(contact_name="Vivek Chalotra",
                    contact_email="vivekathep@gmail.com",
                    worker_range=("node01", "node03"))

    def test_paper_fragments(self):
        text = configgen.gen_motd(self.SPEC).text
        assert "*** WELCOME TO HEP CLUSTER" in text
        assert "Vivek Chalotra (vivekathep@gmail.com)" in text
        assert "node01-node03" in text
        assert "ssh -Y node0x" in text

    def test_empty_contact_omitted(self):
        spec = MotdSpec(worker_range=("node01", "node03"))
        assert "contact" not in configgen.gen_motd(spec).text


class TestUserCommands:
    USER = UserSpec(username="user1", group="users", home="/Jugrid/user1")

    def test_useradd_line(self):
        assert configgen.useradd_command(self.USER) == \
            "useradd -g users -G users -s /bin/bash -d /Jugrid/user1 -m user1"

    def test_multiple_users_sync_once(self):
        other = UserSpec(username="user2", group="users", home="/Jugrid/user2")
        cmds = configgen.gen_users_commands([self.USER, other])
        useradds = [c for c in cmds if c.startswith("useradd")]
        assert len(useradds) == 2
        assert "user1" in useradds[0] and "user2" in useradds[1]
        assert len(cmds) == 5
        assert not cmds[-1].startswith("useradd")
        assert all("passwd" in c or "group" in c or "shadow" in c
                   for c in cmds[2:])


class TestQuotaCommands:
    def test_order(self, storage):
        user = UserSpec(username="user1", group="users", home="/Jugrid/user1",
                        quota_hard_bytes=2 << 20)
        cmds = configgen.gen_quota_commands(storage, [user])
        assert len(cmds) == 5
        assert "defaults,usrquota" in cmds[0]
        assert cmds[1] == "mount -o remount /Jugrid"
        assert cmds[2] == "quotacheck -a /Jugrid"
        assert cmds[3] == "quotaon /Jugrid"
        assert cmds[4] == "edquota -u user1"

    def test_no_quota_users(self, storage):
        user = UserSpec(username="user1", group="users", home="/Jugrid/user1")
        with pytest.raises(ValueError):
            configgen.gen_quota_commands(storage, [user])


class TestFileInvariants:
    def all_files(self, storage):
        user = UserSpec(username="u", group="g", home="/Jugrid/u")
        yield configgen.gen_exports(storage, WORKERS)
        yield configgen.gen_fstab_mount("10.1.3.193", "/Jugrid", "/home")
        yield configgen.gen_env_profile(APPS, "/Jugrid")
        yield configgen.gen_alias_guards(["root"], ("node01", "node03"))
        yield configgen.gen_motd(TestMotd.SPEC)

    def test_line_endings(self, storage):
        for gf in self.all_files(storage):
            assert gf.content.endswith(b"\n")
            assert not gf.content.endswith(b"\n\n")
            assert b"\r" not in gf.content
            assert b"\t" not in gf.content

    def test_deterministic(self, storage):
        first = [gf.content for gf in self.all_files(storage)]
        second = [gf.content for gf in self.all_files(storage)]
        assert first == second
