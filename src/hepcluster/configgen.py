"""Deterministic generators for every configuration artifact the cluster needs."""

from __future__ import annotations

from dataclasses import dataclass

from .model import APPS, AppSpec, ClusterSpec, MotdSpec, StorageSpec, UserSpec

SSH_AUTHORIZED_KEYS_PATH = "/root/.ssh/authorized_keys"
EXPORTS_PATH = "/etc/exports"
FSTAB_PATH = "/etc/fstab"
PROFILE_PATH = "/etc/bashrc"
ALIASES_PATH = "/etc/profile.d/hep-aliases.sh"
MOTD_PATH = "/etc/motd"


@dataclass(frozen=True)
class GeneratedFile:
    target_path: str
    content: bytes

    @property
    def text(self) -> str:
        return self.content.decode("utf-8")


@dataclass(frozen=True)
class KeyMesh:
    authorized_content: dict[str, bytes]


def _finish(lines: list[str]) -> bytes:
    """Join lines into LF-terminated UTF-8, enforcing the file invariants."""
    for line in lines:
        if "\t" in line or "\r" in line or "\n" in line:
            raise ValueError(f"generated line contains forbidden whitespace: {line!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def gen_exports(storage: StorageSpec, workers: list[str]) -> GeneratedFile:
    """NFS exports line granting every worker access to the storage path."""
    if not workers:
        raise ValueError("worker list must be non-empty")
    opts = ",".join(storage.export_options)
    clients = " ".join([f"{w}({opts})" for w in workers])
    return GeneratedFile(EXPORTS_PATH, _finish([f"{storage.path} {clients}"]))


def gen_fstab_mount(master_ip: str, storage_path: str,
                    mountpoint: str) -> GeneratedFile:
    """fstab line persisting the NFS mount on a worker; an IPv6 address
    goes in square brackets, as nfs(5) requires."""
    host = f"[{master_ip}]" if ":" in master_ip else master_ip
    line = f"{host}:{storage_path} {mountpoint} nfs defaults 0 0"
    return GeneratedFile(FSTAB_PATH, _finish([line]))


def gen_key_mesh(node_keys: dict[str, str]) -> KeyMesh:
    """Full-mesh authorized-keys content: every node trusts every node."""
    if not node_keys:
        raise ValueError("node key map must be non-empty")
    for host, key in node_keys.items():
        if not key:
            raise ValueError(f"missing key for node {host!r}")
    merged = _finish([node_keys[h] for h in sorted(node_keys)])
    return KeyMesh(authorized_content={h: merged for h in node_keys})


def gen_env_profile(apps: list[AppSpec], storage_path: str) -> GeneratedFile:
    """Shell profile fragment exporting each application's environment.

    Blocks are emitted in the order of `model.APPS` (root, aliroot,
    geant3) regardless of input order.
    """
    if not apps:
        raise ValueError("app list must be non-empty")
    by_name = {}
    for app in apps:
        if app.name not in APPS:
            raise ValueError(f"unknown application name: {app.name!r}")
        by_name[app.name] = app
    lines: list[str] = []
    for name, (header, exports) in APPS.items():
        if name in by_name:
            lines.append(header)
            lines += [f"export {var}={value}"
                      for var, value in exports(by_name[name].install_path)]
    return GeneratedFile(PROFILE_PATH, _finish(lines))


def alias_guard_message(worker_range: tuple[str, str]) -> str:
    """Redirect message shown when a guarded command runs on the master."""
    first, last = worker_range
    return f"Please login to any worker node from {first}-{last} to run root/aliroot"


def gen_alias_guards(commands: list[str],
                     worker_range: tuple[str, str]) -> GeneratedFile:
    """Aliases that replace compute commands on the master with a redirect."""
    if not commands:
        raise ValueError("command list must be non-empty")
    message = alias_guard_message(worker_range)
    lines = [f"alias {cmd}='echo \"{message}\" '" for cmd in commands]
    return GeneratedFile(ALIASES_PATH, _finish(lines))


def gen_motd(motd: MotdSpec) -> GeneratedFile:
    """Login banner for the master node."""
    first, last = motd.worker_range
    lines = [
        f"*** {motd.banner} *****",
        "*****",
        "This facility is for authorized users only. All activity is logged",
        "and regularly checked by the administrator. From here you can login",
        f"into any computing node from {first}-{last} using the command",
        "`ssh -Y node0x` and then run root, aliroot & geant.",
    ]
    if motd.contact_name:
        lines.append("")
        lines.append("For any queries contact:-")
        lines.append(f"{motd.contact_name} ({motd.contact_email})")
    lines.append("*****")
    return GeneratedFile(MOTD_PATH, _finish(lines))


def spec_files(spec: ClusterSpec) -> dict[str, GeneratedFile]:
    """The spec's generated files, keyed by `gen` artifact name.

    `env` and `aliases` appear only when the spec defines apps or alias
    guards. `hepcluster gen` prints these files and the plan writes them.
    """
    files = {
        "exports": gen_exports(spec.storage, [w.hostname for w in spec.workers]),
        "fstab": gen_fstab_mount(spec.master.internal_ip(spec.subnet) or "",
                                 spec.storage.path, spec.worker_mountpoint),
    }
    if spec.apps:
        files["env"] = gen_env_profile(list(spec.apps), spec.storage.path)
    if spec.alias_guards:
        files["aliases"] = gen_alias_guards(list(spec.alias_guards),
                                            spec.motd.worker_range)
    files["motd"] = gen_motd(spec.motd)
    return files


def useradd_command(user: UserSpec) -> str:
    """useradd invocation for one account (created locked, no password flag)."""
    return (f"useradd -g {user.group} -G {user.group} -s {user.shell} "
            f"-d {user.home} -m {user.username}")


ACCOUNT_FILES = ("/etc/passwd", "/etc/group", "/etc/shadow")


def gen_users_commands(users: list[UserSpec]) -> list[str]:
    """Commands creating several users; account files sync once at the end."""
    return ([useradd_command(u) for u in users]
            + [f"copy {path} from master to all workers" for path in ACCOUNT_FILES])


def gen_quota_commands(storage: StorageSpec,
                       users: list[UserSpec]) -> list[str]:
    """Commands enabling user quotas on the storage volume and setting limits."""
    quota_users = [u for u in users if u.has_quota]
    if not quota_users:
        raise ValueError("at least one user must have a nonzero quota")
    cmds = [
        f"edit {FSTAB_PATH}: set options defaults,usrquota on {storage.path}",
        f"mount -o remount {storage.path}",
        f"quotacheck -a {storage.path}",
        f"quotaon {storage.path}",
    ]
    cmds += [f"edquota -u {u.username}" for u in quota_users]
    return cmds
