"""Cluster specification data model: parsing, validation, partition planning."""

from __future__ import annotations

import functools
import hashlib
import ipaddress
import json
from dataclasses import dataclass, field, asdict
from enum import Enum
from typing import Any, Optional

MIB = 1 << 20
GIB = 1 << 30
TIB = 1 << 40

VALID_RAID_LEVELS = (0, 1, 3, 5, 6, 10)
APP_NAMES = ("root", "aliroot", "geant3")

DEFAULT_EXPORT_OPTIONS = ("rw", "sync")
DEFAULT_SHELL = "/bin/bash"
DEFAULT_BANNER = "WELCOME TO HEP CLUSTER"

WORKER_SWAP_BYTES = 8 * GIB
MASTER_SWAP_BYTES = 16 * GIB
BOOT_BYTES = 500 * MIB
HOME_BYTES = 100 * GIB
ROOT_BYTES = 100 * GIB


class SpecError(Exception):
    """Base error for spec-file problems."""


class SpecSyntaxError(SpecError):
    """Malformed spec file (bad JSON, duplicate key)."""


class SpecFormatError(SpecError):
    """Well-formed JSON that violates the spec-file schema."""


class DiskTooSmallError(Exception):
    """Partition table does not fit on the disk."""

    def __init__(self, disk_bytes: int, required_bytes: int):
        self.disk_bytes = disk_bytes
        self.required_bytes = required_bytes
        self.shortfall = required_bytes - disk_bytes
        super().__init__(
            f"disk too small: need {required_bytes} bytes, "
            f"have {disk_bytes} (short {self.shortfall})"
        )


class Role(str, Enum):
    MASTER = "master"
    WORKER = "worker"


@dataclass(frozen=True)
class InterfaceSpec:
    name: str
    ip: Optional[str] = None


@dataclass(frozen=True)
class NodeSpec:
    hostname: str
    role: Role
    interfaces: tuple[InterfaceSpec, ...]
    disk_bytes: int
    raid_level: int = 3
    swap_bytes: Optional[int] = None  # role default applies when None

    def internal_ip(self, subnet: str) -> Optional[str]:
        """First interface address inside the cluster subnet, if any."""
        net = ipaddress.ip_network(subnet)
        for iface in self.interfaces:
            if iface.ip is not None:
                try:
                    if ipaddress.ip_address(iface.ip) in net:
                        return iface.ip
                except ValueError:
                    continue
        return None


@dataclass(frozen=True)
class StorageSpec:
    path: str
    size_bytes: int
    export_options: tuple[str, ...] = DEFAULT_EXPORT_OPTIONS
    mountpoint_on_workers: str = ""  # defaults to path when empty


@dataclass(frozen=True)
class UserSpec:
    username: str
    group: str
    home: str
    shell: str = DEFAULT_SHELL
    quota_soft_bytes: int = 0
    quota_hard_bytes: int = 0


@dataclass(frozen=True)
class AppSpec:
    name: str
    install_path: str
    source_url: str = ""

    @property
    def env_exports(self) -> tuple[tuple[str, str], ...]:
        """Environment variable assignments this application requires."""
        p = self.install_path
        if self.name == "root":
            return (
                ("ROOTSYS", p),
                ("PATH", "$ROOTSYS/bin/:$PATH"),
                ("LD_LIBRARY_PATH", "$ROOTSYS/lib/:$LD_LIBRARY_PATH"),
            )
        if self.name == "aliroot":
            parent, _, level = p.rpartition("/")
            return (
                ("ALICE", parent),
                ("ALICE_LEVEL", level),
                ("ALICE_ROOT", "$ALICE/$ALICE_LEVEL"),
                ("ALICE_TARGET", "`root-config --arch`"),
                ("PATH", "$ALICE_ROOT/bin/tgt_$ALICE_TARGET:$PATH"),
                ("LD_LIBRARY_PATH",
                 "$ALICE_ROOT/lib/tgt_$ALICE_TARGET/:$LD_LIBRARY_PATH"),
            )
        if self.name == "geant3":
            return (
                ("PLATFORM", "`root-config --arch`"),
                ("LD_LIBRARY_PATH",
                 f"{p}/lib/tgt_$PLATFORM/:$LD_LIBRARY_PATH"),
            )
        raise ValueError(f"unknown application name: {self.name!r}")


@dataclass(frozen=True)
class MotdSpec:
    banner: str = DEFAULT_BANNER
    contact_name: str = ""
    contact_email: str = ""
    worker_range: tuple[str, str] = ("", "")


@dataclass(frozen=True)
class ClusterSpec:
    name: str
    subnet: str
    nodes: tuple[NodeSpec, ...]
    storage: StorageSpec
    users: tuple[UserSpec, ...] = ()
    apps: tuple[AppSpec, ...] = ()
    motd: MotdSpec = field(default_factory=MotdSpec)
    alias_guards: tuple[str, ...] = ()

    @property
    def master(self) -> NodeSpec:
        masters = [n for n in self.nodes if n.role is Role.MASTER]
        if len(masters) != 1:
            raise ValueError(f"expected exactly one master, found {len(masters)}")
        return masters[0]

    @property
    def workers(self) -> tuple[NodeSpec, ...]:
        return tuple(n for n in self.nodes if n.role is Role.WORKER)

    def node(self, hostname: str) -> NodeSpec:
        for n in self.nodes:
            if n.hostname == hostname:
                return n
        raise KeyError(hostname)

    @property
    def worker_mountpoint(self) -> str:
        return self.storage.mountpoint_on_workers or self.storage.path

    @functools.cached_property
    def _content_hash(self) -> str:
        # cached on the instance: a frozen spec's content never changes
        canonical = json.dumps(spec_to_dict(self), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PartitionEntry:
    mountpoint: str  # "swap" for the swap volume
    size_bytes: int
    volume_kind: str  # "boot" or "lvm"


@dataclass(frozen=True)
class PartitionTable:
    entries: tuple[PartitionEntry, ...]

    @property
    def total_bytes(self) -> int:
        return sum(e.size_bytes for e in self.entries)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    subject: str = ""


# ---------------------------------------------------------------------------
# Parsing

def _reject_duplicate_keys(pairs: list[tuple[str, Any]]) -> dict:
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise SpecSyntaxError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise SpecFormatError(f"missing required field {key!r} in {where}")
    return obj[key]


_REQUIRED: Any = object()


def _int_field(obj: dict, key: str, where: str,
               default: Optional[int] = _REQUIRED) -> Optional[int]:
    """Integer field `key` of `obj`; required when no default is given.

    With a `None` default the field is optional: absent or null gives None.
    """
    value = (_require(obj, key, where) if default is _REQUIRED
             else obj.get(key, default))
    if value is None and default is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise SpecFormatError(
            f"{key} {value!r} in {where} is not an integer") from None


def _check_known(obj: dict, known: set[str], where: str) -> None:
    unknown = set(obj) - known
    if unknown:
        name = sorted(unknown)[0]
        raise SpecFormatError(f"unknown field {name!r} in {where}")


def _parse_node(obj: dict) -> NodeSpec:
    hostname = _require(obj, "hostname", "node")
    where = f"node {hostname!r}"
    _check_known(obj, {"hostname", "role", "interfaces", "disk_bytes",
                       "raid_level", "swap_bytes"}, where)
    role_raw = _require(obj, "role", where)
    try:
        role = Role(role_raw)
    except ValueError:
        raise SpecFormatError(f"unknown role {role_raw!r} in {where}") from None
    ifaces = []
    for iobj in _require(obj, "interfaces", where):
        _check_known(iobj, {"name", "ip"}, f"interface of {where}")
        ifaces.append(InterfaceSpec(name=_require(iobj, "name", where),
                                    ip=iobj.get("ip")))
    raid_level = obj.get("raid_level", 3)
    if raid_level not in VALID_RAID_LEVELS:
        raise SpecFormatError(
            f"raid_level {raid_level!r} in {where} not one of {VALID_RAID_LEVELS}")
    return NodeSpec(
        hostname=hostname,
        role=role,
        interfaces=tuple(ifaces),
        disk_bytes=_int_field(obj, "disk_bytes", where),
        raid_level=raid_level,
        swap_bytes=_int_field(obj, "swap_bytes", where, None),
    )


def _parse_storage(obj: dict) -> StorageSpec:
    _check_known(obj, {"path", "size_bytes", "export_options",
                       "mountpoint_on_workers"}, "storage")
    path = _require(obj, "path", "storage")
    return StorageSpec(
        path=path,
        size_bytes=_int_field(obj, "size_bytes", "storage"),
        export_options=tuple(obj.get("export_options", DEFAULT_EXPORT_OPTIONS)),
        mountpoint_on_workers=obj.get("mountpoint_on_workers", path),
    )


def _parse_user(obj: dict, storage_path: str) -> UserSpec:
    username = _require(obj, "username", "user")
    where = f"user {username!r}"
    _check_known(obj, {"username", "group", "shell", "home",
                       "quota_soft_bytes", "quota_hard_bytes"}, where)
    return UserSpec(
        username=username,
        group=_require(obj, "group", where),
        shell=obj.get("shell", DEFAULT_SHELL),
        home=obj.get("home", f"{storage_path}/{username}"),
        quota_soft_bytes=_int_field(obj, "quota_soft_bytes", where, 0),
        quota_hard_bytes=_int_field(obj, "quota_hard_bytes", where, 0),
    )


def _parse_app(obj: dict) -> AppSpec:
    name = _require(obj, "name", "app")
    where = f"app {name!r}"
    _check_known(obj, {"name", "install_path", "source_url"}, where)
    if name not in APP_NAMES:
        raise SpecFormatError(f"unknown app name {name!r}, expected one of {APP_NAMES}")
    return AppSpec(
        name=name,
        install_path=_require(obj, "install_path", where),
        source_url=obj.get("source_url", ""),
    )


def _parse_motd(obj: dict) -> MotdSpec:
    _check_known(obj, {"banner", "contact_name", "contact_email",
                       "worker_range"}, "motd")
    wr = obj.get("worker_range", ["", ""])
    return MotdSpec(
        banner=obj.get("banner", DEFAULT_BANNER),
        contact_name=obj.get("contact_name", ""),
        contact_email=obj.get("contact_email", ""),
        worker_range=(wr[0], wr[1]),
    )


def parse_spec(text: "bytes | str") -> ClusterSpec:
    """Parse a JSON spec file into a ClusterSpec, applying defaults."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except SpecSyntaxError:
        raise
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(
            f"spec syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise SpecFormatError("spec file must contain a JSON object")
    _check_known(raw, {"name", "subnet", "nodes", "storage", "users",
                       "apps", "motd", "alias_guards"}, "spec")
    storage = _parse_storage(_require(raw, "storage", "spec"))
    return ClusterSpec(
        name=_require(raw, "name", "spec"),
        subnet=_require(raw, "subnet", "spec"),
        nodes=tuple(_parse_node(n) for n in _require(raw, "nodes", "spec")),
        storage=storage,
        users=tuple(_parse_user(u, storage.path) for u in raw.get("users", [])),
        apps=tuple(_parse_app(a) for a in raw.get("apps", [])),
        motd=_parse_motd(raw.get("motd", {})),
        alias_guards=tuple(raw.get("alias_guards", [])),
    )


def spec_to_dict(spec: ClusterSpec) -> dict:
    """Plain-dict form of a ClusterSpec, suitable for JSON round-tripping."""
    d = asdict(spec)
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


def serialize_spec(spec: ClusterSpec) -> str:
    """Stable JSON serialization of a ClusterSpec."""
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n"


def spec_hash(spec: ClusterSpec) -> str:
    """Content hash identifying a ClusterSpec, computed once per spec object."""
    return spec._content_hash


# ---------------------------------------------------------------------------
# Validation

def validate(spec: ClusterSpec) -> list[Violation]:
    """Check every spec invariant; an empty list means the spec is valid."""
    out: list[Violation] = []

    masters = [n for n in spec.nodes if n.role is Role.MASTER]
    if len(masters) == 0:
        out.append(Violation("no-master", "no node has role master"))
    elif len(masters) > 1:
        names = ", ".join(n.hostname for n in masters)
        out.append(Violation("multiple-master",
                             f"multiple nodes have role master: {names}"))

    seen_hosts: set[str] = set()
    for n in spec.nodes:
        if n.hostname in seen_hosts:
            out.append(Violation("duplicate-hostname",
                                 f"hostname {n.hostname!r} used more than once",
                                 n.hostname))
        seen_hosts.add(n.hostname)

    try:
        net = ipaddress.ip_network(spec.subnet)
    except ValueError:
        out.append(Violation("bad-subnet", f"subnet {spec.subnet!r} is not a CIDR"))
        net = None

    ip_owners: dict[str, list[str]] = {}
    for n in spec.nodes:
        for iface in n.interfaces:
            if iface.ip:
                ip_owners.setdefault(iface.ip, []).append(n.hostname)
    for ip, owners in ip_owners.items():
        if len(owners) > 1:
            out.append(Violation(
                "duplicate-ip",
                f"address {ip} assigned to multiple nodes: {', '.join(owners)}",
                ip))

    for n in spec.nodes:
        internal = n.internal_ip(spec.subnet) if net else None
        if n.role is Role.MASTER:
            if len(n.interfaces) < 2:
                out.append(Violation(
                    "master-interfaces",
                    f"master {n.hostname} needs at least 2 interfaces",
                    n.hostname))
            if net and internal is None:
                out.append(Violation(
                    "ip-outside-subnet",
                    f"master {n.hostname} has no interface in subnet {spec.subnet}",
                    n.hostname))
        else:
            if len(n.interfaces) != 1:
                out.append(Violation(
                    "worker-interfaces",
                    f"worker {n.hostname} must have exactly 1 interface",
                    n.hostname))
            elif net and internal is None:
                out.append(Violation(
                    "ip-outside-subnet",
                    f"worker {n.hostname} interface is not inside {spec.subnet}",
                    n.hostname))

    if not spec.storage.path.startswith("/"):
        out.append(Violation("storage-path", "storage path must be absolute"))
    if not spec.worker_mountpoint.startswith("/"):
        out.append(Violation("storage-mountpoint",
                             "worker mountpoint must be absolute"))
    if spec.storage.size_bytes <= 0:
        out.append(Violation("storage-size", "storage size must be positive"))
    if not spec.storage.export_options:
        out.append(Violation("export-options", "export options must be non-empty"))

    for u in spec.users:
        expected_home = f"{spec.storage.path}/{u.username}"
        if u.home != expected_home:
            out.append(Violation(
                "home-mismatch",
                f"user {u.username} home {u.home!r} must be {expected_home!r}",
                u.username))
        if u.quota_hard_bytes < u.quota_soft_bytes:
            out.append(Violation(
                "quota-order",
                f"user {u.username} hard quota below soft quota",
                u.username))

    for a in spec.apps:
        if not a.install_path.startswith(spec.storage.path + "/"):
            out.append(Violation(
                "app-path",
                f"app {a.name} install path {a.install_path!r} must be "
                f"under {spec.storage.path}",
                a.name))

    worker_names = {n.hostname for n in spec.nodes if n.role is Role.WORKER}
    for end in spec.motd.worker_range:
        if end and end not in worker_names:
            out.append(Violation(
                "motd-range",
                f"worker range endpoint {end!r} is not a worker hostname",
                end))

    for n in spec.nodes:
        try:
            partition_plan_for(spec, n)
        except DiskTooSmallError as exc:
            out.append(Violation("disk-too-small", f"node {n.hostname}: {exc}",
                                 n.hostname))

    # every spec string that configgen writes into a file line
    line_fields = [("storage path", spec.storage.path),
                   ("worker mountpoint", spec.worker_mountpoint),
                   ("motd banner", spec.motd.banner),
                   ("motd contact_name", spec.motd.contact_name),
                   ("motd contact_email", spec.motd.contact_email)]
    line_fields += [("hostname", n.hostname) for n in spec.nodes]
    line_fields += [("export option", o) for o in spec.storage.export_options]
    line_fields += [(f"app {a.name} install_path", a.install_path)
                    for a in spec.apps]
    line_fields += [("alias guard", g) for g in spec.alias_guards]
    for what, value in line_fields:
        if any(c in str(value) for c in "\t\r\n"):
            out.append(Violation(
                "forbidden-whitespace",
                f"{what} {value!r} contains a tab, CR or LF", str(value)))

    return out


# ---------------------------------------------------------------------------
# Partition planning

def partition_plan(role: Role, disk_bytes: int,
                   storage_size_bytes: Optional[int] = None,
                   swap_bytes: Optional[int] = None) -> PartitionTable:
    """Role-based partition table; raises DiskTooSmallError when it cannot fit."""
    if swap_bytes is None:
        swap_bytes = MASTER_SWAP_BYTES if role is Role.MASTER else WORKER_SWAP_BYTES
    entries = [
        PartitionEntry("/boot", BOOT_BYTES, "boot"),
        PartitionEntry("/home", HOME_BYTES, "lvm"),
        PartitionEntry("/", ROOT_BYTES, "lvm"),
        PartitionEntry("swap", swap_bytes, "lvm"),
    ]
    if role is Role.MASTER:
        if storage_size_bytes is None:
            raise ValueError("master partition plan requires storage size")
        entries.append(PartitionEntry("/Jugrid", storage_size_bytes, "lvm"))
    table = PartitionTable(tuple(entries))
    if table.total_bytes > disk_bytes:
        raise DiskTooSmallError(disk_bytes, table.total_bytes)
    return table


def partition_plan_for(spec: ClusterSpec, node: NodeSpec) -> PartitionTable:
    """Partition table for one node of a cluster spec."""
    storage_size = spec.storage.size_bytes if node.role is Role.MASTER else None
    table = partition_plan(node.role, node.disk_bytes, storage_size,
                           node.swap_bytes)
    if node.role is Role.MASTER:
        # storage volume mounts at the configured storage path
        entries = tuple(
            PartitionEntry(spec.storage.path, e.size_bytes, e.volume_kind)
            if e.mountpoint == "/Jugrid" else e
            for e in table.entries
        )
        table = PartitionTable(entries)
    return table
