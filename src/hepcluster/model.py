"""Cluster specification data model: parsing, validation, partition planning."""

from __future__ import annotations

import functools
import hashlib
import ipaddress
import json
import re
from dataclasses import dataclass, field, fields
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


# A string `ipaddress` reads as an IPv4 address: four decimal octets of at
# most 255 in ASCII digits, without leading zeros.
_OCTET = "(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_DOTTED_QUAD = re.compile(r"\.".join([_OCTET] * 4))


@functools.lru_cache(maxsize=16)  # `validate` asks every node for its address
def _subnet(subnet: str) -> tuple[Any, Optional[tuple[int, int]]]:
    """The parsed subnet and, for IPv4, its (netmask, network) integers."""
    net = ipaddress.ip_network(subnet)
    if net.version != 4:
        return net, None
    return net, (int(net.netmask), int(net.network_address))


@dataclass(frozen=True)
class NodeSpec:
    hostname: str
    role: Role
    interfaces: tuple[InterfaceSpec, ...]
    disk_bytes: int
    raid_level: int = 3
    swap_bytes: Optional[int] = None  # role default applies when None

    def internal_ip(self, subnet: str) -> Optional[str]:
        """First interface address inside the cluster subnet, if any.

        A dotted quad is tested as an integer against an IPv4 subnet's
        bounds; any other address, or an IPv6 subnet, goes to `ipaddress`.
        """
        net, bounds = _subnet(subnet)
        for iface in self.interfaces:
            ip = iface.ip
            if ip is None:
                continue
            quad = bounds and _DOTTED_QUAD.fullmatch(ip)
            if quad:
                a, b, c, d = map(int, quad.groups())
                if (a << 24 | b << 16 | c << 8 | d) & bounds[0] == bounds[1]:
                    return ip
                continue
            try:
                if ipaddress.ip_address(ip) in net:
                    return ip
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

    @property
    def has_quota(self) -> bool:
        return self.quota_hard_bytes > 0 or self.quota_soft_bytes > 0


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

    @property
    def worker_mountpoint(self) -> str:
        return self.storage.mountpoint_on_workers or self.storage.path

    @property
    def storage_source(self) -> str:
        """The NFS source a worker mounts: `<master hostname>:<storage path>`."""
        return f"{self.master.hostname}:{self.storage.path}"

    @functools.cached_property
    def _content_hash(self) -> str:
        # cached on the instance: a frozen spec's content never changes
        canonical = json.dumps(spec_to_dict(self), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @functools.cached_property
    def _violations(self) -> tuple[Violation, ...]:
        # cached like _content_hash, so each spec object is checked once
        return tuple(_find_violations(self))


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
    obj = dict(pairs)
    if len(obj) < len(pairs):  # some key repeats: name the first repeat
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SpecSyntaxError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


_REQUIRED: Any = object()
_TYPE_NAMES = {str: "string", list: "list", dict: "JSON object"}


def _field(obj: dict, key: str, where: str, kind: type = str,
           default: Any = _REQUIRED, item: Optional[type] = None) -> Any:
    """Field `key` of `obj`, of JSON type `kind`; required when no default is given.

    With a `None` default the field is optional: absent or null gives None.
    The items of a list field must have JSON type `item`, when given.
    """
    value = obj.get(key, default)
    if value is _REQUIRED:
        raise SpecFormatError(f"missing required field {key!r} in {where}")
    if isinstance(value, kind) and (
            item is None or all([isinstance(e, item) for e in value])):
        return value
    if value is None and default is None:
        return None
    if isinstance(value, kind):  # so an item has another type
        key, value, kind = next((f"{key}[{i}]", e, item)
                                for i, e in enumerate(value)
                                if not isinstance(e, item))
    raise SpecFormatError(
        f"{key} {value!r} in {where} is not a {_TYPE_NAMES[kind]}")


def _int_field(obj: dict, key: str, where: str,
               default: Optional[int] = _REQUIRED) -> Optional[int]:
    """Integer field `key` of `obj`, read like `_field`.

    A string of ASCII digits is taken as its decimal number. `true`, JSON
    numbers with a fraction or exponent (`2.0`, `2e3`) and any other
    string (a sign, whitespace, `_`, non-ASCII digits) are not integers.
    """
    value = _field(obj, key, where, object, default)
    if value is None and default is None:
        return None
    if type(value) is int:  # not bool, whose type is a subclass of int
        return value
    if type(value) is str and value.isascii() and value.isdigit():
        try:
            return int(value)
        except ValueError:  # more digits than int() reads
            pass
    raise SpecFormatError(f"{key} {value!r} in {where} is not an integer")


# The keys each spec object may have: its dataclass's field names.
_KNOWN = {cls: frozenset(f.name for f in fields(cls))
          for cls in (ClusterSpec, NodeSpec, InterfaceSpec, StorageSpec,
                      UserSpec, AppSpec, MotdSpec)}

_ROLES = {role.value: role for role in Role}
_OPTIONAL_STR = (str, type(None))
_OPTIONAL_INT = (int, type(None))


def _check_known(obj: dict, cls: type, where: str) -> None:
    unknown = set(obj) - _KNOWN[cls]
    if unknown:
        name = sorted(unknown)[0]
        raise SpecFormatError(f"unknown field {name!r} in {where}")


# Node and user records, which a spec holds once per node and per user,
# each have two readers. `_parse_node` and `_parse_user` check the common
# case in one expression (known keys, every field of its exact JSON type or
# absent where a default applies) and build the dataclass from it, which
# brought `parse_spec` to about two thirds of its field-by-field time at
# 60 workers and 1000 users and at 600 workers and 50 users. A record
# that fails the check goes to its `_read_*` twin, which reads it field by
# field with `_field` and `_int_field`, the only places that word a spec
# error. The records a spec holds once (storage, motd, the apps) have only
# the field-by-field reader.

def _parse_node(obj: dict) -> NodeSpec:
    g = obj.get
    role, ifaces, raid_level = g("role"), g("interfaces"), g("raid_level", 3)
    if (obj.keys() <= _KNOWN[NodeSpec] and type(g("hostname")) is str
            and type(role) is str and role in _ROLES and type(ifaces) is list
            and all([type(i) is dict and i.keys() <= _KNOWN[InterfaceSpec]
                     and type(i.get("name")) is str
                     and type(i.get("ip")) in _OPTIONAL_STR for i in ifaces])
            and type(raid_level) is int and raid_level in VALID_RAID_LEVELS
            and type(g("disk_bytes")) is int
            and type(g("swap_bytes")) in _OPTIONAL_INT):
        return NodeSpec(
            obj["hostname"], _ROLES[role],
            tuple([InterfaceSpec(i["name"], i.get("ip")) for i in ifaces]),
            obj["disk_bytes"], raid_level, g("swap_bytes"))
    return _read_node(obj)


def _read_node(obj: dict) -> NodeSpec:
    hostname = _field(obj, "hostname", "node")
    where = f"node {hostname!r}"
    _check_known(obj, NodeSpec, where)
    role_raw = _field(obj, "role", where)
    try:
        role = Role(role_raw)
    except ValueError:
        raise SpecFormatError(f"unknown role {role_raw!r} in {where}") from None
    ifaces = []
    for iobj in _field(obj, "interfaces", where, list, item=dict):
        _check_known(iobj, InterfaceSpec, f"interface of {where}")
        ifaces.append(InterfaceSpec(name=_field(iobj, "name", where),
                                    ip=_field(iobj, "ip", where, default=None)))
    raid_level = obj.get("raid_level", 3)
    # a JSON integer: true == 1 and 3.0 == 3, but neither is a RAID level
    if type(raid_level) is not int or raid_level not in VALID_RAID_LEVELS:
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


def _read_storage(obj: dict) -> StorageSpec:
    _check_known(obj, StorageSpec, "storage")
    path = _field(obj, "path", "storage")
    return StorageSpec(
        path=path,
        size_bytes=_int_field(obj, "size_bytes", "storage"),
        export_options=tuple(_field(obj, "export_options", "storage", list,
                                    list(DEFAULT_EXPORT_OPTIONS), item=str)),
        mountpoint_on_workers=_field(obj, "mountpoint_on_workers", "storage",
                                     default=path),
    )


def _parse_user(obj: dict, storage_path: str) -> UserSpec:
    g = obj.get
    username, group, shell = g("username"), g("group"), g("shell", DEFAULT_SHELL)
    home = obj["home"] if "home" in obj else f"{storage_path}/{username}"
    soft, hard = g("quota_soft_bytes", 0), g("quota_hard_bytes", 0)
    if (obj.keys() <= _KNOWN[UserSpec]
            and type(username) is type(group) is type(shell) is type(home) is str
            and type(soft) is type(hard) is int):
        # positional, in field order: the keywords cost a third of the call
        return UserSpec(username, group, home, shell, soft, hard)
    return _read_user(obj, storage_path)


def _read_user(obj: dict, storage_path: str) -> UserSpec:
    username = _field(obj, "username", "user")
    where = f"user {username!r}"
    _check_known(obj, UserSpec, where)
    return UserSpec(
        username=username,
        group=_field(obj, "group", where),
        shell=_field(obj, "shell", where, default=DEFAULT_SHELL),
        home=_field(obj, "home", where,
                    default=f"{storage_path}/{username}"),
        quota_soft_bytes=_int_field(obj, "quota_soft_bytes", where, 0),
        quota_hard_bytes=_int_field(obj, "quota_hard_bytes", where, 0),
    )


def _parse_app(obj: dict) -> AppSpec:
    name = _field(obj, "name", "app")
    where = f"app {name!r}"
    _check_known(obj, AppSpec, where)
    if name not in APP_NAMES:
        raise SpecFormatError(f"unknown app name {name!r}, expected one of {APP_NAMES}")
    return AppSpec(
        name=name,
        install_path=_field(obj, "install_path", where),
        source_url=_field(obj, "source_url", where, default=""),
    )


def _read_motd(obj: dict) -> MotdSpec:
    _check_known(obj, MotdSpec, "motd")
    wr = _field(obj, "worker_range", "motd", list, ["", ""], item=str)
    if len(wr) != 2:
        raise SpecFormatError(
            f"worker_range {wr!r} in motd is not a list of two strings")
    return MotdSpec(
        banner=_field(obj, "banner", "motd", default=DEFAULT_BANNER),
        contact_name=_field(obj, "contact_name", "motd", default=""),
        contact_email=_field(obj, "contact_email", "motd", default=""),
        worker_range=(wr[0], wr[1]),
    )


def parse_spec(text: "bytes | str") -> ClusterSpec:
    """Parse a JSON spec file into a ClusterSpec, applying defaults."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SpecSyntaxError(f"spec is not UTF-8 text ({exc})") from None
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
    _check_known(raw, ClusterSpec, "spec")
    storage = _read_storage(_field(raw, "storage", "spec", dict))
    return ClusterSpec(
        name=_field(raw, "name", "spec"),
        subnet=_field(raw, "subnet", "spec"),
        nodes=tuple([_parse_node(n)
                     for n in _field(raw, "nodes", "spec", list, item=dict)]),
        storage=storage,
        users=tuple([_parse_user(u, storage.path) for u in
                     _field(raw, "users", "spec", list, [], item=dict)]),
        apps=tuple([_parse_app(a)
                    for a in _field(raw, "apps", "spec", list, [], item=dict)]),
        motd=_read_motd(_field(raw, "motd", "spec", dict, {})),
        alias_guards=tuple(_field(raw, "alias_guards", "spec", list, [],
                                  item=str)),
    )


def spec_to_dict(spec: ClusterSpec) -> dict:
    """Plain-dict form of a ClusterSpec, suitable for JSON round-tripping.

    Built field by field: an interface without an address has no `ip`
    key and a node without `swap_bytes` has no such key.
    """
    def node(n: NodeSpec) -> dict:
        d = {"hostname": n.hostname, "role": n.role.value,
             "interfaces": [{"name": i.name, **({"ip": i.ip} if i.ip else {})}
                            for i in n.interfaces],
             "disk_bytes": n.disk_bytes, "raid_level": n.raid_level}
        if n.swap_bytes is not None:
            d["swap_bytes"] = n.swap_bytes
        return d

    storage, motd = spec.storage, spec.motd
    return {
        "name": spec.name,
        "subnet": spec.subnet,
        "nodes": [node(n) for n in spec.nodes],
        "storage": {"path": storage.path, "size_bytes": storage.size_bytes,
                    "export_options": list(storage.export_options),
                    "mountpoint_on_workers": storage.mountpoint_on_workers},
        "users": [dict(vars(u)) for u in spec.users],
        "apps": [dict(vars(a)) for a in spec.apps],
        "motd": {"banner": motd.banner, "contact_name": motd.contact_name,
                 "contact_email": motd.contact_email,
                 "worker_range": list(motd.worker_range)},
        "alias_guards": list(spec.alias_guards),
    }


def serialize_spec(spec: ClusterSpec) -> str:
    """Stable JSON serialization of a ClusterSpec."""
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n"


def spec_hash(spec: ClusterSpec) -> str:
    """Content hash identifying a ClusterSpec, computed once per spec object."""
    return spec._content_hash


# ---------------------------------------------------------------------------
# Validation

# Names that configgen and a shell transport put into command lines.
USER_NAME = re.compile(r"[a-z_][a-z0-9_-]*")  # usernames and groups
HOST_NAME = re.compile(r"[A-Za-z0-9]([A-Za-z0-9-]{0,61}[A-Za-z0-9])?")  # RFC 1123
INTERFACE_NAME = re.compile(r"[A-Za-z0-9_.:-]+")
SHELL_PATH = re.compile(r"/[A-Za-z0-9_./+-]*")
WHITESPACE = re.compile(r"\s")  # matches exactly the str.isspace characters


def validate(spec: ClusterSpec) -> list[Violation]:
    """Check every spec invariant; an empty list means the spec is valid.

    The check runs once per spec object; later calls return its result.
    """
    return list(spec._violations)


def _find_violations(spec: ClusterSpec) -> list[Violation]:
    out: list[Violation] = []

    masters = [n for n in spec.nodes if n.role is Role.MASTER]
    if len(masters) == 0:
        out.append(Violation("no-master", "no node has role master"))
    elif len(masters) > 1:
        names = ", ".join(n.hostname for n in masters)
        out.append(Violation("multiple-master",
                             f"multiple nodes have role master: {names}"))
    if not any(n.role is Role.WORKER for n in spec.nodes):
        out.append(Violation("no-workers", "no node has role worker"))

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

    home_prefix = spec.storage.path + "/"
    for u in [u for u in spec.users if u.home != home_prefix + u.username
              or u.quota_hard_bytes < u.quota_soft_bytes]:
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

    # each distinct name is matched once (users share groups and shells);
    # the labels are built only for the names that fail
    bad_host = {h for h in seen_hosts if not HOST_NAME.fullmatch(h)}
    bad_iface = {name for name in {i.name for n in spec.nodes
                                   for i in n.interfaces}
                 if not INTERFACE_NAME.fullmatch(name)}
    bad_user = {name for name in {u.username for u in spec.users}
                | {u.group for u in spec.users}
                if not USER_NAME.fullmatch(name)}
    bad_shell = {shell for shell in {u.shell for u in spec.users}
                 if not SHELL_PATH.fullmatch(shell)}
    if bad_host or bad_iface:
        out += [_bad_name("hostname", n.hostname, HOST_NAME)
                for n in spec.nodes if n.hostname in bad_host]
        out += [_bad_name(f"interface of {n.hostname}", i.name, INTERFACE_NAME)
                for n in spec.nodes for i in n.interfaces if i.name in bad_iface]
    if bad_user or bad_shell:
        for u in spec.users:
            if u.username in bad_user:
                out.append(_bad_name("username", u.username, USER_NAME))
            if u.group in bad_user:
                out.append(_bad_name(f"group of user {u.username}", u.group,
                                     USER_NAME))
            if u.shell in bad_shell:
                out.append(_bad_name(f"shell of user {u.username}", u.shell,
                                     SHELL_PATH))

    # spec strings that configgen writes as one whitespace-separated field
    # of an fstab, exports or profile line: no whitespace at all
    line_fields = [("storage path", spec.storage.path),
                   ("worker mountpoint", spec.worker_mountpoint)]
    line_fields += [("hostname", n.hostname) for n in spec.nodes]
    line_fields += [("export option", o) for o in spec.storage.export_options]
    line_fields += [(f"app {a.name} install_path", a.install_path)
                    for a in spec.apps]
    for what, value in line_fields:
        if WHITESPACE.search(value):
            out.append(Violation("forbidden-whitespace",
                                 f"{what} {value!r} contains whitespace",
                                 value))
    # free text that configgen writes into a file line: no line breaks
    free_text = [("motd banner", spec.motd.banner),
                 ("motd contact_name", spec.motd.contact_name),
                 ("motd contact_email", spec.motd.contact_email)]
    free_text += [("alias guard", g) for g in spec.alias_guards]
    for what, value in free_text:
        if any(c in value for c in "\t\r\n"):
            out.append(Violation(
                "forbidden-whitespace",
                f"{what} {value!r} contains a tab, CR or LF", value))

    return out


def _bad_name(what: str, value: str, rule: re.Pattern) -> Violation:
    return Violation("bad-name", f"{what} {value!r} does not match {rule.pattern}",
                     value)


# ---------------------------------------------------------------------------
# Partition planning

@functools.lru_cache(maxsize=64)  # the workers of a spec share a few keys
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
