"""Cluster specification data model: parsing, validation, partition planning."""

from __future__ import annotations

import functools
import hashlib
import ipaddress
import json
import re
import reprlib
import struct
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any, Callable, Optional

# `socket.inet_aton` is this C function. `socket` itself also loads
# `selectors`: its import took 3.2 ms per CLI process, `_socket`'s 0.46 ms
# (`python -X importtime`, Python 3.11.7).
from _socket import inet_aton

MIB = 1 << 20
GIB = 1 << 30
TIB = 1 << 40

VALID_RAID_LEVELS = (0, 1, 3, 5, 6, 10)

# Every application a spec may name, in the order the environment profile
# lists them: its profile header line and its exports, given its install
# path (aliroot's is `$ALICE/$ALICE_LEVEL`).
APPS: dict[str, tuple[str, Callable[[str], tuple[tuple[str, str], ...]]]] = {
    "root": ("# Root environment", lambda p: (
        ("ROOTSYS", p),
        ("PATH", "$ROOTSYS/bin/:$PATH"),
        ("LD_LIBRARY_PATH", "$ROOTSYS/lib/:$LD_LIBRARY_PATH"))),
    "aliroot": ("# AliRoot environment", lambda p: (
        ("ALICE", p.rpartition("/")[0]),
        ("ALICE_LEVEL", p.rpartition("/")[2]),
        ("ALICE_ROOT", "$ALICE/$ALICE_LEVEL"),
        ("ALICE_TARGET", "`root-config --arch`"),
        ("PATH", "$ALICE_ROOT/bin/tgt_$ALICE_TARGET:$PATH"),
        ("LD_LIBRARY_PATH",
         "$ALICE_ROOT/lib/tgt_$ALICE_TARGET/:$LD_LIBRARY_PATH"))),
    "geant3": ("# Geant3 environment", lambda p: (
        ("PLATFORM", "`root-config --arch`"),
        ("LD_LIBRARY_PATH", f"{p}/lib/tgt_$PLATFORM/:$LD_LIBRARY_PATH"))),
}
APP_NAMES = tuple(APPS)

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
# most 255 in ASCII digits, without leading zeros. `inet_aton` reads such
# a string as `ipaddress` does.
_OCTET = "(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_DOTTED_QUAD = re.compile(r"\.".join([_OCTET] * 4))
# dotted quads joined by newlines
_DOTTED_QUADS = re.compile(
    rf"{_DOTTED_QUAD.pattern}(?:\n{_DOTTED_QUAD.pattern})*")


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
        bounds, with one regex match and one C conversion; any other
        address, or an IPv6 subnet, goes to `ipaddress`.
        """
        net, bounds = _subnet(subnet)
        for iface in self.interfaces:
            ip = iface.ip
            if ip is None:
                continue
            if bounds and _DOTTED_QUAD.fullmatch(ip):
                address = int.from_bytes(inet_aton(ip), "big")
                if address & bounds[0] == bounds[1]:
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

    # cached on the instance, as a frozen spec's content never changes; an
    # error (no master, or two) is not cached and is raised on every access
    @functools.cached_property
    def master(self) -> NodeSpec:
        masters = [n for n in self.nodes if n.role is Role.MASTER]
        if len(masters) != 1:
            raise ValueError(f"expected exactly one master, found {len(masters)}")
        return masters[0]

    @functools.cached_property
    def workers(self) -> tuple[NodeSpec, ...]:
        return tuple([n for n in self.nodes if n.role is Role.WORKER])

    @property
    def worker_mountpoint(self) -> str:
        return self.storage.mountpoint_on_workers or self.storage.path

    @functools.cached_property
    def storage_mount(self) -> tuple[str, str]:
        """The (source, mountpoint) of each worker's NFS mount; the source
        is `<master hostname>:<storage path>`."""
        return (f"{self.master.hostname}:{self.storage.path}",
                self.worker_mountpoint)

    @functools.cached_property
    def _content_hash(self) -> str:
        text = _canonical_text(self)  # ASCII only
        return hashlib.sha256(text.encode("ascii")).hexdigest()

    @functools.cached_property
    def _violations(self) -> tuple[Violation, ...]:
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
                raise SpecSyntaxError(f"duplicate key {LABEL.repr(key)}")
            seen.add(key)
    return obj


_REQUIRED: Any = object()
_TYPE_NAMES = {str: "string", list: "list", dict: "JSON object"}
# `LABEL.repr` shows an outside value in a one-line error or violation,
# escaped as `repr` escapes it: a string whole up to 64 characters, a
# container one level deep.
LABEL = reprlib.Repr()
LABEL.maxlevel = 1
LABEL.maxstring = 66  # 64 characters and their quotes


def _bare(value: str) -> str:
    """`value` as `LABEL` shows it, without the quotes."""
    return LABEL.repr(value)[1:-1]


def _names(values: list[str]) -> str:
    """The first five of `values` bare, then how many more there are."""
    shown = ", ".join(map(_bare, values[:5]))
    return shown if len(values) <= 5 else f"{shown} and {len(values) - 5} more"


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
        f"{key} {LABEL.repr(value)} in {where} is not a {_TYPE_NAMES[kind]}")


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
    raise SpecFormatError(f"{key} {LABEL.repr(value)} in {where} is not an integer")


# The keys each spec object may have: its dataclass's field names.
_KNOWN = {cls: frozenset(f.name for f in fields(cls))
          for cls in (ClusterSpec, NodeSpec, InterfaceSpec, StorageSpec,
                      UserSpec, AppSpec, MotdSpec)}

_ROLES = {role.value: role for role in Role}
# each role's JSON text, for `_spec_text`
_ROLE_TEXTS = {role: json.dumps(role.value) for role in Role}
_OPTIONAL_STR = (str, type(None))
_OPTIONAL_INT = (int, type(None))


def _check_known(obj: dict, cls: type, where: str) -> None:
    unknown = set(obj) - _KNOWN[cls]
    if unknown:
        name = sorted(unknown)[0]
        raise SpecFormatError(f"unknown field {LABEL.repr(name)} in {where}")


# Node and user records, which a spec holds once per node and per user,
# each have two readers. `_parse_node` and `_parse_user` check the common
# case (known keys, every field of its exact JSON type or absent where a
# default applies; a node's interfaces in one plain loop) and build the
# frozen record from it with `object.__new__` and one `object.__setattr__`
# per field, as the dataclass `__init__` would, without calling it. For
# the 601 nodes of a 600-worker spec that took the Python calls from 5 to 1
# per node and the time from 2.1 to 1.5 ms (minima, Python 3.11.7 on a
# 2-core Xeon VM); a user went from 2 calls to 1. A record that fails the
# check goes to its `_read_*` twin, which reads it field by field with
# `_field` and `_int_field`, the only places that word a spec error. The
# records a spec holds once (storage, motd, the apps) have only the
# field-by-field reader.


def _parse_node(obj: dict) -> NodeSpec:
    g = obj.get
    hostname, role, ifaces = g("hostname"), g("role"), g("interfaces")
    disk_bytes, raid_level, swap_bytes = (g("disk_bytes"), g("raid_level", 3),
                                          g("swap_bytes"))
    if not (obj.keys() <= _KNOWN[NodeSpec] and type(hostname) is str
            and type(role) is str and role in _ROLES and type(ifaces) is list
            and type(raid_level) is int and raid_level in VALID_RAID_LEVELS
            and type(disk_bytes) is int
            and type(swap_bytes) in _OPTIONAL_INT):
        return _read_node(obj)
    new, put = object.__new__, object.__setattr__
    interfaces = []
    for i in ifaces:
        if not (type(i) is dict and i.keys() <= _KNOWN[InterfaceSpec]
                and type(name := i.get("name")) is str
                and type(ip := i.get("ip")) in _OPTIONAL_STR):
            return _read_node(obj)
        iface = new(InterfaceSpec)
        put(iface, "name", name)
        put(iface, "ip", ip)
        interfaces.append(iface)
    node = new(NodeSpec)
    put(node, "hostname", hostname)
    put(node, "role", _ROLES[role])
    put(node, "interfaces", tuple(interfaces))
    put(node, "disk_bytes", disk_bytes)
    put(node, "raid_level", raid_level)
    put(node, "swap_bytes", swap_bytes)
    return node


def _read_node(obj: dict) -> NodeSpec:
    hostname = _field(obj, "hostname", "node")
    where = f"node {LABEL.repr(hostname)}"
    _check_known(obj, NodeSpec, where)
    role_raw = _field(obj, "role", where)
    try:
        role = Role(role_raw)
    except ValueError:
        raise SpecFormatError(
            f"unknown role {LABEL.repr(role_raw)} in {where}") from None
    ifaces = []
    for iobj in _field(obj, "interfaces", where, list, item=dict):
        _check_known(iobj, InterfaceSpec, f"interface of {where}")
        ifaces.append(InterfaceSpec(name=_field(iobj, "name", where),
                                    ip=_field(iobj, "ip", where, default=None)))
    raid_level = obj.get("raid_level", 3)
    # a JSON integer: true == 1 and 3.0 == 3, but neither is a RAID level
    if type(raid_level) is not int or raid_level not in VALID_RAID_LEVELS:
        raise SpecFormatError(f"raid_level {LABEL.repr(raid_level)} in {where} "
                              f"not one of {VALID_RAID_LEVELS}")
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
    if not (obj.keys() <= _KNOWN[UserSpec]
            and type(username) is type(group) is type(shell) is type(home) is str
            and type(soft) is type(hard) is int):
        return _read_user(obj, storage_path)
    put = object.__setattr__
    user = object.__new__(UserSpec)
    put(user, "username", username)
    put(user, "group", group)
    put(user, "home", home)
    put(user, "shell", shell)
    put(user, "quota_soft_bytes", soft)
    put(user, "quota_hard_bytes", hard)
    return user


def _read_user(obj: dict, storage_path: str) -> UserSpec:
    username = _field(obj, "username", "user")
    where = f"user {LABEL.repr(username)}"
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
    where = f"app {LABEL.repr(name)}"
    _check_known(obj, AppSpec, where)
    if name not in APP_NAMES:
        raise SpecFormatError(f"unknown app name {LABEL.repr(name)}, "
                              f"expected one of {APP_NAMES}")
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
            f"worker_range {LABEL.repr(wr)} in motd is not a list of two strings")
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
    except (ValueError, RecursionError) as exc:  # a huge integer, deep nesting
        raise SpecSyntaxError(f"spec is not readable JSON ({exc})") from None
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


def _json(value: Any) -> str:
    """`value` as compact JSON, as `json.dumps` writes it inside a tree."""
    return json.dumps(value, separators=(",", ":"))


def _canonical_text(spec: ClusterSpec) -> str:
    """The canonical JSON text of `spec`: compact, every object in sorted
    key order, ASCII only; an interface whose `ip` is None has no `ip` key
    and a node without `swap_bytes` has no such key.

    A spec read by `parse_spec` holds only strings and exact ints, which
    `_spec_text` writes with `encode_basestring_ascii` and `str`, as
    `json.dumps` writes them. A record built through the API may hold
    another value (`disk_bytes=True` or `2.0`, a None name): the whole text
    is then written again with `json.dumps` for every value.
    """
    try:
        return _spec_text(spec, json.encoder.encode_basestring_ascii, str)
    except TypeError:  # a value `str` would not write as JSON does
        return _spec_text(spec, _json, _json)


def _spec_text(spec: ClusterSpec, s: Callable[[Any], str],
               i: Callable[[Any], str]) -> str:
    """`spec`'s canonical text with each string written by `s` and each
    integer by `i`. With `i` being `str`, an integer field that is not an
    exact int is a TypeError: `str(True)` is not JSON's `true`."""
    exact = i is str
    nodes = []
    for n in spec.nodes:
        disk, raid, swap = n.disk_bytes, n.raid_level, n.swap_bytes
        if exact and not (type(disk) is type(raid) is int
                          and type(swap) in _OPTIONAL_INT):
            raise TypeError("an integer field is not an exact int")
        ifaces = []  # a plain loop: a comprehension is a call per node
        for f in n.interfaces:
            ifaces.append(f'{{"name":{s(f.name)}}}' if f.ip is None else
                          f'{{"ip":{s(f.ip)},"name":{s(f.name)}}}')
        nodes.append(
            f'{{"disk_bytes":{i(disk)},"hostname":{s(n.hostname)},'
            f'"interfaces":[{",".join(ifaces)}],"raid_level":{i(raid)},'
            f'"role":{_ROLE_TEXTS[n.role]}'
            + ("}" if swap is None else f',"swap_bytes":{i(swap)}}}'))
    users = []
    for u in spec.users:
        hard, soft = u.quota_hard_bytes, u.quota_soft_bytes
        if exact and not type(hard) is type(soft) is int:
            raise TypeError("an integer field is not an exact int")
        users.append(
            f'{{"group":{s(u.group)},"home":{s(u.home)},'
            f'"quota_hard_bytes":{i(hard)},"quota_soft_bytes":{i(soft)},'
            f'"shell":{s(u.shell)},"username":{s(u.username)}}}')
    storage, motd = spec.storage, spec.motd
    if exact and type(storage.size_bytes) is not int:
        raise TypeError("an integer field is not an exact int")
    apps = ",".join([f'{{"install_path":{s(a.install_path)},'
                     f'"name":{s(a.name)},"source_url":{s(a.source_url)}}}'
                     for a in spec.apps])
    options = ",".join(map(s, storage.export_options))
    return (
        f'{{"alias_guards":[{",".join(map(s, spec.alias_guards))}],'
        f'"apps":[{apps}],'
        f'"motd":{{"banner":{s(motd.banner)},'
        f'"contact_email":{s(motd.contact_email)},'
        f'"contact_name":{s(motd.contact_name)},'
        f'"worker_range":[{",".join(map(s, motd.worker_range))}]}},'
        f'"name":{s(spec.name)},"nodes":[{",".join(nodes)}],'
        f'"storage":{{"export_options":[{options}],'
        f'"mountpoint_on_workers":{s(storage.mountpoint_on_workers)},'
        f'"path":{s(storage.path)},"size_bytes":{i(storage.size_bytes)}}},'
        f'"subnet":{s(spec.subnet)},"users":[{",".join(users)}]}}')


def spec_to_dict(spec: ClusterSpec) -> dict:
    """Plain-dict form of a ClusterSpec, suitable for JSON round-tripping:
    its canonical text read back, so every dict is in sorted key order."""
    return json.loads(_canonical_text(spec))


def serialize_spec(spec: ClusterSpec) -> str:
    """Stable JSON serialization of a ClusterSpec."""
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n"


def spec_hash(spec: ClusterSpec) -> str:
    """Content hash identifying a ClusterSpec, computed once per spec object."""
    return spec._content_hash


# ---------------------------------------------------------------------------
# Validation

# Names that configgen and a shell transport put into command lines.
USER_NAME = re.compile(r"[a-z_][a-z0-9_-]{0,31}")  # users, groups: useradd's 32
HOST_NAME = re.compile(r"[A-Za-z0-9]([A-Za-z0-9-]{0,61}[A-Za-z0-9])?")  # RFC 1123
INTERFACE_NAME = re.compile(r"[A-Za-z0-9_.:-]+")
ADDRESS = re.compile(rf"[0-9A-Fa-f.:]+(%{INTERFACE_NAME.pattern})?")  # optional IPv6 %zone
SHELL_PATH = re.compile(r"/[A-Za-z0-9_./+-]*")
ALIAS_NAME = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.+-]*")  # a sourced alias name
EXPORT_OPTION = re.compile(r"[A-Za-z0-9_=:/.-]+")  # one option of an exports entry
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
        out.append(Violation("multiple-master", "multiple nodes have role "
                             f"master: {_names([n.hostname for n in masters])}"))
    if not any(n.role is Role.WORKER for n in spec.nodes):
        out.append(Violation("no-workers", "no node has role worker"))

    # hostnames and addresses are walked node by node only when one repeats
    hostnames = [n.hostname for n in spec.nodes]
    if len(set(hostnames)) < len(hostnames):
        seen_hosts: set[str] = set()
        for host in hostnames:
            if host in seen_hosts:
                out.append(Violation("duplicate-hostname", "hostname "
                                     f"{LABEL.repr(host)} used more than once",
                                     host))
            seen_hosts.add(host)

    try:
        net = _subnet(spec.subnet)[0]
    except ValueError:
        out.append(Violation(
            "bad-subnet", f"subnet {LABEL.repr(spec.subnet)} is not a CIDR"))
        net = None

    ips = [i.ip for n in spec.nodes for i in n.interfaces if i.ip]
    if len(set(ips)) < len(ips):
        ip_owners: dict[str, list[str]] = {}
        for n in spec.nodes:
            for iface in n.interfaces:
                if iface.ip:
                    ip_owners.setdefault(iface.ip, []).append(n.hostname)
        for ip, owners in ip_owners.items():
            if len(owners) > 1:
                out.append(Violation(
                    "duplicate-ip",
                    f"address {_bare(ip)} assigned to multiple nodes: "
                    f"{_names(owners)}",
                    ip))

    # a worker's address is checked node by node only when the one-pass
    # check cannot vouch for every single-interface worker
    workers_inside = net is not None and _workers_inside(spec)
    for n in spec.nodes:
        if n.role is Role.MASTER:
            internal = n.internal_ip(spec.subnet) if net else None
            if len(n.interfaces) < 2:
                out.append(Violation(
                    "master-interfaces",
                    f"master {_bare(n.hostname)} needs at least 2 interfaces",
                    n.hostname))
            if net and internal is None:
                out.append(Violation(
                    "ip-outside-subnet",
                    f"master {_bare(n.hostname)} has no interface in subnet "
                    f"{_bare(spec.subnet)}",
                    n.hostname))
        else:
            if len(n.interfaces) != 1:
                out.append(Violation(
                    "worker-interfaces",
                    f"worker {_bare(n.hostname)} must have exactly 1 interface",
                    n.hostname))
            elif (net and not workers_inside
                  and n.internal_ip(spec.subnet) is None):
                out.append(Violation(
                    "ip-outside-subnet",
                    f"worker {_bare(n.hostname)} interface is not inside "
                    f"{_bare(spec.subnet)}",
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

    usernames = {u.username for u in spec.users}
    if len(usernames) < len(spec.users):  # name each repeat
        seen_users: set[str] = set()
        for u in spec.users:
            if u.username in seen_users:
                out.append(Violation("duplicate-user", "username "
                                     f"{LABEL.repr(u.username)} used more than once",
                                     u.username))
            seen_users.add(u.username)

    home_prefix = spec.storage.path + "/"
    for u in [u for u in spec.users if u.home != home_prefix + u.username
              or u.quota_hard_bytes < u.quota_soft_bytes]:
        expected_home = f"{spec.storage.path}/{u.username}"
        if u.home != expected_home:
            out.append(Violation(
                "home-mismatch",
                f"user {_bare(u.username)} home {LABEL.repr(u.home)} must be "
                f"{LABEL.repr(expected_home)}",
                u.username))
        if u.quota_hard_bytes < u.quota_soft_bytes:
            out.append(Violation(
                "quota-order",
                f"user {_bare(u.username)} hard quota below soft quota",
                u.username))

    for a in spec.apps:
        if not a.install_path.startswith(spec.storage.path + "/"):
            out.append(Violation(
                "app-path",
                f"app {a.name} install path {LABEL.repr(a.install_path)} must be "
                f"under {_bare(spec.storage.path)}",
                a.name))

    worker_names = {n.hostname for n in spec.nodes if n.role is Role.WORKER}
    for end in spec.motd.worker_range:
        if end and end not in worker_names:
            out.append(Violation(
                "motd-range",
                f"worker range endpoint {LABEL.repr(end)} is not a worker hostname",
                end))

    # one partition table per distinct (role, disk, swap), as `_templates`
    # builds one template per worker shape; nodes are walked only on a miss
    too_small: dict[tuple, DiskTooSmallError] = {}
    for shape in {(n.role, n.disk_bytes, n.swap_bytes) for n in spec.nodes}:
        role, disk_bytes, swap_bytes = shape
        try:
            partition_plan(role, disk_bytes, spec.storage.size_bytes
                           if role is Role.MASTER else None, swap_bytes)
        except DiskTooSmallError as exc:
            too_small[shape] = exc
    if too_small:
        for n in spec.nodes:
            exc = too_small.get((n.role, n.disk_bytes, n.swap_bytes))
            if exc:
                out.append(Violation("disk-too-small",
                                     f"node {_bare(n.hostname)}: {exc}",
                                     n.hostname))

    # each distinct interface name, user name, group and shell is matched
    # once (users share groups and shells); labels are built only on failure
    bad_iface = {name for name in {i.name for n in spec.nodes
                                   for i in n.interfaces}
                 if not INTERFACE_NAME.fullmatch(name)}
    bad_user = {name for name in usernames | {u.group for u in spec.users}
                if not USER_NAME.fullmatch(name)}
    bad_shell = {shell for shell in {u.shell for u in spec.users}
                 if not SHELL_PATH.fullmatch(shell)}
    if bad_iface:
        out += [_bad_name(f"interface of {_bare(n.hostname)}", i.name,
                          INTERFACE_NAME)
                for n in spec.nodes for i in n.interfaces if i.name in bad_iface]
    if bad_user or bad_shell:
        for u in spec.users:
            if u.username in bad_user:
                out.append(_bad_name("username", u.username, USER_NAME))
            if u.group in bad_user:
                out.append(_bad_name(f"group of user {_bare(u.username)}",
                                     u.group, USER_NAME))
            if u.shell in bad_shell:
                out.append(_bad_name(f"shell of user {_bare(u.username)}",
                                     u.shell, SHELL_PATH))
    out += [_bad_name("alias guard", g, ALIAS_NAME)
            for g in spec.alias_guards if not ALIAS_NAME.fullmatch(g)]

    # each spec string that configgen writes as one field of an fstab,
    # exports or profile line, with its rule against shell syntax and an
    # exports host's ")" or "("; a relative path has its own code instead
    line_fields = [("hostname", host, HOST_NAME) for host in hostnames]
    line_fields += [("storage path", spec.storage.path, SHELL_PATH),
                    ("worker mountpoint", spec.storage.mountpoint_on_workers,
                     SHELL_PATH)]
    line_fields += [(f"app {a.name} install_path", a.install_path, SHELL_PATH)
                    for a in spec.apps]
    line_fields += [("export option", o, EXPORT_OPTION)
                    for o in spec.storage.export_options]
    if len(masters) == 1 and net and (ip := masters[0].internal_ip(spec.subnet)):
        line_fields.append(("master address", ip, ADDRESS))
    for what, value, rule in line_fields:
        if rule.fullmatch(value):  # no rule matches whitespace
            continue
        if WHITESPACE.search(value):
            out.append(Violation("forbidden-whitespace", f"{what} "
                                 f"{LABEL.repr(value)} contains whitespace", value))
        elif rule is not SHELL_PATH or value[:1] == "/":
            out.append(_bad_name(what, value, rule))
    # free text that configgen writes into a file line: no line breaks
    for key in ("banner", "contact_name", "contact_email"):
        value = getattr(spec.motd, key)
        if any(c in value for c in "\t\r\n"):
            out.append(Violation(
                "forbidden-whitespace",
                f"motd {key} {LABEL.repr(value)} contains a tab, CR or LF", value))

    return out


def _workers_inside(spec: ClusterSpec) -> bool:
    """Whether every worker with exactly one interface has a dotted quad
    inside the spec's IPv4 subnet, read in one pass: one regex match over
    the addresses joined by newlines, one C conversion and one unpack of
    them all, one mask test each. False also when the subnet is IPv6 or an
    address is None or of another form; `internal_ip` then answers node by
    node, as it always does for the master.
    """
    bounds = _subnet(spec.subnet)[1]
    if bounds is None:
        return False
    ips = [n.interfaces[0].ip for n in spec.nodes
           if n.role is not Role.MASTER and len(n.interfaces) == 1]
    if None in ips:
        return False
    text = "\n".join(ips)
    # an address holding a newline would pass for two quads
    if text.count("\n") != len(ips) - 1 or not _DOTTED_QUADS.fullmatch(text):
        return False
    mask, network = bounds
    words = struct.unpack(f">{len(ips)}I", b"".join(map(inet_aton, ips)))
    return all([w & mask == network for w in words])


def _bad_name(what: str, value: str, rule: re.Pattern) -> Violation:
    return Violation("bad-name", f"{what} {LABEL.repr(value)} does not match "
                     f"{rule.pattern}", value)


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
