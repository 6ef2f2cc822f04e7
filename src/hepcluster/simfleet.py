"""In-memory simulated node fleet implementing the backend contract."""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import math
import operator
import os
import tempfile
from typing import Iterable, Optional

from .model import LABEL, ClusterSpec, _bare
from .planner import Backend, BackendError, Blobs, NodeState, NodeUnreachableError

# Version of the state file layout written by `save`; `load` reads only this.
STATE_FORMAT = 4


class QuotaExceededError(BackendError):
    """Write rejected because it would exceed the user's hard limit."""


class FaultInjectedError(BackendError):
    """Failure forced by a previously injected fault."""


class StateError(Exception):
    """A state file that `load` cannot read: not JSON, old format or damaged."""


def _typed(value, kind: type, what: str):
    """`value` if its JSON type is `kind` (a bool is no int), else TypeError."""
    if type(value) is not kind:
        raise TypeError(f"{what} {LABEL.repr(value)} is not {kind.__name__}")
    return value


def _pair(value, kind: type, what: str) -> tuple:
    """A JSON list of two `kind` values, as a tuple, else TypeError."""
    if (type(value) is not list or len(value) != 2
            or type(value[0]) is not kind or type(value[1]) is not kind):
        raise TypeError(
            f"{what} {LABEL.repr(value)} is not a pair of {kind.__name__}")
    return tuple(value)


_NAME = operator.attrgetter("name")


def _read_record(blobs: Blobs, i: int, record: dict) -> tuple:
    """State-file record `i` as the fields of a `NodeState` after its
    hostname, type-checked field by field and element by element in the
    order `power`, the blob lookups, `mounts`, `quota_enabled`, `quotas`,
    `markers`, `counters` (every interface, in file order), then
    `unreachable`, so the first bad value is the one named.
    """
    power = record["power"]
    if power not in ("on", "off"):
        raise ValueError(f"power {LABEL.repr(power)} is not on or off")
    accounts = record["accounts"]
    try:
        files = {p: blobs[d] for p, d in record["files"].items()}
        # the nodes with one digest share its table until one edits
        accounts = blobs.accounts(accounts)
    except KeyError as exc:
        raise StateError(f"record {i} refers to missing blob "
                         f"{_bare(str(exc.args[0]))}") from None
    mounts = {_pair(m, str, "mount")
              for m in _typed(record["mounts"], list, "mounts")}
    quota_enabled = _typed(record["quota_enabled"], bool, "quota_enabled")
    quotas = {u: _pair(q, int, "quota") for u, q in record["quotas"].items()}
    markers = {_typed(m, str, "marker")
               for m in _typed(record["markers"], list, "markers")}
    counters = {n: _pair(c, int, "counter")
                for n, c in record["counters"].items()}
    unreachable = _typed(record["unreachable"], bool, "unreachable")
    return (not unreachable, power, files, mounts, accounts, quota_enabled,
            quotas, markers, counters)


# The calls `_enter` guards, each under its own name, and so the names an
# injected `fail_next_capability` fault may take: the backend contract's
# capabilities and the shared-volume writes and reads.
CAPABILITIES = frozenset(
    {n for n in dir(Backend) if not n.startswith("_")} - {"hostnames"}
    | {"sim_write", "sim_read"})


def _new_node(hostname: str, interfaces: Iterable[str]) -> NodeState:
    """A machine as first built: reachable, off, empty, counters at 0."""
    return NodeState(hostname, reachable=True,
                     counters=dict.fromkeys(interfaces, (0, 0)))


def _power_off(node: NodeState) -> None:
    """What losing power does: storage unmounts, counters restart at 0."""
    node.power = "off"
    node.mounts.clear()
    node.counters = dict.fromkeys(node.counters, (0, 0))


class SimFleet:
    """Simulated backend: a fake machine per spec node plus one shared volume.

    Each machine is a `NodeState` record, and an `unreachable` fault is
    `reachable=False` on it. Like every backend, it is called from one
    thread.
    """

    def __init__(self, spec: ClusterSpec):
        self._attach(spec)
        self.nodes: dict[str, NodeState] = {
            n.hostname: _new_node(n.hostname, map(_NAME, n.interfaces))
            for n in spec.nodes}

    def _attach(self, spec: ClusterSpec) -> None:
        """Everything but the nodes: a fleet of `spec` with no history."""
        self.master_hostname = spec.master.hostname
        self.storage_root = spec.storage.path
        # hostname -> capability (or "*") whose next call fails; not saved
        self._fail_next: dict[str, str] = {}
        # hostnames whose account table no snapshot, caller or other node
        # holds, so `create_user` edits it in place; not saved
        self._private: set[str] = set()
        self.shared_files: dict[str, tuple[str, bytes]] = {}  # path -> (owner, data)
        self.clock: float = 0.0

    # -- internals ----------------------------------------------------------

    def _node(self, hostname: str) -> NodeState:
        try:
            return self.nodes[hostname]
        except KeyError:
            raise BackendError(f"unknown node {hostname!r}") from None

    def _enter(self, hostname: str, capability: str) -> NodeState:
        """Common per-capability checks: existence, faults, power gating."""
        node = self.nodes.get(hostname)
        if node is None:
            raise BackendError(f"unknown node {hostname!r}")
        if self._fail_next and self._fail_next.get(hostname) in ("*", capability):
            del self._fail_next[hostname]
            raise FaultInjectedError(
                f"injected failure of {capability} on {hostname}")
        if not node.reachable:
            raise NodeUnreachableError(f"{hostname} is unreachable")
        if node.power == "off" and capability != "power":
            raise NodeUnreachableError(f"{hostname} is powered off")
        return node

    # -- backend contract ---------------------------------------------------

    def hostnames(self) -> list[str]:
        return sorted(self.nodes)

    def read_state(self, hostname: str) -> NodeState:
        """A snapshot of the node: its own copy of every field but
        `accounts`, which is the node's table itself, shared and not to be
        edited; the node's next account edit copies it first."""
        node = self._enter(hostname, "read_state")
        self._private.discard(hostname)
        # positional, in field order, as `_restore` builds a node
        return NodeState(
            hostname, True, node.power, dict(node.files), set(node.mounts),
            node.accounts, node.quota_enabled, dict(node.quotas),
            set(node.markers), dict(node.counters))

    def power(self, hostname: str, on: bool) -> bool:
        node = self._enter(hostname, "power")
        want = "on" if on else "off"
        if node.power == want:
            return False
        if on:
            node.power = "on"
        else:
            _power_off(node)
        return True

    def write_file(self, hostname: str, path: str, data: bytes) -> bool:
        node = self._enter(hostname, "write_file")
        if node.files.get(path) == data:
            return False
        node.files[path] = data
        return True

    def append_file(self, hostname: str, path: str, data: bytes) -> bool:
        node = self._enter(hostname, "append_file")
        existing = node.files.get(path, b"")
        if data in existing:
            return False
        node.files[path] = existing + data
        return True

    def mount(self, hostname: str, source: str, mountpoint: str) -> bool:
        node = self._enter(hostname, "mount")
        master = self.nodes[self.master_hostname]
        if master.power != "on":
            raise BackendError(
                f"cannot mount {source}: {self.master_hostname} is down")
        if (source, mountpoint) in node.mounts:
            return False
        node.mounts.add((source, mountpoint))
        return True

    def create_user(self, hostname: str, username: str, group: str,
                    shell: str, home: str) -> bool:
        node = self._enter(hostname, "create_user")
        account = (group, shell, home)
        if node.accounts.get(username) == account:
            return False
        if hostname not in self._private:  # copied once, then edited in place
            node.accounts = dict(node.accounts)
            self._private.add(hostname)
        node.accounts[username] = account
        return True

    def sync_accounts(self, hostname: str,
                      table: dict[str, tuple[str, str, str]]) -> bool:
        """Give the node every account of `table`, in one call.

        A node whose accounts are a subset of `table` (a new or wiped
        worker) takes `table` itself as its table, shared with the caller
        and with every node that took it; otherwise the node gets a new
        table of its accounts and `table`'s. Neither edits a table that a
        snapshot, a caller or another node may hold.
        """
        node = self._enter(hostname, "sync_accounts")
        if table.items() <= node.accounts.items():
            return False
        if node.accounts.items() <= table.items():
            node.accounts = table
            self._private.discard(hostname)
        else:
            node.accounts = {**node.accounts, **table}
            self._private.add(hostname)
        return True

    def enable_quota(self, hostname: str) -> bool:
        node = self._enter(hostname, "enable_quota")
        if node.quota_enabled:
            return False
        node.quota_enabled = True
        return True

    def set_quota(self, hostname: str, username: str, soft: int,
                  hard: int) -> bool:
        node = self._enter(hostname, "set_quota")
        if node.quotas.get(username) == (soft, hard):
            return False
        node.quotas[username] = (soft, hard)
        return True

    def set_marker(self, hostname: str, marker: str) -> bool:
        node = self._enter(hostname, "set_marker")
        if marker in node.markers:
            return False
        node.markers.add(marker)
        return True

    def enable_monitor(self, hostname: str) -> bool:
        node = self._enter(hostname, "enable_monitor")
        if "monitor" in node.markers:
            return False
        node.markers.add("monitor")
        return True

    # -- shared storage -----------------------------------------------------

    def _resolve_shared(self, node: NodeState, path: str) -> str:
        """Map a node-local path to a shared-store path, or raise."""
        if node.hostname == self.master_hostname:
            if path.startswith(self.storage_root + "/"):
                return path
            raise BackendError(f"{path} is not under {self.storage_root}")
        for source, mountpoint in node.mounts:
            if path == mountpoint or path.startswith(mountpoint + "/"):
                suffix = path[len(mountpoint):]
                return self.storage_root + suffix
        raise BackendError(f"no mount covers {path} on {node.hostname}")

    def quota_used(self, username: str) -> int:
        """Bytes of the shared files `username` owns."""
        return sum(len(data) for owner, data in self.shared_files.values()
                   if owner == username)

    def sim_write(self, hostname: str, username: str, path: str,
                  data: bytes) -> None:
        """Write a file into shared storage as a user, enforcing hard quotas."""
        node = self._enter(hostname, "sim_write")
        shared_path = self._resolve_shared(node, path)
        master = self.nodes[self.master_hostname]
        if username not in master.accounts:
            raise BackendError(f"unknown user {username!r}")
        old = self.shared_files.get(shared_path)
        delta = len(data) - (len(old[1]) if old and old[0] == username else 0)
        quota = master.quotas.get(username)
        if master.quota_enabled and quota and quota[1] > 0:
            if self.quota_used(username) + delta > quota[1]:
                raise QuotaExceededError(
                    f"user {username} would exceed hard limit {quota[1]}")
        self.shared_files[shared_path] = (username, data)

    def sim_read(self, hostname: str, path: str) -> bytes:
        """Read a shared-storage file through a node's mount."""
        node = self._enter(hostname, "sim_read")
        shared_path = self._resolve_shared(node, path)
        if shared_path not in self.shared_files:
            raise BackendError(f"no such file {shared_path}")
        return self.shared_files[shared_path][1]

    # -- simulation controls ------------------------------------------------

    def sim_tick(self, duration: float,
                 traffic_profile: Optional[dict[str, float]] = None) -> None:
        """Advance simulated time, moving traffic counters on powered nodes."""
        if duration <= 0:
            raise ValueError("tick duration must be positive")
        profile = traffic_profile or {}
        for hostname, node in self.nodes.items():
            if node.power != "on":
                continue
            moved = int(profile.get(hostname, 0.0) * duration)
            node.counters = {i: (rx + moved, tx + moved)
                             for i, (rx, tx) in node.counters.items()}
        self.clock += duration

    def inject_fault(self, hostname: str, fault: str,
                     capability: Optional[str] = None) -> None:
        """Force a failure mode: unreachable, crash, or fail_next_capability,
        which fails the node's next call of `capability` (one of
        `CAPABILITIES`), or of any capability when it is None."""
        node = self._node(hostname)
        if fault == "unreachable":
            node.reachable = False
        elif fault == "fail_next_capability":
            if capability and capability not in CAPABILITIES:
                raise ValueError(f"unknown capability {capability!r}")
            self._fail_next[hostname] = capability or "*"
        elif fault == "crash":
            _power_off(node)
        else:
            raise ValueError(f"unknown fault {fault!r}")

    def clear_fault(self, hostname: str) -> None:
        self._node(hostname).reachable = True
        self._fail_next.pop(hostname, None)

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        """The state in file form: each distinct node record once.

        `records` holds each distinct node record once, in order of first
        use over sorted hostnames, and `nodes` maps each hostname to its
        record's index, so workers configured alike cost one record and an
        index each. A record's files and accounts refer to blobs: each
        distinct file content and each distinct account table is stored
        once, under its sha256. A node finds its record with one lookup on
        a key that ignores the order of its sets and dicts, so the file
        depends only on the fleet's content.
        """
        blobs = Blobs()
        records: list[dict] = []
        index: dict[tuple, int] = {}  # record key -> index in records
        nodes: dict[str, int] = {}
        # id -> digest of each table, so the one table most workers share is
        # encoded once; the nodes keep every table alive for the call
        tables: dict[int, str] = {}
        for h, n in sorted(self.nodes.items()):
            accounts = tables.get(id(n.accounts))
            if accounts is None:
                accounts = tables[id(n.accounts)] = blobs.add_accounts(
                    n.accounts)
            key = (n.power, n.reachable, n.quota_enabled,
                   frozenset(n.markers), frozenset(n.mounts),
                   frozenset(n.files.items()), accounts,
                   frozenset(n.quotas.items()), frozenset(n.counters.items()))
            i = index.get(key)
            if i is None:
                i = index[key] = len(records)
                records.append({
                    "power": n.power,
                    "files": {p: blobs.add(d) for p, d in n.files.items()},
                    "mounts": sorted(map(list, n.mounts)),
                    "accounts": accounts,
                    "quota_enabled": n.quota_enabled,
                    "quotas": {u: list(v) for u, v in n.quotas.items()},
                    "markers": sorted(n.markers),
                    "counters": {f: list(c) for f, c in n.counters.items()},
                    "unreachable": not n.reachable,
                })
            nodes[h] = i
        return {
            "format": STATE_FORMAT,
            "clock": self.clock,
            "blobs": blobs.texts(),
            "records": records,
            "nodes": nodes,
            "shared_files": {
                p: {"owner": o, "data": base64.b64encode(d).decode("ascii")}
                for p, (o, d) in sorted(self.shared_files.items())
            },
        }

    def _canonical(self) -> str:
        """One-line JSON with sorted keys: the state file and the hashed form."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"),
                          check_circular=False)

    def save(self, path: str) -> None:
        """Write the state file whole or not at all.

        The text goes to a temporary file in the same directory, which then
        replaces `path`, so a crash or a failed write leaves the previous
        state file intact.
        """
        text = self._canonical() + "\n"
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                                   suffix=".tmp",
                                   dir=os.path.dirname(path) or ".")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(text)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str, spec: ClusterSpec) -> "SimFleet":
        """Read a state file written by `save`; raises StateError otherwise."""
        redo = "delete it and re-run apply"
        with open(path, encoding="utf-8") as f:
            try:
                raw = json.load(f)
            except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8
                raise StateError(f"{path} is not valid JSON ({exc}); "
                                 f"{redo}") from None
        if not isinstance(raw, dict) or raw.get("format") != STATE_FORMAT:
            raise StateError(f"{path} is not a format-{STATE_FORMAT} state "
                             f"file; {redo}")
        # outside the try: a bad spec is no damage to the file
        fleet = cls.__new__(cls)
        fleet._attach(spec)
        try:
            fleet._restore(raw, spec)
            return fleet
        except StateError as exc:
            raise StateError(f"{path}: {exc}; {redo}") from None
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise StateError(f"{path} is damaged ({type(exc).__name__}: "
                             f"{exc}); {redo}") from None

    def _restore(self, raw: dict, spec: ClusterSpec) -> None:
        """Build the nodes of `spec` from a `to_dict` form, and take over
        its clock and shared files, checking the JSON type of each record
        field, each host's record index, the clock and each shared file.

        Each record is type-checked once, by `_read_record`, and each
        host's index must be an int (not a bool) naming one of them. Each
        node of `spec` is built once, from a copy of its record's
        containers, and with the account table its digest names, shared
        with the nodes of equal tables until one edits it. A node the file
        lacks is built as `__init__` builds it, and counters are kept only
        for the spec's interfaces.
        """
        # one bytes object per blob, one decoded table per account blob
        blobs = Blobs(raw["blobs"])
        self.clock = _typed(raw["clock"], float, "clock")
        if not math.isfinite(self.clock):
            raise ValueError(f"clock {self.clock!r} is not finite")
        records = [_read_record(blobs, i, r)
                   for i, r in enumerate(raw["records"])]
        index = raw["nodes"]
        for h, i in index.items():
            if type(i) is not int or not 0 <= i < len(records):
                raise ValueError(f"node {_bare(h)} record index {LABEL.repr(i)} "
                                 f"is not an int in 0..{len(records) - 1}")
        self.nodes = {}
        # (record index, interface names) -> counters, copied per node
        wanted: dict[tuple, dict[str, tuple[int, int]]] = {}
        for n in spec.nodes:
            h, names = n.hostname, tuple(map(_NAME, n.interfaces))
            i = index.get(h)
            if i is None:
                self.nodes[h] = _new_node(h, names)
                continue
            (reachable, power, files, mounts, accounts, quota_enabled,
             quotas, markers, counters) = records[i]
            kept = wanted.get((i, names))
            if kept is None:
                kept = wanted[i, names] = {f: counters.get(f, (0, 0))
                                           for f in names}
            # positional, in field order: hostname, reachable, power, files,
            # mounts, accounts, quota_enabled, quotas, markers, counters
            self.nodes[h] = NodeState(
                h, reachable, power, dict(files), set(mounts), accounts,
                quota_enabled, dict(quotas), set(markers), dict(kept))
        self.shared_files = {}
        for p, e in raw["shared_files"].items():
            what = f"shared file {LABEL.repr(p)}"
            owner = _typed(e["owner"], str, f"{what} owner")
            data = _typed(e["data"], str, f"{what} data")
            try:
                self.shared_files[p] = (owner, base64.b64decode(
                    data, validate=True))
            except ValueError as exc:  # not ASCII, not base64
                raise ValueError(f"{what} data is not base64 ({exc})") from None

    def state_hash(self) -> str:
        return hashlib.sha256(self._canonical().encode("utf-8")).hexdigest()
