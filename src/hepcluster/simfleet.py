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

from .executor import BackendError, NodeUnreachableError
from .model import ClusterSpec
from .planner import Blobs, NodeState

# Version of the state file layout written by `save`; `load` reads only this.
STATE_FORMAT = 3


class QuotaExceededError(BackendError):
    """Write rejected because it would exceed the user's hard limit."""


class FaultInjectedError(BackendError):
    """Failure forced by a previously injected fault."""


class StateError(Exception):
    """A state file that `load` cannot read: not JSON, old format or damaged."""


def _typed(value, kind: type, what: str):
    """`value` if its JSON type is `kind` (a bool is no int), else TypeError."""
    if type(value) is not kind:
        raise TypeError(f"{what} {value!r} is not {kind.__name__}")
    return value


def _pair(value, kind: type, what: str) -> tuple:
    """A JSON list of two `kind` values, as a tuple, else TypeError."""
    if (type(value) is not list or len(value) != 2
            or type(value[0]) is not kind or type(value[1]) is not kind):
        raise TypeError(f"{what} {value!r} is not a pair of {kind.__name__}")
    return tuple(value)


_NAME = operator.attrgetter("name")
_STR = {str}  # the one JSON type of a marker


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
        self.shared_files: dict[str, tuple[str, bytes]] = {}  # path -> (owner, data)
        self._used: dict[str, int] = {}  # owner -> bytes of shared_files owned
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
        if self._fail_next.get(hostname) in ("*", capability):
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
        node = self._enter(hostname, "read_state")
        return NodeState(
            hostname, reachable=True, power=node.power,
            files=dict(node.files), mounts=set(node.mounts),
            accounts=dict(node.accounts),
            quota_enabled=node.quota_enabled, quotas=dict(node.quotas),
            markers=set(node.markers), counters=dict(node.counters))

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
        node.accounts[username] = account
        return True

    def sync_accounts(self, hostname: str,
                      table: dict[str, tuple[str, str, str]]) -> bool:
        """Give the node every account of `table`, in one call.

        The entries are copied into the node's own dict, never `table`
        itself, which many nodes may share.
        """
        node = self._enter(hostname, "sync_accounts")
        if table.items() <= node.accounts.items():
            return False
        node.accounts.update(table)
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
        return self.set_marker(hostname, "monitor")

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
        return self._used.get(username, 0)

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
        if old:
            self._used[old[0]] -= len(old[1])
        self._used[username] = self._used.get(username, 0) + len(data)

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
        """Force a failure mode: unreachable, fail_next_capability, or crash."""
        node = self._node(hostname)
        if fault == "unreachable":
            node.reachable = False
        elif fault == "fail_next_capability":
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
        """The state in file form: node files and accounts refer to blobs.

        Each distinct file content and each distinct account table is
        stored once, under its sha256, so a file every node holds (the key
        mesh) or the account table every worker holds costs its size once.
        """
        blobs = Blobs()
        nodes = {
            h: {
                "power": n.power,
                "files": {p: blobs.add(d) for p, d in n.files.items()},
                "mounts": sorted(list(m) for m in n.mounts),
                "accounts": blobs.add_accounts(n.accounts),
                "quota_enabled": n.quota_enabled,
                "quotas": {u: list(v) for u, v in n.quotas.items()},
                "markers": sorted(n.markers),
                "counters": {i: list(c) for i, c in n.counters.items()},
                "unreachable": not n.reachable,
            }
            for h, n in sorted(self.nodes.items())
        }
        return {
            "format": STATE_FORMAT,
            "clock": self.clock,
            "blobs": blobs.texts(),
            "nodes": nodes,
            "shared_files": {
                p: {"owner": o, "data": base64.b64encode(d).decode("ascii")}
                for p, (o, d) in sorted(self.shared_files.items())
            },
        }

    def _canonical(self) -> str:
        """One-line JSON with sorted keys: the state file and the hashed form."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

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
            except ValueError as exc:  # bad JSON or bad UTF-8
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
        its clock and shared files, checking the JSON type of each node
        field and the clock.

        Each node is built once, from its record in the order the file
        lists them, and each field is type-checked, element by element, as
        it is built: `power`, the blob lookups, `mounts`, `quota_enabled`,
        `quotas`, `markers`, the counters of the spec's interfaces, then
        `unreachable`, so the first bad value is the one named. A node the
        file lacks is built as `__init__` builds it, and counters are kept
        only for the spec's interfaces.
        """
        # one bytes object per blob, one decoded table per account blob
        blobs = Blobs(raw["blobs"])
        self.clock = _typed(raw["clock"], float, "clock")
        if not math.isfinite(self.clock):
            raise ValueError(f"clock {self.clock!r} is not finite")
        interfaces = {n.hostname: list(map(_NAME, n.interfaces))
                      for n in spec.nodes}
        built: dict[str, NodeState] = {}
        for h, nd in raw["nodes"].items():
            if h not in interfaces:
                continue
            power = nd["power"]
            if power not in ("on", "off"):
                raise ValueError(f"power {power!r} is not on or off")
            accounts = nd["accounts"]
            try:
                files = {p: blobs[d] for p, d in nd["files"].items()}
                # each node gets its own copy of the shared table to edit
                accounts = dict(blobs.accounts(accounts))
            except KeyError as exc:
                raise StateError(f"node {h} refers to missing blob "
                                 f"{exc.args[0]}") from None
            mounts = {_pair(m, str, "mount") for m in nd["mounts"]}
            quota_enabled = nd["quota_enabled"]
            if type(quota_enabled) is not bool:
                _typed(quota_enabled, bool, "quota_enabled")
            quotas = {u: _pair(q, int, "quota")
                      for u, q in nd["quotas"].items()}
            markers = nd["markers"]
            if not _STR.issuperset(map(type, markers)):
                _typed(next(m for m in markers if type(m) is not str), str,
                       "marker")
            counters = dict.fromkeys(interfaces[h], (0, 0))
            # in file order, so the first bad counter is the one named
            for i, c in nd["counters"].items():
                if i in counters:
                    counters[i] = _pair(c, int, "counter")
            unreachable = nd["unreachable"]
            if type(unreachable) is not bool:
                _typed(unreachable, bool, "unreachable")
            # positional, in field order: hostname, reachable, power, files,
            # mounts, accounts, quota_enabled, quotas, markers, counters
            built[h] = NodeState(h, not unreachable, power, files, mounts,
                                 accounts, quota_enabled, quotas,
                                 set(markers), counters)
        self.nodes = {h: built.get(h) or _new_node(h, names)
                      for h, names in interfaces.items()}
        self.shared_files = {
            p: (e["owner"], base64.b64decode(e["data"]))
            for p, e in raw["shared_files"].items()
        }
        self._used = {}
        for owner, data in self.shared_files.values():
            self._used[owner] = self._used.get(owner, 0) + len(data)

    def state_hash(self) -> str:
        return hashlib.sha256(self._canonical().encode("utf-8")).hexdigest()
