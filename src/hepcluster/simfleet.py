"""In-memory simulated node fleet implementing the backend contract."""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Optional

from .executor import BackendError, NodeUnreachableError
from .model import ClusterSpec, Role
from .planner import BlobTable

# Version of the state file layout written by `save`; `load` reads only this.
STATE_FORMAT = 2


class QuotaExceededError(BackendError):
    """Write rejected because it would exceed the user's hard limit."""


class FaultInjectedError(BackendError):
    """Failure forced by a previously injected fault."""


class StateError(Exception):
    """A state file that `load` cannot read: not JSON, old format or damaged."""


@dataclass
class SimNode:
    hostname: str
    role: str
    interface_names: list[str]
    power: str = "off"
    files: dict[str, bytes] = field(default_factory=dict)
    mounts: set[tuple[str, str]] = field(default_factory=set)
    accounts: dict[str, tuple[str, str, str]] = field(default_factory=dict)
    quota_enabled: bool = False
    quotas: dict[str, tuple[int, int]] = field(default_factory=dict)
    markers: set[str] = field(default_factory=set)
    counters: dict[str, list[int]] = field(default_factory=dict)  # iface -> [rx, tx]
    unreachable: bool = False
    fail_next: Optional[str] = None  # capability name or "*"


class SimFleet:
    """Simulated cluster backend: four fake machines plus one shared volume.

    Mutations are serialized per node; calls against different nodes may
    run concurrently (one lock per node plus one for the shared store).
    """

    def __init__(self, spec: ClusterSpec):
        master = spec.master
        self.master_hostname = master.hostname
        self.storage_root = spec.storage.path
        self.nodes: dict[str, SimNode] = {}
        for n in spec.nodes:
            node = SimNode(hostname=n.hostname, role=n.role.value,
                           interface_names=[i.name for i in n.interfaces])
            node.counters = {i.name: [0, 0] for i in n.interfaces}
            self.nodes[n.hostname] = node
        self.shared_files: dict[str, tuple[str, bytes]] = {}  # path -> (owner, data)
        self.clock: float = 0.0
        self.event_log: list[tuple[int, str, str, tuple]] = []
        self._event_seq = 0
        self._locks = {h: threading.Lock() for h in self.nodes}
        self._shared_lock = threading.Lock()
        self._log_lock = threading.Lock()

    # -- internals ----------------------------------------------------------

    def _node(self, hostname: str) -> SimNode:
        try:
            return self.nodes[hostname]
        except KeyError:
            raise BackendError(f"unknown node {hostname!r}") from None

    def _lock(self, hostname: str) -> threading.Lock:
        """The node's lock; an unknown host raises BackendError."""
        return self._locks[self._node(hostname).hostname]

    def _log(self, node: str, capability: str, *args) -> None:
        with self._log_lock:
            self.event_log.append((self._event_seq, node, capability, args))
            self._event_seq += 1

    def _enter(self, hostname: str, capability: str) -> SimNode:
        """Common per-capability checks: existence, faults, power gating."""
        node = self._node(hostname)
        if node.fail_next in ("*", capability):
            node.fail_next = None
            raise FaultInjectedError(
                f"injected failure of {capability} on {hostname}")
        if node.unreachable:
            raise NodeUnreachableError(f"{hostname} is unreachable")
        if node.power == "off" and capability != "power":
            raise NodeUnreachableError(f"{hostname} is powered off")
        return node

    # -- backend contract ---------------------------------------------------

    def hostnames(self) -> list[str]:
        return sorted(self.nodes)

    def read_state(self, hostname: str) -> dict:
        with self._lock(hostname):
            node = self._enter(hostname, "read_state")
            return {
                "power": node.power,
                "files": dict(node.files),
                "mounts": sorted(node.mounts),
                "accounts": {u: list(v) for u, v in node.accounts.items()},
                "quota_enabled": node.quota_enabled,
                "quotas": {u: [v[0], v[1], self.quota_used(u)]
                           for u, v in node.quotas.items()},
                "markers": sorted(node.markers),
                "counters": {i: list(c) for i, c in node.counters.items()},
            }

    def power(self, hostname: str, on: bool) -> bool:
        with self._lock(hostname):
            node = self._enter(hostname, "power")
            want = "on" if on else "off"
            if node.power == want:
                return False
            node.power = want
            if not on:
                node.mounts.clear()
                node.counters = {i: [0, 0] for i in node.counters}
            self._log(hostname, "power", want)
            return True

    def write_file(self, hostname: str, path: str, data: bytes) -> bool:
        with self._lock(hostname):
            node = self._enter(hostname, "write_file")
            if node.files.get(path) == data:
                return False
            node.files[path] = data
            self._log(hostname, "write_file", path)
            return True

    def append_file(self, hostname: str, path: str, data: bytes) -> bool:
        with self._lock(hostname):
            node = self._enter(hostname, "append_file")
            existing = node.files.get(path, b"")
            if data in existing:
                return False
            node.files[path] = existing + data
            self._log(hostname, "append_file", path)
            return True

    def mount(self, hostname: str, source: str, mountpoint: str) -> bool:
        with self._lock(hostname):
            node = self._enter(hostname, "mount")
            master = self.nodes[self.master_hostname]
            if master.power != "on":
                raise BackendError(
                    f"cannot mount {source}: {self.master_hostname} is down")
            if (source, mountpoint) in node.mounts:
                return False
            node.mounts.add((source, mountpoint))
            self._log(hostname, "mount", source, mountpoint)
            return True

    def create_user(self, hostname: str, username: str, group: str,
                    shell: str, home: str) -> bool:
        with self._lock(hostname):
            node = self._enter(hostname, "create_user")
            want = (group, shell, home)
            if node.accounts.get(username) == want:
                return False
            node.accounts[username] = want
            self._log(hostname, "create_user", username)
            return True

    def enable_quota(self, hostname: str) -> bool:
        with self._lock(hostname):
            node = self._enter(hostname, "enable_quota")
            if node.quota_enabled:
                return False
            node.quota_enabled = True
            self._log(hostname, "enable_quota")
            return True

    def set_quota(self, hostname: str, username: str, soft: int,
                  hard: int) -> bool:
        with self._lock(hostname):
            node = self._enter(hostname, "set_quota")
            if node.quotas.get(username) == (soft, hard):
                return False
            node.quotas[username] = (soft, hard)
            self._log(hostname, "set_quota", username, soft, hard)
            return True

    def set_marker(self, hostname: str, marker: str) -> bool:
        with self._lock(hostname):
            node = self._enter(hostname, "set_marker")
            if marker in node.markers:
                return False
            node.markers.add(marker)
            self._log(hostname, "set_marker", marker)
            return True

    def enable_monitor(self, hostname: str) -> bool:
        return self.set_marker(hostname, "monitor")

    # -- shared storage -----------------------------------------------------

    def _resolve_shared(self, node: SimNode, path: str) -> str:
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
        return sum(len(data) for owner, data in self.shared_files.values()
                   if owner == username)

    def sim_write(self, hostname: str, username: str, path: str,
                  data: bytes) -> None:
        """Write a file into shared storage as a user, enforcing hard quotas."""
        with self._lock(hostname):
            node = self._enter(hostname, "sim_write")
            shared_path = self._resolve_shared(node, path)
        master = self.nodes[self.master_hostname]
        with self._shared_lock:
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
        with self._lock(hostname):
            node = self._enter(hostname, "sim_read")
            shared_path = self._resolve_shared(node, path)
        with self._shared_lock:
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
            rate = profile.get(hostname, 0.0)
            for counter in node.counters.values():
                counter[0] += int(rate * duration)
                counter[1] += int(rate * duration)
        self.clock += duration

    def inject_fault(self, hostname: str, fault: str,
                     capability: Optional[str] = None) -> None:
        """Force a failure mode: unreachable, fail_next_capability, or crash."""
        node = self._node(hostname)
        if fault == "unreachable":
            node.unreachable = True
        elif fault == "fail_next_capability":
            node.fail_next = capability or "*"
        elif fault == "crash":
            node.power = "off"
            node.mounts.clear()
            node.counters = {i: [0, 0] for i in node.counters}
        else:
            raise ValueError(f"unknown fault {fault!r}")

    def clear_fault(self, hostname: str) -> None:
        node = self._node(hostname)
        node.unreachable = False
        node.fail_next = None

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        """The state in file form: node files refer to a shared blob table.

        Each distinct file content is stored once, under its sha256, so a
        file every node holds (the key mesh) costs its size once.
        """
        blobs = BlobTable()
        nodes = {
            h: {
                "role": n.role,
                "power": n.power,
                "files": {p: blobs.add(d) for p, d in n.files.items()},
                "mounts": sorted(list(m) for m in n.mounts),
                "accounts": {u: list(v) for u, v in n.accounts.items()},
                "quota_enabled": n.quota_enabled,
                "quotas": {u: list(v) for u, v in n.quotas.items()},
                "markers": sorted(n.markers),
                "counters": {i: list(c) for i, c in n.counters.items()},
                "unreachable": n.unreachable,
            }
            for h, n in sorted(self.nodes.items())
        }
        return {
            "format": STATE_FORMAT,
            "master": self.master_hostname,
            "storage_root": self.storage_root,
            "clock": self.clock,
            "blobs": blobs.texts,
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
        try:
            return cls._from_dict(raw, spec)
        except StateError as exc:
            raise StateError(f"{path}: {exc}; {redo}") from None
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise StateError(f"{path} is damaged ({type(exc).__name__}: "
                             f"{exc}); {redo}") from None

    @classmethod
    def _from_dict(cls, raw: dict, spec: ClusterSpec) -> "SimFleet":
        # one bytes object per blob, shared by every node that holds it
        blobs = {d: text.encode("utf-8") for d, text in raw["blobs"].items()}
        fleet = cls(spec)
        fleet.clock = raw["clock"]
        for h, nd in raw["nodes"].items():
            if h not in fleet.nodes:
                continue
            node = fleet.nodes[h]
            node.power = nd["power"]
            try:
                node.files = {p: blobs[d] for p, d in nd["files"].items()}
            except KeyError as exc:
                raise StateError(f"node {h} refers to missing blob "
                                 f"{exc.args[0]}") from None
            node.mounts = {tuple(m) for m in nd["mounts"]}
            node.accounts = {u: tuple(v) for u, v in nd["accounts"].items()}
            node.quota_enabled = nd["quota_enabled"]
            node.quotas = {u: tuple(v) for u, v in nd["quotas"].items()}
            node.markers = set(nd["markers"])
            for iface, counter in nd["counters"].items():
                if iface in node.counters:
                    node.counters[iface] = list(counter)
            node.unreachable = nd["unreachable"]
        fleet.shared_files = {
            p: (e["owner"], base64.b64decode(e["data"]))
            for p, e in raw["shared_files"].items()
        }
        return fleet

    def state_hash(self) -> str:
        return hashlib.sha256(self._canonical().encode("utf-8")).hexdigest()
