"""Desired-state planning: observe the fleet, diff against the spec, order phases."""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import configgen
from .model import ClusterSpec, Role, partition_plan_for, spec_hash, validate

log = logging.getLogger(__name__)

PHASES = tuple(f"P{i}" for i in range(10))
_PHASE_RANK = {phase: i for i, phase in enumerate(PHASES)}

# Which phases each action kind may legally appear in.
KIND_PHASES = {
    "PowerOn": {"P0"},
    "PowerOff": {"P0"},
    "LayoutStorage": {"P1"},
    "InstallBase": {"P2"},
    "WriteFile": {"P3", "P4", "P8"},
    "AppendFile": {"P4", "P7"},
    "Mount": {"P4"},
    "PersistMount": {"P4"},
    "CreateUser": {"P5"},
    "SyncAccounts": {"P5"},
    "EnableQuota": {"P6"},
    "SetQuota": {"P6"},
    "InstallApp": {"P7"},
    "EnableMonitor": {"P9"},
}

INFRASTRUCTURE = "infrastructure"

MARKER_RAID = "raid"
MARKER_BASE_OS = "base-os"
MARKER_MONITOR = "monitor"


class PlanError(Exception):
    """Planning cannot proceed (invalid spec)."""


@dataclass(frozen=True)
class Action:
    id: str
    phase: str
    target: str  # hostname or "infrastructure"
    kind: str
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.phase not in KIND_PHASES.get(self.kind, set()):
            raise ValueError(f"kind {self.kind} not allowed in phase {self.phase}")


@dataclass(frozen=True)
class Plan:
    """Pending actions in execution order.

    File and SyncAccounts actions carry a sha256 digest, not the content:
    `blobs` maps each digest the actions use to its text, so content shared
    by many nodes (the P3 key mesh, the account table) appears once however
    many actions use it.
    """
    actions: tuple[Action, ...]
    spec_hash: str
    blobs: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        # built directly: payloads are only read, so nothing is copied
        out = {"spec_hash": self.spec_hash,
               "actions": [{"id": a.id, "phase": a.phase, "target": a.target,
                            "kind": a.kind, "payload": a.payload}
                           for a in self.actions]}
        if self.blobs:  # omitted when empty: the no-op plan stays byte-stable
            out["blobs"] = self.blobs
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Plan":
        raw = json.loads(text)
        return cls(actions=tuple(Action(**a) for a in raw["actions"]),
                   spec_hash=raw["spec_hash"], blobs=raw.get("blobs", {}))


class BlobTable:
    """File contents stored once each, keyed by the hex sha256 of their bytes."""

    def __init__(self) -> None:
        self.texts: dict[str, str] = {}
        self._digests: dict[bytes, str] = {}

    def add(self, data: bytes) -> str:
        """Store `data` unless already held; returns its digest.

        Content shared by many nodes is usually one bytes object, whose
        hash Python caches, so each distinct content is digested once.
        """
        digest = self._digests.get(data)
        if digest is None:
            digest = self._digests[data] = hashlib.sha256(data).hexdigest()
            self.texts[digest] = data.decode("utf-8")
        return digest


@dataclass
class NodeState:
    hostname: str
    reachable: bool = False
    power: str = "off"
    files: dict[str, bytes] = field(default_factory=dict)
    mounts: set[tuple[str, str]] = field(default_factory=set)  # (source, mountpoint)
    accounts: dict[str, tuple[str, str, str]] = field(default_factory=dict)
    quota_enabled: bool = False
    quotas: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    markers: set[str] = field(default_factory=set)
    counters: dict[str, tuple[int, int]] = field(default_factory=dict)


@dataclass
class FleetState:
    nodes: dict[str, NodeState] = field(default_factory=dict)
    infrastructure_power: str = "on"

    def node(self, hostname: str) -> NodeState:
        return self.nodes.setdefault(hostname, NodeState(hostname))


def observe(backend) -> FleetState:
    """Snapshot the fleet through a backend; unreachable nodes stay empty."""
    from .executor import NodeUnreachableError  # cycle-free at call time
    state = FleetState()
    for hostname in sorted(backend.hostnames()):
        node = NodeState(hostname)
        try:
            snap = backend.read_state(hostname)
        except NodeUnreachableError:
            node.reachable = False
        else:
            node.reachable = True
            node.power = snap["power"]
            node.files = dict(snap["files"])
            node.mounts = set(tuple(m) for m in snap["mounts"])
            node.accounts = {u: tuple(v) for u, v in snap["accounts"].items()}
            node.quota_enabled = snap["quota_enabled"]
            node.quotas = {u: tuple(v) for u, v in snap["quotas"].items()}
            node.markers = set(snap["markers"])
            node.counters = {i: tuple(c) for i, c in snap["counters"].items()}
        state.nodes[hostname] = node
    return state


Predicate = Callable[[FleetState], bool]


def _file_equals(host: str, path: str, content: bytes) -> Predicate:
    def check(state: FleetState) -> bool:
        node = state.nodes.get(host)
        return bool(node and node.reachable and node.files.get(path) == content)
    return check


def _file_contains(host: str, path: str, fragment: bytes) -> Predicate:
    def check(state: FleetState) -> bool:
        node = state.nodes.get(host)
        return bool(node and node.reachable
                    and fragment in node.files.get(path, b""))
    return check


def _has_marker(host: str, marker: str) -> Predicate:
    def check(state: FleetState) -> bool:
        node = state.nodes.get(host)
        return bool(node and node.reachable and marker in node.markers)
    return check


def _desired_actions(spec: ClusterSpec
                     ) -> tuple[list[tuple[Action, Predicate]], dict[str, str]]:
    """Every action needed to reach the spec, paired with its satisfaction test.

    Also returns the text of every blob payload (file contents and the
    account table), keyed by its digest.
    """
    out: list[tuple[Action, Predicate]] = []
    counters: dict[tuple[str, str], int] = {}
    blobs = BlobTable()

    def add(phase: str, target: str, kind: str, slug: str,
            payload: dict, predicate: Predicate) -> None:
        seq = counters.get((phase, target), 0)
        counters[(phase, target)] = seq + 1
        action = Action(id=f"{phase.lower()}-{target}-{seq:02d}-{slug}",
                        phase=phase, target=target, kind=kind, payload=payload)
        out.append((action, predicate))

    master = spec.master
    workers = spec.workers
    hostnames = [n.hostname for n in spec.nodes]

    # P0: every node powered on
    for host in hostnames:
        def powered(state, h=host):
            node = state.nodes.get(h)
            return bool(node and node.reachable and node.power == "on")
        add("P0", host, "PowerOn", "power-on", {}, powered)

    # P1: storage layout (partitioning + RAID, opaque)
    for node in spec.nodes:
        table = partition_plan_for(spec, node)
        payload = {
            "raid_level": node.raid_level,
            "partitions": [[e.mountpoint, e.size_bytes, e.volume_kind]
                           for e in table.entries],
        }
        add("P1", node.hostname, "LayoutStorage", "layout-storage",
            payload, _has_marker(node.hostname, MARKER_RAID))

    # P2: base OS install (opaque)
    for host in hostnames:
        add("P2", host, "InstallBase", "install-base", {},
            _has_marker(host, MARKER_BASE_OS))

    # P3: password-free login mesh
    mesh = configgen.gen_key_mesh(node_public_keys(spec))
    for host in hostnames:
        content = mesh.authorized_content[host]
        add("P3", host, "WriteFile", "authorized-keys",
            {"path": configgen.SSH_AUTHORIZED_KEYS_PATH,
             "digest": blobs.add(content)},
            _file_equals(host, configgen.SSH_AUTHORIZED_KEYS_PATH, content))

    # P4: NFS export on master, mount + persist on workers
    exports = configgen.gen_exports(spec.storage,
                                    [w.hostname for w in workers])
    add("P4", master.hostname, "WriteFile", "exports",
        {"path": exports.target_path, "digest": blobs.add(exports.content)},
        _file_equals(master.hostname, exports.target_path, exports.content))
    master_ip = master.internal_ip(spec.subnet) or ""
    mountpoint = spec.worker_mountpoint
    source = f"{master.hostname}:{spec.storage.path}"
    fstab = configgen.gen_fstab_mount(master_ip, spec.storage.path, mountpoint)
    for w in workers:
        def mounted(state, h=w.hostname):
            node = state.nodes.get(h)
            return bool(node and node.reachable
                        and (source, mountpoint) in node.mounts)
        add("P4", w.hostname, "Mount", "mount-storage",
            {"source": source, "mountpoint": mountpoint}, mounted)
        add("P4", w.hostname, "PersistMount", "persist-mount",
            {"path": fstab.target_path, "digest": blobs.add(fstab.content)},
            _file_contains(w.hostname, fstab.target_path, fstab.content))

    # P5: accounts on master, then synced to workers from one shared table
    expected_accounts = {u.username: (u.group, u.shell, u.home)
                         for u in spec.users}
    for u in spec.users:
        def created(state, name=u.username, want=expected_accounts[u.username],
                    h=master.hostname):
            node = state.nodes.get(h)
            return bool(node and node.reachable
                        and node.accounts.get(name) == want)
        add("P5", master.hostname, "CreateUser", f"user-{u.username}",
            {"username": u.username, "group": u.group, "shell": u.shell,
             "home": u.home}, created)
    if spec.users:
        table = json.dumps(expected_accounts, sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
        sync_payload = {"digest": blobs.add(table)}
        for w in workers:
            def synced(state, h=w.hostname):
                node = state.nodes.get(h)
                if not node or not node.reachable:
                    return False
                return all(node.accounts.get(n) == want
                           for n, want in expected_accounts.items())
            add("P5", w.hostname, "SyncAccounts", "sync-accounts",
                sync_payload, synced)

    # P6: quotas on the storage volume (master-side accounting)
    quota_users = [u for u in spec.users
                   if u.quota_hard_bytes > 0 or u.quota_soft_bytes > 0]
    if quota_users:
        def quota_on(state, h=master.hostname):
            node = state.nodes.get(h)
            return bool(node and node.reachable and node.quota_enabled)
        add("P6", master.hostname, "EnableQuota", "enable-quota",
            {"volume": spec.storage.path}, quota_on)
        for u in quota_users:
            def limits_set(state, name=u.username,
                           want=(u.quota_soft_bytes, u.quota_hard_bytes),
                           h=master.hostname):
                node = state.nodes.get(h)
                q = node.quotas.get(name) if node and node.reachable else None
                return bool(q and (q[0], q[1]) == want)
            add("P6", master.hostname, "SetQuota", f"quota-{u.username}",
                {"username": u.username, "soft_bytes": u.quota_soft_bytes,
                 "hard_bytes": u.quota_hard_bytes}, limits_set)

    # P7: application environment on every node, installs on master
    if spec.apps:
        profile = configgen.gen_env_profile(list(spec.apps), spec.storage.path)
        for host in hostnames:
            add("P7", host, "AppendFile", "env-profile",
                {"path": profile.target_path,
                 "digest": blobs.add(profile.content)},
                _file_contains(host, profile.target_path, profile.content))
        for app in spec.apps:
            add("P7", master.hostname, "InstallApp", f"install-{app.name}",
                {"name": app.name, "install_path": app.install_path,
                 "source_url": app.source_url},
                _has_marker(master.hostname, f"app:{app.name}"))

    # P8: alias guards and MOTD on master
    if spec.alias_guards:
        aliases = configgen.gen_alias_guards(list(spec.alias_guards),
                                             spec.motd.worker_range)
        add("P8", master.hostname, "WriteFile", "alias-guards",
            {"path": aliases.target_path, "digest": blobs.add(aliases.content)},
            _file_equals(master.hostname, aliases.target_path, aliases.content))
    motd = configgen.gen_motd(spec.motd)
    add("P8", master.hostname, "WriteFile", "motd",
        {"path": motd.target_path, "digest": blobs.add(motd.content)},
        _file_equals(master.hostname, motd.target_path, motd.content))

    # P9: traffic monitoring on every node
    for host in hostnames:
        add("P9", host, "EnableMonitor", "enable-monitor", {},
            _has_marker(host, MARKER_MONITOR))

    return out, blobs.texts


def node_public_keys(spec: ClusterSpec) -> dict[str, str]:
    """Deterministic per-node public key lines (opaque stand-ins for real keys)."""
    keys = {}
    for node in spec.nodes:
        digest = hashlib.sha256(node.hostname.encode()).hexdigest()[:32]
        keys[node.hostname] = f"ssh-rsa {digest} root@{node.hostname}"
    return keys


def diff(spec: ClusterSpec, state: FleetState) -> Plan:
    """Plan containing exactly the actions whose postcondition is unsatisfied."""
    violations = validate(spec)
    if violations:
        raise PlanError("; ".join(v.message for v in violations))
    for host, node in state.nodes.items():
        if not node.reachable:
            log.warning("node %s unreachable, planning full provisioning", host)
    desired, texts = _desired_actions(spec)
    pending = [action for action, satisfied in desired if not satisfied(state)]
    pending.sort(key=lambda a: (_PHASE_RANK[a.phase], a.target, a.id))
    used = {a.payload["digest"] for a in pending if "digest" in a.payload}
    return Plan(actions=tuple(pending), spec_hash=spec_hash(spec),
                blobs={d: texts[d] for d in sorted(used)})


def power_sequence(direction: str, spec: ClusterSpec) -> list[Action]:
    """Ordered power actions; network infrastructure is never powered off."""
    if validate(spec):
        raise PlanError("spec is invalid")
    master = spec.master
    workers = sorted(w.hostname for w in spec.workers)
    actions: list[Action] = []
    if direction == "start":
        actions.append(Action("p0-infrastructure-00-power-on", "P0",
                              INFRASTRUCTURE, "PowerOn", {}))
        actions.append(Action(f"p0-{master.hostname}-00-power-on", "P0",
                              master.hostname, "PowerOn", {}))
        for w in workers:
            actions.append(Action(f"p0-{w}-00-power-on", "P0", w, "PowerOn", {}))
    elif direction == "stop":
        for w in reversed(workers):
            actions.append(Action(f"p0-{w}-00-power-off", "P0", w, "PowerOff", {}))
        actions.append(Action(f"p0-{master.hostname}-00-power-off", "P0",
                              master.hostname, "PowerOff", {}))
    else:
        raise ValueError(f"unknown power direction {direction!r}")
    return actions
