"""Desired-state planning: observe the fleet, diff against the spec, order phases."""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import configgen
from .model import ClusterSpec, Role, partition_plan_for, spec_hash, validate

log = logging.getLogger(__name__)

PHASES = tuple(f"P{i}" for i in range(10))
_PHASE_RANK = {phase: i for i, phase in enumerate(PHASES)}

INFRASTRUCTURE = "infrastructure"


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
        if self.kind not in KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.phase not in KINDS[self.kind].phases:
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


class Blobs:
    """Read view of a plan's blob texts, shared by `diff` and `apply`.

    Each digest maps to one bytes object, handed to every node that
    receives it; each account table is decoded once, on first use.
    """

    def __init__(self, texts: dict[str, str]) -> None:
        self._texts = texts
        self._data = {d: text.encode("utf-8") for d, text in texts.items()}
        self._accounts: dict[str, dict[str, tuple[str, str, str]]] = {}
        self._lock = threading.Lock()

    def __getitem__(self, digest: str) -> bytes:
        return self._data[digest]

    def accounts(self, digest: str) -> dict[str, tuple[str, str, str]]:
        """Account table: username -> (group, shell, home), in username order."""
        with self._lock:  # apply reads it from several threads at once
            table = self._accounts.get(digest)
            if table is None:
                table = self._accounts[digest] = {
                    u: tuple(v)
                    for u, v in sorted(json.loads(self._texts[digest]).items())}
            return table


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


def _sync_accounts(backend, host: str, payload: dict, blobs: Blobs) -> bool:
    changed = False
    for user, (group, shell, home) in blobs.accounts(payload["digest"]).items():
        changed |= backend.create_user(host, user, group, shell, home)
    return changed


def _quota_set(node: NodeState, p: dict, blobs: Blobs) -> bool:
    q = node.quotas.get(p["username"])
    return bool(q and (q[0], q[1]) == (p["soft_bytes"], p["hard_bytes"]))


@dataclass(frozen=True)
class Kind:
    """One action kind: the phases it may appear in, how it runs, when it is done.

    `run(backend, host, payload, blobs)` calls the backend and returns True
    if it changed state; `holds(node, payload, blobs)` is the postcondition
    on the observed state of the (reachable) target node.
    """
    phases: tuple[str, ...]
    run: Callable[..., bool]
    holds: Callable[[NodeState, dict, Blobs], bool]


def _marker(phase: str, marker: str) -> Kind:
    return Kind((phase,), lambda b, h, p, blobs: b.set_marker(h, marker),
                lambda n, p, blobs: marker in n.markers)


def _append(*phases: str) -> Kind:
    return Kind(phases,
                lambda b, h, p, blobs: b.append_file(h, p["path"],
                                                     blobs[p["digest"]]),
                lambda n, p, blobs: blobs[p["digest"]]
                in n.files.get(p["path"], b""))


# Every action kind, declared once; README's "Action kinds" table mirrors it.
KINDS: dict[str, Kind] = {
    "PowerOn": Kind(("P0",), lambda b, h, p, blobs: b.power(h, True),
                    lambda n, p, blobs: n.power == "on"),
    "PowerOff": Kind(("P0",), lambda b, h, p, blobs: b.power(h, False),
                     lambda n, p, blobs: n.power == "off"),
    "LayoutStorage": _marker("P1", "raid"),
    "InstallBase": _marker("P2", "base-os"),
    "WriteFile": Kind(
        ("P3", "P4", "P8"),
        lambda b, h, p, blobs: b.write_file(h, p["path"], blobs[p["digest"]]),
        lambda n, p, blobs: n.files.get(p["path"]) == blobs[p["digest"]]),
    "AppendFile": _append("P4", "P7"),
    "Mount": Kind(("P4",),
                  lambda b, h, p, blobs: b.mount(h, p["source"], p["mountpoint"]),
                  lambda n, p, blobs: (p["source"], p["mountpoint"]) in n.mounts),
    "PersistMount": _append("P4"),  # the fstab line
    "CreateUser": Kind(
        ("P5",),
        lambda b, h, p, blobs: b.create_user(h, p["username"], p["group"],
                                             p["shell"], p["home"]),
        lambda n, p, blobs: n.accounts.get(p["username"])
        == (p["group"], p["shell"], p["home"])),
    "SyncAccounts": Kind(
        ("P5",), _sync_accounts,
        lambda n, p, blobs: all(n.accounts.get(u) == want for u, want
                                in blobs.accounts(p["digest"]).items())),
    "EnableQuota": Kind(("P6",), lambda b, h, p, blobs: b.enable_quota(h),
                        lambda n, p, blobs: n.quota_enabled),
    "SetQuota": Kind(
        ("P6",),
        lambda b, h, p, blobs: b.set_quota(h, p["username"], p["soft_bytes"],
                                           p["hard_bytes"]),
        _quota_set),
    "InstallApp": Kind(("P7",),
                       lambda b, h, p, blobs: b.set_marker(h, f"app:{p['name']}"),
                       lambda n, p, blobs: f"app:{p['name']}" in n.markers),
    "EnableMonitor": Kind(("P9",), lambda b, h, p, blobs: b.enable_monitor(h),
                          lambda n, p, blobs: "monitor" in n.markers),
}


def satisfied(action: Action, state: FleetState, blobs: Blobs) -> bool:
    """Whether the action's target is known, reachable and already done."""
    node = state.nodes.get(action.target)
    return (node is not None and node.reachable
            and KINDS[action.kind].holds(node, action.payload, blobs))


def _desired_actions(spec: ClusterSpec) -> tuple[list[Action], dict[str, str]]:
    """Every action needed to reach the spec.

    Also returns the text of every blob payload (file contents and the
    account table), keyed by its digest.
    """
    blobs = BlobTable()
    counters: dict[tuple[str, str], int] = {}
    actions = []
    for phase, target, kind, slug, payload in _wanted(spec, blobs):
        seq = counters[phase, target] = counters.get((phase, target), -1) + 1
        actions.append(Action(f"{phase.lower()}-{target}-{seq:02d}-{slug}",
                              phase, target, kind, payload))
    return actions, blobs.texts


def _wanted(spec: ClusterSpec, blobs: BlobTable
            ) -> Iterator[tuple[str, str, str, str, dict]]:
    """(phase, target, kind, id slug, payload) of each action the spec needs."""
    master = spec.master
    workers = spec.workers
    hostnames = [n.hostname for n in spec.nodes]

    # P0: every node powered on
    for host in hostnames:
        yield "P0", host, "PowerOn", "power-on", {}

    # P1: storage layout (partitioning + RAID, opaque)
    for node in spec.nodes:
        table = partition_plan_for(spec, node)
        payload = {
            "raid_level": node.raid_level,
            "partitions": [[e.mountpoint, e.size_bytes, e.volume_kind]
                           for e in table.entries],
        }
        yield "P1", node.hostname, "LayoutStorage", "layout-storage", payload

    # P2: base OS install (opaque)
    for host in hostnames:
        yield "P2", host, "InstallBase", "install-base", {}

    # P3: password-free login mesh
    mesh = configgen.gen_key_mesh(node_public_keys(spec))
    for host in hostnames:
        yield ("P3", host, "WriteFile", "authorized-keys",
               {"path": configgen.SSH_AUTHORIZED_KEYS_PATH,
                "digest": blobs.add(mesh.authorized_content[host])})

    # P4: NFS export on master, mount + persist on workers
    exports = configgen.gen_exports(spec.storage,
                                    [w.hostname for w in workers])
    yield ("P4", master.hostname, "WriteFile", "exports",
           {"path": exports.target_path, "digest": blobs.add(exports.content)})
    master_ip = master.internal_ip(spec.subnet) or ""
    mountpoint = spec.worker_mountpoint
    source = f"{master.hostname}:{spec.storage.path}"
    fstab = configgen.gen_fstab_mount(master_ip, spec.storage.path, mountpoint)
    for w in workers:
        yield ("P4", w.hostname, "Mount", "mount-storage",
               {"source": source, "mountpoint": mountpoint})
        yield ("P4", w.hostname, "PersistMount", "persist-mount",
               {"path": fstab.target_path, "digest": blobs.add(fstab.content)})

    # P5: accounts on master, then synced to workers from one shared table
    for u in spec.users:
        yield ("P5", master.hostname, "CreateUser", f"user-{u.username}",
               {"username": u.username, "group": u.group, "shell": u.shell,
                "home": u.home})
    if spec.users:
        table = json.dumps({u.username: (u.group, u.shell, u.home)
                            for u in spec.users},
                           sort_keys=True, separators=(",", ":"))
        sync_payload = {"digest": blobs.add(table.encode("utf-8"))}
        for w in workers:
            yield "P5", w.hostname, "SyncAccounts", "sync-accounts", sync_payload

    # P6: quotas on the storage volume (master-side accounting)
    quota_users = [u for u in spec.users
                   if u.quota_hard_bytes > 0 or u.quota_soft_bytes > 0]
    if quota_users:
        yield ("P6", master.hostname, "EnableQuota", "enable-quota",
               {"volume": spec.storage.path})
        for u in quota_users:
            yield ("P6", master.hostname, "SetQuota", f"quota-{u.username}",
                   {"username": u.username, "soft_bytes": u.quota_soft_bytes,
                    "hard_bytes": u.quota_hard_bytes})

    # P7: application environment on every node, installs on master
    if spec.apps:
        profile = configgen.gen_env_profile(list(spec.apps), spec.storage.path)
        for host in hostnames:
            yield ("P7", host, "AppendFile", "env-profile",
                   {"path": profile.target_path,
                    "digest": blobs.add(profile.content)})
        for app in spec.apps:
            yield ("P7", master.hostname, "InstallApp", f"install-{app.name}",
                   {"name": app.name, "install_path": app.install_path,
                    "source_url": app.source_url})

    # P8: alias guards and MOTD on master
    if spec.alias_guards:
        aliases = configgen.gen_alias_guards(list(spec.alias_guards),
                                             spec.motd.worker_range)
        yield ("P8", master.hostname, "WriteFile", "alias-guards",
               {"path": aliases.target_path,
                "digest": blobs.add(aliases.content)})
    motd = configgen.gen_motd(spec.motd)
    yield ("P8", master.hostname, "WriteFile", "motd",
           {"path": motd.target_path, "digest": blobs.add(motd.content)})

    # P9: traffic monitoring on every node
    for host in hostnames:
        yield "P9", host, "EnableMonitor", "enable-monitor", {}


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
    blobs = Blobs(texts)
    pending = [a for a in desired if not satisfied(a, state, blobs)]
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
