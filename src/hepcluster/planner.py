"""Desired-state planning: observe the fleet, diff against the spec, order phases."""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from dataclasses import dataclass, field
from typing import Callable

from . import configgen
from .model import ClusterSpec, NodeSpec, partition_plan_for, spec_hash, validate

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

    def to_json(self) -> str:
        """The plan as `indent=2` JSON: spec_hash, actions, then blobs.

        The hosts of a template share its payload objects, so each distinct
        payload is encoded once and its text indented to the action's depth;
        the encoder escapes newlines within strings, so each one it emits
        starts a line. `blobs` is omitted when empty, so the no-op plan
        stays byte-stable.
        """
        enc = json.encoder.encode_basestring_ascii
        payloads: dict[int, str] = {}  # id(payload) -> indented text
        actions = []
        for a in self.actions:
            payload = payloads.get(id(a.payload))
            if payload is None:
                payload = payloads[id(a.payload)] = json.dumps(
                    a.payload, indent=2).replace("\n", "\n      ")
            actions.append(
                f'    {{\n      "id": {enc(a.id)},\n'
                f'      "phase": {enc(a.phase)},\n'
                f'      "target": {enc(a.target)},\n'
                f'      "kind": {enc(a.kind)},\n'
                f'      "payload": {payload}\n    }}')
        body = ("[\n" + ",\n".join(actions) + "\n  ]") if actions else "[]"
        out = f'{{\n  "spec_hash": {enc(self.spec_hash)},\n  "actions": {body}'
        if self.blobs:
            out += ',\n  "blobs": ' + json.dumps(
                self.blobs, indent=2).replace("\n", "\n  ")
        return out + "\n}\n"


class Blobs:
    """Content-addressed store of the blobs of a plan or a state file.

    Each blob is held once, as bytes, under the hex sha256 of those bytes,
    so content shared by many nodes (the P3 key mesh, the account table)
    costs its size once. `diff` and `save` start from an empty store;
    `apply` and `load` read the digest -> text map of a plan or state file,
    and a blob whose text does not hash to its digest is a ValueError.
    """

    def __init__(self, texts: dict[str, str] | None = None) -> None:
        self._data = {d: text.encode("utf-8")
                      for d, text in (texts or {}).items()}
        for digest, data in self._data.items():
            if hashlib.sha256(data).hexdigest() != digest:
                raise ValueError(f"blob {digest} does not match its digest")
        self._digests: dict[bytes, str] = {}  # added bytes -> digest
        self._tables: list[tuple[dict, str]] = []  # added account tables
        self._accounts: dict[str, dict[str, tuple[str, str, str]]] = {}
        self._lock = threading.Lock()

    def add(self, data: bytes) -> str:
        """Store `data` unless already held; returns its digest.

        Content shared by many nodes is usually one bytes object, whose
        hash Python caches, so each distinct content is digested once.
        """
        digest = self._digests.get(data)
        if digest is None:
            digest = self._digests[data] = hashlib.sha256(data).hexdigest()
            self._data[digest] = data
        return digest

    def add_accounts(self, table: dict[str, tuple[str, str, str]]) -> str:
        """Store an account table as compact JSON sorted by username.

        A worker's observed accounts and the spec's table render the same
        bytes, so a converged worker's table and the plan's share one digest.
        """
        for seen, digest in self._tables:
            # dict == runs in C and fails fast on a size or key mismatch
            if seen == table:
                return digest
        digest = self.add(json.dumps(table, sort_keys=True,
                                     separators=(",", ":")).encode("utf-8"))
        self._tables.append((dict(table), digest))  # callers may edit theirs
        return digest

    def __getitem__(self, digest: str) -> bytes:
        return self._data[digest]

    def texts(self, digests: set[str] | None = None) -> dict[str, str]:
        """Digest -> text of `digests` (default: every blob), sorted by digest."""
        return {d: self._data[d].decode("utf-8")
                for d in sorted(self._data if digests is None else digests)}

    def accounts(self, digest: str) -> dict[str, tuple[str, str, str]]:
        """Account table: username -> (group, shell, home), in username order."""
        with self._lock:  # one store may be read from several threads
            table = self._accounts.get(digest)
            if table is None:
                text = self._data[digest].decode("utf-8")
                table = self._accounts[digest] = {
                    u: tuple(v) for u, v in sorted(json.loads(text).items())}
            return table


@dataclass
class NodeState:
    """One node as observed: the snapshot `Backend.read_state` returns.

    The caller owns the snapshot; editing it leaves the node unchanged.
    Account values are (group, shell, home), quota values (soft, hard)
    in bytes and counter values (rx, tx) in bytes. An unreachable node
    is observed as `NodeState(hostname)`: not reachable, off and empty.
    """
    hostname: str
    reachable: bool = False
    power: str = "off"
    files: dict[str, bytes] = field(default_factory=dict)
    mounts: set[tuple[str, str]] = field(default_factory=set)  # (source, mountpoint)
    accounts: dict[str, tuple[str, str, str]] = field(default_factory=dict)
    quota_enabled: bool = False
    quotas: dict[str, tuple[int, int]] = field(default_factory=dict)
    markers: set[str] = field(default_factory=set)
    counters: dict[str, tuple[int, int]] = field(default_factory=dict)


@dataclass
class FleetState:
    nodes: dict[str, NodeState] = field(default_factory=dict)


def observe(backend) -> FleetState:
    """Snapshot the fleet through a backend; unreachable nodes stay empty."""
    from .executor import NodeUnreachableError  # cycle-free at call time
    state = FleetState()
    for hostname in sorted(backend.hostnames()):
        try:
            state.nodes[hostname] = backend.read_state(hostname)
        except NodeUnreachableError:
            state.nodes[hostname] = NodeState(hostname)
    return state


@dataclass(frozen=True)
class Kind:
    """One action kind: the phases it may appear in, how it runs, when it is done.

    `run(backend, host, payload, blobs)` calls the backend and returns True
    if it changed state; `holds(node, payload, blobs)` is the postcondition
    on the observed state of the (reachable) target node.

    `holds` reads only the observed fields `_same_state` compares, never
    `hostname` or `counters`: `diff` reuses one node's result for every
    node of the same template whose observed state is equal.
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
        ("P5",),
        lambda b, h, p, blobs: b.sync_accounts(h, blobs.accounts(p["digest"])),
        lambda n, p, blobs: (blobs.accounts(p["digest"]).items()
                             <= n.accounts.items())),
    "EnableQuota": Kind(("P6",), lambda b, h, p, blobs: b.enable_quota(h),
                        lambda n, p, blobs: n.quota_enabled),
    "SetQuota": Kind(
        ("P6",),
        lambda b, h, p, blobs: b.set_quota(h, p["username"], p["soft_bytes"],
                                           p["hard_bytes"]),
        lambda n, p, blobs: n.quotas.get(p["username"])
        == (p["soft_bytes"], p["hard_bytes"])),
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


# One wanted action of a host: (phase, kind, id prefix, id suffix, payload).
# The action id is prefix + hostname + suffix.
Row = tuple[str, str, str, str, dict]


def _numbered(wanted: list[tuple[str, str, str, dict]]) -> tuple[Row, ...]:
    """Rows of (phase, kind, id slug, payload), numbered in order per phase."""
    seqs: dict[str, int] = {}
    rows = []
    for phase, kind, slug, payload in wanted:
        seq = seqs[phase] = seqs.get(phase, -1) + 1
        rows.append((phase, kind, f"{phase.lower()}-", f"-{seq:02d}-{slug}",
                     payload))
    return tuple(rows)


def _templates(spec: ClusterSpec, blobs: Blobs) -> dict[str, tuple[Row, ...]]:
    """Each host's template: the rows of every action the spec wants on it.

    The master has its own template. Workers with equal raid level, disk
    and swap share one template object, and payloads are shared between
    hosts.
    """
    master = spec.master
    workers = spec.workers
    mesh = configgen.gen_key_mesh(node_public_keys(spec))
    # the full mesh gives every host the same bytes, digested once here
    keys_digest = blobs.add(mesh.authorized_content[master.hostname])

    def head(node: NodeSpec) -> list:
        # P0 power, P1 storage layout, P2 base OS, P3 password-free login
        table = partition_plan_for(spec, node)
        return [
            ("P0", "PowerOn", "power-on", {}),
            ("P1", "LayoutStorage", "layout-storage",
             {"raid_level": node.raid_level,
              "partitions": [[e.mountpoint, e.size_bytes, e.volume_kind]
                             for e in table.entries]}),
            ("P2", "InstallBase", "install-base", {}),
            ("P3", "WriteFile", "authorized-keys",
             {"path": configgen.SSH_AUTHORIZED_KEYS_PATH,
              "digest": keys_digest}),
        ]

    # P7: application environment on every node
    env = []
    if spec.apps:
        profile = configgen.gen_env_profile(list(spec.apps), spec.storage.path)
        env.append(("P7", "AppendFile", "env-profile",
                    {"path": profile.target_path,
                     "digest": blobs.add(profile.content)}))
    # P9: traffic monitoring on every node
    tail = [("P9", "EnableMonitor", "enable-monitor", {})]

    # master: NFS export, accounts, quotas, app installs, alias guards, MOTD
    exports = configgen.gen_exports(spec.storage,
                                    [w.hostname for w in workers])
    wanted = head(master)
    wanted.append(("P4", "WriteFile", "exports",
                   {"path": exports.target_path,
                    "digest": blobs.add(exports.content)}))
    wanted += [("P5", "CreateUser", f"user-{u.username}",
                {"username": u.username, "group": u.group, "shell": u.shell,
                 "home": u.home}) for u in spec.users]
    quota_users = [u for u in spec.users if u.has_quota]
    if quota_users:  # quotas on the storage volume (master-side accounting)
        wanted.append(("P6", "EnableQuota", "enable-quota",
                       {"volume": spec.storage.path}))
        wanted += [("P6", "SetQuota", f"quota-{u.username}",
                    {"username": u.username, "soft_bytes": u.quota_soft_bytes,
                     "hard_bytes": u.quota_hard_bytes}) for u in quota_users]
    wanted += env
    wanted += [("P7", "InstallApp", f"install-{app.name}",
                {"name": app.name, "install_path": app.install_path,
                 "source_url": app.source_url}) for app in spec.apps]
    if spec.alias_guards:
        aliases = configgen.gen_alias_guards(list(spec.alias_guards),
                                             spec.motd.worker_range)
        wanted.append(("P8", "WriteFile", "alias-guards",
                       {"path": aliases.target_path,
                        "digest": blobs.add(aliases.content)}))
    motd = configgen.gen_motd(spec.motd)
    wanted.append(("P8", "WriteFile", "motd",
                   {"path": motd.target_path, "digest": blobs.add(motd.content)}))
    templates = {master.hostname: _numbered(wanted + tail)}

    # workers: mount + persist the storage, accounts from one shared table
    master_ip = master.internal_ip(spec.subnet) or ""
    fstab = configgen.gen_fstab_mount(master_ip, spec.storage.path,
                                      spec.worker_mountpoint)
    storage = [("P4", "Mount", "mount-storage",
                {"source": f"{master.hostname}:{spec.storage.path}",
                 "mountpoint": spec.worker_mountpoint}),
               ("P4", "PersistMount", "persist-mount",
                {"path": fstab.target_path, "digest": blobs.add(fstab.content)})]
    if spec.users:
        storage.append(("P5", "SyncAccounts", "sync-accounts",
                        {"digest": blobs.add_accounts(
                            {u.username: (u.group, u.shell, u.home)
                             for u in spec.users})}))
    shared: dict[tuple, tuple[Row, ...]] = {}
    for w in workers:
        key = (w.raid_level, w.disk_bytes, w.swap_bytes)
        template = shared.get(key)
        if template is None:
            template = shared[key] = _numbered(
                head(w) + storage + env + tail)
        templates[w.hostname] = template
    return templates


def _same_state(a: NodeState, b: NodeState) -> bool:
    """Whether two observed nodes agree on every field a `holds` reads."""
    return (a.power == b.power and a.quota_enabled == b.quota_enabled
            and a.markers == b.markers and a.mounts == b.mounts
            and a.files == b.files and a.quotas == b.quotas
            and a.accounts == b.accounts)


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
    down = sorted(h for h, n in state.nodes.items() if not n.reachable)
    if down:  # one record per call, however many nodes are down
        log.warning("%d node(s) unreachable, planning full provisioning: %s",
                    len(down), ", ".join(down))
    blobs = Blobs()
    templates = _templates(spec, blobs)
    # per template: the last node whose rows were checked, and its failing rows
    checked: dict[int, tuple[NodeState, tuple[Row, ...]]] = {}
    pending = []
    for host, template in templates.items():
        node = state.nodes.get(host)
        if node is None or not node.reachable:
            failing = template
        else:
            last = checked.get(id(template))
            if last is not None and _same_state(last[0], node):
                failing = last[1]
            else:
                failing = tuple(row for row in template
                                if not KINDS[row[1]].holds(node, row[4], blobs))
                checked[id(template)] = (node, failing)
        pending += [Action(prefix + host + suffix, phase, host, kind, payload)
                    for phase, kind, prefix, suffix, payload in failing]
    pending.sort(key=lambda a: (_PHASE_RANK[a.phase], a.target, a.id))
    used = {a.payload["digest"] for a in pending if "digest" in a.payload}
    return Plan(actions=tuple(pending), spec_hash=spec_hash(spec),
                blobs=blobs.texts(used))


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
