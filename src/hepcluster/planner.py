"""Desired-state planning: observe the fleet, diff against the spec, order phases."""

from __future__ import annotations

import hashlib
import json
import logging
import operator
from dataclasses import dataclass, field
from typing import Callable

from . import configgen
from .model import ClusterSpec, NodeSpec, partition_plan_for, spec_hash, validate

log = logging.getLogger(__name__)

PHASES = tuple(f"P{i}" for i in range(10))
_ID_PREFIX = {phase: f"{phase.lower()}-" for phase in PHASES}
# execution order of actions; "P0" ... "P9" sort as strings in phase order
_ORDER = operator.attrgetter("phase", "target", "id")

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
        _check_kind(self.kind, self.phase)


def _check_kind(kind: str, phase: str) -> None:
    """ValueError unless `kind` is in `KINDS` and allows `phase`."""
    if kind not in KINDS:
        raise ValueError(f"unknown action kind {kind!r}")
    if phase not in KINDS[kind].phases:
        raise ValueError(f"kind {kind} not allowed in phase {phase}")


@dataclass(frozen=True)
class Plan:
    """Pending actions in execution order.

    File and SyncAccounts actions carry a sha256 digest, not the content:
    `blobs` maps each digest the actions use to its text, so content shared
    by many nodes (the P3 key mesh, the account table) appears once however
    many actions use it.

    A plan `diff` built also keeps the templates and the `Blobs` store it
    was built from, so `apply` runs and verifies it without building them
    again (`_basis`); `==`, `repr`, `to_json` and `dataclasses.replace`
    leave them out.
    """
    actions: tuple[Action, ...]
    spec_hash: str
    blobs: dict[str, str] = field(default_factory=dict)
    # (templates, Blobs) of the `diff` that built the plan, else None
    _basis: tuple[dict[str, tuple[Row, ...]], Blobs] | None = field(
        default=None, init=False, repr=False, compare=False)

    def to_json(self) -> str:
        """The plan as `indent=2` JSON: spec_hash, actions, then blobs.

        The hosts of a template share its payload objects, so each distinct
        payload is encoded once and its text indented to the action's depth.
        The flat ones, whose values are all scalars (the master's per-user
        payloads, one per user), are encoded together in one pass of the C
        encoder, whose item separator is the newline and indent of a key at
        that depth; the rest go through `json.dumps(indent=2)`. The encoder
        escapes newlines within strings, so each one it emits starts a line.
        `blobs` is omitted when empty, so the no-op plan stays byte-stable.
        The payload texts are dropped once the action texts exist, and one
        `join` builds the document, so it is copied whole only once.
        """
        enc = json.encoder.encode_basestring_ascii
        payloads: dict[int, str] = {}  # id(payload) -> indented text
        flat: list[dict] = []
        for a in self.actions:
            p = a.payload
            if id(p) in payloads:
                continue
            if p and _SCALARS.issuperset(map(type, p.values())):
                payloads[id(p)] = ""  # filled in below
                flat.append(p)
            else:
                payloads[id(p)] = json.dumps(p, indent=2).replace(
                    "\n", "\n      ")
        if flat:
            # a separator inside a dict is followed by a key's quote, so
            # "}" + separator + "{" only ever joins two payloads
            texts = _FLAT_ENCODER.encode(flat).split(_FLAT_JOIN)
            texts[0] = texts[0][2:]  # the list's "[{"
            texts[-1] = texts[-1][:-2]  # and its "}]"
            for p, text in zip(flat, texts):
                payloads[id(p)] = "{" + _FLAT_INDENT + text + "\n      }"
            del texts
        head = f'{{\n  "spec_hash": {enc(self.spec_hash)},\n  "actions": '
        tail = "\n}\n"
        if self.blobs:
            tail = ',\n  "blobs": ' + json.dumps(
                self.blobs, indent=2).replace("\n", "\n  ") + tail
        if not self.actions:
            return head + "[]" + tail
        actions = [
            f'    {{\n      "id": {enc(a.id)},\n'
            f'      "phase": {enc(a.phase)},\n'
            f'      "target": {enc(a.target)},\n'
            f'      "kind": {enc(a.kind)},\n'
            f'      "payload": {payloads[id(a.payload)]}\n    }}'
            for a in self.actions]
        del payloads
        actions[0] = head + "[\n" + actions[0]
        actions[-1] += "\n  ]" + tail
        return ",\n".join(actions)


# A flat payload's keys sit at depth 4 of the plan (8 spaces), so encoding
# the list of flat payloads with this item separator, on the C path that
# `indent=None` selects, lays out each one as `indent=2` would.
_SCALARS = frozenset((str, int, float, bool, type(None)))
_FLAT_INDENT = "\n        "
_FLAT_ENCODER = json.JSONEncoder(separators=("," + _FLAT_INDENT, ": "))
_FLAT_JOIN = "}," + _FLAT_INDENT + "{"


class Blobs:
    """Content-addressed store of the blobs of a plan or a state file.

    Each blob is held once, as bytes, under the hex sha256 of those bytes,
    so content shared by many nodes (the P3 key mesh, the account table)
    costs its size once. `diff` and `save` start from an empty store;
    `apply` and `load` read the digest -> text map of a plan or state file,
    and a blob whose text does not hash to its digest is a ValueError.

    The store keeps a reference to each account table added to it, not a
    copy, so a table must not be edited while the store is in use. A
    store that `diff` fills lives as long as its plan.
    """

    def __init__(self, texts: dict[str, str] | None = None) -> None:
        self._data = {d: text.encode("utf-8")
                      for d, text in (texts or {}).items()}
        for digest, data in self._data.items():
            if hashlib.sha256(data).hexdigest() != digest:
                raise ValueError(f"blob {digest} does not match its digest")
        self._digests: dict[bytes, str] = {}  # added bytes -> digest
        # digest -> the last added account table with that digest
        self._tables: dict[str, dict[str, tuple[str, str, str]]] = {}
        self._accounts: dict[str, dict[str, tuple[str, str, str]]] = {}

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
        Each table is compared with the last added table that matched a
        digest, and kept by reference: the workers of a fleet hold the same
        entry objects, so comparing one with the next is mostly identity
        checks, where the first match may compare every entry by value.
        """
        for digest, seen in self._tables.items():
            # dict == runs in C and fails fast on a size or key mismatch
            if seen == table:
                self._tables[digest] = table
                return digest
        digest = self.add(json.dumps(table, sort_keys=True,
                                     separators=(",", ":")).encode("utf-8"))
        self._tables[digest] = table
        return digest

    def __getitem__(self, digest: str) -> bytes:
        return self._data[digest]

    def texts(self, digests: set[str] | None = None) -> dict[str, str]:
        """Digest -> text of `digests` (default: every blob), sorted by digest."""
        return {d: self._data[d].decode("utf-8")
                for d in sorted(self._data if digests is None else digests)}

    def accounts(self, digest: str) -> dict[str, tuple[str, str, str]]:
        """Account table: username -> (group, shell, home), in username order.

        Built once per digest: from the table added under it, sorted, or
        else by decoding its text. Callers share it and must not edit it.
        """
        table = self._accounts.get(digest)
        if table is None:
            added = self._tables.get(digest)
            if added is not None:
                table = dict(sorted(added.items()))
            else:
                text = self._data[digest].decode("utf-8")
                table = {u: tuple(v)
                         for u, v in sorted(json.loads(text).items())}
            self._accounts[digest] = table
        return table


@dataclass
class NodeState:
    """One node as observed: the snapshot `Backend.read_state` returns.

    The caller owns the snapshot; editing it leaves the node unchanged.
    `SimFleet` keeps one of these records per simulated machine too.
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
    """Rows of (phase, kind, id slug, payload), numbered in order per phase.

    Each distinct kind and phase pair is checked here, once, so the
    actions `diff` builds from the rows need no check of their own.
    """
    seqs: dict[str, int] = {}
    checked: set[tuple[str, str]] = set()
    rows = []
    for phase, kind, slug, payload in wanted:
        if (kind, phase) not in checked:
            _check_kind(kind, phase)
            checked.add((kind, phase))
        seq = seqs[phase] = seqs.get(phase, -1) + 1
        rows.append((phase, kind, _ID_PREFIX[phase], f"-{seq:02d}-{slug}",
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

    files = configgen.spec_files(spec)

    def put(name: str) -> dict:
        """Payload writing the spec file `name`."""
        f = files[name]
        return {"path": f.target_path, "digest": blobs.add(f.content)}

    # P7: application environment on every node
    env = ([("P7", "AppendFile", "env-profile", put("env"))]
           if "env" in files else [])
    # P9: traffic monitoring on every node
    tail = [("P9", "EnableMonitor", "enable-monitor", {})]

    # master: NFS export, accounts, quotas, app installs, alias guards, MOTD
    wanted = head(master)
    wanted.append(("P4", "WriteFile", "exports", put("exports")))
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
    if "aliases" in files:
        wanted.append(("P8", "WriteFile", "alias-guards", put("aliases")))
    wanted.append(("P8", "WriteFile", "motd", put("motd")))
    templates = {master.hostname: _numbered(wanted + tail)}

    # workers: mount + persist the storage, accounts from one shared table
    storage = [("P4", "Mount", "mount-storage",
                {"source": spec.storage_source,
                 "mountpoint": spec.worker_mountpoint}),
               ("P4", "PersistMount", "persist-mount", put("fstab"))]
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


def _check_valid(spec: ClusterSpec) -> None:
    """PlanError naming every violation of `spec`, if it has any."""
    violations = validate(spec)
    if violations:
        raise PlanError("; ".join(v.message for v in violations))


def diff(spec: ClusterSpec, state: FleetState) -> Plan:
    """Plan containing exactly the actions whose postcondition is unsatisfied."""
    _check_valid(spec)
    blobs = Blobs()
    templates = _templates(spec, blobs)
    pending = _pending(templates, blobs, state)
    used = {a.payload["digest"] for a in pending if "digest" in a.payload}
    plan = Plan(actions=pending, spec_hash=spec_hash(spec),
                blobs=blobs.texts(used))
    object.__setattr__(plan, "_basis", (templates, blobs))
    return plan


def _basis(plan: Plan, spec: ClusterSpec
           ) -> tuple[dict[str, tuple[Row, ...]], Blobs]:
    """The templates and `Blobs` store to run and verify `plan` with, for
    a plan whose `spec_hash` is that of `spec`: the ones `diff` kept, or,
    for a plan built by hand, the plan's blobs and the templates of `spec`,
    which must be valid (else PlanError, as `diff` raises)."""
    if plan._basis is not None:
        return plan._basis
    _check_valid(spec)
    blobs = Blobs(plan.blobs)
    return _templates(spec, blobs), blobs


def _pending(templates: dict[str, tuple[Row, ...]], blobs: Blobs,
             state: FleetState) -> tuple[Action, ...]:
    """The actions of every template row whose postcondition fails on its
    host, in execution order; an unknown or unreachable host fails all."""
    down = sorted(h for h, n in state.nodes.items() if not n.reachable)
    if down:  # one record per call, however many nodes are down
        log.warning("%d node(s) unreachable, planning full provisioning: %s",
                    len(down), ", ".join(down))
    # per template: the last node whose rows were checked, and its failing rows
    checked: dict[int, tuple[NodeState, tuple[Row, ...]]] = {}
    pending = []
    # `_numbered` checked each row's kind and phase, so the actions are
    # built without `Action.__post_init__`
    new, put = object.__new__, object.__setattr__
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
        for phase, kind, prefix, suffix, payload in failing:
            action = new(Action)
            put(action, "id", prefix + host + suffix)
            put(action, "phase", phase)
            put(action, "target", host)
            put(action, "kind", kind)
            put(action, "payload", payload)
            pending.append(action)
    pending.sort(key=_ORDER)
    return tuple(pending)


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
