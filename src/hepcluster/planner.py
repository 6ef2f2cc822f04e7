"""Desired-state planning: observe the fleet, diff against the spec, order phases."""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import operator
from dataclasses import dataclass, field
from typing import Callable, Protocol

from . import configgen
from .model import (ClusterSpec, NodeSpec, _bare, _names,
                    partition_plan_for, spec_hash, validate)

log = logging.getLogger(__name__)

PHASES = tuple(f"P{i}" for i in range(10))
_ID_PREFIX = {phase: f"{phase.lower()}-" for phase in PHASES}

INFRASTRUCTURE = "infrastructure"


class PlanError(Exception):
    """An invalid spec: `violations` is the list `validate` returned."""

    def __init__(self, violations: list) -> None:
        super().__init__("; ".join(v.message for v in violations))
        self.violations = violations


@dataclass(frozen=True)
class Action:
    id: str
    phase: str
    target: str  # hostname or "infrastructure"
    kind: str
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        """ValueError unless `kind` is in `KINDS` and allows `phase`."""
        kind = KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.phase not in kind.phases:
            raise ValueError(f"kind {self.kind} not allowed in phase {self.phase}")


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
_FLAT_ENCODER = json.JSONEncoder(separators=("," + _FLAT_INDENT, ": "),
                                 check_circular=False)
_FLAT_JOIN = "}," + _FLAT_INDENT + "{"


class Blobs:
    """Content-addressed store of the blobs of a plan or a state file:
    each blob once, as bytes, under the hex sha256 of those bytes.

    `diff` and `save` start from an empty store; `apply` and `load` read
    the digest -> text map of a plan or state file, and a blob whose text
    does not hash to its digest is a ValueError. The store keeps no object
    a caller passed in; the account tables it decodes are shared with
    every caller and are read-only.
    """

    def __init__(self, texts: dict[str, str] | None = None) -> None:
        self._data = {d: text.encode("utf-8")
                      for d, text in (texts or {}).items()}
        for digest, data in self._data.items():
            if hashlib.sha256(data).hexdigest() != digest:
                raise ValueError(f"blob {_bare(digest)} does not match its digest")
        self._digests: dict[bytes, str] = {}  # added bytes -> digest
        self._accounts: dict[str, dict[str, tuple[str, str, str]]] = {}

    def add(self, data: bytes) -> str:
        """Store `data` unless already held; returns its digest.

        Equal content is usually one bytes object, whose hash Python
        caches, so each distinct content is digested once: a `save` of
        nodes that each have their own record does not hash the N-line
        key mesh once per node.
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
        return self.add(json.dumps(table, sort_keys=True, separators=(",", ":"),
                                   check_circular=False).encode("utf-8"))

    def __getitem__(self, digest: str) -> bytes:
        return self._data[digest]

    def texts(self, digests: set[str] | None = None) -> dict[str, str]:
        """Digest -> text of `digests` (default: every blob), sorted by digest."""
        return {d: self._data[d].decode("utf-8")
                for d in sorted(self._data if digests is None else digests)}

    def accounts(self, digest: str) -> dict[str, tuple[str, str, str]]:
        """Account table: username -> (group, shell, home), in username order.

        Decoded once per digest; every caller gets this one table, which
        nodes and snapshots may hold too, so no one may edit it.
        """
        table = self._accounts.get(digest)
        if table is None:
            text = self._data[digest].decode("utf-8")
            table = self._accounts[digest] = {
                u: tuple(v) for u, v in sorted(json.loads(text).items())}
        return table


@dataclass
class NodeState:
    """One node as observed: the snapshot `Backend.read_state` returns.

    The caller owns the snapshot's fields, and editing them leaves the node
    unchanged, except `accounts`: that table may be shared with the
    backend and with other snapshots, so no one edits it in place (a
    caller may replace it), and a backend's `create_user` and
    `sync_accounts` replace a table they handed out rather than edit it.
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


class BackendError(Exception):
    """A backend capability failed."""


class NodeUnreachableError(BackendError):
    """Target node cannot be reached (powered off, crashed, or isolated)."""


class TransportError(BackendError):
    """The transport itself failed, independent of node power state."""


class Backend(Protocol):
    """Capability contract shared by the simulated fleet and real transports.

    Every capability is idempotent and returns True when it changed
    state, False when the requested state already held. `KINDS` and
    `observe` are its only callers, which `executor` drives from one
    thread, so a backend needs no locks; a concurrent transport brings its own.
    """

    def hostnames(self) -> list[str]: ...
    def read_state(self, node: str) -> NodeState:
        """A reachable node's state, as a snapshot the caller owns but
        for its `accounts` table, which is shared and must not be edited
        (see `NodeState`).

        Raises NodeUnreachableError when the node cannot be reached.
        """
    def power(self, node: str, on: bool) -> bool: ...
    def write_file(self, node: str, path: str, data: bytes) -> bool: ...
    def append_file(self, node: str, path: str, data: bytes) -> bool: ...
    def mount(self, node: str, source: str, mountpoint: str) -> bool: ...
    def create_user(self, node: str, username: str, group: str,
                    shell: str, home: str) -> bool: ...
    def sync_accounts(self, node: str,
                      table: dict[str, tuple[str, str, str]]) -> bool:
        """Create or correct every account in `table` in one call.

        `table` maps username -> (group, shell, home), in username order.
        The backend may keep `table` itself as the node's table, so no one
        edits it afterwards. Returns True if any account changed.
        """
    def enable_quota(self, node: str) -> bool: ...
    def set_quota(self, node: str, username: str, soft: int, hard: int) -> bool: ...
    def set_marker(self, node: str, marker: str) -> bool: ...
    def enable_monitor(self, node: str) -> bool: ...


def observe(backend: Backend) -> FleetState:
    """Snapshot the fleet through a backend. A node whose read fails stays
    unobserved, `NodeState(hostname)`, unless the transport failed."""
    state = FleetState()
    for hostname in sorted(backend.hostnames()):
        try:
            state.nodes[hostname] = backend.read_state(hostname)
        except TransportError:
            raise
        except BackendError:
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
    """Rows of (phase, kind, id slug, payload), numbered in order per phase, in
    execution order: by phase, then id suffix (`-100-…` sorts before `-11-…`)."""
    seqs: dict[str, int] = {}
    rows = []
    for phase, kind, slug, payload in wanted:
        seq = seqs[phase] = seqs.get(phase, -1) + 1
        rows.append((phase, kind, _ID_PREFIX[phase], f"-{seq:02d}-{slug}",
                     payload))
    rows.sort(key=operator.itemgetter(0, 3))
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
    source, mountpoint = spec.storage_mount
    storage = [("P4", "Mount", "mount-storage",
                {"source": source, "mountpoint": mountpoint}),
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
            # a dict == walks every entry even when both sides are one table
            and (a.accounts is b.accounts or a.accounts == b.accounts))


def node_public_keys(spec: ClusterSpec) -> dict[str, str]:
    """Deterministic per-node public key lines (opaque stand-ins for real keys)."""
    return {n.hostname: "ssh-rsa "
            f"{hashlib.sha256(n.hostname.encode()).hexdigest()[:32]} "
            f"root@{n.hostname}" for n in spec.nodes}


def _check_valid(spec: ClusterSpec) -> None:
    """PlanError naming every violation of `spec`, if it has any."""
    violations = validate(spec)
    if violations:
        raise PlanError(violations)


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
    host, in execution order (phase, host, id): rows in order per host, hosts
    in order, one list per phase. An unknown or unreachable host fails all."""
    down = sorted([h for h, n in state.nodes.items() if not n.reachable])
    if down:  # one short record per call, however many nodes are down
        log.warning("%d node(s) unreachable, planning full provisioning: %s",
                    len(down), _names(down))
    # per template: the last node whose rows were checked, and its failing rows
    checked: dict[int, tuple[NodeState, tuple[Row, ...]]] = {}
    phases: dict[str, list[Action]] = {phase: [] for phase in PHASES}
    # the rows are `_templates`' own, not input, so the actions are built
    # without `Action.__post_init__`'s check
    new, put = object.__new__, object.__setattr__
    for host, template in sorted(templates.items()):
        node = state.nodes.get(host)
        if node is None or not node.reachable:
            failing = template
        else:
            last = checked.get(id(template))
            if last is not None and _same_state(last[0], node):
                failing = last[1]
            else:
                failing = tuple([row for row in template
                                 if not KINDS[row[1]].holds(node, row[4], blobs)])
                checked[id(template)] = (node, failing)
        for phase, kind, prefix, suffix, payload in failing:
            action = new(Action)
            put(action, "id", prefix + host + suffix)
            put(action, "phase", phase)
            put(action, "target", host)
            put(action, "kind", kind)
            put(action, "payload", payload)
            phases[phase].append(action)
    return tuple(itertools.chain.from_iterable(phases.values()))


def power_sequence(direction: str, spec: ClusterSpec) -> list[Action]:
    """Ordered power actions: "start" powers on the network infrastructure,
    the master, then the workers in hostname order; "stop" powers the same
    hosts off in reverse, and never the infrastructure. An invalid spec is
    a PlanError, as for `diff`."""
    _check_valid(spec)
    hosts = [spec.master.hostname,
             *sorted([w.hostname for w in spec.workers])]
    if direction == "start":
        kind, slug, hosts = "PowerOn", "power-on", [INFRASTRUCTURE, *hosts]
    elif direction == "stop":
        kind, slug, hosts = "PowerOff", "power-off", hosts[::-1]
    else:
        raise ValueError(f"unknown power direction {direction!r}")
    # the ids a template's P0 row gives its hosts
    [(phase, _, prefix, suffix, payload)] = _numbered([("P0", kind, slug, {})])
    # the row is the planner's own, so the actions are built as `_pending`
    # builds them, without `Action.__post_init__`'s check
    new, put = object.__new__, object.__setattr__
    actions = []
    for host in hosts:
        action = new(Action)
        put(action, "id", prefix + host + suffix)
        put(action, "phase", phase)
        put(action, "target", host)
        put(action, "kind", kind)
        put(action, "payload", payload)
        actions.append(action)
    return actions
