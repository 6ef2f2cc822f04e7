"""Seeded synthetic cluster specs: one master, N workers, U quota users, all apps.

The spec is a plain dict in the on-disk spec format, so the program under
test only ever sees the JSON file written from it.  Hostnames, disks,
quotas and apps are fixed; the seed picks the user names and their order,
the address of every node inside the subnet, and (through `pick_faults`)
which workers the drift workload crashes and isolates.
"""

from __future__ import annotations

import ipaddress
import json
import random
import string

GIB = 1 << 30
TIB = 1 << 40

SUBNET = "10.8.0.0/16"
STORAGE_PATH = "/Jugrid"
USERNAME_LETTERS = 7  # fixed width keeps plan and state bytes seed-independent
CRASH_SHARE = 0.10  # share of the workers the drift workload crashes


def hostname(index: int) -> str:
    """node0000 is the master; node0001.. are the workers."""
    return f"node{index:04d}"


def _usernames(rng: random.Random, count: int) -> list[str]:
    names: set[str] = set()
    while len(names) < count:
        names.add("u" + "".join(rng.choices(string.ascii_lowercase,
                                            k=USERNAME_LETTERS)))
    ordered = sorted(names)
    rng.shuffle(ordered)
    return ordered


def make_spec(workers: int, users: int, seed: int) -> dict:
    """Spec dict for a master plus `workers` workers and `users` users."""
    if workers < 1 or users < 1:
        raise ValueError("need at least one worker and one user")
    rng = random.Random(seed)
    net = ipaddress.ip_network(SUBNET)
    if workers + 1 > net.num_addresses - 2:
        raise ValueError(f"{workers} workers do not fit in {SUBNET}")
    offsets = rng.sample(range(1, net.num_addresses - 1), workers + 1)
    ips = [str(net.network_address + off) for off in offsets]

    nodes = [{
        "hostname": hostname(0),
        "role": "master",
        "interfaces": [{"name": "eth0", "ip": ips[0]},
                       {"name": "eth1", "ip": "192.0.2.10"}],
        "disk_bytes": 6 * TIB,
        "raid_level": 3,
    }]
    for i in range(1, workers + 1):
        nodes.append({
            "hostname": hostname(i),
            "role": "worker",
            "interfaces": [{"name": "eth0", "ip": ips[i]}],
            "disk_bytes": 1 * TIB,
            "raid_level": 3,
        })
    return {
        "name": f"synthetic-{workers}w-{users}u",
        "subnet": SUBNET,
        "nodes": nodes,
        "storage": {
            "path": STORAGE_PATH,
            "size_bytes": 4 * TIB,
            "export_options": ["rw", "sync"],
            "mountpoint_on_workers": STORAGE_PATH,
        },
        "users": [{"username": name, "group": "hep", "shell": "/bin/bash",
                   "quota_soft_bytes": 10 * GIB, "quota_hard_bytes": 20 * GIB}
                  for name in _usernames(rng, users)],
        "apps": [
            {"name": "root", "install_path": f"{STORAGE_PATH}/alice/root"},
            {"name": "aliroot", "install_path": f"{STORAGE_PATH}/alice/AliRoot"},
            {"name": "geant3", "install_path": f"{STORAGE_PATH}/alice/geant3"},
        ],
        "motd": {
            "banner": "WELCOME TO HEP CLUSTER",
            "contact_name": "Cluster Admin",
            "contact_email": "admin@example.org",
            "worker_range": [hostname(1), hostname(workers)],
        },
        "alias_guards": ["root", "aliroot"],
    }


def write_spec(spec: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(spec, f, indent=2)
        f.write("\n")


def pick_faults(workers: int, seed: int) -> tuple[list[str], str]:
    """Seeded crash set (a share of the workers) and one isolated worker.

    The isolated worker is never in the crash set, so each fault is seen
    on its own node.
    """
    if workers < 2:
        raise ValueError("fault injection needs at least two workers")
    rng = random.Random(f"faults-{seed}")
    crash_count = max(1, round(workers * CRASH_SHARE))
    chosen = rng.sample(range(1, workers + 1), min(crash_count + 1, workers))
    isolated = hostname(chosen[0])
    crashed = sorted(hostname(i) for i in chosen[1:])
    return crashed, isolated
