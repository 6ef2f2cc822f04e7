"""hepcluster benchmark entry point.

    python3 perfbench/run.py --workload fresh-mesh --seed 1 --seconds 32 --trace 0

Run from the root of a checkout.  The program is imported from `src/` of
that checkout.  Human-readable lines come first; the last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics with `--trace 0`, the per-layer ones with
`--trace 1`).  The exit code is 1 when a correctness check fails and 2
when the program cannot be imported or the workload is unknown.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_bench():
    """Import the harness, with `hepcluster` taken from this checkout only."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import hepcluster
    if not Path(hepcluster.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"hepcluster imported from {hepcluster.__file__}, "
                          f"not from {SRC}")
    import bench
    return bench


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        bench = _import_bench()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}"
    res = bench.run_workload(
        workload, args.seed, args.seconds, bool(args.trace),
        work_dir=str(OUT / f"work-{tag}-{os.getpid()}"),
        trace_path=str(OUT / f"trace-{tag}.jsonl"))

    attempted, failed = bench.counts(res)
    print(f"workload {workload.name}: {workload.workers} workers, "
          f"{workload.users} users, seed {args.seed}, "
          f"{len(res.cycles) + len(res.traced_cycles)} cycles, "
          f"{attempted} operations")
    for problem in res.problems:
        print(f"FAILED {problem}")
    print(f"reference kernel: median {statistics.median(res.kernel):.4f} s "
          f"over {len(res.kernel)} samples; timings are wall times "
          f"x {res.scale:.4f}, as on a machine where it takes "
          f"{bench.REFERENCE_KERNEL_S} s")
    e2e = bench.end_to_end(res)
    metrics = bench.per_layer(res) if args.trace else e2e
    shown = {**e2e, **bench.workload_views(workload, res), **metrics}
    for name, (value, unit) in shown.items():
        print(f"  {name:<28}{value:>16.6g} {unit}")
    if args.trace:
        print(f"  spans written to {OUT.name}/trace-{tag}.jsonl")

    correct = failed == 0 and not res.problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
