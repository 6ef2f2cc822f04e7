"""Run the benchmark over several seeds and summarise the spread per metric.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 32 --out perfbench/out/set1.json
    python3 perfbench/sweep.py --seeds 1-5 --workloads fresh-mesh --seconds 32

Run from the root of a checkout.  Each run is one `run.py` process, one at
a time; the workloads are interleaved seed by seed.  For every end-to-end
metric it prints the median of the runs and their spread, (q3 - q1) /
median with the quartiles of `statistics.quantiles(values, n=4)`.  This is
how the figures in `baseline.json` were made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--workloads", default=",".join(
        w["name"] for w in BENCH["workloads"]))
    p.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    p.add_argument("--out")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], capture_output=True, text=True, check=False)
            last = proc.stdout.strip().splitlines()[-1:]
            if proc.returncode != 0 or not last:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stdout}"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(last[0])
            runs[w].append(result)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)

    summary = {}
    for w, results in runs.items():
        summary[w] = {}
        for m in BENCH["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            summary[w][m["name"]] = {"unit": m["unit"], **summarise(values)}
            s = summary[w][m["name"]]
            print(f"{w:<16}{m['name']:<14}median {s['median']:<12.6g}"
                  f"spread {s['spread']:.3f} (bound {m['bound']})")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
