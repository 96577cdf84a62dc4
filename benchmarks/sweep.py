"""Run the benchmark over several seeds and summarize each metric.

    python3 benchmarks/sweep.py --seeds 101-110 --trace 0 --out benchmarks/results/mine.json
    python3 benchmarks/sweep.py --workloads diagnose-roll --seeds 1,2,3 --seconds 10

Runs ``run.py`` once per (workload, seed), one after another, and reports
per metric the median, the quartiles and their distance as a share of the
median (``statistics.quantiles(values, n=4)``). This is how a change is
compared with its parent: same seeds, same ``--seconds``, both commits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
            cmd += ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            runs.append((seed, json.loads(lines[-2]), json.loads(lines[-1])))
        results = [r for _, _, r in runs]
        metrics = {}
        for name, m in results[0]["metrics"].items():
            metrics[name] = {"unit": m["unit"], **summarize([r["metrics"][name]["value"] for r in results])}
        summary["workloads"][workload] = {
            "seeds": [seed for seed, _, _ in runs],
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "checks": {seed: info["checks"] for seed, info, _ in runs},
            "metrics": metrics,
        }
        summary["provenance"] = {k: v for k, v in runs[-1][1]["provenance"].items() if k != "seed"}
        for name, m in metrics.items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"{workload:<17} {name:<58} {m['median']:>14.6g} {m['unit']:<6} spread {spread}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
