#!/usr/bin/env python3
"""Full roll-dataset comparison: vanilla vs globiso vs lociso vs conf.

Generates the dataset, trains one run per regularizer (calibrated intensity),
computes diagnostics, renders figures, and prints the side-by-side condition
number table. Everything goes through the CLI so the artifacts match what a
user would produce by hand.

Usage: python scripts/reproduce_swissroll.py [--out DIR] [--seed N] [--epochs N] [--n N]
"""

import argparse
import subprocess
import sys
from pathlib import Path


def sh(*argv):
    print("+", " ".join(argv), flush=True)
    proc = subprocess.run(argv, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"command failed with exit code {proc.returncode}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="swissroll_comparison")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--n", type=int, default=5000)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv = out / "roll.csv"
    confae = [sys.executable, "-m", "confae.cli"]

    sh(*confae, "generate", "--n", str(args.n), "--seed", str(args.seed), "--out", str(csv))

    run_dirs = {}
    for tag in ("none", "globiso", "lociso", "conf"):
        run_dir = out / f"run_{tag}"
        run_dirs[tag] = run_dir
        common = [
            "--data", str(csv),
            "--out", str(run_dir),
            "--seed", str(args.seed),
            "--epochs", str(args.epochs),
            "--single-thread",
        ]
        # without --lambda-geo, train calibrates the intensity itself
        sh(*confae, "train", *common, "--regularizer", tag)
        sh(
            *confae, "diagnose",
            "--checkpoint", str(run_dir / "checkpoint.json"),
            "--data", str(csv),
            "--out", str(run_dir),
        )
        sh(
            *confae, "plot",
            "--diagnostics", str(run_dir / "diagnostics.csv"),
            "--out", str(run_dir / "figures"),
        )

    sh(*confae, "compare", *[str(d) for d in run_dirs.values()], "--out", str(out))
    print(f"\nall artifacts in {out}/")


if __name__ == "__main__":
    main()
