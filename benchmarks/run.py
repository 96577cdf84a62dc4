"""confae benchmark: runs one workload in a fresh, single-threaded subprocess.

    python3 benchmarks/run.py --workload train-conf-mc --seed 1 --seconds 35 --trace 0

Workloads: train-conf-mc, train-conf-exact, diagnose-roll (see NOTES.md).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. Output: one line per metric with its unit
and sample count, a provenance line, and as the last line the result
``{"correct", "attempted", "failed", "metrics"}``. The full record, with the
git sha, versions, thread settings and seed, is also saved under
``benchmarks/_work/results/``. Exits non-zero, printing no result, when the
workload cannot run (for example when ``src/confae`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from worker import OUT_DIR, PINNED_THREAD_VARS, SPAWNED_AT_VAR, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170


def git_sha() -> str | None:
    # Look no higher than the checkout, which need not be a git repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_worker(args) -> tuple[int, str]:
    env = dict(os.environ, **{v: "1" for v in PINNED_THREAD_VARS})
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    env[SPAWNED_AT_VAR] = repr(time.perf_counter())
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 2, ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "confae" / "__init__.py").is_file():
        print(f"run: no confae sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit so run_worker's cleanup stops the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    code, stdout = run_worker(args)
    if code != 0:
        print(f"run: worker exited with code {code}", file=sys.stderr)
        return code if code > 0 else 2
    record = json.loads(stdout.strip().splitlines()[-1])
    record["provenance"]["git_sha"] = git_sha()
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for metric, m in record["metrics"].items():
        print(f"{metric:<58} {m['value']:>16.6g} {m['unit']:<6} n={m['n']}")
    for error in record["errors"]:
        print(f"failed operation: {error}")
    print(json.dumps({"provenance": record["provenance"], "checks": record["checks"]}, sort_keys=True))
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()}
    result = {k: record[k] for k in ("correct", "attempted", "failed")}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
