"""Entry point of the workload subprocess that run.py starts.

It refuses to time anything unless the BLAS thread variables are pinned to 1
and numpy has not been imported yet, because thread counts are fixed when
numpy loads. It imports confae from the ``src/`` tree of the checkout it
lives in, never from an installed copy, runs one workload and prints the
result record as one JSON line.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

PINNED_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SPAWNED_AT_VAR = "CONFAE_BENCH_SPAWNED_AT"
WORKLOADS = ("train-conf-mc", "train-conf-exact", "diagnose-roll")
OUT_DIR = Path(__file__).resolve().parent / "_work"  # ignored by git


def main(argv=None) -> int:
    if "numpy" in sys.modules:
        print("worker: numpy is already imported; thread pinning would not apply", file=sys.stderr)
        return 3
    unpinned = [v for v in PINNED_THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        print(f"worker: thread variables not pinned to 1: {unpinned}", file=sys.stderr)
        return 3
    spawned_at = float(os.environ[SPAWNED_AT_VAR])

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import confae

    if not Path(confae.__file__).resolve().is_relative_to(src):
        print(f"worker: confae imported from {confae.__file__}, not {src}", file=sys.stderr)
        return 3
    import workloads  # loads numpy

    ready_s = time.perf_counter() - spawned_at
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        record, tracer = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, ready_s
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        spans_path = OUT_DIR / f"spans-{args.workload}.jsonl"  # the last traced run only
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
