"""Smoke tests of the benchmark harness, kept outside the tier-1 test paths.

Every workload runs at minimal length and must print every metric that
BENCHMARK.json names, with its unit. Run with

    python3 -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

sys.path.insert(0, str(HERE))
from spans import Span, window_stats  # noqa: E402
from worker import PINNED_THREAD_VARS, SPAWNED_AT_VAR  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, *SPEC["command"][1:]]
    argv += ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace, kind):
    out = _bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = _bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.mark.parametrize("preload,pinned", [(True, True), (False, False)])
def test_worker_refuses_unpinned_numpy(preload, pinned):
    env = dict(os.environ, **{SPAWNED_AT_VAR: "0"})
    for var in PINNED_THREAD_VARS:
        env[var] = "1" if pinned else "4"
    code = "import runpy, sys; sys.argv = ['worker.py']; "
    code += "import numpy; " if preload else ""
    code += f"sys.exit(runpy.run_path({str(HERE / 'worker.py')!r}, run_name='not_main')['main']())"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 3, out.stderr
    assert "numpy" in out.stderr if preload else "not pinned" in out.stderr


def test_window_stats_splits_self_time_at_window_edges():
    spans = [
        Span(2, 1, "child", 2.0, 5.0, {"rows": 4}),
        Span(1, 0, "parent", 1.0, 8.0, None),
    ]
    first, second = window_stats(spans, [(0.0, 4.0), (4.0, 10.0)])
    assert first["parent"]["self_s"] == 1.0 and second["parent"]["self_s"] == 3.0
    assert first["child"]["self_s"] == 2.0 and second["child"]["self_s"] == 1.0
    assert first["parent"]["total_s"] == 3.0 and second["parent"]["total_s"] == 4.0
    assert first["child"]["calls"] == 1 and first["child"]["rows"] == 4
    assert second["child"]["calls"] == 0
