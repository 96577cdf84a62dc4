"""The scripts under ``scripts/`` run end to end at toy size."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reproduce_swissroll_writes_every_artifact(tmp_path):
    # test_api_surface counts this script as a caller of the package, so it
    # has to keep running
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = tmp_path / "cmp"
    argv = ["--out", str(out), "--epochs", "1", "--n", "300"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_swissroll.py"), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (out / "comparison.json").exists()
    figs = ("conformal_factor.svg", "scalar_curvature.svg", "kappa_strip.svg")
    for tag in ("none", "globiso", "lociso", "conf"):
        assert (out / f"run_{tag}" / "diagnostics.csv").exists()
        # the curvature scatter is drawn from a real diagnose's s_raw
        for name in figs:
            assert (out / f"run_{tag}" / "figures" / name).is_file(), (tag, name)
