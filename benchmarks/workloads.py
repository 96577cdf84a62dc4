"""The confae benchmark workloads: set-up, timed operations and output checks.

Imported by worker.py only after the BLAS thread pools are pinned, because
importing this module loads numpy. Every workload is a closed loop with a
single caller: the next operation (a training epoch or one ``confae
diagnose`` call) starts only after the previous one has returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from confae import cli, data, training
from spans import Tracer, window_stats
from worker import PINNED_THREAD_VARS

SETUP_REPS = 3
WARMUP_OPS = 1
MIN_TIMED_OPS = 2

MODEL_SEED = 42  # run-config seed: network init, split, shuffles, probe draws
LAMBDA_GEO = 0.24
DIMS = [3, 50, 50, 50, 2]
N_TRAIN_ROLL = 5000
N_DIAG_ROLL = 20000
VAL_FRACTION = 0.2
N_DIAG_CODES = round(N_DIAG_ROLL * VAL_FRACTION)
# val_recon and the parameter hash are taken after the first epoch, which
# every run reaches, so they repeat exactly for a given seed. Later epochs
# spread val_recon more across seeds (6% IQR at epoch 3, 3% at epoch 1).
CHECK_EPOCH = 1
CHECKPOINT_EPOCHS = CHECK_EPOCH  # length of the run that makes diagnose-roll's checkpoint

# Layer metrics measured per timed operation: layer -> fields.
OP_LAYER_FIELDS = {
    "net.jvp": ("calls", "self_s", "rows", "pullback_rows", "rows_per_code"),
    "net.backward": ("calls", "self_s"),
    "net.forward_tape": ("self_s",),
    "net.forward": ("self_s",),
    "net.jacobian": ("calls",),
    "regularizers.nonlinear_conformal_loss_and_grad": ("calls", "self_s", "total_s"),
    "regularizers.recon_loss": ("self_s",),
    "training.adamw_step": ("calls", "self_s"),
    "training.train": ("self_s",),
    "geometry.conformal_field": ("self_s",),
    "geometry.build_graph": ("self_s", "edges", "dense_bytes"),
    "geometry.scalar_curvature": ("self_s",),
    "geometry.condition_numbers": ("calls", "self_s", "total_s", "inf_sentinels"),
    "geometry.summarize_kappa": ("self_s",),
    "geometry.write_diagnostics_csv": ("self_s",),
    "linalg.condition_number": ("calls", "self_s"),
    "data.from_csv": ("self_s",),
    "cli.main": ("self_s",),
}
# Layer metrics measured per set-up repetition.
SETUP_LAYER_FIELDS = {
    "data.swiss_roll": ("self_s",),
    "data.standardize": ("self_s",),
    "data.split": ("self_s",),
    "training.init_networks": ("self_s",),
}
FIELD_UNITS = {"self_s": "s", "total_s": "s", "dense_bytes": "B"}

# On the 2-vCPU Xeon VM (shared host) the recorded numbers come from, speed
# drifts by up to 40% in phases that last minutes, which no run length within
# the time budget can average out. Every operation and set-up is therefore
# followed by a fixed numpy kernel, and its time t_ref scales the
# measurement: reported seconds = measured seconds * REF_NOMINAL_S / t_ref.
# In a 100 s training run whose 10-epoch medians moved between 0.31 and
# 0.46 s with the phases, epoch / t_ref stayed within -8%/+5% of its median;
# over six 35 s train-conf-mc runs, the quartile spread of op_s_p50 fell
# from 7.1% unscaled to 1.5%. The kernel shares no code with confae, so a
# change to the package cannot move it.
REF_NOMINAL_S = 0.025


class Reference:
    """Fixed small-matmul kernel timed next to each measurement."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(512, 50))
        self.w = rng.normal(size=(50, 50)) / 7.0
        self.seconds()  # first call pays for page faults and BLAS set-up

    def seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(60):
            h = self.x
            for _ in range(3):
                h = np.maximum(h @ self.w, 0.0)
            ((h > 0.0) * 1.0).T @ self.x
        return time.perf_counter() - start


def scaled_seconds(record: dict) -> float:
    """A record's duration in reference-scaled seconds."""
    return (record["end"] - record["start"]) * REF_NOMINAL_S / record["ref_s"]


# training.train is entered once, before the first operation, so it stays
# wrapped for the whole traced run; the other layers are wrapped only while a
# traced operation runs.
OUTER_LAYERS = ("training.train",)


class Operations:
    """Closed-loop clock over a workload's operations.

    The first ``WARMUP_OPS`` operations are checked but not timed. Timing
    runs for ``seconds`` from the start of the first timed operation and
    covers at least ``MIN_TIMED_OPS`` operations. The reference kernel runs
    after each operation, outside its timed window. With a tracer, timed
    operations alternate between untraced and traced, so one run yields
    both the layer spans and the tracing overhead.
    """

    def __init__(self, seconds: float, tracer: Tracer | None, reference: Reference):
        self.seconds = seconds
        self.tracer = tracer
        self.reference = reference
        self.records: list[dict] = []
        self._open: dict | None = None

    def begin(self) -> None:
        index = len(self.records)
        timed = index >= WARMUP_OPS
        traced = self.tracer is not None and timed and (index - WARMUP_OPS) % 2 == 1
        if self.tracer is not None:
            inner = [k for k in self.tracer.layer_names if k not in OUTER_LAYERS]
            (self.tracer.install if traced else self.tracer.uninstall)(inner)
        self._open = {"timed": timed, "traced": traced, "start": time.perf_counter()}

    def end(self, error: str | None = None) -> dict:
        """Close the open operation; it failed if ``error`` is given."""
        record, self._open = self._open, None
        record["end"] = time.perf_counter()
        record["ref_s"] = self.reference.seconds()
        record["error"] = error
        self.records.append(record)
        return record

    def fail_open(self, error: str) -> bool:
        """Fail the open operation, if there is one."""
        if self._open is None:
            return False
        self.end(error)
        return True

    def more(self) -> bool:
        timed = [r for r in self.records if r["timed"]]
        if len(timed) < MIN_TIMED_OPS:
            return True
        return time.perf_counter() - timed[0]["start"] < self.seconds


def params_sha256(*networks) -> str:
    h = hashlib.sha256()
    for network in networks:
        for layer in network.layers:
            h.update(layer.weight.tobytes())
            h.update(layer.bias.tobytes())
    return h.hexdigest()


def _quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class _Stop(Exception):
    """Raised from the epoch callback once the timing budget is spent."""


class TrainWorkload:
    """``training.train`` with the pointwise conformal regularizer.

    One operation is one epoch, including its validation pass. The seed
    draws the roll sample; the run config (and its seed) is fixed, so that
    val_recon varies little across seeds.
    """

    def __init__(self, seed: int, workdir: Path, exact_trace: bool):
        self.seed = seed
        self.csv = workdir / "train.csv"
        self.exact_trace = exact_trace
        self.checks: dict = {}

    def setup(self) -> None:
        # The CSV round trip is what `confae generate` + `confae train` do.
        data.to_csv(data.swiss_roll(N_TRAIN_ROLL, seed=self.seed), self.csv)
        ds = data.standardize(data.from_csv(self.csv))
        config = training.RunConfig(
            regularizer="conf",
            lambda_geo=LAMBDA_GEO,
            epochs=10**9,  # the epoch callback stops the run
            batch_size=64,
            probes=8,
            exact_trace=self.exact_trace,
            dims=list(DIMS),
            seed=MODEL_SEED,
        )
        train_ds, _ = training.split_dataset(config, ds)
        enc, dec = training.init_networks(config)
        self.ds, self.config = ds, config
        self.samples_per_op = len(train_ds)
        self.checks["init_params_sha256"] = params_sha256(enc, dec)

    def run(self, ops: Operations) -> None:
        def on_epoch(state, record):
            values = (record.recon, record.geo, record.val_recon)
            finite = all(math.isfinite(v) for v in values)
            ops.end(None if finite else f"non-finite epoch losses {values}")
            if state.epoch == CHECK_EPOCH:
                self.checks["val_recon"] = record.val_recon
                self.checks["params_sha256"] = params_sha256(state.enc, state.dec)
            if not ops.more():
                raise _Stop
            ops.begin()

        ops.begin()
        try:
            training.train(self.config, self.ds, on_epoch=on_epoch)
        except _Stop:
            pass
        except Exception as exc:  # a failed epoch counts against error rate
            if not ops.fail_open(repr(exc)):
                raise


class DiagnoseWorkload:
    """``confae diagnose`` on a 20000-sample roll (4000 validation codes).

    Set-up trains a short seeded conf run on a 5000-sample roll through the
    CLI and keeps only its checkpoint. One operation is one in-process
    ``cli.main(["diagnose", ...])`` call.
    """

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.samples_per_op = N_DIAG_CODES
        self.checks: dict = {}
        self._csv_sha = None

    def setup(self) -> None:
        roll_seed = int(np.random.SeedSequence(self.seed).generate_state(1)[0])
        train_csv, run_dir = self.dir / "train.csv", self.dir / "run"
        data.to_csv(data.swiss_roll(N_TRAIN_ROLL, seed=self.seed), train_csv)
        code = _quiet_cli(
            [
                "train",
                "--data", str(train_csv),
                "--out", str(run_dir),
                "--regularizer", "conf",
                "--lambda-geo", str(LAMBDA_GEO),
                "--epochs", str(CHECKPOINT_EPOCHS),
                "--seed", str(MODEL_SEED),
            ]
        )
        if code != 0:
            raise RuntimeError(f"checkpoint training exited with code {code}")
        # Keep the checkpoint away from the run's manifest: the manifest
        # describes the 5000-sample training file, not the roll diagnosed.
        ckpt_dir = self.dir / "checkpoint"
        ckpt_dir.mkdir(exist_ok=True)
        self.checkpoint = ckpt_dir / "checkpoint.json"
        os.replace(run_dir / "checkpoint.json", self.checkpoint)
        self.roll_csv = self.dir / "roll.csv"
        data.to_csv(data.swiss_roll(N_DIAG_ROLL, seed=roll_seed), self.roll_csv)
        last = json.loads((run_dir / "metrics.jsonl").read_text().splitlines()[-1])
        self.checks["val_recon"] = last["val_recon"]
        self.checks["params_sha256"] = hashlib.sha256(self.checkpoint.read_bytes()).hexdigest()

    def _argv(self) -> list[str]:
        return [
            "diagnose",
            "--checkpoint", str(self.checkpoint),
            "--data", str(self.roll_csv),
            "--out", str(self.dir / "diagnose"),
            "--seed", str(MODEL_SEED),
            "--val-fraction", str(VAL_FRACTION),
            "--regularizer", "conf",
        ]

    def _check(self) -> str | None:
        """None when the diagnose outputs are right, else what is wrong."""
        out = self.dir / "diagnose"
        csv_path = out / "diagnostics.csv"
        raw = csv_path.read_bytes()
        header = raw.split(b"\n", 1)[0].decode().split(",")
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        summary = json.loads((out / "kappa_summary.json").read_text())
        kappa = table[:, header.index("kappa_jac")]
        calibration = summary["curvature"]["calibration"]
        sha = hashlib.sha256(raw).hexdigest()
        if self._csv_sha is None:
            self._csv_sha = sha
            self.checks["diagnostics_csv_sha256"] = sha
            self.checks["kappa_jac_mean"] = summary["kappa_jac_mean"]
        if table.shape[0] != N_DIAG_CODES:
            return f"{table.shape[0]} diagnostic rows for {N_DIAG_CODES} codes"
        if not np.all((kappa >= 1.0) | np.isposinf(kappa)):
            return "kappa_jac below 1"
        if summary["count"] + summary["excluded"] != N_DIAG_CODES:
            return "kappa summary count + excluded differs from the code count"
        if calibration is None or not math.isfinite(calibration):
            return f"curvature calibration {calibration!r} is not finite"
        if sha != self._csv_sha:
            return "diagnostics.csv differs from the first call's"
        return None

    def run(self, ops: Operations) -> None:
        while True:
            # Each call writes into a fresh directory, so a call that writes
            # nothing cannot pass on the previous call's files.
            shutil.rmtree(self.dir / "diagnose", ignore_errors=True)
            ops.begin()
            try:
                code = _quiet_cli(self._argv())
            except Exception as exc:  # a failed call counts against error rate
                ops.end(repr(exc))
            else:
                record = ops.end()  # the output check is not timed
                try:
                    record["error"] = f"exit code {code}" if code != 0 else self._check()
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    record["error"] = f"unreadable diagnose output: {exc!r}"
            if not ops.more():
                return


def make_workload(name: str, seed: int, workdir: Path):
    if name == "train-conf-mc":
        return TrainWorkload(seed, workdir, exact_trace=False)
    if name == "train-conf-exact":
        return TrainWorkload(seed, workdir, exact_trace=True)
    if name == "diagnose-roll":
        return DiagnoseWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def _blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": deps.get("name"), "version": deps.get("version")}


def provenance(name: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "threads": {v: os.environ.get(v) for v in PINNED_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "clients": 1,
    }


def interquartile_mean(values) -> float:
    """Mean of the middle half, which ignores stalls that hit a few operations."""
    xs = sorted(values)
    k = len(xs) // 4
    return statistics.fmean(xs[k : len(xs) - k])


def _metric(value, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def _layer_metrics(spans, records, layers, samples_per_op) -> dict:
    stats = window_stats(spans, [(r["start"], r["end"]) for r in records])
    scales = [REF_NOMINAL_S / r["ref_s"] for r in records]
    out = {}
    for layer, fields in layers.items():
        for f in fields:
            unit = FIELD_UNITS.get(f, "count")
            if f == "rows_per_code":
                per_window = [s[layer]["rows"] / samples_per_op for s in stats]
            elif unit == "s":
                per_window = [s[layer][f] * k for s, k in zip(stats, scales)]
            else:
                per_window = [s[layer][f] for s in stats]
            out[f"{layer}.{f}"] = _metric(statistics.median(per_window), unit, len(records))
    return out


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, ready_s: float):
    """Set up, time and check one workload.

    Returns the full result record and the tracer (None when untraced).

    ``ready_s`` is the time from process start until this module was
    imported; it is part of ``setup_s``.
    """
    reference = Reference()
    ready_ref_s = reference.seconds()
    workload = make_workload(name, seed, workdir)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload.setup()
        setups.append({"start": start, "end": time.perf_counter(), "ref_s": reference.seconds()})
    if tracer is not None:
        tracer.uninstall()
        tracer.install(OUTER_LAYERS)

    ops = Operations(seconds, tracer, reference)
    workload.run(ops)
    if tracer is not None:
        tracer.uninstall()

    records = ops.records
    failed = sum(r["error"] is not None for r in records)
    errors = [r["error"] for r in records if r["error"] is not None]
    timed = [r for r in records if r["timed"]]
    if len(timed) < MIN_TIMED_OPS:  # training stops at its first failed epoch
        raise RuntimeError(f"only {len(timed)} timed operations completed: {errors}")
    durations = [scaled_seconds(r) for r in timed]
    raw = [r["end"] - r["start"] for r in timed]
    metrics = {}
    if tracer is None:
        ready_scaled = ready_s * REF_NOMINAL_S / ready_ref_s
        setup_s = ready_scaled + statistics.median(scaled_seconds(r) for r in setups)
        metrics["setup_s"] = _metric(setup_s, "s", len(setups))
        metrics["op_s_p50"] = _metric(statistics.median(durations), "s", len(timed))
        metrics["samples_per_s"] = _metric(
            workload.samples_per_op / interquartile_mean(durations), "1/s", len(timed)
        )
        metrics["val_recon"] = _metric(workload.checks["val_recon"], "mse", 1)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = _metric(rss_mb, "MB", 1)
    else:
        traced = [r for r in timed if r["traced"]]
        untraced = [scaled_seconds(r) for r in timed if not r["traced"]]
        metrics.update(
            _layer_metrics(tracer.spans, traced, OP_LAYER_FIELDS, workload.samples_per_op)
        )
        metrics.update(_layer_metrics(tracer.spans, setups, SETUP_LAYER_FIELDS, 1))
        traced_p50 = statistics.median(scaled_seconds(r) for r in traced)
        overhead = 100.0 * (traced_p50 / statistics.median(untraced) - 1.0)
        metrics["trace.overhead"] = _metric(overhead, "%", len(traced))
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {
        "correct": failed == 0 and finite,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "checks": workload.checks,
        "errors": errors,
        "op_seconds": raw,
        "op_reference_seconds": [r["ref_s"] for r in timed],
        "unscaled": {
            "ready_s": ready_s,
            "setup_s_p50": statistics.median(r["end"] - r["start"] for r in setups),
            "op_s_p50": statistics.median(raw),
        },
        "provenance": provenance(name, seed, seconds, trace),
    }, tracer
