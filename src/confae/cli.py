"""Command-line front end: generate / train / diagnose / plot / compare.

Exit codes: 0 success, 1 validation error (arguments, config), 2 runtime or
numerical failure (I/O, divergence, degenerate geometry).

``--single-thread`` pins the BLAS thread pools before numpy is imported,
which is what makes two runs of the same seed byte-identical by guarantee
rather than by accident. The thread variables numpy loaded under are
recorded in the train manifest; ``--single-thread`` exits 1 when they are
not all pinned, as when ``main`` is called after numpy was imported.

A checkpoint (format 5) stores its run's ``RunConfig``, which builds both
networks and gives ``diagnose`` its split and regularizer tag; a manifest
beside it must record the same config (``epochs`` aside).

``diagnose`` starts by encoding the validation samples in blocks and
sweeping the decoder at each block's codes (``geometry.conformal_field``);
this module only times its stages and writes what they return.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

if "--single-thread" in sys.argv:  # must happen before numpy loads
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
# The thread settings numpy loads under, unless it is already loaded.
_THREADS = {var: os.environ.get(var) for var in THREAD_VARS}

import argparse
import base64
import dataclasses
import hashlib
import itertools
import json
import time
from pathlib import Path

import numpy as np

from . import __version__, data, figures, geometry, training
from .regularizers import DegenerateJacobianError

CHECKPOINT_NAME = "checkpoint.json"
CHECKPOINT_FORMAT_VERSION = 5
METRICS_NAME = "metrics.jsonl"
MANIFEST_NAME = "manifest.json"
DIAGNOSTICS_NAME = "diagnostics.csv"
KAPPA_SUMMARY_NAME = "kappa_summary.json"
# The entries of a kappa summary that ``compare`` tabulates.
KAPPA_KEYS = ("kappa_jac_mean", "kappa_jac_std")

# Bytes per read when a file is hashed.
HASH_BLOCK = 2**16


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _validation(message: str) -> CliError:
    return CliError(message, 1)


def _runtime(message: str) -> CliError:
    return CliError(message, 2)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _json_dump(obj, path: Path) -> None:
    data.write_atomic(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(HASH_BLOCK), b""):
            h.update(block)
    return h.hexdigest()


def _data_file(path: str) -> Path:
    """``path``, refused with exit 1 before any hash or parse if it does not exist."""
    p = Path(path)
    if not p.exists():
        raise _validation(f"dataset file not found: {p}")
    return p


def _out_dir(path: str) -> Path:
    """The directory ``path``, created with its parents; exit 2 if it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _runtime(f"cannot create output directory {out}: {exc}")
    return out


def _load_dataset(path: Path) -> np.ndarray:
    """The standardized (n, 3) samples parsed from ``path``; exit 2 if it is malformed."""
    try:
        return data.standardize(data.from_csv(path))
    except ValueError as exc:
        raise _runtime(str(exc))


def _setting(key: str, convert):
    """The argparse type of an option that sets config key ``key``: one
    ``(key, value)`` entry of the run's settings list. It takes ``convert``'s
    name, which argparse prints in ``invalid int value: 'x'``."""

    def parse(raw: str):
        return key, convert(raw)

    parse.__name__ = convert.__name__
    return parse


def _override(text: str):
    """A ``--set key=value`` entry: ``inf``, ``-inf`` or ``nan`` as that float,
    else the value read as JSON, else the string itself."""
    key, eq, raw = text.partition("=")
    if not eq:
        raise argparse.ArgumentTypeError(f"expects key=value, got {text!r}")
    if raw.lower() in ("inf", "-inf", "nan"):
        return key, float(raw)
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def _resolve_config(args) -> training.RunConfig:
    """``--config``, then each setting in command-line order: the last one wins."""
    obj: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise _validation(f"config file not found: {path}")
        try:
            obj = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise _validation(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(obj, dict):
            raise _validation(f"config file {path} must hold a JSON object")
    obj.update(args.settings or ())
    return training.RunConfig.from_dict(obj)


def cmd_generate(args) -> int:
    if args.n < 2:
        raise _validation(f"--n must be at least 2, got {args.n}")
    if args.seed < 0:
        raise _validation(f"--seed must be nonnegative, got {args.seed}")
    samples, params = data.swiss_roll(args.n, seed=args.seed)
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        data.to_csv((samples, params), out)
    except OSError as exc:
        raise _runtime(f"cannot write {out}: {exc}")
    means = samples.mean(axis=0)
    stds = samples.std(axis=0)
    print(f"wrote {len(samples)} samples to {out}")
    print(f"feature means: {means.tolist()}")
    print(f"feature stds:  {stds.tolist()}")
    return 0


def _encode(v: np.ndarray) -> str:
    """Base64 text of the vector's little-endian float64 (``"<f8"``) bytes."""
    return base64.b64encode(np.asarray(v, dtype="<f8").tobytes()).decode("ascii")


def _decode(text: str, size: int) -> np.ndarray:
    """Inverse of :func:`_encode`; ``ValueError`` unless it holds ``size`` finite values."""
    raw = base64.b64decode(text, validate=True)  # TypeError unless text is a string
    if len(raw) != 8 * size:
        raise ValueError(f"vector holds {len(raw) / 8:g} values, expected {size}")
    v = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector holds a non-finite value")
    return v


def _write_checkpoint(path: Path, config: training.RunConfig, state: training.TrainState) -> None:
    """The run's snapshot (format 5): ``config`` and everything ``state`` holds.
    ``params`` and the AdamW moments are each one base64 vector over both
    networks, encoder half first."""
    enc, dec, opt = state.enc, state.dec, state.opt
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "epoch": state.epoch,
        "config": config.to_dict(),
        "params": _encode(np.concatenate((enc.params, dec.params))),
        "adamw": {"step": opt.step, "m": _encode(opt.m), "v": _encode(opt.v)},
        "rng_state": state.rng.bit_generator.state,
    }
    _json_dump(payload, path)


def _read_json(path: Path, kind: str) -> dict:
    try:
        obj = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise _runtime(f"cannot read {kind} {path}: {exc}")
    if not isinstance(obj, dict):
        raise _runtime(f"cannot read {kind} {path}: not a JSON object")
    return obj


def _load_checkpoint(path: Path) -> tuple[training.RunConfig, training.TrainState]:
    """The run config and snapshot at ``path``, for ``diagnose`` and ``--resume``
    alike; the config builds the networks, which take the saved parameters.
    Each vector's length is checked before the networks are built, so a
    config that names larger networks than the file holds allocates none."""
    if not path.exists():
        raise _validation(f"checkpoint not found: {path}")
    obj = _read_json(path, "checkpoint")
    version = obj.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise _validation(
            f"checkpoint {path} has format_version {version!r}, "
            f"expected {CHECKPOINT_FORMAT_VERSION}"
        )
    try:
        recorded, epoch, adamw = obj["config"], obj["epoch"], obj["adamw"]
        if not isinstance(recorded, dict):
            raise TypeError("config must be an object")
        config = training.RunConfig.from_dict(recorded)
        if missing := sorted(config.to_dict().keys() - recorded.keys()):
            raise ValueError(f"config lacks {', '.join(missing)}")
        for key, count in (("epoch", epoch), ("adamw.step", adamw["step"])):
            if not training._integer(count) or count < 0:
                raise ValueError(f"{key} must be a nonnegative integer, got {count!r}")
        dims = training._architectures(config)[0]
        # a weight and a bias per layer of the encoder and of the decoder
        size = sum(2 * a * b + a + b for a, b in zip(dims, dims[1:]))
        params, m, v = (_decode(text, size) for text in (obj["params"], adamw["m"], adamw["v"]))
        enc, dec = training.init_networks(config)
        enc.params[:], dec.params[:] = np.split(params, [enc.params.size])
        rng = np.random.default_rng()
        rng.bit_generator.state = obj["rng_state"]  # rejects a bad state
        opt = training.AdamWState(adamw["step"], m, v)
        return config, training.TrainState(epoch=epoch, enc=enc, dec=dec, opt=opt, rng=rng)
    except KeyError as exc:
        raise _runtime(f"malformed checkpoint {path}: missing key {exc}")
    except (TypeError, ValueError) as exc:  # a ConfigError among them
        raise _runtime(f"malformed checkpoint {path}: {exc}")


def _resumed_metrics(path: Path, epoch: int) -> str:
    """The records of epochs 1..epoch, the first lines of ``path``; later lines are not read."""
    try:
        with open(path) as f:
            lines = [line.rstrip("\n") for line in itertools.islice(f, epoch)]
        epochs = [json.loads(line)["epoch"] for line in lines]
    except OSError as exc:
        raise _runtime(f"cannot read {path}: {exc}")
    except (KeyError, TypeError, ValueError):  # a line that is not a record
        epochs = None
    if epochs != list(range(1, epoch + 1)):
        raise _runtime(f"cannot resume: {path} does not start with the records of epochs 1-{epoch}")
    return "".join(line + "\n" for line in lines)


def _read_manifest(path: Path) -> tuple[dict, str]:
    """The run config and data hash a train manifest records; exit 2 naming
    ``path`` unless it holds a ``config`` object and a ``data.sha256`` string."""
    manifest = _read_json(path, "manifest")
    config, recorded = manifest.get("config"), manifest.get("data")
    data_sha256 = recorded.get("sha256") if isinstance(recorded, dict) else None
    if not isinstance(config, dict) or not isinstance(data_sha256, str):
        raise _runtime(
            f"malformed manifest {path}: config must be an object and data.sha256 a string"
        )
    return config, data_sha256


def _config_differences(a: dict, b: dict, skip=()) -> list[str]:
    """The keys whose values differ between two run configs, ``epochs`` and ``skip`` aside."""
    return sorted(k for k in (set(a) | set(b)) - {"epochs", *skip} if a.get(k) != b.get(k))


def _check_same_run(run_dir: Path, config: dict, data_sha256: str, skip=()) -> dict:
    """The config the manifest of ``run_dir`` records; exit 1 if it differs
    from ``config`` (``epochs`` and ``skip`` aside) or records another dataset."""
    path = run_dir / MANIFEST_NAME
    if not path.exists():
        raise _validation(f"cannot resume: {path} missing")
    recorded, old_sha256 = _read_manifest(path)
    differ = _config_differences(recorded, config, skip)
    if old_sha256 != data_sha256:
        differ.append("data.sha256")
    if differ:
        raise _validation(f"cannot resume {run_dir}: this run differs in {', '.join(differ)}")
    return recorded


def _check_manifest_config(checkpoint: Path, recorded: dict, config: training.RunConfig) -> None:
    """Exit 2 naming both files if the config ``recorded`` by the manifest
    beside ``checkpoint`` is not the checkpoint's ``config`` (``epochs`` aside)."""
    if differ := _config_differences(recorded, config.to_dict()):
        raise _runtime(
            f"checkpoint {checkpoint} and manifest {checkpoint.parent / MANIFEST_NAME} record "
            f"different configs (they differ in {', '.join(differ)})"
        )


def _manifest_beside(checkpoint: Path, config: training.RunConfig) -> str | None:
    """The data hash the manifest beside ``checkpoint`` records (None without
    one); exit 2 naming both files if it records a config other than ``config``."""
    manifest = checkpoint.parent / MANIFEST_NAME
    if not manifest.exists():
        return None
    recorded, data_sha256 = _read_manifest(manifest)
    _check_manifest_config(checkpoint, recorded, config)
    return data_sha256


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    data_path = _data_file(args.data)
    # an enabled regularizer without lambda_geo is calibrated on the parsed data
    calibrate = cfg.regularizer != "none" and cfg.lambda_geo is None

    if cfg.regularizer != "none" and cfg.lambda_geo == 0.0:
        print(
            f"warning: regularizer '{cfg.regularizer}' has intensity 0 and is inert "
            "(monitored only)",
            file=sys.stderr,
        )

    data_sha256 = _sha256(data_path)
    resume, metrics = None, ""
    if args.resume:
        run_dir = Path(args.resume)
        # lambda_geo is compared below, once calibration has set it
        skip = ("lambda_geo",) if calibrate else ()
        recorded = _check_same_run(run_dir, cfg.to_dict(), data_sha256, skip)
        stored, resume = _load_checkpoint(run_dir / CHECKPOINT_NAME)
        # the new config is the manifest's, so this also compares it with the checkpoint's
        _check_manifest_config(run_dir / CHECKPOINT_NAME, recorded, stored)
        if resume.epoch > cfg.epochs:
            raise _validation(f"cannot resume: {run_dir} is past epoch {cfg.epochs} already")
        metrics = _resumed_metrics(run_dir / METRICS_NAME, resume.epoch)
    # parsed only once the hash check above has accepted the file
    samples = _load_dataset(data_path)
    calibration = None
    if calibrate:
        lam, recon0, geo0 = training.calibrate_intensity(cfg, samples)
        calibration = {"proposed_lambda_geo": lam, "initial_recon": recon0, "initial_geo": geo0}
        cfg = dataclasses.replace(cfg, lambda_geo=lam)
        if args.resume and recorded.get("lambda_geo") != lam:
            raise _validation(f"cannot resume {run_dir}: this run differs in lambda_geo")
    # a run that train would refuse leaves --out as it found it
    training.training_intensity(cfg, samples)
    config = cfg.to_dict()

    out = _out_dir(args.out)

    manifest = {
        "format_version": 1,
        "command": "train",
        "package_version": __version__,
        "config": config,
        "config_sha256": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "data": {"path": str(args.data), "sha256": data_sha256},
        "single_thread": bool(args.single_thread),
        "threads": dict(_THREADS),
        "resumed_from": str(args.resume) if args.resume else None,
    }
    _json_dump(manifest, out / MANIFEST_NAME)

    metrics_path = out / METRICS_NAME
    data.write_atomic(metrics_path, metrics)
    try:
        metrics_file = open(metrics_path, "a")
    except OSError as exc:
        raise _runtime(f"cannot write {metrics_path}: {exc}")

    def on_epoch(state: training.TrainState, record: training.EpochRecord) -> None:
        metrics_file.write(record.to_json() + "\n")
        metrics_file.flush()
        # the last epoch's snapshot is written once, after training returns
        every = cfg.checkpoint_every
        if every > 0 and state.epoch % every == 0 and state.epoch < cfg.epochs:
            _write_checkpoint(out / CHECKPOINT_NAME, cfg, state)

    if calibration is not None:
        print(json.dumps(calibration, sort_keys=True), flush=True)
    try:
        result = training.train(cfg, samples, resume=resume, on_epoch=on_epoch)
    except training.TrainingDivergedError as exc:
        raise _runtime(str(exc))
    finally:
        metrics_file.close()

    _write_checkpoint(out / CHECKPOINT_NAME, cfg, result.state)
    last = result.records[-1] if result.records else None
    if last is not None:
        print(
            f"finished epoch {last.epoch}: recon={last.recon:.6f} geo={last.geo:.6f} "
            f"val_recon={last.val_recon:.6f}"
        )
    print(f"run artifacts in {out}")
    return 0


def _validation_split(args):
    """(encoder, decoder, validation samples, regularizer tag) of the run to diagnose.

    The split's seed and fraction and the tag are the checkpoint config's
    unless a flag overrides them. A manifest beside the checkpoint names the
    only dataset accepted; a checkpoint with no manifest takes any data.
    """
    checkpoint = Path(args.checkpoint)
    config, snapshot = _load_checkpoint(checkpoint)
    data_sha256 = _manifest_beside(checkpoint, config)
    overrides = {k: v for k in ("seed", "val_fraction") if (v := getattr(args, k)) is not None}
    split_cfg = dataclasses.replace(config, **overrides)
    split_cfg.validate()

    data_path = _data_file(args.data)
    if data_sha256 is not None and (actual := _sha256(data_path)) != data_sha256:
        raise _validation(
            f"{data_path} has sha256 {actual}, but the run was trained on data with sha256 "
            f"{data_sha256} ({checkpoint.parent / MANIFEST_NAME})"
        )
    _, val = training.split_dataset(split_cfg, _load_dataset(data_path))
    return snapshot.enc, snapshot.dec, val, args.regularizer or config.regularizer


def cmd_diagnose(args) -> int:
    """Diagnostics of a checkpoint's decoder on the validation split of ``--data``.

    ``--out`` is created only once the checkpoint, the manifest and the data
    are accepted, so a refused call leaves no directory behind.
    """
    timing = {}
    clock = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        timing[stage] = timing.get(stage, 0.0) + now - clock
        clock = now

    enc, dec, samples, regularizer = _validation_split(args)
    out = _out_dir(args.out)
    lap("read")
    try:
        codes, c, kappa = geometry.conformal_field(enc, dec, samples, lap)
    except ValueError as exc:
        raise _runtime(str(exc))

    curv = None
    if codes.shape[1] == 2:
        try:
            graph = geometry.build_graph(codes)
            lap("graph")
            curv = geometry.scalar_curvature(codes, c, graph)
            lap("curvature")
        except ValueError as exc:
            raise _runtime(str(exc))
    else:
        print(
            f"warning: latent dimension {codes.shape[1]} != 2, curvature columns omitted",
            file=sys.stderr,
        )

    geometry.write_diagnostics_csv(out / DIAGNOSTICS_NAME, codes, c, curv, kappa)
    lap("write_csv")
    try:
        payload = {"regularizer": regularizer, **geometry.summarize_kappa(kappa)}
    except ValueError as exc:
        raise _runtime(str(exc))
    if curv is not None:
        interior = curv.interior
        peak = np.abs(curv.raw).max()
        median = None
        if interior.any():
            # |raw| over its largest magnitude, 0 on a flat field
            median = float(np.median(np.abs(curv.raw[interior] / peak))) if peak > 0.0 else 0.0
        payload["curvature"] = {
            "median_interior_abs_normalized": median,
            "calibration": curv.calibration,
            "interior_nodes": int(interior.sum()),
            "edges": int(graph.edge_rows.size),
        }
    payload["timing"] = timing
    _json_dump(payload, out / KAPPA_SUMMARY_NAME)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_plot(args) -> int:
    path = Path(args.diagnostics)
    if not path.exists():
        raise _validation(f"diagnostics file not found: {path}")
    try:
        cols = geometry.read_diagnostics_csv(path)
    except ValueError as exc:
        raise _runtime(str(exc))
    if missing := [name for name in ("z1", "c", "kappa_jac") if name not in cols]:
        raise _runtime(f"{path}: missing column {', '.join(missing)}")
    # the kappa column may hold inf sentinels; these may not
    for name in ("z1", "z2", "c", "s_raw"):
        if name in cols and not np.all(np.isfinite(cols[name])):
            raise _runtime(f"{path}: column {name} holds a non-finite value")
    # a condition number is at least 1, and NaN is no sentinel
    if not np.all(cols["kappa_jac"] >= 1.0):
        raise _runtime(f"{path}: column kappa_jac holds NaN, -inf or a value below 1")
    # rendered before --out is made, so a column of inf sentinels alone refuses like the above
    try:
        strip = figures.kappa_strip_svg(cols["kappa_jac"])
    except ValueError as exc:
        raise _runtime(f"{path}: column kappa_jac: {exc}")
    out = _out_dir(args.out)
    written = []
    latent = [name for name in cols if name.startswith("z")]
    if latent == ["z1", "z2"]:
        codes = np.column_stack([cols["z1"], cols["z2"]])
        svg = figures.scatter_svg(codes, cols["c"], "conformal factor")
        data.write_atomic(out / "conformal_factor.svg", svg)
        written.append("conformal_factor.svg")
        if "s_raw" in cols:
            svg = figures.scatter_svg(codes, cols["s_raw"], "raw scalar curvature", diverging=True)
            data.write_atomic(out / "scalar_curvature.svg", svg)
            written.append("scalar_curvature.svg")
    else:
        print(
            f"warning: latent dimension {len(latent)} != 2, scatter figures omitted",
            file=sys.stderr,
        )
    data.write_atomic(out / "kappa_strip.svg", strip)
    written.append("kappa_strip.svg")
    print(f"wrote {', '.join(written)} to {out}")
    return 0


def cmd_compare(args) -> int:
    runs, sources = {}, {}
    for run in args.runs:
        run_dir = Path(run)
        summary_path = run_dir / KAPPA_SUMMARY_NAME
        if not summary_path.exists():
            raise _validation(f"run '{run}' has no {KAPPA_SUMMARY_NAME} (run diagnose first)")
        obj = _read_json(summary_path, "kappa summary")
        # a bool is no number, and NaN and the infinities are not below inf
        missing = [
            k for k in KAPPA_KEYS if not (training._real(v := obj.get(k)) and abs(v) < np.inf)
        ]
        if missing:
            raise _runtime(f"kappa summary {summary_path} has no finite {', '.join(missing)}")
        obj.pop("timing", None)  # wall time would make comparison.json differ per run
        tag = str(obj.get("regularizer", run_dir.name))
        if tag in runs:
            raise _validation(f"runs '{sources[tag]}' and '{run}' are both tagged {tag!r}")
        runs[tag], sources[tag] = obj, run

    # created before the table is printed, so a refused --out prints nothing
    out = _out_dir(args.out) if args.out else None
    cells = [f"{o['kappa_jac_mean']:.2f} +- {o['kappa_jac_std']:.2f}" for o in runs.values()]
    table = [["metric", *runs], ["kappa_jac", *cells]]
    widths = [max(map(len, column)) for column in zip(*table)]
    print("\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in table))

    # null unless globiso and at least one of conf and lociso are compared
    checks = [
        runs[tag]["kappa_jac_mean"] < runs["globiso"]["kappa_jac_mean"]
        for tag in ("conf", "lociso")
        if tag in runs and "globiso" in runs
    ]
    ordering = all(checks) if checks else None
    result = {"runs": runs, "expected_ordering": ordering}
    if out:
        _json_dump(result, out / "comparison.json")
    else:
        print(json.dumps(result, sort_keys=True))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="confae", description=__doc__)
    parser.add_argument("--version", action="version", version=f"confae {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--single-thread", action="store_true")

    gen = sub.add_parser("generate", parents=[common], help="sample the roll dataset to CSV")
    gen.add_argument("--n", type=int, default=5000)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    trn = sub.add_parser("train", parents=[common], help="train an autoencoder run")
    trn.add_argument("--config", default=None, help="JSON run config")
    trn.add_argument("--data", required=True, help="dataset CSV")
    trn.add_argument("--out", required=True, help="run directory")
    # each appends one (key, value) to the settings, applied in order
    settings = dict(dest="settings", action="append")
    trn.add_argument("--set", type=_override, metavar="KEY=VALUE", help="config setting", **settings)
    trn.add_argument("--seed", type=_setting("seed", int), metavar="SEED", **settings)
    # an unknown tag is refused, exit 1, with the rest of the config
    tags = "{" + ",".join(training.REGULARIZERS) + "}"
    trn.add_argument("--regularizer", type=_setting("regularizer", str), metavar=tags, **settings)
    trn.add_argument(
        "--lambda-geo", type=_setting("lambda_geo", float), metavar="LAMBDA_GEO", **settings
    )
    trn.add_argument("--epochs", type=_setting("epochs", int), metavar="EPOCHS", **settings)
    trn.add_argument("--resume", default=None, help="run directory to continue")
    trn.set_defaults(func=cmd_train)

    dia = sub.add_parser("diagnose", parents=[common], help="geometry diagnostics for a checkpoint")
    dia.add_argument("--checkpoint", required=True)
    dia.add_argument("--data", required=True)
    dia.add_argument("--out", required=True)
    dia.add_argument("--seed", type=int, default=None)
    dia.add_argument("--val-fraction", dest="val_fraction", type=float, default=None)
    dia.add_argument("--regularizer", default=None)
    dia.set_defaults(func=cmd_diagnose)

    plt = sub.add_parser("plot", parents=[common], help="SVG figures from diagnostics.csv")
    plt.add_argument("--diagnostics", required=True)
    plt.add_argument("--out", required=True)
    plt.set_defaults(func=cmd_plot)

    cmp_ = sub.add_parser("compare", parents=[common], help="side-by-side kappa table for runs")
    cmp_.add_argument("runs", nargs="+", help="run directories with kappa summaries")
    cmp_.add_argument("--out", default=None)
    cmp_.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.single_thread and any(v != "1" for v in _THREADS.values()):
            raise _validation(
                "--single-thread must be on the command line that starts Python: numpy "
                f"was loaded with {_THREADS}"
            )
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except training.ConfigError as exc:
        print("error: invalid configuration", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    except (training.TrainingDivergedError, DegenerateJacobianError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
