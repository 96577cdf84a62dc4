"""Command-line front end: generate / train / diagnose / plot / compare.

Exit codes: 0 success, 1 validation error (arguments, config), 2 runtime or
numerical failure (I/O, divergence, degenerate geometry).

``--single-thread`` pins the BLAS thread pools before numpy is imported,
which is what makes two runs of the same seed byte-identical by guarantee
rather than by accident.
"""

from __future__ import annotations

import os
import sys


def _pin_threads() -> None:
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ[var] = "1"


if "--single-thread" in sys.argv:  # must happen before numpy loads
    _pin_threads()

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__, data, figures, geometry, net, training
from .regularizers import DegenerateJacobianError

CHECKPOINT_NAME = "checkpoint.json"
CHECKPOINT_FORMAT_VERSION = 1
STATE_NAME = "state.json"
METRICS_NAME = "metrics.jsonl"
MANIFEST_NAME = "manifest.json"
DIAGNOSTICS_NAME = "diagnostics.csv"
KAPPA_SUMMARY_NAME = "kappa_summary.json"

ENV_SEED = "CONFAE_SEED"


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


def _default_seed() -> int:
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _validation(f"{ENV_SEED} must be an integer, got {env!r}")
    return 42


def _json_dump(obj, path: Path) -> None:
    """Write ``obj`` atomically: a temp file in the target directory, then ``os.replace``.

    A failed write leaves an existing file at ``path`` as it was.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise _runtime(f"cannot write {path}: {exc}")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _load_dataset(path: str) -> data.Dataset:
    p = Path(path)
    if not p.exists():
        raise _validation(f"dataset file not found: {p}")
    try:
        return data.from_csv(p)
    except ValueError as exc:
        raise _runtime(str(exc))


def _set_by_dotted_key(target: dict, key: str, raw: str) -> None:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    parts = key.split(".")
    node = target
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise _validation(f"override {key!r} collides with a scalar entry")
    node[parts[-1]] = value


def _resolve_config(args) -> training.RunConfig:
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
    for override in args.set or []:
        if "=" not in override:
            raise _validation(f"--set expects key=value, got {override!r}")
        key, raw = override.split("=", 1)
        _set_by_dotted_key(obj, key, raw)
    flag_map = {
        "seed": args.seed,
        "regularizer": args.regularizer,
        "lambda_geo": args.lambda_geo,
        "probes": args.probes,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "lr": args.lr,
        "weight_decay": args.weight_decay,
    }
    for key, value in flag_map.items():
        if value is not None:
            obj[key] = value
    if args.exact_trace:
        obj["exact_trace"] = True
    if args.detach_codes:
        obj["detach_codes"] = True
    if "seed" not in obj:
        obj["seed"] = _default_seed()
    return training.RunConfig.from_dict(obj)


def cmd_generate(args) -> int:
    ds = data.swiss_roll(args.n, seed=args.seed if args.seed is not None else _default_seed())
    if args.standardize:
        ds = data.standardize(ds)
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        data.to_csv(ds, out)
    except OSError as exc:
        raise _runtime(f"cannot write {out}: {exc}")
    means = ds.samples.mean(axis=0)
    stds = ds.samples.std(axis=0)
    print(f"wrote {len(ds)} samples to {out}")
    print(f"feature means: {means.tolist()}")
    print(f"feature stds:  {stds.tolist()}")
    return 0


def _write_checkpoint(path: Path, epoch: int, enc: net.Mlp, dec: net.Mlp) -> None:
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "epoch": epoch,
        "encoder": net.to_dict(enc),
        "decoder": net.to_dict(dec),
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


def _load_checkpoint(path: Path) -> tuple[int, net.Mlp, net.Mlp]:
    if not path.exists():
        raise _validation(f"checkpoint not found: {path}")
    obj = _read_json(path, "checkpoint")
    if obj.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise _validation(f"unsupported checkpoint format_version in {path}")
    try:
        return int(obj["epoch"]), net.from_dict(obj["encoder"]), net.from_dict(obj["decoder"])
    except (KeyError, ValueError) as exc:
        raise _runtime(f"malformed checkpoint {path}: {exc}")


def _write_state(path: Path, state: training.TrainState) -> None:
    payload = {
        "format_version": 1,
        "epoch": state.epoch,
        "enc_opt": state.enc_opt.to_dict(),
        "dec_opt": state.dec_opt.to_dict(),
        "rng_state": state.rng_state,
        "plateau": state.plateau.to_dict(),
    }
    _json_dump(payload, path)


def _load_resume(run_dir: Path) -> training.TrainState:
    state_path = run_dir / STATE_NAME
    if not state_path.exists():
        raise _validation(f"cannot resume: {state_path} missing")
    epoch, enc, dec = _load_checkpoint(run_dir / CHECKPOINT_NAME)
    obj = _read_json(state_path, "training state")
    if obj.get("epoch") != epoch:
        raise _validation("checkpoint and state disagree on the epoch")
    return training.TrainState(
        epoch=epoch,
        enc=enc,
        dec=dec,
        enc_opt=training.AdamWState.from_dict(obj["enc_opt"]),
        dec_opt=training.AdamWState.from_dict(obj["dec_opt"]),
        rng_state=obj["rng_state"],
        plateau=training.PlateauState.from_dict(obj["plateau"]),
    )


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    ds = data.standardize(_load_dataset(args.data))

    if args.calibrate_intensity:
        lam, recon0, geo0 = training.calibrate_intensity(cfg, ds)
        print(
            json.dumps(
                {
                    "proposed_lambda_geo": lam,
                    "initial_recon": recon0,
                    "initial_geo": geo0,
                },
                sort_keys=True,
            )
        )
        return 0

    if cfg.regularizer != "none" and cfg.lambda_geo == 0.0:
        print(
            f"warning: regularizer '{cfg.regularizer}' has intensity 0 and is inert "
            "(monitored only)",
            file=sys.stderr,
        )

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _runtime(f"cannot create output directory {out}: {exc}")

    resume = _load_resume(Path(args.resume)) if args.resume else None

    manifest = {
        "format_version": 1,
        "command": "train",
        "package_version": __version__,
        "config": cfg.to_dict(),
        "config_sha256": hashlib.sha256(
            json.dumps(cfg.to_dict(), sort_keys=True).encode()
        ).hexdigest(),
        "data": {"path": str(args.data), "sha256": _sha256(Path(args.data))},
        "single_thread": bool(args.single_thread),
        "resumed_from": str(args.resume) if args.resume else None,
    }
    _json_dump(manifest, out / MANIFEST_NAME)

    metrics_path = out / METRICS_NAME
    mode = "a" if resume is not None else "w"
    try:
        metrics_file = open(metrics_path, mode)
    except OSError as exc:
        raise _runtime(f"cannot write {metrics_path}: {exc}")

    def on_epoch(state: training.TrainState, record: training.EpochRecord) -> None:
        metrics_file.write(record.to_json() + "\n")
        metrics_file.flush()
        if cfg.checkpoint_every > 0 and state.epoch % cfg.checkpoint_every == 0:
            _write_checkpoint(
                out / f"checkpoint_epoch{state.epoch:04d}.json", state.epoch, state.enc, state.dec
            )

    try:
        result = training.train(cfg, ds, resume=resume, on_epoch=on_epoch)
    except training.TrainingDivergedError as exc:
        raise _runtime(str(exc))
    finally:
        metrics_file.close()

    _write_checkpoint(out / CHECKPOINT_NAME, result.state.epoch, result.enc, result.dec)
    _write_state(out / STATE_NAME, result.state)
    last = result.records[-1] if result.records else None
    if last is not None:
        print(
            f"finished epoch {last.epoch}: recon={last.recon:.6f} geo={last.geo:.6f} "
            f"val_recon={last.val_recon:.6f}"
        )
    print(f"run artifacts in {out}")
    return 0


def _diagnose_sphere(args, out: Path) -> int:
    codes = geometry.disc_grid(40, 2.0)
    graph = geometry.build_graph(codes, k=args.k, bandwidth=_parse_bandwidth(args.bandwidth))
    field = geometry.ConformalField.from_values(codes, geometry.stereographic_factor(codes))
    curv = geometry.scalar_curvature(field, graph)
    geometry.write_diagnostics_csv(out / DIAGNOSTICS_NAME, field, curv)
    median = float(np.median(curv.calibrated[curv.interior]))
    summary = {
        "mode": "sphere-oracle",
        "median_interior_curvature": median,
        "analytic_target": 2.0,
        "nodes": int(codes.shape[0]),
        "interior_nodes": int(curv.interior.sum()),
        "calibration": curv.calibration,
    }
    _json_dump(summary, out / "oracle_summary.json")
    print(json.dumps(summary, sort_keys=True))
    return 0


def _parse_bandwidth(raw: str):
    if raw == "auto":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise _validation(f"--bandwidth expects a number or 'auto', got {raw!r}")
    if value <= 0:
        raise _validation("--bandwidth must be positive")
    return value


def cmd_diagnose(args) -> int:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _runtime(f"cannot create output directory {out}: {exc}")

    if args.oracle == "sphere":
        return _diagnose_sphere(args, out)

    if not args.checkpoint or not args.data:
        raise _validation("diagnose needs --checkpoint and --data (or --oracle sphere)")
    _, enc, dec = _load_checkpoint(Path(args.checkpoint))
    manifest_path = Path(args.checkpoint).parent / MANIFEST_NAME
    manifest = _read_json(manifest_path, "manifest") if manifest_path.exists() else {}
    cfg_obj = manifest.get("config", {})
    seed = args.seed if args.seed is not None else cfg_obj.get("seed", _default_seed())
    val_fraction = (
        args.val_fraction
        if args.val_fraction is not None
        else cfg_obj.get("val_fraction", 0.2)
    )
    regularizer = args.regularizer or cfg_obj.get("regularizer", "unknown")

    ds = data.standardize(_load_dataset(args.data))
    split_cfg = training.RunConfig(seed=int(seed), val_fraction=float(val_fraction))
    _, val = training.split_dataset(split_cfg, ds)
    codes = net.forward(enc, val.samples)

    jacobians = net.jacobians(dec, codes)
    try:
        field = geometry.conformal_field(codes, jacobians)
        kappas = geometry.kappa_field(jacobians)
    except ValueError as exc:
        raise _runtime(str(exc))

    curv = None
    if dec.in_dim == 2:
        try:
            graph = geometry.build_graph(
                codes, k=args.k, bandwidth=_parse_bandwidth(args.bandwidth)
            )
            curv = geometry.scalar_curvature(field, graph)
        except ValueError as exc:
            raise _runtime(str(exc))
    else:
        print(
            f"warning: latent dimension {dec.in_dim} != 2, curvature columns omitted",
            file=sys.stderr,
        )

    geometry.write_diagnostics_csv(out / DIAGNOSTICS_NAME, field, curv, kappas)
    try:
        summary = geometry.summarize_kappa(kappas)
    except ValueError as exc:
        raise _runtime(str(exc))
    payload = {"regularizer": regularizer, **summary.to_dict()}
    if curv is not None:
        interior = curv.interior
        payload["curvature"] = {
            "median_interior_abs_normalized": float(
                np.median(np.abs(curv.normalized[interior]))
            )
            if interior.any()
            else None,
            "calibration": curv.calibration,
            "interior_nodes": int(interior.sum()),
        }
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
    if "z1" not in cols or "z2" not in cols or "c_normalized" not in cols:
        raise _runtime(f"{path}: missing latent/conformal columns")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _runtime(f"cannot create output directory {out}: {exc}")
    codes = np.column_stack([cols["z1"], cols["z2"]])
    written = []
    svg = figures.scatter_svg(codes, cols["c_normalized"], "normalized conformal factor")
    (out / "conformal_factor.svg").write_text(svg)
    written.append("conformal_factor.svg")
    if "s_normalized" in cols:
        svg = figures.scatter_svg(
            codes, cols["s_normalized"], "normalized scalar curvature", diverging=True
        )
        (out / "scalar_curvature.svg").write_text(svg)
        written.append("scalar_curvature.svg")
    if "kappa_jac" in cols and "kappa_pbm" in cols:
        try:
            svg = figures.kappa_strip_svg(cols["kappa_jac"], cols["kappa_pbm"])
        except ValueError as exc:
            raise _runtime(str(exc))
        (out / "kappa_strip.svg").write_text(svg)
        written.append("kappa_strip.svg")
    print(f"wrote {', '.join(written)} to {out}")
    return 0


def cmd_compare(args) -> int:
    runs = {}
    for run in args.runs:
        run_dir = Path(run)
        summary_path = run_dir / KAPPA_SUMMARY_NAME
        if not summary_path.exists():
            raise _validation(f"run '{run}' has no {KAPPA_SUMMARY_NAME} (run diagnose first)")
        obj = _read_json(summary_path, "kappa summary")
        tag = obj.get("regularizer", run_dir.name)
        runs[tag] = obj

    header = ["metric"] + list(runs)
    rows = []
    for metric, mean_key, std_key in (
        ("kappa_jac", "kappa_jac_mean", "kappa_jac_std"),
        ("kappa_pbm", "kappa_pbm_mean", "kappa_pbm_std"),
    ):
        row = [metric]
        for tag in runs:
            row.append(f"{runs[tag][mean_key]:.2f} +- {runs[tag][std_key]:.2f}")
        rows.append(row)

    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows]
    table = "\n".join(lines)
    print(table)

    ordering = None
    if "globiso" in runs:
        checks = [
            runs[tag]["kappa_pbm_mean"] < runs["globiso"]["kappa_pbm_mean"]
            for tag in ("conf", "lociso")
            if tag in runs
        ]
        ordering = bool(checks) and all(checks)
    result = {"runs": runs, "expected_ordering": ordering}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _json_dump(result, out / "comparison.json")
    else:
        print(json.dumps(result, sort_keys=True))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="confae", description=__doc__)
    parser.add_argument("--version", action="version", version=f"confae {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("generate", help="sample the roll dataset to CSV")
    gen.add_argument("--n", type=int, default=5000)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)
    gen.add_argument("--standardize", action="store_true")
    gen.add_argument("--single-thread", action="store_true")
    gen.set_defaults(func=cmd_generate)

    trn = sub.add_parser("train", help="train an autoencoder run")
    trn.add_argument("--config", default=None, help="JSON run config")
    trn.add_argument("--data", required=True, help="dataset CSV")
    trn.add_argument("--out", required=True, help="run directory")
    trn.add_argument("--set", action="append", metavar="KEY=VALUE", help="dotted config override")
    trn.add_argument("--seed", type=int, default=None)
    trn.add_argument("--regularizer", choices=training.REGULARIZERS, default=None)
    trn.add_argument("--lambda-geo", dest="lambda_geo", type=float, default=None)
    trn.add_argument("--probes", type=int, default=None)
    trn.add_argument("--epochs", type=int, default=None)
    trn.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    trn.add_argument("--lr", type=float, default=None)
    trn.add_argument("--weight-decay", dest="weight_decay", type=float, default=None)
    trn.add_argument("--exact-trace", dest="exact_trace", action="store_true")
    trn.add_argument("--detach-codes", dest="detach_codes", action="store_true")
    trn.add_argument("--calibrate-intensity", action="store_true")
    trn.add_argument("--resume", default=None, help="run directory to continue")
    trn.add_argument("--single-thread", action="store_true")
    trn.set_defaults(func=cmd_train)

    dia = sub.add_parser("diagnose", help="geometry diagnostics for a checkpoint")
    dia.add_argument("--checkpoint", default=None)
    dia.add_argument("--data", default=None)
    dia.add_argument("--out", required=True)
    dia.add_argument("--k", type=int, default=10)
    dia.add_argument("--bandwidth", default="auto")
    dia.add_argument("--seed", type=int, default=None)
    dia.add_argument("--val-fraction", dest="val_fraction", type=float, default=None)
    dia.add_argument("--regularizer", default=None)
    dia.add_argument("--oracle", choices=("none", "sphere"), default="none")
    dia.add_argument("--single-thread", action="store_true")
    dia.set_defaults(func=cmd_diagnose)

    plt = sub.add_parser("plot", help="SVG figures from diagnostics.csv")
    plt.add_argument("--diagnostics", required=True)
    plt.add_argument("--out", required=True)
    plt.add_argument("--single-thread", action="store_true")
    plt.set_defaults(func=cmd_plot)

    cmp_ = sub.add_parser("compare", help="side-by-side kappa table for runs")
    cmp_.add_argument("runs", nargs="+", help="run directories with kappa summaries")
    cmp_.add_argument("--out", default=None)
    cmp_.add_argument("--single-thread", action="store_true")
    cmp_.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
