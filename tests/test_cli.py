import argparse
import base64
import errno
import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confae import cli, data, geometry, net, training

from test_net import jvp_rows


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def roll_csv(tmp_path):
    path = tmp_path / "roll.csv"
    assert run_cli("generate", "--n", "120", "--seed", "5", "--out", str(path)) == 0
    return path


def tiny_train_argv(roll_csv, out, *extra):
    return [
        "train",
        "--data",
        str(roll_csv),
        "--out",
        str(out),
        "--seed",
        "3",
        "--epochs",
        "2",
        "--set",
        "batch_size=16",
        "--set",
        "dims=[3,8,2]",
        *extra,
    ]


def tiny_train(tmp_path, roll_csv, out_name="run", *extra):
    out = tmp_path / out_name
    return run_cli(*tiny_train_argv(roll_csv, out, *extra)), out


def malformed_copy(csv, path):
    """``csv`` with its first data line cut to four fields, written to ``path``."""
    lines = csv.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    return path


def records(run_dir, drop=()):
    lines = (run_dir / cli.METRICS_NAME).read_text().splitlines()
    return [{k: v for k, v in json.loads(l).items() if k not in drop} for l in lines]


def _vector(text):
    return np.frombuffer(base64.b64decode(text), "<f8")


def _text(vector):
    return base64.b64encode(np.asarray(vector, "<f8").tobytes()).decode()


def _as_older_format(ckpt, version):
    """A format-5 snapshot rewritten as format ``version`` (2, 3 or 4) saved it.

    Format 4 saved each network's ``dims`` and per-layer ``activations`` in
    place of the config; format 3 also split ``params`` and the AdamW state
    per network; format 2 also saved a plateau state and per-layer slopes.
    """
    config = ckpt.pop("config")
    dims = config["dims"]
    acts = [config["activation"]] * (len(dims) - 2) + ["identity"]
    ckpt["encoder"] = {"dims": dims, "activations": acts}
    ckpt["decoder"] = {"dims": dims[::-1], "activations": acts}
    ckpt["format_version"] = version
    if version == 4:
        return
    n = sum(o * (i + 1) for i, o in zip(dims, dims[1:]))
    params, adamw = _vector(ckpt.pop("params")), ckpt.pop("adamw")
    halves = (("encoder", "enc_opt", slice(n)), ("decoder", "dec_opt", slice(n, None)))
    for key, opt_key, half in halves:
        ckpt[key]["params"] = _text(params[half])
        moments = {k: _text(_vector(adamw[k])[half]) for k in ("m", "v")}
        ckpt[opt_key] = {"step": adamw["step"], **moments}
    if version == 2:
        ckpt["plateau"] = dict(lr=1e-3, factor=0.5, patience=10, min_lr=1e-6, best=1.0)
        for key in ("encoder", "decoder"):
            ckpt[key]["slopes"] = [0.01] * len(acts)


# the format version each refused old-format damage names
OLD_FORMATS = {"old_format": 1, "format_2": 2, "format_3": 3, "format_4": 4}
# damages that set one key of the snapshot (a dotted key path) to a value;
# the others have their own branch in damage_checkpoint
CHECKPOINT_EDITS = {
    "config_not_object": ("config", [1]),
    "config_disagrees_with_manifest": ("config.activation", "tanh"),
    "architecture": ("config.dims", [3, 9, 2]),
    # layers of 64 MB that the file's parameters cannot fill
    "large_architecture": ("config.dims", [3, 2000, 2000, 2]),
    "bad_config": ("config.dims", "abc"),
    "unknown_config_key": ("config.detach_codes", False),
    "epoch_fraction": ("epoch", 1.9),
    "epoch_string": ("epoch", "1"),
    "epoch_bool": ("epoch", True),
    "step_fraction": ("adamw.step", 2.5),
    "step_negative": ("adamw.step", -1),
}


def damage_checkpoint(path, damage):
    """Rewrite the snapshot at ``path`` with one fault."""
    ckpt = json.loads(path.read_text())
    if damage in CHECKPOINT_EDITS:
        key, value = CHECKPOINT_EDITS[damage]
        *parents, last = key.split(".")
        target = ckpt
        for parent in parents:
            target = target[parent]
        target[last] = value
    elif damage == "old_format":
        ckpt["format_version"] = 1
    elif damage in OLD_FORMATS:
        _as_older_format(ckpt, OLD_FORMATS[damage])
    elif damage == "config_lacks_key":
        del ckpt["config"]["seed"]
    elif damage == "missing_key":
        del ckpt["adamw"]["m"]
    elif damage == "short_moment":
        ckpt["adamw"]["v"] = _text(_vector(ckpt["adamw"]["v"])[:-1])
    elif damage == "short_m":
        ckpt["adamw"]["m"] = _text(_vector(ckpt["adamw"]["m"])[:-1])
    elif damage == "bad_rng_state":
        del ckpt["rng_state"]["state"]
    elif damage == "bad_base64":
        ckpt["params"] = "not base64!"
    elif damage == "non_finite_param":
        params = _vector(ckpt["params"]).copy()
        params[-4] = np.nan  # the decoder's last weight
        ckpt["params"] = _text(params)
    elif damage == "short_params":
        ckpt["params"] = _text(_vector(ckpt["params"])[:-1])
    else:
        raise ValueError(damage)
    path.write_text(json.dumps(ckpt))


CHECKPOINT_DAMAGES = [
    *((damage, 1) for damage in OLD_FORMATS),
    *((damage, 2) for damage in CHECKPOINT_EDITS),
    ("config_lacks_key", 2),
    ("missing_key", 2),
    ("short_moment", 2),
    ("short_m", 2),
    ("bad_rng_state", 2),
    ("bad_base64", 2),
    ("non_finite_param", 2),
    ("short_params", 2),
]

# Runs the CLI in a process that SIGKILLs itself once epoch 3's record and any
# snapshot of that epoch are written.
KILLED_AFTER_EPOCH_3 = """
import os, signal, sys
from confae import cli, training

train = training.train

def train_then_die(*args, on_epoch, **kwargs):
    def hook(state, record):
        on_epoch(state, record)
        if state.epoch == 3:
            os.kill(os.getpid(), signal.SIGKILL)
    return train(*args, on_epoch=hook, **kwargs)

training.train = train_then_die
sys.exit(cli.main(sys.argv[1:]))
"""


class TestGenerate:
    def test_writes_header_plus_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        assert run_cli("generate", "--n", "100", "--seed", "1", "--out", str(path)) == 0
        assert len(path.read_text().strip().splitlines()) == 101

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("generate", "--n", "50", "--seed", "9", "--out", str(a))
        run_cli("generate", "--n", "50", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_fails_with_io_code(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out = blocker / "sub" / "d.csv"  # parent is a file
        assert run_cli("generate", "--n", "10", "--out", str(out)) == 2


class TestTrain:
    def test_run_writes_all_artifacts(self, tmp_path, roll_csv):
        code, out = tiny_train(tmp_path, roll_csv)
        assert code == 0
        for name in (cli.MANIFEST_NAME, cli.METRICS_NAME, cli.CHECKPOINT_NAME):
            assert (out / name).exists()
        written = records(out)
        assert [r["epoch"] for r in written] == [1, 2]
        for r in written:
            assert r["total"] == r["recon"]  # no regularizer

    def test_manifest_holds_resolved_config_and_hash(self, tmp_path, roll_csv):
        _, out = tiny_train(tmp_path, roll_csv)
        manifest = json.loads((out / cli.MANIFEST_NAME).read_text())
        assert manifest["config"]["dims"] == [3, 8, 2]
        assert manifest["config"]["seed"] == 3
        assert len(manifest["data"]["sha256"]) == 64

    def test_manifest_records_thread_settings(self, tmp_path, roll_csv, monkeypatch):
        pinned = dict.fromkeys(cli.THREAD_VARS, "1")
        monkeypatch.setattr(cli, "_THREADS", pinned)
        code, out = tiny_train(tmp_path, roll_csv, "run", "--single-thread")
        assert code == 0
        manifest = json.loads((out / cli.MANIFEST_NAME).read_text())
        assert manifest["single_thread"] is True
        assert manifest["threads"] == pinned

    @pytest.mark.parametrize("unpinned", [None, "4"])
    def test_single_thread_refused_when_numpy_loaded_unpinned(
        self, tmp_path, roll_csv, capsys, monkeypatch, unpinned
    ):
        threads = dict.fromkeys(cli.THREAD_VARS, "1")
        threads["OPENBLAS_NUM_THREADS"] = unpinned
        monkeypatch.setattr(cli, "_THREADS", threads)
        code, out = tiny_train(tmp_path, roll_csv, "run", "--single-thread")
        assert code == 1
        assert "command line" in capsys.readouterr().err
        assert not out.exists()
        # without the flag the same settings are only recorded
        code, out = tiny_train(tmp_path, roll_csv, "run")
        assert code == 0
        assert json.loads((out / cli.MANIFEST_NAME).read_text())["threads"] == threads

    def test_config_file_plus_overrides(self, tmp_path, roll_csv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "dims": [3, 6, 2], "batch_size": 8}))
        out = tmp_path / "run_cfg"
        code = run_cli(
            "train",
            "--config",
            str(cfg_path),
            "--data",
            str(roll_csv),
            "--out",
            str(out),
            "--seed",
            "4",
            "--set",
            "activation=tanh",
        )
        assert code == 0
        manifest = json.loads((out / cli.MANIFEST_NAME).read_text())
        assert manifest["config"]["activation"] == "tanh"
        assert manifest["config"]["epochs"] == 1 and manifest["config"]["seed"] == 4

    @pytest.mark.parametrize(
        "order,epochs",
        [(("--epochs", "3", "--set", "epochs=2"), 2), (("--set", "epochs=2", "--epochs", "3"), 3)],
        ids=["set-last", "flag-last"],
    )
    def test_the_last_setting_on_the_command_line_wins(self, tmp_path, roll_csv, order, epochs):
        code, out = tiny_train(tmp_path, roll_csv, "run", *order)
        assert code == 0
        assert json.loads((out / cli.MANIFEST_NAME).read_text())["config"]["epochs"] == epochs
        assert [r["epoch"] for r in records(out)] == list(range(1, epochs + 1))

    # What the same run wrote when five flags set these keys:
    # --batch-size 16 --lr 0.05 --weight-decay 0.1 --probes 4 --exact-trace.
    FLAG_RUN_CONFIG = {
        "activation": "relu", "batch_size": 16, "checkpoint_every": 0, "dims": [3, 8, 2],
        "epochs": 2, "exact_trace": True, "lambda_geo": 0.1, "lr": 0.05, "probes": 4,
        "regularizer": "conf", "seed": 3, "val_fraction": 0.2, "weight_decay": 0.1,
    }

    def test_settings_write_the_run_the_removed_flags_wrote(self, tmp_path, roll_csv):
        # the trained bits depend on the BLAS kernel, so the checkpoint is
        # compared with a live run of a --config file holding the same keys
        keys = {"batch_size": 16, "lr": 0.05, "weight_decay": 0.1, "probes": 4, "exact_trace": True}
        extra = ["--regularizer", "conf", "--lambda-geo", "0.1"]
        for key, value in keys.items():
            extra += ["--set", f"{key}={json.dumps(value)}"]
        code, out = tiny_train(tmp_path, roll_csv, "run", *extra)
        assert code == 0
        assert json.loads((out / cli.MANIFEST_NAME).read_text())["config"] == self.FLAG_RUN_CONFIG
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(keys))
        code, from_file = tiny_train(
            tmp_path, roll_csv, "run_file", "--config", str(cfg_path), *extra[:4]
        )
        assert code == 0
        for name in (cli.MANIFEST_NAME, cli.CHECKPOINT_NAME):
            assert (from_file / name).read_bytes() == (out / name).read_bytes(), name

    @pytest.mark.parametrize("how", ["config", "set"])
    @pytest.mark.parametrize(
        "key,value",
        [
            ("detach_codes", False),
            ("scheduler", {"enabled": True}),
            ("scheduler.enabled", True),
            ("beta1", 0.9),
            ("beta2", 0.999),
            ("eps", 1e-8),
        ],
        ids=["detach_codes", "scheduler", "scheduler.enabled", "beta1", "beta2", "eps"],
    )
    def test_removed_key_is_an_unknown_key(self, tmp_path, roll_csv, capsys, how, key, value):
        # the settings were removed; a config that still sets one is refused
        if how == "config":
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({key: value}))
            extra = ("--config", str(cfg_path))
        else:
            extra = ("--set", f"{key}={json.dumps(value)}")
        code, out = tiny_train(tmp_path, roll_csv, "run", *extra)
        assert code == 1
        assert f"  - {key}: unknown key\n" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_keys_all_reported(self, tmp_path, roll_csv, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochz": 1, "learning": 2}))
        out = tmp_path / "run_bad"
        code = run_cli(
            "train", "--config", str(cfg_path), "--data", str(roll_csv), "--out", str(out)
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "epochz" in err and "learning" in err

    def test_degenerate_decoder_exits_2_with_location(
        self, tmp_path, roll_csv, capsys, monkeypatch
    ):
        from confae import training

        init = training.init_networks

        def zero_decoder(cfg):
            enc, dec = init(cfg)
            for layer in dec.layers:
                layer.weight[:] = 0.0
            return enc, dec

        monkeypatch.setattr(training, "init_networks", zero_decoder)
        code, _ = tiny_train(
            tmp_path, roll_csv, "run_flat", "--regularizer", "conf", "--lambda-geo", "0.1"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "code index 0 (epoch 1, batch 0)" in err

    def test_collapsed_jacobian_at_calibration_names_the_stage(self, tmp_path, roll_csv, capsys):
        # at seed 56 the untrained [3, 8, 2] decoder's Jacobian vanishes at a code
        out = tmp_path / "run56"
        argv = ["train", "--data", str(roll_csv), "--out", str(out), "--regularizer", "conf"]
        assert run_cli(*argv, "--set", "dims=[3,8,2]", "--seed", "56") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: calibration of the untrained decoder refused")
        assert "counts rows of the training split" in err and "at code index 1" in err
        assert f"first {training.CALIBRATION_SAMPLE} rows" in err
        assert not out.exists()

    def test_diverging_run_exits_2_without_numpy_warnings(self, tmp_path, roll_csv, capsys):
        extra = ("--regularizer", "conf", "--lambda-geo", "0.1", "--set", "lr=1e200")
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code, _ = tiny_train(tmp_path, roll_csv, "run", *extra)
        assert code == 2
        assert "non-finite recon loss (nan) at epoch 1, batch 1" in capsys.readouterr().err
        assert [str(w.message) for w in seen] == []

    def test_non_finite_cell_exits_2_naming_the_line(self, tmp_path, roll_csv, capsys):
        lines = roll_csv.read_text().splitlines()
        lines[5] = "nan," + lines[5].split(",", 1)[1]
        roll_csv.write_text("\n".join(lines) + "\n")
        code, out = tiny_train(tmp_path, roll_csv)
        assert code == 2
        assert f"{roll_csv}:6: non-finite value nan in column 1" in capsys.readouterr().err
        assert not (out / "checkpoint.json").exists()

    def test_negative_seed_exits_1_naming_the_key(self, tmp_path, roll_csv, capsys):
        code, out = tiny_train(tmp_path, roll_csv, "run", "--seed", "-1")
        assert code == 1
        err = capsys.readouterr().err
        assert "  - seed: must be a nonnegative integer" in err and "Traceback" not in err
        assert not out.exists()

    def test_inert_regularizer_warns(self, tmp_path, roll_csv, capsys):
        code, _ = tiny_train(
            tmp_path, roll_csv, "run_inert", "--regularizer", "conf", "--lambda-geo", "0"
        )
        assert code == 0
        assert "inert" in capsys.readouterr().err

    def test_train_without_lambda_writes_the_calibrated_run(
        self, tmp_path, roll_csv, capsys, monkeypatch
    ):
        # relative paths and pinned thread variables: the manifest records both
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_THREADS", dict.fromkeys(cli.THREAD_VARS, "1"))
        argv = tiny_train_argv(roll_csv.name, "run", "--regularizer", "conf", "--single-thread")
        capsys.readouterr()
        assert run_cli(*argv) == 0
        # the proposal is printed once, before the first epoch's summary
        lines = capsys.readouterr().out.splitlines()
        printed = json.loads(lines[0])
        assert not any("proposed_lambda_geo" in line for line in lines[1:])
        # it is calibrate_intensity's, on the run's config and data
        config = json.loads((tmp_path / "run" / cli.MANIFEST_NAME).read_text())["config"]
        cfg = training.RunConfig.from_dict({**config, "lambda_geo": None})
        want = training.calibrate_intensity(cfg, cli._load_dataset(roll_csv))
        assert printed == dict(zip(("proposed_lambda_geo", "initial_recon", "initial_geo"), want))
        # the run is the one an explicit --lambda-geo of the proposal writes,
        # and the floats are compared live: their bits depend on the BLAS kernel
        lam = repr(printed["proposed_lambda_geo"])
        argv = tiny_train_argv(roll_csv.name, "given", "--regularizer", "conf", "--single-thread")
        assert run_cli(*argv, "--lambda-geo", lam) == 0
        assert "proposed_lambda_geo" not in capsys.readouterr().out
        for name in (cli.MANIFEST_NAME, cli.CHECKPOINT_NAME):
            given, calibrated = (tmp_path / run / name for run in ("given", "run"))
            assert given.read_bytes() == calibrated.read_bytes(), name

    def test_calibrating_globiso_on_a_one_code_split_exits_1(self, tmp_path, capsys):
        two = tmp_path / "two.csv"
        assert run_cli("generate", "--n", "2", "--out", str(two)) == 0
        out = tmp_path / "r"
        argv = ["train", "--data", str(two), "--out", str(out), "--regularizer", "globiso"]
        capsys.readouterr()
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert "regularizer: globiso compares pairs of codes" in captured.err
        assert "training split holds 1" in captured.err and captured.out == ""
        assert not out.exists()

    def test_calibrated_run_resumes_with_its_command_line(self, tmp_path, roll_csv, monkeypatch):
        class Stop(Exception):
            pass

        write = cli._write_checkpoint

        def stop_after_epoch_2(path, config, state):
            write(path, config, state)
            if state.epoch == 2:
                raise Stop

        argv = ("--regularizer", "conf", "--epochs", "4", "--set", "checkpoint_every=1")
        monkeypatch.setattr(cli, "_write_checkpoint", stop_after_epoch_2)
        with pytest.raises(Stop):
            tiny_train(tmp_path, roll_csv, "stopped", *argv)
        monkeypatch.undo()
        stopped = tmp_path / "stopped"
        assert json.loads((stopped / cli.CHECKPOINT_NAME).read_text())["epoch"] == 2
        code, _ = tiny_train(tmp_path, roll_csv, "stopped", *argv, "--resume", str(stopped))
        assert code == 0
        code, straight = tiny_train(tmp_path, roll_csv, "straight", *argv)
        assert code == 0
        name = cli.CHECKPOINT_NAME
        assert (stopped / name).read_bytes() == (straight / name).read_bytes()
        assert records(stopped, drop={"seconds"}) == records(straight, drop={"seconds"})

    def test_resume_without_the_started_lambda_exits_1(self, tmp_path, roll_csv, capsys):
        started = ("--regularizer", "conf", "--lambda-geo", "0.1")
        code, out = tiny_train(tmp_path, roll_csv, "run", *started)
        assert code == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        resume = ("--epochs", "3", "--resume", str(out))
        code, _ = tiny_train(tmp_path, roll_csv, "run", "--regularizer", "conf", *resume)
        assert code == 1
        captured = capsys.readouterr()
        assert f"cannot resume {out}: this run differs in lambda_geo\n" in captured.err
        assert captured.out == ""
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_checkpoint_cadence(self, tmp_path, roll_csv):
        # one snapshot file, overwritten every epoch, holds the last epoch
        code, out = tiny_train(tmp_path, roll_csv, "run_cadence", "--set", "checkpoint_every=1")
        assert code == 0
        names = {cli.MANIFEST_NAME, cli.METRICS_NAME, cli.CHECKPOINT_NAME}
        assert {p.name for p in out.iterdir()} == names
        assert json.loads((out / cli.CHECKPOINT_NAME).read_text())["epoch"] == 2

    def test_each_snapshot_is_written_once(self, tmp_path, roll_csv, monkeypatch):
        written = []
        write = cli._write_checkpoint

        def counting_write(path, config, state):
            written.append(state.epoch)
            write(path, config, state)

        monkeypatch.setattr(cli, "_write_checkpoint", counting_write)
        code, _ = tiny_train(tmp_path, roll_csv, "run", "--set", "checkpoint_every=1")
        assert code == 0
        assert written == [1, 2]

    def test_resuming_a_finished_run_into_another_directory_writes_its_snapshot(
        self, tmp_path, roll_csv
    ):
        code, first = tiny_train(tmp_path, roll_csv, "first", "--set", "checkpoint_every=1")
        assert code == 0
        resume = ("--set", "checkpoint_every=1", "--resume", str(first))
        code, other = tiny_train(tmp_path, roll_csv, "other", *resume)
        assert code == 0
        name = cli.CHECKPOINT_NAME
        assert (other / name).read_bytes() == (first / name).read_bytes()
        assert records(other) == records(first)

    def test_resume_continues_epoch_numbering(self, tmp_path, roll_csv):
        code, out = tiny_train(tmp_path, roll_csv, "run_resume")
        assert code == 0
        code = run_cli(
            "train",
            "--data",
            str(roll_csv),
            "--out",
            str(out),
            "--seed",
            "3",
            "--epochs",
            "4",
            "--set",
            "batch_size=16",
            "--set",
            "dims=[3,8,2]",
            "--resume",
            str(out),
        )
        assert code == 0
        assert [r["epoch"] for r in records(out)] == [1, 2, 3, 4]
        assert json.loads((out / cli.CHECKPOINT_NAME).read_text())["epoch"] == 4

    def test_resume_round_trips_flat_moments(self, tmp_path, roll_csv):
        code, out = tiny_train(tmp_path, roll_csv, "run_half")
        assert code == 0
        ckpt = json.loads((out / cli.CHECKPOINT_NAME).read_text())
        assert ckpt["format_version"] == cli.CHECKPOINT_FORMAT_VERSION == 5
        config, state = cli._load_checkpoint(out / cli.CHECKPOINT_NAME)
        assert ckpt["config"] == config.to_dict()
        assert ckpt["config"] == json.loads((out / cli.MANIFEST_NAME).read_text())["config"]
        # one AdamW state, laid out like the encoder's params and then the decoder's
        size = state.enc.params.size + state.dec.params.size
        assert set(ckpt["adamw"]) == {"step", "m", "v"}
        assert ckpt["adamw"]["step"] == state.opt.step == 12  # 2 epochs of 96 codes in 16s
        for text in (ckpt["params"], ckpt["adamw"]["m"], ckpt["adamw"]["v"]):
            assert _vector(text).size == size
        code, _ = tiny_train(tmp_path, roll_csv, "run_half", "--epochs", "4", "--resume", str(out))
        assert code == 0
        # the resumed snapshot stores the new run's config
        assert json.loads((out / cli.CHECKPOINT_NAME).read_text())["config"]["epochs"] == 4
        code, straight = tiny_train(tmp_path, roll_csv, "run_full", "--epochs", "4")
        assert code == 0
        name = cli.CHECKPOINT_NAME
        assert (out / name).read_bytes() == (straight / name).read_bytes()

    def test_killed_run_resumes_to_the_uninterrupted_snapshot(self, tmp_path, roll_csv):
        cadence = ("--epochs", "5", "--set", "checkpoint_every=2")
        killed = tmp_path / "killed"
        paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        argv = tiny_train_argv(roll_csv, killed, *cadence)
        proc = subprocess.run(
            [sys.executable, "-c", KILLED_AFTER_EPOCH_3, *argv],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert json.loads((killed / cli.CHECKPOINT_NAME).read_text())["epoch"] == 2
        assert [r["epoch"] for r in records(killed)] == [1, 2, 3]
        code, _ = tiny_train(tmp_path, roll_csv, "killed", *cadence, "--resume", str(killed))
        assert code == 0
        code, straight = tiny_train(tmp_path, roll_csv, "straight", *cadence)
        assert code == 0
        name = cli.CHECKPOINT_NAME
        assert (killed / name).read_bytes() == (straight / name).read_bytes()
        assert records(killed, drop={"seconds"}) == records(straight, drop={"seconds"})

    def test_resume_into_another_directory_keeps_the_earlier_records(self, tmp_path, roll_csv):
        code, first = tiny_train(tmp_path, roll_csv, "first")
        assert code == 0
        with open(first / cli.METRICS_NAME, "a") as f:
            f.write('{"epoch": 3, "re')  # a record torn by a kill
        resume = ("--epochs", "4", "--resume", str(first))
        code, other = tiny_train(tmp_path, roll_csv, "other", *resume)
        assert code == 0
        assert [r["epoch"] for r in records(other)] == [1, 2, 3, 4]
        code, straight = tiny_train(tmp_path, roll_csv, "straight", "--epochs", "4")
        assert code == 0
        assert records(other, drop={"seconds"}) == records(straight, drop={"seconds"})
        name = cli.CHECKPOINT_NAME
        assert (other / name).read_bytes() == (straight / name).read_bytes()

    def test_resume_refuses_fewer_epochs_than_the_snapshot(self, tmp_path, roll_csv, capsys):
        code, out = tiny_train(tmp_path, roll_csv, "run", "--epochs", "3")
        assert code == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        code, _ = tiny_train(tmp_path, roll_csv, "run", "--epochs", "2", "--resume", str(out))
        assert code == 1
        assert f"{out} is past epoch 2" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("damage", ["missing", "short", "torn"])
    def test_resume_refuses_metrics_without_the_snapshot_epochs(
        self, tmp_path, roll_csv, capsys, damage
    ):
        code, out = tiny_train(tmp_path, roll_csv)
        assert code == 0
        path = out / cli.METRICS_NAME
        lines = path.read_text().splitlines()
        if damage == "missing":
            path.unlink()
        elif damage == "short":
            path.write_text(lines[0] + "\n")
        else:
            path.write_text(lines[0] + "\n" + lines[1][:20])
        before = path.read_bytes() if path.exists() else None
        capsys.readouterr()
        code, _ = tiny_train(tmp_path, roll_csv, "run", "--epochs", "3", "--resume", str(out))
        assert code == 2
        assert str(path) in capsys.readouterr().err
        assert (path.read_bytes() if path.exists() else None) == before

    @pytest.mark.parametrize("damage,want", [("missing_manifest", 1), *CHECKPOINT_DAMAGES])
    def test_resume_refuses_a_damaged_run(self, tmp_path, roll_csv, capsys, damage, want):
        code, out = tiny_train(tmp_path, roll_csv)
        assert code == 0
        named = out / (cli.MANIFEST_NAME if damage == "missing_manifest" else cli.CHECKPOINT_NAME)
        if damage == "missing_manifest":
            named.unlink()
        else:
            damage_checkpoint(named, damage)
        capsys.readouterr()
        code, _ = tiny_train(tmp_path, roll_csv, "run", "--epochs", "3", "--resume", str(out))
        assert code == want
        err = capsys.readouterr().err
        assert str(named) in err and "Traceback" not in err
        if damage in OLD_FORMATS:
            assert f"format_version {OLD_FORMATS[damage]}" in err
        if damage == "config_disagrees_with_manifest":
            assert f"{out / cli.MANIFEST_NAME} record different configs" in err

    @pytest.mark.parametrize(
        "extra,differ",
        [
            (("--set", "dims=[3,8,4]"), "dims"),
            (("--seed", "9", "--set", "lr=0.5"), "lr, seed"),
            (("--data", "other"), "data.sha256"),
        ],
        ids=["dims", "seed-lr", "data"],
    )
    def test_resume_refuses_a_different_run(self, tmp_path, roll_csv, capsys, extra, differ):
        code, out = tiny_train(tmp_path, roll_csv)
        assert code == 0
        manifest = (out / cli.MANIFEST_NAME).read_bytes()
        if extra[0] == "--data":
            other = tmp_path / "other.csv"
            assert run_cli("generate", "--n", "120", "--seed", "6", "--out", str(other)) == 0
            extra = ("--data", str(other))
        capsys.readouterr()
        code, _ = tiny_train(tmp_path, roll_csv, "run", "--epochs", "3", "--resume", str(out), *extra)
        assert code == 1
        assert f"differs in {differ}" in capsys.readouterr().err
        assert (out / cli.MANIFEST_NAME).read_bytes() == manifest

    def test_resume_refuses_a_run_with_the_removed_settings(self, tmp_path, roll_csv, capsys):
        # a run as written while the optimizer constants and the plateau
        # scheduler were config keys
        code, out = tiny_train(tmp_path, roll_csv)
        assert code == 0
        path = out / cli.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["config"].update(
            beta1=0.9, beta2=0.999, eps=1e-8,
            scheduler={"enabled": False, "factor": 0.5, "patience": 10, "min_lr": 1e-6},
        )
        path.write_text(json.dumps(manifest))
        damage_checkpoint(out / cli.CHECKPOINT_NAME, "format_2")
        capsys.readouterr()
        code, _ = tiny_train(tmp_path, roll_csv, "run", "--epochs", "3", "--resume", str(out))
        assert code == 1
        assert "differs in beta1, beta2, eps, scheduler\n" in capsys.readouterr().err
        assert [r["epoch"] for r in records(out)] == [1, 2]

    def test_resume_refuses_a_run_that_recorded_detach_codes(self, tmp_path, roll_csv, capsys):
        code, out = tiny_train(tmp_path, roll_csv)
        assert code == 0
        path = out / cli.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        # what a run made while the option existed recorded
        manifest["config"]["detach_codes"] = False
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        code, _ = tiny_train(tmp_path, roll_csv, "run", "--epochs", "3", "--resume", str(out))
        assert code == 1
        assert "differs in detach_codes" in capsys.readouterr().err
        assert [r["epoch"] for r in records(out)] == [1, 2]
        # diagnose refuses a checkpoint whose manifest records another config
        argv = ["--checkpoint", str(out / cli.CHECKPOINT_NAME), "--data", str(roll_csv)]
        assert run_cli("diagnose", *argv, "--out", str(tmp_path / "diag")) == 2
        err = capsys.readouterr().err
        assert f"{out / cli.CHECKPOINT_NAME} and manifest {path}" in err
        assert "differ in detach_codes" in err

    def test_resume_reads_the_manifest_once(self, tmp_path, roll_csv, monkeypatch):
        code, out = tiny_train(tmp_path, roll_csv)
        assert code == 0
        read = cli._read_manifest
        paths = []

        def counted(path):
            paths.append(path)
            return read(path)

        monkeypatch.setattr(cli, "_read_manifest", counted)
        code, _ = tiny_train(tmp_path, roll_csv, "run", "--epochs", "3", "--resume", str(out))
        assert code == 0
        assert paths == [out / cli.MANIFEST_NAME]

    def test_resume_refuses_other_data_before_parsing_it(self, tmp_path, roll_csv, capsys):
        code, out = tiny_train(tmp_path, roll_csv)
        assert code == 0
        bad = malformed_copy(roll_csv, tmp_path / "bad.csv")
        capsys.readouterr()
        resume = ("--epochs", "3", "--resume", str(out))
        code, other = tiny_train(tmp_path, bad, "other", *resume)
        assert code == 1
        err = capsys.readouterr().err
        assert "differs in data.sha256" in err and "expected 5 columns" not in err
        assert not other.exists()

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, roll_csv, monkeypatch):
        code, out = tiny_train(tmp_path, roll_csv)
        assert code == 0
        before = (out / cli.CHECKPOINT_NAME).read_bytes()
        replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).name == cli.CHECKPOINT_NAME:
                raise OSError(errno.ENOSPC, "No space left on device")
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        code, _ = tiny_train(tmp_path, roll_csv, "run", "--epochs", "3")
        assert code == 2
        assert (out / cli.CHECKPOINT_NAME).read_bytes() == before
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


class TestDiagnose:
    def _identity_checkpoint(self, path):
        """A one-layer autoencoder whose decoder embeds the codes isometrically."""
        config = training.RunConfig(dims=[3, 2])
        enc, dec = training.init_networks(config)
        enc.layers[0].weight[:] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        dec.layers[0].weight[:] = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        rng = np.random.default_rng(0)
        opt = training.AdamWState.zeros(enc.params.size + dec.params.size)
        cli._write_checkpoint(path, config, training.TrainState(1, enc, dec, opt, rng))

    def test_identity_decoder_diagnostics(self, tmp_path, roll_csv):
        ckpt = tmp_path / "ckpt.json"
        self._identity_checkpoint(ckpt)
        out = tmp_path / "diag"
        code = run_cli(
            "diagnose",
            "--checkpoint",
            str(ckpt),
            "--data",
            str(roll_csv),
            "--out",
            str(out),
            "--seed",
            "3",
            "--val-fraction",
            "0.5",
        )
        assert code == 0
        cols = geometry.read_diagnostics_csv(out / cli.DIAGNOSTICS_NAME)
        assert np.allclose(cols["c"], 1.0, atol=1e-12)
        assert np.all(cols["s_raw"] == 0.0)
        assert np.allclose(cols["kappa_jac"], 1.0, atol=1e-9)
        assert np.allclose(cols["kappa_jac"] ** 2, 1.0, atol=1e-9)  # kappa_pbm
        summary = json.loads((out / cli.KAPPA_SUMMARY_NAME).read_text())
        assert summary["kappa_jac_mean"] == pytest.approx(1.0, abs=1e-9)

    def test_collapsed_decoder_exits_2_naming_the_first_code(self, tmp_path, roll_csv, capsys):
        ckpt = tmp_path / "ckpt.json"
        config = training.RunConfig(dims=[3, 2])
        enc, dec = training.init_networks(config)
        dec.params[:] = 0.0
        opt = training.AdamWState.zeros(enc.params.size + dec.params.size)
        state = training.TrainState(1, enc, dec, opt, np.random.default_rng(0))
        cli._write_checkpoint(ckpt, config, state)
        out = tmp_path / "diag"
        assert self._diagnose(ckpt, roll_csv, out) == 2
        err = capsys.readouterr().err
        msg = "conformal factor must be finite and strictly positive; value 0.000e+00 at index 0"
        assert msg in err and "Traceback" not in err
        assert not (out / cli.DIAGNOSTICS_NAME).exists()

    @pytest.mark.parametrize("m", [1, 3])
    def test_latent_dimension_other_than_two_writes_every_coordinate(
        self, tmp_path, roll_csv, capsys, m
    ):
        code, run = tiny_train(tmp_path, roll_csv, "run", "--set", f"dims=[3,8,{m}]")
        assert code == 0
        capsys.readouterr()
        out = tmp_path / "diag"
        assert self._diagnose(run / cli.CHECKPOINT_NAME, roll_csv, out) == 0
        err = capsys.readouterr().err
        assert f"warning: latent dimension {m} != 2, curvature columns omitted" in err
        assert "Traceback" not in err
        header = (out / cli.DIAGNOSTICS_NAME).read_text().split("\n", 1)[0]
        latent = ",".join(f"z{i + 1}" for i in range(m))
        assert header == f"{latent},c,kappa_jac"

    @pytest.mark.parametrize(
        "text",
        [
            "{",
            "[]",
            '{"data": "roll.csv"}',
            '{"data": {"path": "roll.csv"}}',
            '{"config": [], "data": {"sha256": "0"}}',
            '{"data": {"sha256": "0"}}',
            '{"config": {}, "data": {"sha256": 0}}',
        ],
        ids=[
            "truncated",
            "not-an-object",
            "data-not-an-object",
            "data-without-sha256",
            "config-not-an-object",
            "without-config",
            "sha256-not-a-string",
        ],
    )
    def test_malformed_manifest_exits_2_naming_it(self, tmp_path, roll_csv, capsys, text):
        run = tmp_path / "run"
        run.mkdir()
        ckpt = run / cli.CHECKPOINT_NAME
        self._identity_checkpoint(ckpt)
        (run / cli.MANIFEST_NAME).write_text(text)
        out = tmp_path / "diag"
        argv = ["diagnose", "--checkpoint", str(ckpt), "--data", str(roll_csv), "--out", str(out)]
        assert run_cli(*argv) == 2
        assert str(run / cli.MANIFEST_NAME) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value",
        [("seed", "abc"), ("val_fraction", None), ("activation", "tanh")],
        ids=["seed-abc", "val_fraction-null", "activation-tanh"],
    )
    def test_manifest_of_another_config_exits_2_naming_both(
        self, tmp_path, roll_csv, capsys, key, value
    ):
        # the split and the tag come from the checkpoint, which the manifest must describe
        code, run = tiny_train(tmp_path, roll_csv)
        assert code == 0
        path = run / cli.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["config"][key] = value
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        out = tmp_path / "diag"
        assert self._diagnose(run / cli.CHECKPOINT_NAME, roll_csv, out) == 2
        err = capsys.readouterr().err
        both = f"checkpoint {run / cli.CHECKPOINT_NAME} and manifest {path}"
        assert f"{both} record different configs (they differ in {key})" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("damage,want", CHECKPOINT_DAMAGES)
    def test_damaged_checkpoint_exits_naming_it(self, tmp_path, roll_csv, capsys, damage, want):
        code, run = tiny_train(tmp_path, roll_csv)
        assert code == 0
        ckpt = run / cli.CHECKPOINT_NAME
        damage_checkpoint(ckpt, damage)
        capsys.readouterr()
        out = tmp_path / "diag"
        assert self._diagnose(ckpt, roll_csv, out) == want
        err = capsys.readouterr().err
        assert str(ckpt) in err and "Traceback" not in err
        if damage in OLD_FORMATS:
            assert f"format_version {OLD_FORMATS[damage]}" in err
        if damage == "config_disagrees_with_manifest":
            assert f"{run / cli.MANIFEST_NAME} record different configs" in err
        assert not out.exists()

    def test_large_architecture_is_refused_before_its_layers_are_built(
        self, tmp_path, roll_csv, capsys
    ):
        code, run = tiny_train(tmp_path, roll_csv)
        assert code == 0
        ckpt = run / cli.CHECKPOINT_NAME
        damage_checkpoint(ckpt, "large_architecture")
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = self._diagnose(ckpt, roll_csv, tmp_path / "diag")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"malformed checkpoint {ckpt}" in capsys.readouterr().err
        # the config's layers alone would take 64 MB
        assert peak < 2**20, peak

    def test_missing_checkpoint_exits_1_naming_it(self, tmp_path, roll_csv, capsys):
        ckpt, out = tmp_path / "run" / cli.CHECKPOINT_NAME, tmp_path / "diag"
        assert self._diagnose(ckpt, roll_csv, out) == 1
        assert f"checkpoint not found: {ckpt}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,problem",
        [
            (["--seed", "-1"], "seed: must be a nonnegative integer"),
            (["--val-fraction", "1.5"], "val_fraction: must lie strictly between 0 and 1"),
        ],
        ids=["seed", "val-fraction"],
    )
    def test_out_of_range_split_exits_1_naming_the_key(
        self, tmp_path, roll_csv, capsys, flags, problem
    ):
        code, run = tiny_train(tmp_path, roll_csv)
        assert code == 0
        capsys.readouterr()
        out = tmp_path / "diag"
        assert self._diagnose(run / cli.CHECKPOINT_NAME, roll_csv, out, *flags) == 1
        err = capsys.readouterr().err
        assert f"  - {problem}" in err and "Traceback" not in err
        assert not out.exists()

    def _diagnose(self, ckpt, csv, out, *flags):
        return run_cli(
            "diagnose", "--checkpoint", str(ckpt), "--data", str(csv), "--out", str(out), *flags
        )

    def test_checkpoint_away_from_its_manifest_keeps_its_split_and_tag(self, tmp_path, roll_csv):
        # as the benchmark diagnoses a checkpoint moved out of its run directory
        conf = ("--regularizer", "conf", "--lambda-geo", "0.1")
        code, run = tiny_train(tmp_path, roll_csv, "run", *conf)
        assert code == 0
        moved = tmp_path / "moved" / cli.CHECKPOINT_NAME
        moved.parent.mkdir()
        moved.write_bytes((run / cli.CHECKPOINT_NAME).read_bytes())
        beside, away = tmp_path / "beside", tmp_path / "away"
        assert self._diagnose(run / cli.CHECKPOINT_NAME, roll_csv, beside) == 0
        assert self._diagnose(moved, roll_csv, away) == 0
        summary = json.loads((away / cli.KAPPA_SUMMARY_NAME).read_text())
        assert summary["regularizer"] == "conf"
        name = cli.DIAGNOSTICS_NAME
        assert (away / name).read_bytes() == (beside / name).read_bytes()

    def test_refuses_data_the_run_was_not_trained_on(self, tmp_path, capsys):
        trained, other = tmp_path / "trained.csv", tmp_path / "other.csv"
        assert run_cli("generate", "--n", "200", "--seed", "1", "--out", str(trained)) == 0
        assert run_cli("generate", "--n", "300", "--seed", "2", "--out", str(other)) == 0
        code, run = tiny_train(tmp_path, trained)
        assert code == 0
        capsys.readouterr()
        out = tmp_path / "diag"
        assert self._diagnose(run / cli.CHECKPOINT_NAME, other, out) == 1
        err = capsys.readouterr().err
        assert cli._sha256(trained) in err and cli._sha256(other) in err
        assert not (out / cli.DIAGNOSTICS_NAME).exists()
        assert not (out / cli.KAPPA_SUMMARY_NAME).exists()
        # the dataset the run was trained on is still diagnosed
        assert self._diagnose(run / cli.CHECKPOINT_NAME, trained, out) == 0
        assert (out / cli.DIAGNOSTICS_NAME).exists()

    def test_refuses_other_data_before_parsing_it(self, tmp_path, capsys):
        trained = tmp_path / "trained.csv"
        assert run_cli("generate", "--n", "200", "--seed", "1", "--out", str(trained)) == 0
        bad = malformed_copy(trained, tmp_path / "bad.csv")
        code, run = tiny_train(tmp_path, trained)
        assert code == 0
        capsys.readouterr()
        out = tmp_path / "diag"
        assert self._diagnose(run / cli.CHECKPOINT_NAME, bad, out) == 1
        err = capsys.readouterr().err
        assert cli._sha256(trained) in err and cli._sha256(bad) in err
        assert "expected 5 columns" not in err
        assert not out.exists()

    def test_summary_holds_stage_timings_and_edges(self, tmp_path, roll_csv, capsys):
        code, run = tiny_train(tmp_path, roll_csv)
        assert code == 0
        summaries = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert self._diagnose(run / cli.CHECKPOINT_NAME, roll_csv, out) == 0
            summaries.append(json.loads((out / cli.KAPPA_SUMMARY_NAME).read_text()))
        timings = [s.pop("timing") for s in summaries]
        assert summaries[0] == summaries[1]
        stages = {
            "read", "encode", "jacobians", "conformal_kappa", "graph", "curvature", "write_csv"
        }
        for timing in timings:
            assert set(timing) == stages
            assert all(v >= 0.0 for v in timing.values())
        # 120 samples, 20% validation; every code has at least k = 10 edges
        assert summaries[0]["curvature"]["edges"] >= 24 * 10
        cmp_out = tmp_path / "cmp"
        assert run_cli("compare", str(tmp_path / "a"), "--out", str(cmp_out)) == 0
        result = json.loads((cmp_out / "comparison.json").read_text())
        assert all("timing" not in run for run in result["runs"].values())

    def test_failed_write_keeps_the_previous_diagnostics(self, tmp_path, roll_csv, monkeypatch):
        code, run = tiny_train(tmp_path, roll_csv)
        assert code == 0
        out = tmp_path / "diag"
        out.mkdir()
        before = b"z1,z2,c\n0.5,0.5,1.0\n"  # a previous file unlike the one diagnose writes
        (out / cli.DIAGNOSTICS_NAME).write_bytes(before)
        replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).name == cli.DIAGNOSTICS_NAME:
                raise OSError(errno.ENOSPC, "No space left on device")
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        assert self._diagnose(run / cli.CHECKPOINT_NAME, roll_csv, out) == 2
        assert (out / cli.DIAGNOSTICS_NAME).read_bytes() == before
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]

    def test_missing_inputs_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        for given, missing in (
            (("--data", "d.csv"), "--checkpoint"),
            (("--checkpoint", "c.json"), "--data"),
        ):
            with pytest.raises(SystemExit) as exc:
                run_cli("diagnose", *given, "--out", str(out))
            assert exc.value.code == 1
            assert missing in capsys.readouterr().err
        assert not out.exists()


class TestJacobianBlocks:
    @pytest.mark.parametrize("act", ["relu", "leaky_relu", "tanh", "identity"])
    def test_blocks_match_the_whole_stack(self, act):
        acts = [act] * 3 + ["identity"]
        enc = net.init([3, 50, 50, 50, 2], acts, 33)
        dec = net.init([2, 50, 50, 50, 3], acts, 31)
        # two whole blocks and a short last one
        samples = np.random.default_rng(32).normal(size=(2 * geometry.JACOBIAN_BLOCK + 37, 3))
        laps = []
        codes, c, kappa = geometry.conformal_field(enc, dec, samples, laps.append)
        assert laps == ["encode", "jacobians", "conformal_kappa"] * 3
        # each block's codes are its own encode's bits; a whole-batch encode
        # rounds its products differently, by a few ulps
        for start in range(0, len(samples), geometry.JACOBIAN_BLOCK):
            block = slice(start, start + geometry.JACOBIAN_BLOCK)
            assert np.array_equal(codes[block], net.forward(enc, samples[block]))
        np.testing.assert_allclose(codes, net.forward(enc, samples), rtol=1e-12, atol=1e-14)
        rows = jvp_rows(dec, codes)
        np.testing.assert_allclose(c, geometry.conformal_factor(rows), rtol=1e-12, atol=0)
        np.testing.assert_allclose(kappa, geometry.kappa_field(rows), rtol=1e-12, atol=0)

    def test_memory_is_bounded(self):
        # one block's encoder outputs and JVP tape, in buffers every block
        # reuses, and their reductions peak at 2.61 MiB here; one tape of all
        # these codes would peak near 18.7 MiB
        acts = ["relu"] * 3 + ["identity"]
        enc = net.init([3, 50, 50, 50, 2], acts, 28)
        dec = net.init([2, 50, 50, 50, 3], acts, 29)
        samples = np.random.default_rng(30).normal(size=(4000, 3))
        tracemalloc.start()
        try:
            geometry.conformal_field(enc, dec, samples, lambda stage: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, peak

    @pytest.mark.parametrize("n", [4000, 16000])
    def test_encode_and_jacobians_do_not_grow_with_the_samples(self, n):
        # the default networks peak at 2.58 MiB for 4000 samples and 2.95 MiB
        # for 16000, of which 32 bytes per sample are its code, c and kappa;
        # encoding all samples at once peaks at 3.05 and 12.2 MiB
        enc, dec = training.init_networks(training.RunConfig())
        samples = np.random.default_rng(35).normal(size=(n, 3))
        tracemalloc.start()
        try:
            geometry.conformal_field(enc, dec, samples, lambda stage: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


class TestPlot:
    def _diag_csv(self, path, n=1):
        rng = np.random.default_rng(0)
        codes = rng.normal(size=(n, 2))
        c = np.abs(rng.normal(size=n)) + 0.5
        geometry.write_diagnostics_csv(path, codes, c, None, np.full(n, 2.0))

    def test_single_point_file_gets_one_marker(self, tmp_path):
        diag = tmp_path / "d.csv"
        self._diag_csv(diag, n=1)
        out = tmp_path / "figs"
        assert run_cli("plot", "--diagnostics", str(diag), "--out", str(out)) == 0
        svg = (out / "conformal_factor.svg").read_text()
        assert svg.count("<circle") == 1

    def test_byte_identical_output(self, tmp_path):
        diag = tmp_path / "d.csv"
        self._diag_csv(diag, n=20)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("plot", "--diagnostics", str(diag), "--out", str(out_a))
        run_cli("plot", "--diagnostics", str(diag), "--out", str(out_b))
        for name in ("conformal_factor.svg", "kappa_strip.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_metadata_matches_data_extremes(self, tmp_path):
        diag = tmp_path / "d.csv"
        self._diag_csv(diag, n=15)
        cols = geometry.read_diagnostics_csv(diag)
        out = tmp_path / "figs"
        run_cli("plot", "--diagnostics", str(diag), "--out", str(out))
        svg = (out / "conformal_factor.svg").read_text()
        meta = json.loads(svg.split("<metadata>")[1].split("</metadata>")[0])
        assert meta["vmin"] == cols["c"].min()
        assert meta["vmax"] == cols["c"].max()

    def test_strip_draws_the_finite_kappa_jac_and_counts_each_sentinel_once(self, tmp_path):
        diag = tmp_path / "d.csv"
        codes = np.arange(6.0).reshape(3, 2)
        geometry.write_diagnostics_csv(diag, codes, np.ones(3), None, [1.5, 2.0, np.inf])
        out = tmp_path / "figs"
        assert run_cli("plot", "--diagnostics", str(diag), "--out", str(out)) == 0
        svg = (out / "kappa_strip.svg").read_text()
        meta = json.loads(svg.split("<metadata>")[1].split("</metadata>")[0])
        assert (meta["vmin"], meta["vmax"], meta["excluded_infinite"]) == (1.5, 2.0, 1)
        # one strip: a circle per finite kappa_jac and one mean marker
        assert svg.count("<circle") == 2 and svg.count("<polygon") == 1

    def test_kappa_jac_of_inf_sentinels_alone_is_refused_before_out(self, tmp_path, capsys):
        diag = tmp_path / "d.csv"
        diag.write_text("z1,z2,c,kappa_jac\n0.1,0.2,0.5,inf\n0.4,-0.1,1.0,inf\n")
        out = tmp_path / "figs"
        assert run_cli("plot", "--diagnostics", str(diag), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: {diag}: column kappa_jac: no finite condition numbers" in err
        assert not out.exists()

    def test_file_without_kappa_column_exits_2_naming_it(self, tmp_path, capsys):
        diag = tmp_path / "d.csv"
        diag.write_text("z1,c\n0.1,0.5\n0.4,1.0\n")
        out = tmp_path / "figs_m1"
        assert run_cli("plot", "--diagnostics", str(diag), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{diag}: missing column kappa_jac" in err and "Traceback" not in err
        assert not out.exists()

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        diag = tmp_path / "d.csv"
        diag.write_text("z1,z2,c_normalized\n0.1,0.2\n")
        assert run_cli("plot", "--diagnostics", str(diag), "--out", str(tmp_path / "f")) == 2
        assert ":2" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "column", ["z1", "z2", "c", "c_normalized", "s_raw", "s_normalized", "kappa_jac"]
    )
    def test_non_finite_cell_is_refused_naming_file_and_column(
        self, tmp_path, capsys, column, value
    ):
        # the earlier file format, with the derived c_normalized, s_normalized
        # and kappa_pbm columns
        names = ["z1", "z2", "c", "c_normalized", "s_raw", "s_normalized", "kappa_jac", "kappa_pbm"]
        rows = [[0.1, 0.2, 0.5, 0.0, -0.3, -0.3 / 0.7, 2.0, 4.0]]
        rows += [[0.4, -0.1, 1.0, 1.0, 0.7, 1.0, 3.0, 9.0]]
        rows[1][names.index(column)] = value
        diag = tmp_path / "d.csv"
        diag.write_text("".join(",".join(map(str, r)) + "\n" for r in [names, *rows]))
        out = tmp_path / "figs"
        code = run_cli("plot", "--diagnostics", str(diag), "--out", str(out))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if column == "kappa_jac" and value == "inf":  # the condition number's sentinel
            assert code == 0 and (out / "kappa_strip.svg").exists()
        elif column.endswith("_normalized"):  # not read: the scatters draw c and s_raw
            assert code == 0 and (out / "scalar_curvature.svg").exists()
        else:
            assert code == 2
            problem = "a non-finite value"
            if column == "kappa_jac":
                problem = "NaN, -inf or a value below 1"
            assert f"{diag}: column {column} holds {problem}" in err
            assert not out.exists()

    @pytest.mark.parametrize("value,code", [("1.0", 0), ("0.999", 2), ("0.0", 2), ("-2.0", 2)])
    def test_kappa_below_1_is_refused_naming_file_and_column(self, tmp_path, capsys, value, code):
        # a condition number is at least 1: a smaller one is refused before --out is made
        diag = tmp_path / "d.csv"
        diag.write_text(f"z1,z2,c,kappa_jac\n0.1,0.2,0.5,2.0\n0.4,-0.1,1.0,{value}\n")
        out = tmp_path / "figs"
        assert run_cli("plot", "--diagnostics", str(diag), "--out", str(out)) == code
        err = capsys.readouterr().err
        problem = f"{diag}: column kappa_jac holds NaN, -inf or a value below 1"
        assert (problem in err) == (code == 2) and "Traceback" not in err
        assert out.exists() == (code == 0)

    def test_file_of_the_ten_column_format_draws_the_same_circles(self, tmp_path):
        # diagnostics.csv used to hold c_normalized, s_normalized and kappa_pbm
        # as well; the figures are drawn from c, s_raw and kappa_jac, and the
        # scatters min-max scale their colours, so both files draw alike
        rng = np.random.default_rng(3)
        codes = rng.normal(size=(300, 2))
        c = geometry.stereographic_factor(codes) * np.exp(0.1 * rng.normal(size=300))
        curv = geometry.scalar_curvature(codes, c, geometry.build_graph(codes))
        kappa = 1.0 + rng.random(300)
        kappa[7] = np.inf
        new = tmp_path / "new.csv"
        geometry.write_diagnostics_csv(new, codes, c, curv, kappa)
        cols = geometry.read_diagnostics_csv(new)
        c, s = cols["c"], cols["s_raw"]
        cols["c_normalized"] = (c - c.min()) / (c.max() - c.min())
        cols["s_normalized"] = s / np.abs(s).max()
        cols["kappa_pbm"] = cols["kappa_jac"] ** 2
        names = ["z1", "z2", "c", "c_normalized", "s_raw", "s_normalized", "s_calibrated"]
        names += ["interior", "kappa_jac", "kappa_pbm"]
        old = tmp_path / "old.csv"
        data.write_csv(old, ",".join(names), [cols[name] for name in names])
        for diag in (new, old):
            out = str(diag.with_suffix(""))
            assert run_cli("plot", "--diagnostics", str(diag), "--out", out) == 0
        figs = {"conformal_factor.svg", "scalar_curvature.svg", "kappa_strip.svg"}
        assert {p.name for p in (tmp_path / "old").iterdir()} == figs

        def circles(tag, name):
            lines = (tmp_path / tag / name).read_text().splitlines()
            return [line for line in lines if line.startswith("<circle")]

        for name in ("conformal_factor.svg", "scalar_curvature.svg"):
            assert len(circles("new", name)) == 300
            assert circles("new", name) == circles("old", name), name
        strips = [(tmp_path / tag / "kappa_strip.svg").read_bytes() for tag in ("new", "old")]
        assert strips[0] == strips[1]

    @pytest.mark.parametrize("m", [1, 3])
    def test_latent_dimension_other_than_two_plots_only_the_kappa_strip(
        self, tmp_path, roll_csv, capsys, m
    ):
        code, run = tiny_train(tmp_path, roll_csv, "run", "--set", f"dims=[3,8,{m}]")
        assert code == 0
        diag = tmp_path / "diag"
        argv = ["--checkpoint", str(run / cli.CHECKPOINT_NAME), "--data", str(roll_csv)]
        assert run_cli("diagnose", *argv, "--out", str(diag)) == 0
        capsys.readouterr()
        out = tmp_path / "figs"
        diag_csv = str(diag / cli.DIAGNOSTICS_NAME)
        code = run_cli("plot", "--diagnostics", diag_csv, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 0, err
        assert f"warning: latent dimension {m} != 2, scatter figures omitted" in err
        assert "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["kappa_strip.svg"]


class TestCompare:
    def _run_dir(self, tmp_path, tag, kjac, **entries):
        d = tmp_path / tag
        d.mkdir(parents=True)
        summary = {"regularizer": tag, "kappa_jac_mean": kjac, "kappa_jac_std": 0.1}
        summary |= {"count": 10, "excluded": 0, **entries}
        (d / cli.KAPPA_SUMMARY_NAME).write_text(json.dumps(summary))
        return d

    def test_table_and_ordering_flag(self, tmp_path, capsys):
        a = self._run_dir(tmp_path, "conf", 2.0)
        b = self._run_dir(tmp_path, "globiso", 4.0)
        out = tmp_path / "cmp"
        assert run_cli("compare", str(a), str(b), "--out", str(out)) == 0
        table = capsys.readouterr().out
        assert "conf" in table and "globiso" in table
        result = json.loads((out / "comparison.json").read_text())
        assert result["expected_ordering"] is True

    def test_ordering_flag_false_when_reversed(self, tmp_path, capsys):
        a = self._run_dir(tmp_path, "conf", 5.0)
        b = self._run_dir(tmp_path, "globiso", 4.0)
        assert run_cli("compare", str(a), str(b)) == 0
        out = capsys.readouterr().out
        result = json.loads(out.strip().splitlines()[-1])
        assert result["expected_ordering"] is False

    def test_identical_runs_identical_columns(self, tmp_path, capsys):
        a = self._run_dir(tmp_path, "runA", 2.0)
        b = self._run_dir(tmp_path, "runB", 2.0)
        assert run_cli("compare", str(a), str(b)) == 0
        table_line = capsys.readouterr().out.splitlines()[1]
        assert table_line.count("2.00 +- 0.10") == 2

    def test_runs_with_one_tag_exit_1_naming_both(self, tmp_path, capsys):
        a = self._run_dir(tmp_path, "conf", 2.0)
        b = tmp_path / "copy"
        b.mkdir()
        (b / cli.KAPPA_SUMMARY_NAME).write_bytes((a / cli.KAPPA_SUMMARY_NAME).read_bytes())
        out = tmp_path / "cmp"
        assert run_cli("compare", str(a), str(b), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert str(a) in err and str(b) in err and "'conf'" in err
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["missing", "string", "true", "false", "nan", "infinity"])
    def test_summary_without_a_kappa_entry_exits_2_naming_it(self, tmp_path, capsys, damage):
        a = self._run_dir(tmp_path, "conf", 2.0)
        b = self._run_dir(tmp_path, "globiso", 4.0)
        path = b / cli.KAPPA_SUMMARY_NAME
        summary = json.loads(path.read_text())
        if damage == "missing":
            del summary["kappa_jac_std"]
        else:
            values = {"string": "0.2", "true": True, "false": False, "nan": np.nan}
            summary["kappa_jac_std"] = values.get(damage, np.inf)
        path.write_text(json.dumps(summary))
        assert run_cli("compare", str(a), str(b)) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "kappa_jac_std" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "tags",
        [("globiso", "none"), ("conf", "lociso"), ("globiso",)],
        ids=["globiso-none", "conf-lociso", "globiso-alone"],
    )
    def test_no_verdict_without_globiso_and_a_run_to_order_below_it(self, tmp_path, tags):
        dirs = [str(self._run_dir(tmp_path, tag, 2.0 + i)) for i, tag in enumerate(tags)]
        out = tmp_path / "cmp"
        assert run_cli("compare", *dirs, "--out", str(out)) == 0
        result = json.loads((out / "comparison.json").read_text())
        assert result["expected_ordering"] is None

    def test_summary_of_the_earlier_format_compares_alike(self, tmp_path, capsys):
        # kappa_summary.json used to hold kappa_pbm_mean and kappa_pbm_std as
        # well. These means order lociso above globiso although its kappa_jac
        # mean is lower (a few codes far in the tail): the verdict reads
        # kappa_jac only, and the table has the one kappa_jac row.
        kjac = {"conf": 1.9, "lociso": 2.4, "globiso": 5.7}
        kpbm = {"conf": 4.1, "lociso": 143.0, "globiso": 61.0}
        results = {}
        for fmt in ("current", "earlier"):
            dirs = []
            for tag, mean in kjac.items():
                entries = {}
                if fmt == "earlier":
                    entries = {"kappa_pbm_mean": kpbm[tag], "kappa_pbm_std": 2488.0}
                dirs.append(str(self._run_dir(tmp_path / fmt, tag, mean, **entries)))
            assert run_cli("compare", *dirs) == 0
            *table, verdict = capsys.readouterr().out.strip().splitlines()
            results[fmt] = table, json.loads(verdict)["expected_ordering"]
        assert results["earlier"] == results["current"]
        table, ordering = results["current"]
        assert [line.split()[0] for line in table] == ["metric", "kappa_jac"]
        assert ordering is True

    def test_missing_summary_names_the_run(self, tmp_path, capsys):
        a = self._run_dir(tmp_path, "conf", 2.0)
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli("compare", str(a), str(empty)) == 1
        assert "empty" in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize(
        "value,key",
        [
            ("lr=null", "lr"),
            ("dims=5", "dims"),
            ("probes=2.5", "probes"),
            ("batch_size=[1]", "batch_size"),
        ],
        ids=["lr-null", "dims-5", "probes-2.5", "batch_size-list"],
    )
    def test_mistyped_config_value_exits_1_naming_the_key(
        self, tmp_path, roll_csv, capsys, value, key
    ):
        out = tmp_path / "out"
        code = run_cli("train", "--data", str(roll_csv), "--out", str(out), "--set", value)
        err = capsys.readouterr().err
        assert code == 1
        assert "invalid configuration" in err and f"  - {key}: " in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,key,value",
        [
            (["--lambda-geo", "inf"], "lambda_geo", "inf"),
            (["--lambda-geo", "nan"], "lambda_geo", "nan"),
            ({"lr": float("inf")}, "lr", "inf"),
            (["--set", "lr=inf"], "lr", "inf"),
            (["--set", "weight_decay=inf"], "weight_decay", "inf"),
            (["--set", "lambda_geo=nan"], "lambda_geo", "nan"),
            (["--set", "weight_decay=-inf"], "weight_decay", "-inf"),
            (["--set", "val_fraction=NaN"], "val_fraction", "nan"),
            (["--set", "lambda_geo=Infinity"], "lambda_geo", "inf"),
        ],
        ids=[
            "lambda_geo-inf", "lambda_geo-nan", "lr-inf", "set-lr-inf", "set-weight_decay-inf",
            "set-lambda_geo-nan", "set-weight_decay--inf", "set-val_fraction-NaN",
            "set-lambda_geo-Infinity",
        ],
    )
    def test_non_finite_real_exits_1_naming_key_and_value(
        self, tmp_path, roll_csv, capsys, argv, key, value
    ):
        if isinstance(argv, dict):
            # a config file: json writes the non-finite float as Infinity / NaN
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(argv))
            argv = ["--config", str(cfg_path)]
        out = tmp_path / "out"
        code = run_cli("train", "--data", str(roll_csv), "--out", str(out), *argv)
        err = capsys.readouterr().err
        assert code == 1
        assert f"  - {key}: must be finite, got {value}\n" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [["--lambda-geo", "0.1"], []], ids=["train", "calibrate"])
    def test_dims_that_do_not_fit_the_data_exit_1(self, tmp_path, roll_csv, capsys, extra):
        argv = ["--set", "dims=[5,4,2]", "--regularizer", "conf", *extra]
        code = run_cli("train", "--data", str(roll_csv), "--out", str(tmp_path / "out"), *argv)
        err = capsys.readouterr().err
        assert code == 1
        assert "  - dims: input size 5 does not match the data's 3 columns\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "n,argv,problem",
        [
            # calibration's refusal, once the data are parsed
            ("2", ["--regularizer", "globiso"], "  - regularizer: globiso compares pairs"),
            ("120", ["--set", "dims=[5,4,2]"], "  - dims: input size 5 does not match"),
        ],
        ids=["globiso-2-samples", "dims-misfit"],
    )
    def test_refused_train_leaves_the_run_in_out_as_it_was(
        self, tmp_path, roll_csv, capsys, n, argv, problem
    ):
        code, run = tiny_train(tmp_path, roll_csv)
        assert code == 0
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        data = tmp_path / "data.csv"
        assert run_cli("generate", "--n", n, "--seed", "5", "--out", str(data)) == 0
        capsys.readouterr()
        assert run_cli("train", "--data", str(data), "--out", str(run), *argv) == 1
        assert problem in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize(
        "argv,flag",
        [(["--n", "0"], "--n"), (["--n", "1"], "--n"), (["--seed", "-1"], "--seed")],
        ids=["n-0", "n-1", "seed-negative"],
    )
    def test_generate_out_of_range_exits_1_naming_the_flag(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "roll.csv"
        assert run_cli("generate", *argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"error: {flag} must be" in err and "Traceback" not in err
        assert not out.exists()

    def test_uncreatable_out_exits_2_naming_it(self, tmp_path, roll_csv, capsys):
        code, run = tiny_train(tmp_path, roll_csv)
        assert code == 0
        diagnose = ["diagnose", "--checkpoint", str(run / cli.CHECKPOINT_NAME)]
        diagnose += ["--data", str(roll_csv), "--out"]
        assert run_cli(*diagnose, str(run)) == 0
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out = blocker / "sub"  # its parent is a file
        for argv in (
            tiny_train_argv(roll_csv, out),
            [*diagnose, str(out)],
            ["plot", "--diagnostics", str(run / cli.DIAGNOSTICS_NAME), "--out", str(out)],
            ["compare", str(run), "--out", str(out)],
        ):
            capsys.readouterr()
            assert run_cli(*argv) == 2, argv[0]
            captured = capsys.readouterr()
            assert f"cannot create output directory {out}" in captured.err
            assert captured.out == "", argv[0]  # nothing printed before the refusal

    def test_unknown_argument_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--nonsense")
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "command,argv,removed",
        [
            ("train", ["--data", "d.csv", "--out", "o"], ["--detach-codes"]),
            ("diagnose", ["--checkpoint", "c.json", "--data", "d.csv", "--out", "o"],
             ["--oracle", "sphere"]),
            ("train", ["--data", "d.csv", "--out", "o"], ["--probes", "4"]),
            ("train", ["--data", "d.csv", "--out", "o"], ["--batch-size", "16"]),
            ("train", ["--data", "d.csv", "--out", "o"], ["--lr", "0.5"]),
            ("train", ["--data", "d.csv", "--out", "o"], ["--weight-decay", "0.1"]),
            ("train", ["--data", "d.csv", "--out", "o"], ["--exact-trace"]),
            ("generate", ["--out", "d.csv"], ["--standardize"]),
            ("train", ["--data", "d.csv", "--out", "o"], ["--calibrate-intensity"]),
        ],
        ids=[
            "detach-codes", "oracle", "probes", "batch-size", "lr", "weight-decay",
            "exact-trace", "standardize", "calibrate-intensity",
        ],
    )
    def test_removed_options_are_refused(self, capsys, command, argv, removed):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        assert removed[0] not in capsys.readouterr().out
        # refused while the arguments are parsed, before any file is touched
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *argv, *removed)
        assert exc.value.code == 1
        assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err

    def test_missing_data_file_is_validation(self, tmp_path):
        assert (
            run_cli("train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"))
            == 1
        )

    @pytest.mark.parametrize(
        "body,message",
        [("1,2,3,4,5\n", "at least two samples"), ("1,2,3,4,5\n1,2,4,4,5\n", "feature 0")],
        ids=["one-row", "constant-feature"],
    )
    def test_data_that_cannot_be_standardized_exits_2(self, tmp_path, capsys, body, message):
        csv = tmp_path / "flat.csv"
        csv.write_text("x,y,z,xi,eta\n" + body)
        assert run_cli("train", "--data", str(csv), "--out", str(tmp_path / "o")) == 2
        assert message in capsys.readouterr().err


def _parser_options():
    """Every ``--`` option of the parser and its subcommands."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        option
        for p in (parser, *sub.choices.values())
        for action in p._actions
        for option in action.option_strings
        if option.startswith("--")
    }


def test_readme_names_exactly_the_parser_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    named.discard("--no-build-isolation")  # pip's, in the install line
    options = _parser_options() - {"--help", "--version"}
    assert sorted(named - options) == [], "README names options the parser lacks"
    assert sorted(options - named) == [], "parser options README does not name"


def _numeric_flags():
    """``(subcommand, flag)`` for every option the parser converts to an int or
    a float, by the name argparse gives the type in its errors, then
    ``("train", "--set=key")`` for the numeric settings that no flag sets."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = [
        (name, action.option_strings[0])
        for name, parser in sub.choices.items()
        for action in parser._actions
        if getattr(action.type, "__name__", None) in ("int", "float")
    ]
    keys = ("probes", "batch_size", "lr", "weight_decay")
    return flags + [("train", f"--set={key}") for key in keys]


@pytest.fixture(scope="module")
def boundary_run(tmp_path_factory):
    """A 120-sample roll and a one-epoch conf checkpoint trained on it."""
    root = tmp_path_factory.mktemp("boundary")
    csv = root / "roll.csv"
    assert run_cli("generate", "--n", "120", "--seed", "5", "--out", str(csv)) == 0
    argv = tiny_train_argv(csv, root / "run", "--regularizer", "conf", "--lambda-geo", "0.1")
    assert run_cli(*argv) == 0
    return csv, root / "run" / cli.CHECKPOINT_NAME


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command,flag", _numeric_flags(), ids=lambda v: v)
def test_numeric_flag_boundaries_exit_cleanly(tmp_path, boundary_run, command, flag, value):
    csv, checkpoint = boundary_run
    out = str(tmp_path / "out")
    base = {
        "generate": ["--n", "50", "--out", str(tmp_path / "roll.csv")],
        "train": tiny_train_argv(csv, out, "--regularizer", "conf", "--lambda-geo", "0.1")[1:],
        "diagnose": ["--checkpoint", str(checkpoint), "--data", str(csv), "--out", out],
    }[command]
    # the option under test comes last, so it overrides the base argv's value
    option, _, key = flag.partition("=")
    try:
        code = run_cli(command, *base, option, f"{key}={value}" if key else value)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)


# The config keys a run reads, and keys that earlier versions read and that
# are now refused as unknown.
SET_KEYS = sorted(training.RunConfig.__dataclass_fields__)
REMOVED_KEYS = ["beta1", "beta2", "detach_codes", "eps", "scheduler", "scheduler.enabled"]
# Small values of every JSON type and the non-finite reals, so that no drawn
# config allocates a large array.
SET_VALUES = st.one_of(
    st.integers(-2, 64).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
    st.sampled_from(["inf", "-inf", "nan", "true", "null"]),
    st.sampled_from([*net.ACTIVATIONS, *training.REGULARIZERS]),
    st.text("abcdefghijklmnopqrstuvwxyz_", max_size=8),
    st.lists(st.integers(-2, 64), max_size=5).map(json.dumps),
)


@settings(max_examples=200, deadline=None)
@given(
    overrides=st.lists(
        st.tuples(st.sampled_from(SET_KEYS + REMOVED_KEYS), SET_VALUES), min_size=1, max_size=4
    )
)
def test_calibration_under_drawn_overrides_exits_cleanly(boundary_run, overrides):
    # no lambda_geo: each accepted draw of an enabled regularizer calibrates, then trains
    csv, checkpoint = boundary_run
    argv = ["train", "--data", str(csv), "--out", str(checkpoint.parent / "calibrated")]
    argv += ["--set", "regularizer=conf", "--set", "dims=[3,8,2]"]
    for key, value in overrides:  # later overrides replace the base values
        argv += ["--set", f"{key}={value}"]
    try:
        code = run_cli(*argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)
