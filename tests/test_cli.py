import errno
import json
import os
from pathlib import Path

import numpy as np
import pytest

from confae import cli, geometry, net


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def roll_csv(tmp_path):
    path = tmp_path / "roll.csv"
    assert run_cli("generate", "--n", "120", "--seed", "5", "--out", str(path)) == 0
    return path


def tiny_train(tmp_path, roll_csv, out_name="run", *extra):
    out = tmp_path / out_name
    code = run_cli(
        "train",
        "--data",
        str(roll_csv),
        "--out",
        str(out),
        "--seed",
        "3",
        "--epochs",
        "2",
        "--batch-size",
        "16",
        "--set",
        "dims=[3,8,2]",
        *extra,
    )
    return code, out


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

    def test_standardize_centers_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        run_cli("generate", "--n", "200", "--seed", "2", "--out", str(path), "--standardize")
        from confae import data

        ds = data.from_csv(path)
        assert np.max(np.abs(ds.samples.mean(axis=0))) < 1e-9

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_SEED, "77")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("generate", "--n", "30", "--out", str(a))
        run_cli("generate", "--n", "30", "--seed", "77", "--out", str(b))
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
        for name in (cli.MANIFEST_NAME, cli.METRICS_NAME, cli.CHECKPOINT_NAME, cli.STATE_NAME):
            assert (out / name).exists()
        records = [json.loads(l) for l in (out / cli.METRICS_NAME).read_text().splitlines()]
        assert [r["epoch"] for r in records] == [1, 2]
        for r in records:
            assert r["total"] == r["recon"]  # no regularizer

    def test_manifest_holds_resolved_config_and_hash(self, tmp_path, roll_csv):
        _, out = tiny_train(tmp_path, roll_csv)
        manifest = json.loads((out / cli.MANIFEST_NAME).read_text())
        assert manifest["config"]["dims"] == [3, 8, 2]
        assert manifest["config"]["seed"] == 3
        assert len(manifest["data"]["sha256"]) == 64

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
            "scheduler.enabled=true",
        )
        assert code == 0
        manifest = json.loads((out / cli.MANIFEST_NAME).read_text())
        assert manifest["config"]["scheduler"]["enabled"] is True

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

    def test_inert_regularizer_warns(self, tmp_path, roll_csv, capsys):
        code, _ = tiny_train(
            tmp_path, roll_csv, "run_inert", "--regularizer", "conf", "--lambda-geo", "0"
        )
        assert code == 0
        assert "inert" in capsys.readouterr().err

    def test_calibrate_intensity_is_a_dry_run(self, tmp_path, roll_csv, capsys):
        out = tmp_path / "dry"
        code = run_cli(
            "train",
            "--data",
            str(roll_csv),
            "--out",
            str(out),
            "--seed",
            "3",
            "--regularizer",
            "conf",
            "--set",
            "dims=[3,8,2]",
            "--calibrate-intensity",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["proposed_lambda_geo"] > 0
        assert not (out / cli.CHECKPOINT_NAME).exists()

    def test_checkpoint_cadence(self, tmp_path, roll_csv):
        code, out = tiny_train(tmp_path, roll_csv, "run_cadence", "--set", "checkpoint_every=1")
        assert code == 0
        assert (out / "checkpoint_epoch0001.json").exists()
        assert (out / "checkpoint_epoch0002.json").exists()

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
            "--batch-size",
            "16",
            "--set",
            "dims=[3,8,2]",
            "--resume",
            str(out),
        )
        assert code == 0
        records = [json.loads(l) for l in (out / cli.METRICS_NAME).read_text().splitlines()]
        assert [r["epoch"] for r in records] == [1, 2, 3, 4]
        assert json.loads((out / cli.CHECKPOINT_NAME).read_text())["epoch"] == 4

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
        enc = net.Mlp(
            [net.Layer(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.zeros(2), "identity")]
        )
        dec = net.Mlp([net.Layer(np.eye(2), np.zeros(2), "identity")])
        payload = {
            "format_version": cli.CHECKPOINT_FORMAT_VERSION,
            "epoch": 1,
            "encoder": net.to_dict(enc),
            "decoder": net.to_dict(dec),
        }
        path.write_text(json.dumps(payload, sort_keys=True))

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
        assert np.allclose(cols["kappa_pbm"], 1.0, atol=1e-9)
        summary = json.loads((out / cli.KAPPA_SUMMARY_NAME).read_text())
        assert summary["kappa_jac_mean"] == pytest.approx(1.0, abs=1e-9)

    def test_sphere_oracle_mode(self, tmp_path, capsys):
        out = tmp_path / "oracle"
        code = run_cli("diagnose", "--oracle", "sphere", "--out", str(out))
        assert code == 0
        summary = json.loads((out / "oracle_summary.json").read_text())
        assert abs(summary["median_interior_curvature"] - 2.0) < 0.4
        assert (out / cli.DIAGNOSTICS_NAME).exists()

    @pytest.mark.parametrize("text", ["{", "[]"], ids=["truncated", "not-an-object"])
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
        assert not (out / cli.DIAGNOSTICS_NAME).exists()

    def test_missing_inputs_is_validation_error(self, tmp_path):
        assert run_cli("diagnose", "--out", str(tmp_path / "x")) == 1


class TestPlot:
    def _diag_csv(self, path, n=1):
        rng = np.random.default_rng(0)
        codes = rng.normal(size=(n, 2))
        field = geometry.ConformalField.from_values(codes, np.abs(rng.normal(size=n)) + 0.5)
        kappas = np.column_stack([np.full(n, 2.0), np.full(n, 4.0)])
        geometry.write_diagnostics_csv(path, field, None, kappas)

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
        assert meta["vmin"] == cols["c_normalized"].min()
        assert meta["vmax"] == cols["c_normalized"].max()

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        diag = tmp_path / "d.csv"
        diag.write_text("z1,z2,c_normalized\n0.1,0.2\n")
        assert run_cli("plot", "--diagnostics", str(diag), "--out", str(tmp_path / "f")) == 2
        assert ":2" in capsys.readouterr().err


class TestCompare:
    def _run_dir(self, tmp_path, tag, kjac, kpbm):
        d = tmp_path / tag
        d.mkdir()
        (d / cli.KAPPA_SUMMARY_NAME).write_text(
            json.dumps(
                {
                    "regularizer": tag,
                    "kappa_jac_mean": kjac,
                    "kappa_jac_std": 0.1,
                    "kappa_pbm_mean": kpbm,
                    "kappa_pbm_std": 0.2,
                    "count": 10,
                    "excluded": 0,
                }
            )
        )
        return d

    def test_table_and_ordering_flag(self, tmp_path, capsys):
        a = self._run_dir(tmp_path, "conf", 2.0, 5.0)
        b = self._run_dir(tmp_path, "globiso", 4.0, 19.0)
        out = tmp_path / "cmp"
        assert run_cli("compare", str(a), str(b), "--out", str(out)) == 0
        table = capsys.readouterr().out
        assert "conf" in table and "globiso" in table
        result = json.loads((out / "comparison.json").read_text())
        assert result["expected_ordering"] is True

    def test_ordering_flag_false_when_reversed(self, tmp_path, capsys):
        a = self._run_dir(tmp_path, "conf", 5.0, 30.0)
        b = self._run_dir(tmp_path, "globiso", 4.0, 19.0)
        assert run_cli("compare", str(a), str(b)) == 0
        out = capsys.readouterr().out
        result = json.loads(out.strip().splitlines()[-1])
        assert result["expected_ordering"] is False

    def test_identical_runs_identical_columns(self, tmp_path, capsys):
        a = self._run_dir(tmp_path, "runA", 2.0, 5.0)
        b = self._run_dir(tmp_path, "runB", 2.0, 5.0)
        assert run_cli("compare", str(a), str(b)) == 0
        table_line = capsys.readouterr().out.splitlines()[1]
        assert table_line.count("2.00 +- 0.10") == 2

    def test_missing_summary_names_the_run(self, tmp_path, capsys):
        a = self._run_dir(tmp_path, "conf", 2.0, 5.0)
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli("compare", str(a), str(empty)) == 1
        assert "empty" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_argument_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--nonsense")
        assert exc.value.code == 1

    def test_missing_data_file_is_validation(self, tmp_path):
        assert (
            run_cli("train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"))
            == 1
        )
