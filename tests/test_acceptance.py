"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 6 and 7 train full 200-epoch runs through the CLI (a few minutes);
everything else completes in seconds. Run with ``pytest -s`` to see the
per-criterion lines as they happen (pytest captures them otherwise).
"""

import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from confae import data, geometry, linalg, net
from confae import regularizers as reg

from oracles import disc_grid, swiss_roll_jacobian
from test_net import fd_input_jacobian, fd_param_grad, forward_point, jvp_rows, rel_err, vjp
from test_regularizers import hutch_moments, value_of

SEED = 42


def report(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status} - {description}{suffix}", flush=True)
    assert ok, f"criterion {criterion} failed: {description}{suffix}"


# --------------------------------------------------------------------------
# criterion 1: autodiff fidelity on 20 seeded networks


def _acceptance_nets():
    cases = []
    arch_cycle = [
        ([3, 8, 2], ["relu", "identity"]),
        ([3, 10, 6, 2], ["tanh", "tanh", "identity"]),
        ([2, 12, 3], ["leaky_relu", "identity"]),
        ([4, 6, 6, 3], ["relu", "tanh", "identity"]),
        ([3, 50, 50, 50, 2], ["relu", "relu", "relu", "identity"]),
        ([2, 7, 7, 2], ["tanh", "leaky_relu", "identity"]),
        ([3, 9, 4], ["tanh", "tanh"]),
        ([5, 8, 5], ["leaky_relu", "tanh"]),
        ([3, 50, 50, 50, 2], ["tanh", "relu", "leaky_relu", "identity"]),
        ([2, 30, 2], ["relu", "identity"]),
    ]
    for i in range(20):
        dims, acts = arch_cycle[i % len(arch_cycle)]
        cases.append(net.init(dims, acts, seed=1000 + i))
    return cases


def test_criterion_1_autodiff_fidelity():
    t0 = time.perf_counter()
    worst_first_order = 0.0
    worst_param = 0.0
    for i, network in enumerate(_acceptance_nets()):
        rng = np.random.default_rng(2000 + i)
        z = rng.normal(size=network.in_dim) + 0.07  # keep off ReLU kinks
        v = rng.choice([-1.0, 1.0], size=network.in_dim)
        u = rng.normal(size=network.layers[-1].bias.size)

        fd_jac = fd_input_jacobian(lambda x: forward_point(network, x), z)
        jac = net.jacobian(network, z)
        worst_first_order = max(worst_first_order, rel_err(jac, fd_jac))

        # the basis rows J e_k combine into Jv = sum_k v_k J e_k
        res = net.jvp(network, z[None, :])
        jv = v @ res.jv[0]
        worst_first_order = max(worst_first_order, rel_err(jv, fd_jac @ v))

        jtu = vjp(network, z, u)
        worst_first_order = max(worst_first_order, rel_err(jtu, fd_jac.T @ u))

        def tangent_norm_sq(n_):
            return float(np.sum((v @ net.jvp(n_, z[None, :]).jv) ** 2))

        # the adjoint of ||Jv||^2 at basis row k is 2 v_k Jv
        grads, _ = net.backward(network, res.trace, tan_grad=2.0 * np.outer(v, jv)[None])
        fd_w, fd_b = fd_param_grad(tangent_norm_sq, network)
        flat_ad = np.concatenate(
            [g.ravel() for g in grads.weights] + [g.ravel() for g in grads.biases]
        )
        flat_fd = np.concatenate([g.ravel() for g in fd_w] + [g.ravel() for g in fd_b])
        worst_param = max(worst_param, rel_err(flat_ad, flat_fd))

    elapsed = time.perf_counter() - t0
    ok = worst_first_order < 1e-5 and worst_param < 1e-4 and elapsed < 60.0
    report(
        1,
        "autodiff matches finite differences on 20 seeded networks",
        ok,
        f"first-order {worst_first_order:.2e}, param {worst_param:.2e}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 2: Hutchinson estimator correctness


def _linear_dec(w):
    w = np.asarray(w, dtype=float)
    return net.Mlp([net.Layer(w, np.zeros(w.shape[0]), "identity")])


def test_criterion_2_hutchinson():
    # (a) exact on diagonal pullback metrics, every probe
    rng = np.random.default_rng(3)
    exact_ok = True
    for _ in range(5):
        diag = rng.uniform(0.5, 4.0, size=4)
        w = np.zeros((5, 4))
        w[np.arange(4), np.arange(4)] = np.sqrt(diag)
        dec = _linear_dec(w)
        want = float(diag.sum())
        for seed in range(20):
            got, _ = hutch_moments(dec, np.zeros(4), 1, seed)
            exact_ok &= abs(got - want) < 1e-12

    # (b) unbiased on a random 10-dim PSD spectrum
    b = rng.normal(size=(12, 10))
    dec10 = _linear_dec(b)
    true_trace = float(np.trace(b.T @ b))
    estimates = np.array(
        [hutch_moments(dec10, np.zeros(10), 64, seed=s)[0] for s in range(200)]
    )
    se = estimates.std(ddof=1) / math.sqrt(len(estimates))
    bias_ok = abs(estimates.mean() - true_trace) < 3 * se

    # (c) empirical variance strictly decreasing in median over probe counts
    counts = (1, 4, 16, 64, 256)
    seed = 10_000
    medians = []
    for n in counts:
        variances = []
        for _ in range(50):
            draws = []
            for _ in range(12):
                draws.append(hutch_moments(dec10, np.zeros(10), n, seed)[0])
                seed += 1
            variances.append(np.var(draws))
        medians.append(float(np.median(variances)))
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))

    report(
        2,
        "Hutchinson estimator: diagonal exactness, unbiasedness, variance decay",
        exact_ok and bias_ok and decreasing,
        f"bias {abs(estimates.mean() - true_trace):.3g} vs 3se {3 * se:.3g}; "
        f"variance medians {['%.3g' % m for m in medians]}",
    )


# --------------------------------------------------------------------------
# criterion 3: regularizer algebra


def test_criterion_3_regularizer_algebra():
    checks = []

    # conformal linear decoders (scaled orthonormal columns) give zero
    w = 2.3 * np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    codes = np.random.default_rng(4).normal(size=(5, 2))
    val = value_of(reg.nonlinear_conformal_loss_and_grad, _linear_dec(w), codes)
    checks.append(abs(val) < 1e-10)

    # eigenvalue-(2, 1) point gives 1/18
    roll_dec = _linear_dec(swiss_roll_jacobian(np.array([1.0, 0.0])))
    val = value_of(reg.nonlinear_conformal_loss_and_grad, roll_dec, np.zeros((1, 2)))
    checks.append(abs(val - 1.0 / 18.0) < 1e-12)

    # doubled metric gives local-isometry loss 1/2
    w2 = math.sqrt(2.0) * np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    val = value_of(reg.local_iso_loss_and_grad, _linear_dec(w2), np.zeros((1, 2)))
    checks.append(abs(val - 0.5) < 1e-12)

    # invariance under global output scaling
    dec = net.init([2, 8, 3], ["relu", "identity"], 5)
    before = value_of(reg.nonlinear_conformal_loss_and_grad, dec, codes)
    scaled = net.Mlp(dec.layers)
    scaled.layers[-1].weight *= 3.0
    scaled.layers[-1].bias *= 3.0
    after = value_of(reg.nonlinear_conformal_loss_and_grad, scaled, codes)
    checks.append(abs(before - after) < 1e-10)

    # the discriminating pair: metrics I and 4I
    from test_regularizers import _two_zone_dec

    two_zone = _two_zone_dec()
    pair = np.array([[1.0, 1.0], [-1.0, -1.0]])
    conf = value_of(reg.nonlinear_conformal_loss_and_grad, two_zone, pair)
    const = value_of(reg.constant_conformal_loss_and_grad, two_zone, pair)
    checks.append(abs(conf) < 1e-10 and abs(const - 0.18) < 1e-12)

    report(
        3,
        "regularizer algebra: zeros, frozen values, scaling invariance, discrimination",
        all(checks),
        f"checks {checks}",
    )


# --------------------------------------------------------------------------
# criterion 4: analytic roll-parametrization oracle


def test_criterion_4_swiss_roll_oracle():
    rng = np.random.default_rng(6)
    worst_metric = 0.0
    worst_kappa = 0.0
    for _ in range(100):
        z = np.array([rng.uniform(*data.XI_RANGE), rng.uniform(*data.ETA_RANGE)])
        dec = _linear_dec(swiss_roll_jacobian(z))
        rows = jvp_rows(dec, z)
        metric = net.gram(rows)[0]
        want = np.diag([1.0 + z[0] ** 2, 1.0])
        worst_metric = max(worst_metric, float(np.max(np.abs(metric - want))))
        kjac = geometry.kappa_field(rows)[0]
        kpbm = kjac**2  # the pullback metric's condition number
        worst_kappa = max(
            worst_kappa,
            abs(kjac - math.sqrt(1.0 + z[0] ** 2)) / math.sqrt(1.0 + z[0] ** 2),
            abs(kpbm - (1.0 + z[0] ** 2)) / (1.0 + z[0] ** 2),
        )
    ok = worst_metric < 1e-10 and worst_kappa < 1e-9
    report(
        4,
        "analytic roll pullback metric is diag(1+xi^2, 1) with matching kappas",
        ok,
        f"metric dev {worst_metric:.2e}, kappa rel dev {worst_kappa:.2e}",
    )


# --------------------------------------------------------------------------
# criterion 5: curvature pipeline


def test_criterion_5_curvature_pipeline():
    t0 = time.perf_counter()
    codes = np.random.default_rng(7).normal(size=(200, 2))
    graph = geometry.build_graph(codes, k=8)
    const_curv = geometry.scalar_curvature(codes, np.full(200, 2.5), graph)
    constant_ok = bool(np.all(const_curv.raw == 0.0))

    grid = disc_grid(40, 2.0)
    grid_graph = geometry.build_graph(grid, k=10)
    curv = geometry.scalar_curvature(grid, geometry.stereographic_factor(grid), grid_graph)
    median = float(np.median((curv.calibration * curv.raw)[curv.interior]))
    sphere_ok = abs(median - 2.0) < 0.4
    elapsed = time.perf_counter() - t0
    report(
        5,
        "curvature: exact zero on constant fields, sphere oracle within 20%",
        constant_ok and sphere_ok and elapsed < 30.0,
        f"median interior curvature {median:.3f}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criteria 6 and 7: end-to-end reproduction and determinism (CLI runs)


def _cli(*argv):
    cmd = [sys.executable, "-m", "confae.cli", *argv]
    # the child imports the package from this checkout, installed or not
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise AssertionError(
            f"CLI failed ({proc.returncode}): {' '.join(argv)}\n{proc.stdout}\n{proc.stderr}"
        )
    return proc.stdout


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    csv = root / "roll.csv"
    _cli("generate", "--n", "5000", "--seed", str(SEED), "--out", str(csv))

    def train_and_diagnose(tag, out_name):
        out = root / out_name
        common = [
            "--data", str(csv),
            "--out", str(out),
            "--seed", str(SEED),
            "--epochs", "200",
            "--set", "batch_size=64",
            "--set", "lr=0.001",
            "--regularizer", tag,
            "--single-thread",
        ]
        # without --lambda-geo, train calibrates the intensity and records it
        t0 = time.perf_counter()
        _cli("train", *common)
        train_seconds = time.perf_counter() - t0
        lam = json.loads((out / "manifest.json").read_text())["config"]["lambda_geo"]
        _cli(
            "diagnose",
            "--checkpoint", str(out / "checkpoint.json"),
            "--data", str(csv),
            "--out", str(out),
            "--single-thread",
        )
        summary = json.loads((out / "kappa_summary.json").read_text())
        return out, summary, lam, train_seconds

    # the pipelines are independent --single-thread processes: run two at a time
    with ThreadPoolExecutor(max_workers=2) as pool:
        conf = pool.submit(train_and_diagnose, "conf", "run_conf")
        glob = pool.submit(train_and_diagnose, "globiso", "run_globiso")
        repeat = pool.submit(train_and_diagnose, "conf", "run_conf_repeat")
        return {"conf": conf.result(), "globiso": glob.result(), "conf_repeat": repeat.result()[0]}


def test_criterion_6_end_to_end(e2e):
    conf_dir, conf_summary, conf_lam, conf_seconds = e2e["conf"]
    glob_dir, glob_summary, glob_lam, glob_seconds = e2e["globiso"]

    # kappa_pbm = kappa_jac^2 is not stored: its mean over the finite
    # kappa_jac of each run's diagnostics.csv
    kpbm_mean = {}
    for tag, run_dir in (("conf", conf_dir), ("globiso", glob_dir)):
        k = geometry.read_diagnostics_csv(run_dir / "diagnostics.csv")["kappa_jac"]
        kpbm_mean[tag] = float(np.mean(k[np.isfinite(k)] ** 2))
    ordering_ok = (
        conf_summary["kappa_jac_mean"] < glob_summary["kappa_jac_mean"]
        and kpbm_mean["conf"] < kpbm_mean["globiso"]
    )
    conf_range_ok = 1.3 <= conf_summary["kappa_jac_mean"] <= 3.5
    glob_range_ok = 2.5 <= glob_summary["kappa_jac_mean"] <= 8.0

    cols = geometry.read_diagnostics_csv(conf_dir / "diagnostics.csv")
    interior = cols["interior"] > 0.5
    s_raw = cols["s_raw"]
    median_s = float(np.median(np.abs(s_raw[interior] / np.abs(s_raw).max())))
    curvature_ok = median_s < 0.1

    runtime_ok = conf_seconds < 1800 and glob_seconds < 1800

    report(
        6,
        "end-to-end roll reproduction: kappa ordering, ranges, null curvature",
        ordering_ok and conf_range_ok and glob_range_ok and curvature_ok and runtime_ok,
        f"conf kjac {conf_summary['kappa_jac_mean']:.2f} (lam {conf_lam:.3g}), "
        f"globiso kjac {glob_summary['kappa_jac_mean']:.2f} (lam {glob_lam:.3g}), "
        f"median |S| {median_s:.3f}, train {conf_seconds:.0f}s/{glob_seconds:.0f}s",
    )


def test_criterion_7_determinism(e2e):
    conf_dir = e2e["conf"][0]
    repeat_dir = e2e["conf_repeat"]
    ckpt_same = (conf_dir / "checkpoint.json").read_bytes() == (
        repeat_dir / "checkpoint.json"
    ).read_bytes()
    diag_same = (conf_dir / "diagnostics.csv").read_bytes() == (
        repeat_dir / "diagnostics.csv"
    ).read_bytes()
    report(
        7,
        "identical seed in single-threaded mode gives byte-identical artifacts",
        ckpt_same and diag_same,
        f"checkpoint {'==' if ckpt_same else '!='}, diagnostics {'==' if diag_same else '!='}",
    )
