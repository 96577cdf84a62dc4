import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confae import net
from confae import regularizers as reg

from oracles import einsum_trace_moments, global_iso_add_at, swiss_roll_jacobian
from test_net import fd_param_grad, rel_err


def linear_dec(w):
    w = np.asarray(w, dtype=float)
    return net.Mlp([net.Layer(w, np.zeros(w.shape[0]), "identity")])


def diag_metric_dec(diag_values):
    """Linear decoder whose pullback metric is diag(values)."""
    d = np.sqrt(np.asarray(diag_values, dtype=float))
    w = np.zeros((len(d) + 1, len(d)))
    for i, v in enumerate(d):
        w[i, i] = v
    return linear_dec(w)


def swiss_roll_tangent_dec(xi=1.0):
    return linear_dec(swiss_roll_jacobian(np.array([xi, 0.0])))


MOMENT_LOSSES = (
    reg.nonlinear_conformal_loss_and_grad,
    reg.local_iso_loss_and_grad,
    reg.constant_conformal_loss_and_grad,
)


def basis_rows(dec, codes):
    """The latent-basis JVP of ``codes`` and its (B, m, out) tangent rows."""
    z = np.atleast_2d(np.asarray(codes, dtype=np.float64))
    res = net.jvp(dec, z)
    return res, res.jv


def loss_and_grads(loss, dec, codes, *rest, want_grad=True):
    """``(value, dec_grads, code_grads)`` of a loss on its own decoder tape.

    Records the tape the loss reads, as the training step does (the basis
    JVP for a moment loss, a primal tape otherwise), calls the loss on the
    decoder's outputs and sweeps its adjoints back through the decoder.
    With ``want_grad=False`` both gradients are ``None``.
    """
    z = np.atleast_2d(np.asarray(codes, dtype=np.float64))
    g_y = g_rows = None
    g_z = 0.0
    if loss in MOMENT_LOSSES:
        res, rows = basis_rows(dec, z)
        tape = res.trace
        value, g_rows = loss(rows, *rest, want_grad=want_grad)
        adjoints = (g_rows,)
    elif loss is reg.recon_loss_and_grad:
        y, tape = net.forward_tape(dec, z)
        value, g_y = loss(y, *rest, want_grad=want_grad)
        adjoints = (g_y,)
    else:
        y, tape = net.forward_tape(dec, z)
        value, g_y, g_z = loss(z, y, *rest, want_grad=want_grad)
        adjoints = (g_y, g_z)
    if not want_grad:
        assert all(a is None for a in adjoints)
        return value, None, None
    dec_grads, g_in = net.backward(dec, tape, out_grad=g_y, tan_grad=g_rows)
    return value, dec_grads, g_in + g_z


def value_of(loss, *args):
    """Value-only evaluation (``want_grad=False``) of a loss on its decoder tape."""
    return loss_and_grads(loss, *args, want_grad=False)[0]


def probe_draw(count, dim, seed):
    """One code's (1, count, dim) Rademacher block drawn from ``seed``."""
    return reg.rademacher_block(np.random.default_rng(seed), 1, count, dim)


def hutch_moments(dec, z, count, seed):
    """Monte-Carlo (Tr M, Tr M^2) at one code from ``count`` seeded probes."""
    t1, t2, _ = reg.trace_moments(basis_rows(dec, z)[1], probe_draw(count, dec.in_dim, seed))
    return float(t1[0]), float(t2[0])


def exact_trace_moments(dec, z):
    """Reference (Tr M, Tr M^2) through the assembled Jacobian.

    Independent of the probe kernel; used as the estimator's oracle.
    """
    j = net.jacobian(dec, np.asarray(z, dtype=np.float64))
    metric = j.T @ j
    return np.trace(metric), np.trace(metric @ metric)


class TestProbeSet:
    def test_entries_are_exactly_plus_minus_one(self):
        block = probe_draw(64, 5, seed=0)
        assert set(np.unique(block)) == {-1.0, 1.0}

    def test_deterministic(self):
        assert np.array_equal(probe_draw(16, 3, seed=7), probe_draw(16, 3, seed=7))

    def test_empty_rejected(self):
        dec = linear_dec(np.eye(2))
        with pytest.raises(ValueError, match="empty"):
            value_of(
                reg.nonlinear_conformal_loss_and_grad, dec, np.zeros((1, 2)), np.zeros((1, 0, 2))
            )

    def test_block_shape_must_match_codes(self):
        dec = linear_dec(np.eye(2))
        with pytest.raises(ValueError, match="probe block"):
            value_of(reg.local_iso_loss_and_grad, dec, np.zeros((2, 2)), np.ones((3, 4, 2)))


class TestReconLoss:
    def test_identity_autoencoder(self):
        eye = linear_dec(np.eye(3))
        batch = np.random.default_rng(0).normal(size=(5, 3))
        assert reg.recon_loss(eye, eye, batch) == 0.0

    def test_zero_decoder_on_unit_vectors(self):
        enc = linear_dec(np.eye(3))
        dec = linear_dec(np.zeros((3, 3)))
        assert reg.recon_loss(enc, dec, np.eye(3)) == pytest.approx(1.0, abs=0)

    def test_seeded_net_matches_hand_composition(self):
        enc = net.init([3, 4, 2], ["tanh", "identity"], 1)
        dec = net.init([2, 4, 3], ["tanh", "identity"], 2)
        batch = np.random.default_rng(3).normal(size=(4, 3))
        # hand composition of both nets, written out
        h = np.tanh(batch @ enc.layers[0].weight.T + enc.layers[0].bias)
        z = h @ enc.layers[1].weight.T + enc.layers[1].bias
        g = np.tanh(z @ dec.layers[0].weight.T + dec.layers[0].bias)
        y = g @ dec.layers[1].weight.T + dec.layers[1].bias
        want = ((batch - y) ** 2).sum() / 4
        assert abs(reg.recon_loss(enc, dec, batch) - want) < 1e-12

    def test_empty_batch_rejected(self):
        eye = linear_dec(np.eye(2))
        with pytest.raises(ValueError):
            reg.recon_loss(eye, eye, np.zeros((0, 2)))

    def test_single_sample_vector_rejected(self):
        eye = linear_dec(np.eye(2))
        with pytest.raises(ValueError, match=r"\(2,\)"):
            reg.recon_loss(eye, eye, np.ones(2))
        with pytest.raises(ValueError, match=r"\(2,\)"):
            reg.recon_loss_and_grad(np.ones((1, 2)), np.ones(2))


class TestGlobalIsoLoss:
    def test_identity_decoder(self):
        dec = linear_dec(np.eye(2))
        codes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        assert value_of(reg.global_iso_loss_and_grad, dec, codes) == 0.0

    def test_uniform_scaling_pair(self):
        dec = linear_dec(2.0 * np.eye(2))
        codes = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert value_of(reg.global_iso_loss_and_grad, dec, codes) == pytest.approx(1.0, abs=1e-14)

    def test_three_codes_match_pair_enumeration(self):
        dec = net.init([2, 5, 3], ["tanh", "identity"], 4)
        codes = np.random.default_rng(5).normal(size=(3, 2))
        ys = net.forward(dec, codes)
        gaps = []
        for i in range(3):
            for j in range(i + 1, 3):
                dz = np.linalg.norm(codes[i] - codes[j])
                dx = np.linalg.norm(ys[i] - ys[j])
                gaps.append(abs(dz - dx))
        want = float(np.mean(gaps))
        assert abs(value_of(reg.global_iso_loss_and_grad, dec, codes) - want) < 1e-12

    def test_single_code_rejected(self):
        with pytest.raises(ValueError):
            value_of(
                reg.global_iso_loss_and_grad, linear_dec(np.eye(2)), np.array([[1.0, 0.0]])
            )


class TestHutchEstimators:
    def test_diagonal_metric_is_variance_free(self):
        dec = diag_metric_dec([3.0, 1.0])
        for seed in range(10):
            t1, _ = hutch_moments(dec, np.zeros(2), 1, seed)
            assert t1 == pytest.approx(4.0, abs=1e-12)

    def test_diagonal_metric_squared_trace(self):
        dec = diag_metric_dec([3.0, 1.0])
        for seed in range(10):
            _, t2 = hutch_moments(dec, np.zeros(2), 1, seed)
            assert t2 == pytest.approx(10.0, abs=1e-12)

    def test_swiss_roll_tangent_map_traces(self):
        dec = swiss_roll_tangent_dec(xi=1.0)
        t1, t2 = hutch_moments(dec, np.zeros(2), 4, seed=3)
        assert t1 == pytest.approx(3.0, abs=1e-10)
        assert t2 == pytest.approx(5.0, abs=1e-10)

    def test_large_probe_count_approaches_exact_trace(self):
        dec = net.init([2, 10, 6], ["tanh", "identity"], 6)
        z = np.array([0.3, -0.4])
        t1_exact, t2_exact = exact_trace_moments(dec, z)
        t1, t2 = hutch_moments(dec, z, 4096, seed=9)  # frozen draw; statistics covered below
        assert abs(t1 - t1_exact) < 0.02 * t1_exact
        assert abs(t2 - t2_exact) < 0.03 * t2_exact

    def test_unbiased_over_many_probe_sets(self):
        rng = np.random.default_rng(9)
        b = rng.normal(size=(8, 6))
        dec = linear_dec(b)
        z = np.zeros(6)
        exact = float(np.trace(b.T @ b))
        estimates = np.array([hutch_moments(dec, z, 64, seed=s)[0] for s in range(200)])
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - exact) < 3 * se

    def test_variance_decreases_with_probe_count(self):
        rng = np.random.default_rng(10)
        b = rng.normal(size=(7, 5))
        dec = linear_dec(b)
        z = np.zeros(5)
        counts = [1, 4, 16, 64, 256]
        medians = []
        seed = 0
        for n in counts:
            variances = []
            for _ in range(50):
                draws = []
                for _ in range(16):
                    draws.append(hutch_moments(dec, z, n, seed=seed)[0])
                    seed += 1
                variances.append(np.var(draws))
            medians.append(np.median(variances))
        assert all(a > b for a, b in zip(medians, medians[1:]))


class TestNonlinearConformalLoss:
    def test_scaled_orthonormal_columns_give_zero(self):
        w = 1.7 * np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        dec = linear_dec(w)
        codes = np.random.default_rng(11).normal(size=(4, 2))
        assert abs(value_of(reg.nonlinear_conformal_loss_and_grad, dec, codes)) < 1e-10

    def test_one_dim_latent_is_always_conformal(self):
        # R(z) is 1x1, so the spectrum is trivially uniform at every point
        # even though the stretch varies with z.
        dec = net.init([1, 6, 3], ["tanh", "identity"], 12)
        codes = np.linspace(-1, 1, 7)[:, None]
        assert abs(value_of(reg.nonlinear_conformal_loss_and_grad, dec, codes)) < 1e-10

    def test_eigenvalue_2_1_point(self):
        dec = swiss_roll_tangent_dec(xi=1.0)
        value = value_of(reg.nonlinear_conformal_loss_and_grad, dec, np.zeros((1, 2)))
        assert value == pytest.approx(1.0 / 18.0, abs=1e-12)

    def test_invariant_under_final_layer_scaling(self):
        dec = net.init([2, 8, 3], ["relu", "identity"], 13)
        codes = np.random.default_rng(14).normal(size=(5, 2))
        before = value_of(reg.nonlinear_conformal_loss_and_grad, dec, codes)
        scaled = net.Mlp(dec.layers)
        scaled.layers[-1].weight *= 3.0
        scaled.layers[-1].bias *= 3.0
        after = value_of(reg.nonlinear_conformal_loss_and_grad, scaled, codes)
        assert abs(before - after) < 1e-10

    def test_degenerate_decoder_names_the_code(self):
        dec = linear_dec(np.zeros((3, 2)))
        with pytest.raises(reg.DegenerateJacobianError, match="index 0"):
            value_of(reg.nonlinear_conformal_loss_and_grad, dec, np.zeros((2, 2)))

    def test_conformal_equivalence_of_proportional_metrics(self):
        rng = np.random.default_rng(15)
        w1 = rng.normal(size=(4, 2))
        w2 = np.sqrt(2.5) * w1  # pullback metric scaled by 2.5
        codes = rng.normal(size=(3, 2))
        a = value_of(reg.nonlinear_conformal_loss_and_grad, linear_dec(w1), codes)
        b = value_of(reg.nonlinear_conformal_loss_and_grad, linear_dec(w2), codes)
        assert abs(a - b) < 1e-10

    def test_zero_characterization(self):
        # uniform spectrum within 1e-6 -> loss < 1e-10; spread spectrum -> loss above
        uniform = linear_dec(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        spread = diag_metric_dec([2.0, 1.0])
        codes = np.zeros((1, 2))
        assert value_of(reg.nonlinear_conformal_loss_and_grad, uniform, codes) < 1e-10
        assert value_of(reg.nonlinear_conformal_loss_and_grad, spread, codes) > 1e-3


class TestLocalIsoLoss:
    def test_orthonormal_columns_give_zero(self):
        dec = linear_dec(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        codes = np.random.default_rng(16).normal(size=(3, 2))
        assert abs(value_of(reg.local_iso_loss_and_grad, dec, codes)) < 1e-12

    def test_doubled_metric(self):
        # metric 2*I in latent dimension 2: value (1/4)*8 - (1/2)*4 + 1/2 = 1/2
        dec = linear_dec(np.sqrt(2.0) * np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        value = value_of(reg.local_iso_loss_and_grad, dec, np.zeros((1, 2)))
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_swiss_roll_point(self):
        dec = swiss_roll_tangent_dec(xi=1.0)
        value = value_of(reg.local_iso_loss_and_grad, dec, np.zeros((1, 2)))
        assert value == pytest.approx(0.25, abs=1e-12)


class TestConstantConformalLoss:
    def test_identity_metric_everywhere(self):
        dec = linear_dec(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        codes = np.random.default_rng(17).normal(size=(4, 2))
        assert abs(value_of(reg.constant_conformal_loss_and_grad, dec, codes)) < 1e-12

    def test_discriminates_varying_stretch_from_pointwise_conformality(self):
        # Two points with metrics I and 4I: pointwise-conformal (loss 0) but
        # the batch-level constant-factor loss is 17/25 - 1/2 = 0.18.
        dec2 = _two_zone_dec()
        codes = np.array([[1.0, 1.0], [-1.0, -1.0]])
        const = value_of(reg.constant_conformal_loss_and_grad, dec2, codes)
        conf = value_of(reg.nonlinear_conformal_loss_and_grad, dec2, codes)
        assert const == pytest.approx(0.18, abs=1e-12)
        assert abs(conf) < 1e-12

    def test_scaling_invariance(self):
        dec = net.init([2, 6, 4], ["relu", "identity"], 18)
        codes = np.random.default_rng(19).normal(size=(4, 2))
        before = value_of(reg.constant_conformal_loss_and_grad, dec, codes)
        scaled = net.Mlp(dec.layers)
        scaled.layers[-1].weight *= 5.0
        scaled.layers[-1].bias *= 5.0
        after = value_of(reg.constant_conformal_loss_and_grad, scaled, codes)
        assert abs(before - after) < 1e-10


def _two_zone_dec():
    """ReLU decoder whose pullback metric is I for positive codes, 4I for negative.

    The first layer splits coordinates into positive and negative parts; the
    second recombines them with gains 1 and 2 into orthogonal output blocks.
    """
    split = np.array(
        [
            [1.0, 0.0],
            [0.0, 1.0],
            [-1.0, 0.0],
            [0.0, -1.0],
        ]
    )
    recombine = np.zeros((4, 4))
    recombine[0, 0] = 1.0
    recombine[1, 1] = 1.0
    recombine[2, 2] = -2.0
    recombine[3, 3] = -2.0
    return net.Mlp(
        [
            net.Layer(split, np.zeros(4), "relu"),
            net.Layer(recombine, np.zeros(4), "identity"),
        ]
    )


class TestProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegativity_of_exact_losses(self, seed):
        dec = net.init([2, 6, 4], ["tanh", "identity"], seed)
        codes = np.random.default_rng(seed).normal(size=(3, 2))
        assert value_of(reg.nonlinear_conformal_loss_and_grad, dec, codes) >= -1e-9
        assert value_of(reg.local_iso_loss_and_grad, dec, codes) >= -1e-9
        assert value_of(reg.constant_conformal_loss_and_grad, dec, codes) >= -1e-9

    def test_exact_path_matches_jacobian_reference(self):
        dec = net.init([2, 7, 5], ["tanh", "identity"], 20)
        codes = np.random.default_rng(21).normal(size=(4, 2))
        m = dec.in_dim
        t1 = np.array([exact_trace_moments(dec, c)[0] for c in codes])
        t2 = np.array([exact_trace_moments(dec, c)[1] for c in codes])
        want = float(np.mean(0.5 * m * t2 / t1**2) - 0.5)
        got = value_of(reg.nonlinear_conformal_loss_and_grad, dec, codes)
        assert abs(got - want) < 1e-10

    def test_mc_path_matches_per_probe_jacobian_reference(self):
        # the Gram-matrix moments are the per-probe estimators
        # mean_i v_i^T J^T J v_i and mean_i ||J^T J v_i||^2
        dec = net.init([3, 7, 5], ["tanh", "identity"], 20)
        codes = np.random.default_rng(21).normal(size=(4, 3))
        block = reg.rademacher_block(np.random.default_rng(22), 4, 5, 3)
        t1, t2 = np.zeros(4), np.zeros(4)
        for i, (c, probes) in enumerate(zip(codes, block)):
            j = net.jacobian(dec, c)
            jv = probes @ j.T
            t1[i] = np.mean(np.sum(jv**2, axis=1))
            t2[i] = np.mean(np.sum((jv @ j) ** 2, axis=1))
        got1, got2, _ = reg.trace_moments(basis_rows(dec, codes)[1], block)
        np.testing.assert_allclose(got1, t1, rtol=1e-12)
        np.testing.assert_allclose(got2, t2, rtol=1e-12)
        m = dec.in_dim
        want = float(np.mean(0.5 * m * t2 / t1**2) - 0.5)
        got = value_of(reg.nonlinear_conformal_loss_and_grad, dec, codes, block)
        assert abs(got - want) < 1e-10


def identity_probe_moments(rows, probes=None):
    """The exact moments through ``P = I``, built as the probe path builds ``P``."""
    b, m = rows.shape[:2]
    block = np.broadcast_to(np.eye(m), (b, m, m))
    p = np.einsum("bni,bnj,n->bij", block, block, np.ones(m))
    g = net.gram(rows)
    gp = g @ p
    return np.einsum("bii->b", gp), np.einsum("bij,bji->b", g, gp), (rows, p, gp)


def identity_probe_backward(tape, d_t1, d_t2):
    rows, p, gp = tape
    s = d_t1[:, None, None] * p + d_t2[:, None, None] * (gp + gp.transpose(0, 2, 1))
    return 2.0 * s @ rows


@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=70),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_probe_matrix_equals_the_weighted_einsum(count, m, b, seed):
    # each product in P is exactly +-1/N; the batched product sums them in
    # the einsum's order, so every moment and the tape carry the same bits
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(b, m, 3))
    block = reg.rademacher_block(rng, b, count, m)
    got = reg.trace_moments(rows, block)
    want = einsum_trace_moments(rows, block)
    assert all(np.array_equal(g, w) for g, w in zip(got[:2] + got[2][1:], want[:2] + want[2][1:]))


def test_global_iso_scatter_equals_add_at():
    # duplicated codes and outputs give zero distances, whose pairs carry no adjoint
    rng = np.random.default_rng(50)
    for _ in range(200):
        b = int(rng.integers(2, 130))
        z, y = rng.normal(size=(b, 2)), rng.normal(size=(b, 3))
        dup = rng.integers(0, b, size=b // 8)
        z[dup[: len(dup) // 2]] = z[0]
        y[dup[len(dup) // 2 :]] = y[-1]
        value, g_y, g_z = reg.global_iso_loss_and_grad(z, y)
        want_value, want_y, want_z = global_iso_add_at(z, y)
        assert value == want_value
        assert np.array_equal(g_y, want_y) and np.array_equal(g_z, want_z)


class TestExactPathBits:
    """The exact path forms no ``P``; its bits equal those of the ``P = I`` formulas."""

    @staticmethod
    def reference(monkeypatch, loss, rows):
        with monkeypatch.context() as patch:
            patch.setattr(reg, "trace_moments", identity_probe_moments)
            patch.setattr(reg, "_moments_backward", identity_probe_backward)
            return loss(rows)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("loss", MOMENT_LOSSES)
    def test_value_and_row_adjoint_equal_the_identity_probe_formula(self, monkeypatch, loss, m):
        rng = np.random.default_rng(40 + m)
        rows = rng.normal(size=(64, m, 3)) * rng.uniform(0.1, 3.0, size=(64, 1, 1))
        value, g_rows = loss(rows)
        want_value, want_rows = self.reference(monkeypatch, loss, rows)
        assert value == want_value
        assert np.array_equal(g_rows, want_rows)

    @pytest.mark.parametrize(
        "loss,zero_codes,index",
        [
            (reg.nonlinear_conformal_loss_and_grad, [3, 6], 3),
            # only a vanishing batch mean is degenerate; argmin names the first code
            (reg.constant_conformal_loss_and_grad, slice(None), 0),
        ],
        ids=["conf", "constconf"],
    )
    def test_degenerate_trace_is_reported_at_the_same_index(
        self, monkeypatch, loss, zero_codes, index
    ):
        rows = np.random.default_rng(43).normal(size=(8, 2, 3))
        rows[zero_codes] = 0.0
        with pytest.raises(reg.DegenerateJacobianError) as want:
            self.reference(monkeypatch, loss, rows)
        with pytest.raises(reg.DegenerateJacobianError) as got:
            loss(rows)
        assert got.value.index == want.value.index == index
        assert got.value.value == want.value.value


def fd_code_grad(scalar_of_codes, codes, step=1e-6):
    """Central-difference gradient of a scalar w.r.t. every code entry."""
    fd = np.zeros_like(codes)
    for i in range(codes.shape[0]):
        for j in range(codes.shape[1]):
            hi = codes.copy()
            hi[i, j] += step
            lo = codes.copy()
            lo[i, j] -= step
            fd[i, j] = (scalar_of_codes(hi) - scalar_of_codes(lo)) / (2 * step)
    return fd


class TestGradientFidelity:
    @pytest.mark.parametrize(
        "loss",
        [
            reg.nonlinear_conformal_loss_and_grad,
            reg.local_iso_loss_and_grad,
            reg.constant_conformal_loss_and_grad,
        ],
    )
    def test_mc_path_parameter_gradients_match_fd(self, loss):
        dec = net.init([2, 5, 3], ["tanh", "identity"], 22)
        codes = np.random.default_rng(23).normal(size=(3, 2))
        frozen = reg.rademacher_block(np.random.default_rng(24), 3, 4, 2)
        value, grads, _ = loss_and_grads(loss, dec, codes, frozen)
        assert value == pytest.approx(value_of(loss, dec, codes, frozen), abs=1e-14)
        fd_w, fd_b = fd_param_grad(lambda n: value_of(loss, n, codes, frozen), dec)
        for gw, fw in zip(grads.weights, fd_w):
            assert rel_err(gw, fw) < 1e-3
        for gb, fb in zip(grads.biases, fd_b):
            assert rel_err(gb, fb) < 1e-3

    def test_code_gradients_match_fd(self):
        dec = net.init([2, 5, 3], ["tanh", "identity"], 25)
        codes = np.random.default_rng(26).normal(size=(2, 2))
        frozen = reg.rademacher_block(np.random.default_rng(27), 2, 4, 2)
        _, _, g_codes = loss_and_grads(reg.nonlinear_conformal_loss_and_grad, dec, codes, frozen)
        fd = fd_code_grad(
            lambda c: value_of(reg.nonlinear_conformal_loss_and_grad, dec, c, frozen), codes
        )
        assert rel_err(g_codes, fd) < 1e-5

    def test_global_iso_gradients_match_fd(self):
        dec = net.init([2, 5, 3], ["tanh", "identity"], 28)
        codes = np.random.default_rng(29).normal(size=(4, 2))
        value, grads, g_codes = loss_and_grads(reg.global_iso_loss_and_grad, dec, codes)
        assert value == pytest.approx(value_of(reg.global_iso_loss_and_grad, dec, codes), abs=1e-14)
        fd_w, fd_b = fd_param_grad(lambda n: value_of(reg.global_iso_loss_and_grad, n, codes), dec)
        for gw, fw in zip(grads.weights, fd_w):
            assert rel_err(gw, fw) < 1e-3
        fd = fd_code_grad(lambda c: value_of(reg.global_iso_loss_and_grad, dec, c), codes)
        assert rel_err(g_codes, fd) < 1e-5

    def test_recon_gradients_match_fd(self):
        enc = net.init([3, 4, 2], ["tanh", "identity"], 30)
        dec = net.init([2, 4, 3], ["tanh", "identity"], 31)
        batch = np.random.default_rng(32).normal(size=(3, 3))
        codes, enc_tape = net.forward_tape(enc, batch)
        value, dec_grads, g_codes = loss_and_grads(reg.recon_loss_and_grad, dec, codes, batch)
        enc_grads, _ = net.backward(enc, enc_tape, out_grad=g_codes)
        assert value == pytest.approx(reg.recon_loss(enc, dec, batch), abs=1e-14)
        assert value_of(reg.recon_loss_and_grad, dec, codes, batch) == value
        fd_w, _ = fd_param_grad(lambda n: reg.recon_loss(n, dec, batch), enc)
        for gw, fw in zip(enc_grads.weights, fd_w):
            assert rel_err(gw, fw) < 1e-3
        fd_w, _ = fd_param_grad(lambda n: reg.recon_loss(enc, n, batch), dec)
        for gw, fw in zip(dec_grads.weights, fd_w):
            assert rel_err(gw, fw) < 1e-3

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "mc"])
    @pytest.mark.parametrize("loss", MOMENT_LOSSES)
    def test_moment_loss_row_adjoint_matches_fd(self, loss, exact):
        dec = net.init([2, 5, 3], ["tanh", "identity"], 33)
        codes = np.random.default_rng(34).normal(size=(3, 2))
        probes = None if exact else reg.rademacher_block(np.random.default_rng(35), 3, 4, 2)
        rows = basis_rows(dec, codes)[1]
        _, g_rows = loss(rows, probes)
        fd = fd_code_grad(
            lambda r: loss(r.reshape(rows.shape), probes, want_grad=False)[0], rows.reshape(3, -1)
        )
        assert rel_err(g_rows.reshape(3, -1), fd) < 1e-5

    def test_recon_and_global_iso_output_adjoints_match_fd(self):
        rng = np.random.default_rng(36)
        z, y, x = rng.normal(size=(4, 2)), rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        _, g_y = reg.recon_loss_and_grad(y, x)
        fd = fd_code_grad(lambda v: reg.recon_loss_and_grad(v, x, want_grad=False)[0], y)
        assert rel_err(g_y, fd) < 1e-5
        _, g_y, g_z = reg.global_iso_loss_and_grad(z, y)
        fd = fd_code_grad(lambda v: reg.global_iso_loss_and_grad(z, v, want_grad=False)[0], y)
        assert rel_err(g_y, fd) < 1e-5
        fd = fd_code_grad(lambda v: reg.global_iso_loss_and_grad(v, y, want_grad=False)[0], z)
        assert rel_err(g_z, fd) < 1e-5
