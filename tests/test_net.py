import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confae import cli, net


def rel_err(a, b):
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return np.linalg.norm(a - b) / denom


def seeded_net(dims, activations, seed):
    return net.init(list(dims), list(activations), seed)


def vjp(network, z, u):
    """``J^T u`` at ``z``: the input gradient of one reverse sweep seeded with ``u``."""
    _, trace = net.forward_tape(network, z)
    _, g_in, _ = net.backward(network, trace, out_grad=u)
    return g_in[0]


def fd_input_jacobian(f, x, step=1e-6):
    """Central-difference Jacobian of a vector map, column by column."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        cols.append((f(x + e) - f(x - e)) / (2 * step))
    return np.stack(cols, axis=1)


def fd_param_grad(scalar_of_net, network, step=1e-5):
    """Central-difference gradient of a scalar w.r.t. every network parameter."""
    gws, gbs = [], []
    for k, layer in enumerate(network.layers):
        gw = np.zeros_like(layer.weight)
        it = np.nditer(gw, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = layer.weight[idx]
            layer.weight[idx] = orig + step
            hi = scalar_of_net(network)
            layer.weight[idx] = orig - step
            lo = scalar_of_net(network)
            layer.weight[idx] = orig
            gw[idx] = (hi - lo) / (2 * step)
            it.iternext()
        gb = np.zeros_like(layer.bias)
        for i in range(layer.bias.size):
            orig = layer.bias[i]
            layer.bias[i] = orig + step
            hi = scalar_of_net(network)
            layer.bias[i] = orig - step
            lo = scalar_of_net(network)
            layer.bias[i] = orig
            gb[i] = (hi - lo) / (2 * step)
        gws.append(gw)
        gbs.append(gb)
    return gws, gbs


class TestForward:
    def test_identity_layer(self):
        n = net.Mlp([net.Layer(np.eye(2), np.zeros(2), "identity")])
        assert np.array_equal(net.forward(n, np.array([1.0, 2.0])), [1.0, 2.0])

    def test_relu_clipping(self):
        n = net.Mlp([net.Layer(np.eye(2), np.zeros(2), "relu")])
        assert np.array_equal(net.forward(n, np.array([-1.0, 3.0])), [0.0, 3.0])

    def test_fixed_tanh_net_matches_hand_composition(self):
        w1 = np.array([[0.2, -0.4], [0.7, 0.1], [-0.3, 0.5]])
        b1 = np.array([0.1, -0.2, 0.05])
        w2 = np.array([[0.6, -0.1, 0.3], [0.2, 0.4, -0.5]])
        b2 = np.array([-0.3, 0.2])
        n = net.Mlp([net.Layer(w1, b1, "tanh"), net.Layer(w2, b2, "tanh")])
        x = np.array([0.5, -0.5])
        # hand composition, spelled out
        h = np.tanh(w1 @ x + b1)
        want = np.tanh(w2 @ h + b2)
        assert rel_err(net.forward(n, x), want) < 1e-12

    def test_batched_matches_per_sample(self):
        n = seeded_net((3, 5, 2), ("relu", "identity"), 0)
        xs = np.random.default_rng(1).normal(size=(4, 3))
        batched = net.forward(n, xs)
        for i in range(4):
            assert rel_err(batched[i], net.forward(n, xs[i])) < 1e-15

    def test_dimension_mismatch(self):
        n = seeded_net((3, 2), ("identity",), 0)
        with pytest.raises(ValueError):
            net.forward(n, np.zeros(4))

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=30, deadline=None)
    def test_relu_positive_homogeneity_without_bias(self, seed, alpha):
        n = seeded_net((3, 6, 2), ("relu", "relu"), seed)
        for layer in n.layers:
            layer.bias[:] = 0.0
        z = np.random.default_rng(seed).normal(size=3)
        lhs = net.forward(n, alpha * z)
        rhs = alpha * net.forward(n, z)
        assert rel_err(lhs, rhs) < 1e-12


class TestJvp:
    def test_linear_net_is_exact(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 2))
        n = net.Mlp([net.Layer(w, np.zeros(3), "identity")])
        z, v = rng.normal(size=2), rng.normal(size=2)
        res = net.jvp(n, z, v)
        assert np.allclose(res.jv, w @ v, atol=0)

    def test_zero_tangent(self):
        n = seeded_net((3, 4, 2), ("tanh", "identity"), 3)
        res = net.jvp(n, np.ones(3), np.zeros(3))
        assert np.array_equal(res.jv, np.zeros(2))

    @pytest.mark.parametrize("acts", [("relu", "relu", "identity"), ("tanh", "tanh", "tanh"), ("leaky_relu", "tanh", "identity")])
    def test_matches_finite_differences(self, acts):
        n = seeded_net((3, 8, 8, 2), acts, 7)
        rng = np.random.default_rng(8)
        z = rng.normal(size=3) + 0.05  # keep away from ReLU kinks
        v = rng.normal(size=3)
        res = net.jvp(n, z, v)
        want = fd_input_jacobian(lambda x: net.forward(n, x), z) @ v
        assert rel_err(res.jv, want) < 1e-5

    def test_primal_equals_forward(self):
        n = seeded_net((2, 5, 2), ("relu", "identity"), 11)
        z = np.array([0.3, -0.7])
        res = net.jvp(n, z, np.array([1.0, 0.0]))
        assert rel_err(res.y, net.forward(n, z)) == 0


class TestVjp:
    def test_linear_net_is_exact(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(3, 2))
        n = net.Mlp([net.Layer(w, np.zeros(3), "identity")])
        u = rng.normal(size=3)
        jtu = vjp(n, rng.normal(size=2), u)
        assert np.allclose(jtu, w.T @ u, atol=0)

    def test_zero_cotangent(self):
        n = seeded_net((2, 4, 3), ("tanh", "identity"), 5)
        jtu = vjp(n, np.ones(2), np.zeros(3))
        assert np.array_equal(jtu, np.zeros(2))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_adjoint_identity(self, seed):
        n = seeded_net((3, 6, 4, 2), ("relu", "tanh", "identity"), seed)
        rng = np.random.default_rng(seed)
        z = rng.normal(size=3)
        v = rng.normal(size=3)
        u = rng.normal(size=2)
        jv = net.jvp(n, z, v).jv
        jtu = vjp(n, z, u)
        assert abs(u @ jv - jtu @ v) <= 1e-10 * max(abs(u @ jv), 1.0)


class TestJacobian:
    def test_linear_net(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(4, 3))
        n = net.Mlp([net.Layer(w, np.zeros(4), "identity")])
        assert np.allclose(net.jacobian(n, rng.normal(size=3)), w, atol=0)

    def test_swiss_roll_tangent_map_gram(self):
        # Linear layer whose weight equals the analytic tangent map of the
        # roll parametrization at (xi, eta); its Gram is diag(1 + xi^2, 1).
        xi = 1.0
        w = np.array(
            [
                [np.cos(xi) - xi * np.sin(xi), 0.0],
                [0.0, 1.0],
                [np.sin(xi) + xi * np.cos(xi), 0.0],
            ]
        )
        n = net.Mlp([net.Layer(w, np.zeros(3), "identity")])
        j = net.jacobian(n, np.zeros(2))
        assert np.max(np.abs(j.T @ j - np.diag([2.0, 1.0]))) < 1e-10

    def test_columns_match_finite_differences(self):
        n = seeded_net((3, 10, 5), ("tanh", "identity"), 9)
        z = np.random.default_rng(10).normal(size=3)
        j = net.jacobian(n, z)
        want = fd_input_jacobian(lambda x: net.forward(n, x), z)
        assert rel_err(j, want) < 1e-5

    def test_consistency_with_jvp(self):
        n = seeded_net((4, 7, 3), ("relu", "identity"), 12)
        rng = np.random.default_rng(13)
        z, v = rng.normal(size=4) + 0.05, rng.normal(size=4)
        j = net.jacobian(n, z)
        jv = net.jvp(n, z, v).jv
        assert rel_err(j @ v, jv) < 1e-10


BLOCK_ACTS = ("relu", "leaky_relu", "tanh", "identity")


def block_and_repeated_jvps(act, b=5, n=4, seed=21):
    """The same tangents as one (B, N, m) block and as repeated (B * N, m) rows."""
    network = seeded_net((2, 9, 7, 3), (act, act, "identity"), seed)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(b, 2))
    block = rng.normal(size=(b, n, 2))
    blk = net.jvp(network, z, block)
    rep = net.jvp(network, np.repeat(z, n, axis=0), block.reshape(-1, 2))
    return network, blk, rep


class TestBlockTangents:
    @pytest.mark.parametrize("act", BLOCK_ACTS)
    def test_outputs_match_repeated_rows(self, act):
        _, blk, rep = block_and_repeated_jvps(act, n=4)
        assert blk.y.shape == (5, 3)
        assert np.array_equal(np.repeat(blk.y, 4, axis=0), rep.y)
        assert np.array_equal(blk.jv, rep.jv)
        assert blk.pullback is None
        # the primal runs once per code
        assert blk.trace.batch == 5 and blk.trace.fanout == 4
        assert all(a.shape[0] == 5 for a in blk.trace.pre + blk.trace.dact)

    @pytest.mark.parametrize("adjoints", ["tan", "out+tan"])
    @pytest.mark.parametrize("act", BLOCK_ACTS)
    def test_backward_matches_repeated_rows(self, act, adjoints):
        b, n = 5, 4
        network, blk, rep = block_and_repeated_jvps(act, b=b, n=n)
        rng = np.random.default_rng(22)
        tan_grad = rng.normal(size=(b * n, 3))
        out_grad = rep_out_grad = None
        if "out" in adjoints:
            # the scalar sees each code's output once: seed its first probe row
            out_grad = rng.normal(size=(b, 3))
            rep_out_grad = np.zeros((b * n, 3))
            rep_out_grad[::n] = out_grad
        g_blk, x_blk, s_blk = net.backward(network, blk.trace, out_grad=out_grad, tan_grad=tan_grad)
        g_rep, x_rep, s_rep = net.backward(network, rep.trace, out_grad=rep_out_grad, tan_grad=tan_grad)
        assert x_blk.shape == (b, 2)
        x_rep = x_rep.reshape(b, n, 2).sum(axis=1)
        pairs = list(zip(g_blk.weights + g_blk.biases, g_rep.weights + g_rep.biases))
        pairs += [(x_blk, x_rep), (s_blk, s_rep)]
        for got, want in pairs:
            if act == "tanh":
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
            else:
                assert np.array_equal(got, want)

    def test_piecewise_linear_primal_adjoint_is_skipped(self):
        # nothing reaches the primal chain: the input gradient is exact zeros
        network, blk, _ = block_and_repeated_jvps("relu")
        _, g_in, _ = net.backward(network, blk.trace, tan_grad=np.ones((20, 3)))
        assert np.array_equal(g_in, np.zeros((5, 2)))

    @pytest.mark.parametrize("act", BLOCK_ACTS)
    def test_jacobians_match_finite_differences(self, act):
        network = seeded_net((3, 10, 6, 4), (act, act, "identity"), 23)
        z = np.random.default_rng(24).normal(size=(6, 3)) + 0.05
        stack = net.jacobians(network, z)
        assert stack.shape == (6, 4, 3)
        for zp, jp in zip(z, stack):
            want = fd_input_jacobian(lambda x: net.forward(network, x), zp)
            assert rel_err(jp, want) < 1e-5

    @pytest.mark.parametrize("shape", [(4, 3, 2), (5, 0, 2), (5, 3, 3)])
    def test_block_shape_must_match_codes(self, shape):
        network = seeded_net((2, 4, 3), ("relu", "identity"), 25)
        with pytest.raises(ValueError, match="tangent block"):
            net.jvp(network, np.zeros((5, 2)), np.ones(shape))


class TestGradScalar:
    def test_linear_least_squares_closed_form(self):
        rng = np.random.default_rng(14)
        w = rng.normal(size=(3, 3))
        n = net.Mlp([net.Layer(w, np.zeros(3), "identity")])
        z = rng.normal(size=3)
        x = rng.normal(size=3)
        y, trace = net.forward_tape(n, z)
        resid = y[0] - x  # adjoint of 0.5 * ||y - x||^2
        grads, _, _ = net.backward(n, trace, out_grad=resid[None, :])
        want = np.outer(w @ z - x, z)
        assert rel_err(grads.weights[0], want) < 1e-12

    def test_constant_scalar_has_zero_gradient(self):
        n = seeded_net((2, 4, 2), ("tanh", "identity"), 15)
        _, trace = net.forward_tape(n, np.ones(2))
        grads, _, _ = net.backward(n, trace, out_grad=np.zeros((1, 2)))
        assert all(not gw.any() for gw in grads.weights)
        assert all(not gb.any() for gb in grads.biases)

    def test_missing_tape_is_a_usage_error(self):
        n = seeded_net((2, 2), ("identity",), 0)
        _, trace = net.forward_tape(n, np.ones(2))
        with pytest.raises(ValueError, match="tangent"):
            net.backward(n, trace, tan_grad=np.ones((1, 2)))

    @pytest.mark.parametrize(
        "acts,seed",
        [
            (("tanh", "tanh", "identity"), 16),
            (("relu", "relu", "identity"), 17),
            (("leaky_relu", "tanh", "identity"), 18),
        ],
    )
    def test_grad_of_squared_tangent_norm_matches_fd(self, acts, seed):
        n = seeded_net((3, 6, 5, 2), acts, seed)
        rng = np.random.default_rng(seed)
        z = rng.normal(size=3) + 0.1
        v = rng.choice([-1.0, 1.0], size=3)

        def scalar(network):
            return float(np.sum(net.jvp(network, z, v).jv ** 2))

        res = net.jvp(n, z, v)
        grads, _, _ = net.backward(n, res.trace, tan_grad=2.0 * res.jv[None, :])
        fd_w, fd_b = fd_param_grad(scalar, n)
        for gw, fw in zip(grads.weights, fd_w):
            assert rel_err(gw, fw) < 1e-4
        for gb, fb in zip(grads.biases, fd_b):
            assert rel_err(gb, fb) < 1e-4 or (not gb.any() and np.max(np.abs(fb)) < 1e-7)

    def test_grad_of_reconstruction_through_input_chains(self):
        # Gradient w.r.t. the input must let losses flow through an upstream
        # network: check against finite differences on the input.
        n = seeded_net((2, 6, 3), ("tanh", "identity"), 21)
        rng = np.random.default_rng(22)
        z = rng.normal(size=2)
        x = rng.normal(size=3)

        def scalar_of_input(zz):
            d = net.forward(n, zz) - x
            return float(d @ d)

        y, trace = net.forward_tape(n, z)
        _, g_in, _ = net.backward(n, trace, out_grad=2.0 * (y - x[None, :]))
        step = 1e-6
        fd = np.array(
            [
                (scalar_of_input(z + step * e) - scalar_of_input(z - step * e)) / (2 * step)
                for e in np.eye(2)
            ]
        )
        assert rel_err(g_in[0], fd) < 1e-6


class TestInit:
    def test_same_seed_is_bit_identical(self):
        a = net.init([3, 50, 2], ["relu", "identity"], 123)
        b = net.init([3, 50, 2], ["relu", "identity"], 123)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_default_architecture_shapes(self):
        n = net.init([3, 50, 50, 50, 2], ["relu"] * 3 + ["identity"], 0)
        shapes = [l.weight.shape for l in n.layers]
        assert shapes == [(50, 3), (50, 50), (50, 50), (2, 50)]

    def test_he_variance_for_relu_layer(self):
        n = net.init([50, 50], ["relu"], 42)
        var = np.var(n.layers[0].weight)
        assert abs(var - 2.0 / 50) < 0.2 * (2.0 / 50)

    def test_biases_start_at_zero(self):
        n = net.init([3, 8, 2], ["tanh", "identity"], 1)
        assert all(not l.bias.any() for l in n.layers)

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError):
            net.init([3], [], 0)


def trained_checkpoint(tmp_path):
    """Generate a small roll, train two epochs and return (data, run dir, checkpoint)."""
    data = tmp_path / "roll.csv"
    assert cli.main(["generate", "--n", "120", "--seed", "5", "--out", str(data)]) == 0
    out = tmp_path / "run"
    argv = ["train", "--data", str(data), "--out", str(out), "--seed", "3", "--epochs", "2"]
    argv += ["--batch-size", "16", "--set", "dims=[3,8,2]"]
    assert cli.main(argv) == 0
    return data, out, out / cli.CHECKPOINT_NAME


class TestCheckpointFormat:
    """The CLI's encoder+decoder checkpoint, the one file format networks are saved in."""

    def test_round_trip(self, tmp_path):
        enc = net.init([3, 5, 2], ["relu", "identity"], 33)
        dec = net.init([2, 5, 3], ["leaky_relu", "identity"], 34)
        path = tmp_path / "ckpt.json"
        cli._write_checkpoint(path, 7, enc, dec)
        epoch, enc2, dec2 = cli._load_checkpoint(path)
        assert epoch == 7
        for a, b in ((enc, enc2), (dec, dec2)):
            for la, lb in zip(a.layers, b.layers):
                assert np.array_equal(la.weight, lb.weight)
                assert np.array_equal(la.bias, lb.bias)
                assert la.activation == lb.activation

    def test_file_carries_format_version_and_tags(self, tmp_path):
        _, _, ckpt = trained_checkpoint(tmp_path)
        obj = json.loads(ckpt.read_text())
        assert obj["format_version"] == 1
        assert obj["encoder"]["dims"] == [3, 8, 2]
        assert obj["decoder"]["dims"] == [2, 8, 3]
        assert obj["decoder"]["activations"] == ["relu", "identity"]

    def test_bad_version_rejected(self, tmp_path):
        data, out, ckpt = trained_checkpoint(tmp_path)
        obj = json.loads(ckpt.read_text())
        obj["format_version"] = 99
        ckpt.write_text(json.dumps(obj))
        argv = ["diagnose", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]
        assert cli.main(argv) == 1
        assert not (out / cli.DIAGNOSTICS_NAME).exists()
