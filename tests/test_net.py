import base64
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confae import cli, geometry, net, training


def rel_err(a, b):
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return np.linalg.norm(a - b) / denom


def _act(name, a):
    """The reference activation, out of place."""
    if name == "relu":
        return np.maximum(a, 0.0)
    if name == "leaky_relu":
        return np.where(a > 0.0, a, net.LEAKY_SLOPE * a)
    if name == "tanh":
        return np.tanh(a)
    return a  # identity


def _separate_act_dact(name, a):
    """The activation and its derivative from separate formulas, tanh evaluated twice."""
    if name == "relu":
        d = (a > 0.0).astype(np.float64)
    elif name == "leaky_relu":
        d = np.where(a > 0.0, 1.0, net.LEAKY_SLOPE)
    elif name == "tanh":
        t = np.tanh(a)
        d = 1.0 - t * t
    else:
        d = None  # identity: no all-ones derivative is formed
    return _act(name, a), d


def seeded_net(dims, activations, seed):
    return net.init(list(dims), list(activations), seed)


def vjp(network, z, u):
    """``J^T u`` at the point ``z``: the input gradient of one reverse sweep seeded with ``u``."""
    _, trace = net.forward_tape(network, z[None, :])
    _, g_in = net.backward(network, trace, out_grad=u[None, :])
    return g_in[0]


def point_jvp(network, z):
    """The basis JVP at the point ``z`` and its (out_dim, m) Jacobian ``J``."""
    res = net.jvp(network, z[None, :])
    return res, res.jv[0].T


def jvp_rows(network, codes):
    """The (B, m, out) tangent rows of the basis JVP at ``codes`` (one code
    may be given as a vector): row k of block p is ``J_p e_k``."""
    codes = np.atleast_2d(codes)
    return net.jvp(network, codes).jv


def forward_point(network, x):
    """The network's output at the single point ``x``."""
    return net.forward(network, x[None, :])[0]


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
        assert np.array_equal(net.forward(n, np.array([[1.0, 2.0]])), [[1.0, 2.0]])

    def test_relu_clipping(self):
        n = net.Mlp([net.Layer(np.eye(2), np.zeros(2), "relu")])
        assert np.array_equal(net.forward(n, np.array([[-1.0, 3.0]])), [[0.0, 3.0]])

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
        assert rel_err(forward_point(n, x), want) < 1e-12

    def test_batched_matches_per_sample(self):
        n = seeded_net((3, 5, 2), ("relu", "identity"), 0)
        xs = np.random.default_rng(1).normal(size=(4, 3))
        batched = net.forward(n, xs)
        for i in range(4):
            assert rel_err(batched[i], net.forward(n, xs[i : i + 1])[0]) < 1e-15

    def test_dimension_mismatch(self):
        n = seeded_net((3, 2), ("identity",), 0)
        with pytest.raises(ValueError):
            net.forward(n, np.zeros((1, 4)))

    @pytest.mark.parametrize("entry", ["forward", "forward_tape", "jvp"])
    def test_single_vector_is_refused(self, entry):
        n = seeded_net((3, 4, 2), ("tanh", "identity"), 0)
        with pytest.raises(ValueError, match=r"\(batch, 3\).*\(3,\)"):
            getattr(net, entry)(n, np.zeros(3))

    def test_single_vector_adjoints_are_refused(self):
        n = seeded_net((3, 4, 2), ("tanh", "identity"), 0)
        res = net.jvp(n, np.zeros((1, 3)))
        with pytest.raises(ValueError, match=r"output adjoint.*\(2,\)"):
            net.backward(n, res.trace, out_grad=np.ones(2))
        with pytest.raises(ValueError, match=r"tangent adjoint.*\(2,\)"):
            net.backward(n, res.trace, tan_grad=np.ones(2))

    @pytest.mark.parametrize("act", net.ACTIVATIONS)
    def test_bits_match_the_out_of_place_layers(self, act):
        n = seeded_net((3, 9, 7, 2), (act, act, "identity"), 35)
        n.params[:] = np.random.default_rng(36).normal(size=n.params.size)  # nonzero biases
        x = np.random.default_rng(37).normal(size=(11, 3))
        want = x
        for layer in n.layers:
            want = _act(layer.activation, want @ layer.weight.T + layer.bias)
        assert np.array_equal(net.forward(n, x), want)

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
        lhs = forward_point(n, alpha * z)
        rhs = alpha * forward_point(n, z)
        assert rel_err(lhs, rhs) < 1e-12


class TestJvp:
    def test_linear_net_is_exact(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 2))
        n = net.Mlp([net.Layer(w, np.zeros(3), "identity")])
        res = net.jvp(n, rng.normal(size=(4, 2)))
        assert np.allclose(res.jv, w.T, atol=0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_tangents_are_the_latent_basis(self, m):
        basis = net._basis(5, m)
        assert np.array_equal(basis.reshape(5, m, m), np.broadcast_to(np.eye(m), (5, m, m)))
        # a broadcast view: at m = 1 its rows share one stride-0 element
        assert basis.strides[0] == (0 if m == 1 else 8 * m)
        assert not basis.flags.writeable

    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffers"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_jv_is_the_tangent_stack(self, m, buffered):
        # jv is the (B, m, out) stack, a view of the tape's last tangent array
        n = seeded_net((m, 4, 2), ("tanh", "identity"), 3)
        z = np.random.default_rng(m).normal(size=(5, m))
        buffers = {} if buffered else None
        res = net.jvp(n, z, buffers)
        assert res.jv.shape == (5, m, 2)
        assert np.shares_memory(res.jv, res.trace.tan_out[-1])
        if buffered:
            assert any(np.shares_memory(res.jv, buf) for buf in buffers.values())
        assert np.array_equal(res.jv, res.trace.tan_out[-1].reshape(5, m, 2))

    def test_flat_tangent_adjoint_is_refused(self):
        n = seeded_net((2, 4, 3), ("tanh", "identity"), 3)
        res = net.jvp(n, np.ones((5, 2)))
        with pytest.raises(ValueError, match=r"tangent adjoint must have shape \(5, 2, 3\)"):
            net.backward(n, res.trace, tan_grad=np.ones((10, 3)))

    @pytest.mark.parametrize("acts", [("relu", "relu", "identity"), ("tanh", "tanh", "tanh"), ("leaky_relu", "tanh", "identity")])
    def test_matches_finite_differences(self, acts):
        n = seeded_net((3, 8, 8, 2), acts, 7)
        rng = np.random.default_rng(8)
        z = rng.normal(size=3) + 0.05  # keep away from ReLU kinks
        _, j = point_jvp(n, z)
        want = fd_input_jacobian(lambda x: forward_point(n, x), z)
        assert rel_err(j, want) < 1e-5

    def test_primal_equals_forward(self):
        n = seeded_net((2, 5, 2), ("relu", "identity"), 11)
        z = np.array([[0.3, -0.7]])
        res = net.jvp(n, z)
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
        jv = point_jvp(n, z)[1] @ v
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
        want = fd_input_jacobian(lambda x: forward_point(n, x), z)
        assert rel_err(j, want) < 1e-5

    def test_consistency_with_jvp(self):
        n = seeded_net((4, 7, 3), ("relu", "identity"), 12)
        z = np.random.default_rng(13).normal(size=4) + 0.05
        assert np.array_equal(net.jacobian(n, z), point_jvp(n, z)[1])


BLOCK_ACTS = ("relu", "leaky_relu", "tanh", "identity")


def basis_jvp(act, b=5, seed=21):
    """A (2, 9, 7, 3) network and the basis JVP of b random codes."""
    network = seeded_net((2, 9, 7, 3), (act, act, "identity"), seed)
    z = np.random.default_rng(seed).normal(size=(b, 2))
    return network, z, net.jvp(network, z)


class TestBlockTangents:
    @pytest.mark.parametrize("act", BLOCK_ACTS)
    def test_primal_runs_once_per_code(self, act):
        network, z, res = basis_jvp(act)
        assert np.array_equal(res.y, net.forward(network, z))
        assert res.jv.shape == (5, 2, 3)
        assert res.pullback is None
        assert res.trace.batch == 5
        trace = res.trace
        assert all(a.shape[0] == 5 for a in trace.out)
        assert all(a.shape[0] == 10 for a in trace.tan_out)
        for layer, d, t_pre, t_out in zip(
            network.layers, trace.dact, trace.tan_pre, trace.tan_out
        ):
            # an identity layer forms no all-ones derivative
            assert (d is None) == (layer.activation == "identity")
            if d is not None:
                assert d.shape == (5, t_out.shape[1])
            # only tanh's second derivative reads the tangent pre-activation
            assert (t_pre is None) == (layer.activation != "tanh")
            if t_pre is not None:
                assert np.array_equal(t_out, t_pre * np.repeat(d, 2, axis=0))

    @pytest.mark.parametrize("act", BLOCK_ACTS)
    def test_tape_holds_each_derivative_once_per_code(self, act):
        # the tape is the inputs, the primal outputs, one derivative row per
        # code and the tangent outputs, plus tanh's tangent pre-activations:
        # no derivative is copied onto the tangent rows
        network = seeded_net((2, 50, 50, 50, 3), (act,) * 3 + ("identity",), 29)
        b, m = 40, 2
        trace = net.jvp(network, np.random.default_rng(30).normal(size=(b, m))).trace
        arrays = []
        for value in vars(trace).values():
            arrays += value if isinstance(value, list) else [value]
        held = sum(a.nbytes for a in arrays if a is not None)
        hidden = 150  # the identity output layer forms no derivative
        inputs = b * m  # the codes; the latent basis is not held
        primal = b * (hidden + 3)
        derivatives = 0 if act == "identity" else b * hidden
        tangents = b * m * (hidden + 3) + (b * m * hidden if act == "tanh" else 0)
        assert held == 8 * (inputs + primal + derivatives + tangents)

    @pytest.mark.parametrize("adjoints", ["tan", "out+tan"])
    @pytest.mark.parametrize("act", BLOCK_ACTS)
    def test_backward_matches_finite_differences(self, act, adjoints):
        # the scalar <out_grad, y> + <tan_grad, jv>; its second-derivative
        # terms are summed over each code's basis rows
        b = 5
        network, z, res = basis_jvp(act, b=b)
        rng = np.random.default_rng(22)
        tan_grad = rng.normal(size=(b, 2, 3))
        out_grad = rng.normal(size=(b, 3)) if "out" in adjoints else None

        def scalar(nw, zz=z):
            r = net.jvp(nw, zz)
            primal = 0.0 if out_grad is None else np.sum(out_grad * r.y)
            return float(primal + np.sum(tan_grad * r.jv))

        grads, g_x = net.backward(network, res.trace, out_grad=out_grad, tan_grad=tan_grad)
        fd_w, fd_b = fd_param_grad(scalar, network)
        for got, want in zip(grads.weights + grads.biases, fd_w + fd_b):
            assert rel_err(got, want) < 1e-6 or np.max(np.abs(got - want)) < 1e-9
        fd_x = np.zeros_like(z)
        for idx in np.ndindex(z.shape):
            e = np.zeros_like(z)
            e[idx] = 1e-6
            fd_x[idx] = (scalar(network, z + e) - scalar(network, z - e)) / 2e-6
        assert rel_err(g_x, fd_x) < 1e-6 or np.max(np.abs(g_x - fd_x)) < 1e-9

    @pytest.mark.parametrize("act", BLOCK_ACTS)
    def test_sweep_into_given_gradient_without_input_adjoint(self, act):
        # the training step's form: the same parameter bits, written into
        # the caller's vector, and no input adjoint
        network, _, res = basis_jvp(act)
        rng = np.random.default_rng(25)
        out_grad, tan_grad = rng.normal(size=(5, 3)), rng.normal(size=(5, 2, 3))
        want, _ = net.backward(network, res.trace, out_grad=out_grad, tan_grad=tan_grad)
        into = net.ParamGradient.from_flat(network, np.full_like(network.params, np.nan))
        got, g_x = net.backward(
            network, res.trace, out_grad=out_grad, tan_grad=tan_grad, grads=into, input_grad=False
        )
        assert got is into and g_x is None
        assert np.array_equal(into.flat, want.flat)

    def test_piecewise_linear_primal_adjoint_is_skipped(self):
        # nothing reaches the primal chain: the input gradient is exact zeros
        network, _, res = basis_jvp("relu")
        _, g_in = net.backward(network, res.trace, tan_grad=np.ones((5, 2, 3)))
        assert np.array_equal(g_in, np.zeros((5, 2)))

    @pytest.mark.parametrize("adjoints,calls", [("out", 0), ("tan", 3), ("out+tan", 3)])
    def test_second_derivatives_only_under_a_tangent_adjoint(self, monkeypatch, adjoints, calls):
        network, _, res = basis_jvp("tanh")
        rng = np.random.default_rng(26)
        out_grad = rng.normal(size=(5, 3)) if "out" in adjoints else None
        tan_grad = rng.normal(size=(5, 2, 3)) if "tan" in adjoints else None
        want = net.backward(network, res.trace, out_grad=out_grad, tan_grad=tan_grad)
        if tan_grad is None:
            # the reference: a zero tangent adjoint adds only zero terms
            zeros = np.zeros((5, 2, 3))
            want = net.backward(network, res.trace, out_grad=out_grad, tan_grad=zeros)[:2]
        seen = []
        ddact = net._ddact

        def counted(name, out, dact):
            seen.append(name)
            return ddact(name, out, dact)

        monkeypatch.setattr(net, "_ddact", counted)
        got = net.backward(network, res.trace, out_grad=out_grad, tan_grad=tan_grad)
        # a tangent sweep makes one call per layer, a primal-only sweep none
        assert sorted(seen) == ["identity", "tanh", "tanh"][:calls]
        g, x_in = got[:2]
        assert np.array_equal(g.flat, want[0].flat) and np.array_equal(x_in, want[1])

    @pytest.mark.parametrize("act", BLOCK_ACTS)
    def test_sweep_leaves_the_callers_adjoints_as_they_were(self, act):
        # the sweep scales its own adjoints in place, never the caller's,
        # even when the top layer has a derivative
        network = seeded_net((2, 9, 7, 3), (act,) * 3, 39)
        z = np.random.default_rng(40).normal(size=(5, 2))
        res = net.jvp(network, z)
        rng = np.random.default_rng(41)
        out_grad, tan_grad = rng.normal(size=(5, 3)), rng.normal(size=(5, 2, 3))
        kept = out_grad.copy(), tan_grad.copy()
        net.backward(network, res.trace, out_grad=out_grad, tan_grad=tan_grad)
        assert np.array_equal(out_grad, kept[0]) and np.array_equal(tan_grad, kept[1])

    @pytest.mark.parametrize("b,dims", [(6, (3, 10, 6, 4)), (4000, (2, 50, 50, 50, 3))])
    @pytest.mark.parametrize("act", BLOCK_ACTS)
    def test_tangent_bits_match_the_repeated_derivative(self, act, b, dims):
        # scaling each code's rows by its one derivative row gives the bits
        # of the out-of-place product with the derivative repeated per row
        network = seeded_net(dims, (act,) * (len(dims) - 2) + ("identity",), 27)
        z = np.random.default_rng(28).normal(size=(b, dims[0]))
        m = dims[0]
        x, want = z, np.tile(np.eye(m), (b, 1))
        for layer in network.layers:
            x, d = _separate_act_dact(layer.activation, x @ layer.weight.T + layer.bias)
            want = want @ layer.weight.T
            if d is not None:
                want = want * np.repeat(d, m, axis=0)
        res = net.jvp(network, z)
        assert np.array_equal(res.y, x) and np.array_equal(res.jv, want.reshape(b, m, -1))

    @pytest.mark.parametrize("act", BLOCK_ACTS)
    def test_jacobians_match_finite_differences(self, act):
        network = seeded_net((3, 10, 6, 4), (act, act, "identity"), 23)
        z = np.random.default_rng(24).normal(size=(6, 3)) + 0.05
        stack = jvp_rows(network, z)
        assert stack.shape == (6, 3, 4)
        for zp, rows in zip(z, stack):
            want = fd_input_jacobian(lambda x: forward_point(network, x), zp)
            assert rel_err(rows.T, want) < 1e-5

    def test_jacobians_memory_is_bounded(self):
        # the Jacobians of this batch, read from one jvp, peak at 18.7 MiB; a
        # tape that repeats each derivative onto the m tangent rows peaks
        # near 27.9 MiB
        network = seeded_net((2, 50, 50, 50, 3), ("relu",) * 3 + ("identity",), 29)
        z = np.random.default_rng(30).normal(size=(4000, 2))
        tracemalloc.start()
        try:
            net.jvp(network, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, peak


def _tape_arrays(res):
    """Every array of a JVP result and its tape, in a fixed order (None kept)."""
    t = res.trace
    return [res.y, res.jv, t.x0, *t.out, *t.dact, *t.tan_pre, *t.tan_out]


@pytest.mark.parametrize("act", BLOCK_ACTS)
def test_buffers_give_the_bits_of_the_buffer_free_calls(act):
    # diagnose's loop: encode a block, then the decoder's JVP at its codes,
    # over two whole blocks and a short last one, all on one set of buffers
    acts = (act,) * 3 + ("identity",)
    enc = seeded_net((3, 50, 50, 50, 2), acts, 40)
    dec = seeded_net((2, 50, 50, 50, 3), acts, 41)
    block = geometry.JACOBIAN_BLOCK
    x = np.random.default_rng(42).normal(size=(2 * block + 37, 3))
    buffers, held = {}, None
    for start in range(0, len(x), block):
        if held is not None:
            # a stale entry would show up as NaN in the next block's results
            for buf in buffers.values():
                buf.fill(np.nan)
        xb = x[start : start + block]
        codes = net.forward(enc, xb, buffers)
        assert np.array_equal(codes, net.forward(enc, xb))
        assert any(np.shares_memory(codes, buf) for buf in buffers.values())
        z = codes.copy()
        got = net.jvp(dec, z, buffers)
        want = net.jvp(dec, z)
        got_arrays, want_arrays = _tape_arrays(got), _tape_arrays(want)
        assert [a is None for a in got_arrays] == [a is None for a in want_arrays]
        for g, w in zip(got_arrays, want_arrays):
            assert g is None or (g.shape == w.shape and np.array_equal(g, w))
        # every array the sweep forms is the leading rows of a held buffer
        formed = [a for a in got_arrays[:2] + got_arrays[3:] if a is not None]
        assert all(any(np.shares_memory(a, buf) for buf in buffers.values()) for a in formed)
        # and the blocks after the first allocate none
        ids = {key: id(buf) for key, buf in buffers.items()}
        assert held is None or ids == held
        held = ids


def _separate_act_inplace(name, a, dact=None):
    """:func:`net._act_inplace` from the separate out-of-place formulas."""
    out, d = _separate_act_dact(name, a)
    if d is None:
        return a, None
    if dact is not None:
        dact[...] = d
    a[...] = out
    return a, dact


@pytest.mark.parametrize("act", BLOCK_ACTS)
def test_second_derivative_bits_match_the_pre_activation_formula(act):
    a = np.random.default_rng(38).normal(scale=2.0, size=(7, 5))
    out, dact = net._act_inplace(act, a.copy(), np.empty_like(a))
    got = net._ddact(act, out, dact)
    if act == "tanh":
        t = np.tanh(a)
        assert np.array_equal(got, -2.0 * t * (1.0 - t * t))
    else:
        assert got is None


@pytest.mark.parametrize("act", BLOCK_ACTS)
def test_one_activation_pass_matches_the_separate_formulas(monkeypatch, act):
    network = seeded_net((2, 9, 7, 3), (act, act, "identity"), 33)
    rng = np.random.default_rng(34)
    z = rng.normal(size=(6, 2))
    out_grad, tan_grad = rng.normal(size=(6, 3)), rng.normal(size=(6, 2, 3))

    def sweeps():
        y, tape = net.forward_tape(network, z)
        res = net.jvp(network, z)
        g, g_x = net.backward(network, res.trace, out_grad=out_grad, tan_grad=tan_grad)
        states = tape.out + tape.dact + res.trace.tan_out
        return [net.forward(network, z), y, res.y, res.jv, g.flat, g_x, *states]

    got = sweeps()
    monkeypatch.setattr(net, "_act_inplace", _separate_act_inplace)
    want = sweeps()
    assert len(got) == len(want)
    assert all(
        a is None and b is None or np.array_equal(a, b) for a, b in zip(got, want)
    )


class TestGradScalar:
    def test_linear_least_squares_closed_form(self):
        rng = np.random.default_rng(14)
        w = rng.normal(size=(3, 3))
        n = net.Mlp([net.Layer(w, np.zeros(3), "identity")])
        z = rng.normal(size=(1, 3))
        x = rng.normal(size=(1, 3))
        y, trace = net.forward_tape(n, z)
        resid = y - x  # adjoint of 0.5 * ||y - x||^2
        grads, _ = net.backward(n, trace, out_grad=resid)
        want = (z @ w.T - x).T @ z
        assert rel_err(grads.weights[0], want) < 1e-12

    def test_constant_scalar_has_zero_gradient(self):
        n = seeded_net((2, 4, 2), ("tanh", "identity"), 15)
        _, trace = net.forward_tape(n, np.ones((1, 2)))
        grads, _ = net.backward(n, trace, out_grad=np.zeros((1, 2)))
        assert all(not gw.any() for gw in grads.weights)
        assert all(not gb.any() for gb in grads.biases)

    def test_missing_tape_is_a_usage_error(self):
        n = seeded_net((2, 2), ("identity",), 0)
        _, trace = net.forward_tape(n, np.ones((1, 2)))
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
        z = rng.normal(size=(1, 3)) + 0.1
        v = rng.choice([-1.0, 1.0], size=3)

        def scalar(network):
            return float(np.sum((v @ net.jvp(network, z).jv) ** 2))

        res = net.jvp(n, z)
        # Jv = sum_k v_k J e_k: basis row k's adjoint is 2 v_k Jv
        grads, _ = net.backward(n, res.trace, tan_grad=2.0 * np.outer(v, v @ res.jv[0])[None])
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
            d = forward_point(n, zz) - x
            return float(d @ d)

        y, trace = net.forward_tape(n, z[None, :])
        _, g_in = net.backward(n, trace, out_grad=2.0 * (y - x[None, :]))
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


def two_layer_net():
    return net.Mlp(
        [
            net.Layer(np.full((4, 3), 0.5), np.arange(4.0), "tanh"),
            net.Layer(np.ones((2, 4)), np.zeros(2), "identity"),
        ]
    )


def reloaded(path, config, state):
    """``(config, state)`` written to the checkpoint ``path`` and read back."""
    cli._write_checkpoint(path, config, state)
    return cli._load_checkpoint(path)


class TestParams:
    @pytest.mark.parametrize("how", ["init", "from_dict", "Mlp"])
    def test_layer_arrays_are_views_of_params(self, how, tmp_path):
        def read_back():  # a network as a checkpoint reads it back
            config, state = drawn_state(4)
            return reloaded(tmp_path / "ckpt.json", config, state)[1].dec

        network = {
            "init": lambda: net.init([3, 5, 4, 2], ["relu", "tanh", "identity"], 0),
            "from_dict": read_back,
            "Mlp": two_layer_net,
        }[how]()
        arrays = [a for l in network.layers for a in (l.weight, l.bias)]
        assert network.params.size == sum(a.size for a in arrays)
        assert all(np.shares_memory(a, network.params) for a in arrays)
        assert np.array_equal(network.params, np.concatenate([a.ravel() for a in arrays]))
        # layout: layer by layer, the row-major weight, then the bias
        last = network.layers[-1]
        last.weight[:] = 7.0
        assert np.all(network.params[-last.bias.size - last.weight.size : -last.bias.size] == 7.0)
        network.params[: network.layers[0].weight.size] = -1.0
        assert np.all(network.layers[0].weight == -1.0)

    def test_callers_arrays_and_layers_are_not_aliased(self):
        w, b = np.full((4, 3), 0.5), np.arange(4.0)
        layer = net.Layer(w, b, "tanh")
        network = net.Mlp([layer, net.Layer(np.ones((2, 4)), np.zeros(2), "identity")])
        assert network.layers[0] is not layer
        assert not np.shares_memory(layer.weight, network.params)
        network.params[:] = 0.0
        assert np.all(w == 0.5) and np.array_equal(b, np.arange(4.0))

    def test_gradient_views_share_its_flat_vector(self):
        network = net.init([3, 5, 2], ["relu", "identity"], 1)
        grads = net.ParamGradient.from_flat(network, np.zeros_like(network.params))
        assert grads.flat.shape == network.params.shape
        assert all(np.shares_memory(g, grads.flat) for g in grads.weights + grads.biases)
        assert [g.shape for g in grads.weights] == [l.weight.shape for l in network.layers]
        assert [g.shape for g in grads.biases] == [l.bias.shape for l in network.layers]


def trained_checkpoint(tmp_path):
    """Generate a small roll, train two epochs and return (data, run dir, checkpoint)."""
    data = tmp_path / "roll.csv"
    assert cli.main(["generate", "--n", "120", "--seed", "5", "--out", str(data)]) == 0
    out = tmp_path / "run"
    argv = ["train", "--data", str(data), "--out", str(out), "--seed", "3", "--epochs", "2"]
    argv += ["--set", "batch_size=16", "--set", "dims=[3,8,2]"]
    assert cli.main(argv) == 0
    return data, out, out / cli.CHECKPOINT_NAME


def drawn_state(seed, dims=(3, 4, 2), activation="tanh", epoch=7, step=3, draws=1):
    """``(config, state)``: the networks ``config`` builds, with parameters,
    moments and generator state drawn from ``seed``."""
    config = training.RunConfig(dims=list(dims), activation=activation, seed=seed)
    enc, dec = training.init_networks(config)
    rng = np.random.default_rng(seed)
    for network in (enc, dec):
        network.params[:] = rng.normal(size=network.params.size)
    size = enc.params.size + dec.params.size
    opt = training.AdamWState(step, rng.normal(size=size), rng.random(size))
    rng.random(draws)  # the generator's state moves on
    return config, training.TrainState(epoch, enc, dec, opt, rng)


@st.composite
def drawn_states(draw):
    """``(config, state)`` of drawn sizes (latent size 1 among them), hidden
    activation, seed, step, epoch and generator state."""
    return drawn_state(
        draw(st.integers(0, 2**32 - 1)),
        dims=draw(st.lists(st.integers(1, 5), min_size=2, max_size=5)),
        activation=draw(st.sampled_from(net.ACTIVATIONS)),
        epoch=draw(st.integers(0, 10**6)),
        step=draw(st.integers(0, 10**6)),
        draws=draw(st.integers(0, 3)),
    )


def assert_same_state(back, state):
    assert back.epoch == state.epoch
    for a, b in ((state.enc, back.enc), (state.dec, back.dec)):
        assert [l.weight.shape for l in b.layers] == [l.weight.shape for l in a.layers]
        assert [l.activation for l in b.layers] == [l.activation for l in a.layers]
        assert np.array_equal(b.params, a.params)
    assert back.opt.step == state.opt.step
    assert np.array_equal(back.opt.m, state.opt.m)
    assert np.array_equal(back.opt.v, state.opt.v)
    assert back.rng.bit_generator.state == state.rng.bit_generator.state


class TestCheckpointFormat:
    """The CLI's run snapshot, the one file format networks are saved in."""

    def test_round_trip(self, tmp_path):
        config, state = drawn_state(33, dims=[3, 5, 2], activation="leaky_relu")
        back_config, back = reloaded(tmp_path / "ckpt.json", config, state)
        assert back_config == config
        assert [l.activation for l in back.dec.layers] == ["leaky_relu", "identity"]
        assert_same_state(back, state)

    @settings(max_examples=60, deadline=None)
    @given(drawn=drawn_states())
    def test_drawn_states_round_trip(self, tmp_path_factory, drawn):
        config, state = drawn
        back_config, back = reloaded(tmp_path_factory.mktemp("ckpt") / "ckpt.json", config, state)
        assert back_config == config
        assert_same_state(back, state)

    def test_file_carries_format_version_and_tags(self, tmp_path):
        _, run, ckpt = trained_checkpoint(tmp_path)
        obj = json.loads(ckpt.read_text())
        assert obj["format_version"] == 5
        assert set(obj) == {"format_version", "epoch", "config", "params", "adamw", "rng_state"}
        assert set(obj["adamw"]) == {"step", "m", "v"}
        assert obj["epoch"] == 2
        assert obj["adamw"]["step"] == 12  # 2 epochs of 96 codes in batches of 16
        # the run's whole config, as its manifest records it
        assert obj["config"] == json.loads((run / cli.MANIFEST_NAME).read_text())["config"]
        assert obj["config"]["dims"] == [3, 8, 2]
        assert obj["config"]["activation"] == "relu"
        # every float vector reads back as the README says: one np.frombuffer
        # each, laid out like the encoder's Mlp.params and then the decoder's
        _, state = cli._load_checkpoint(ckpt)
        assert [l.activation for l in state.dec.layers] == ["relu", "identity"]
        assert [l.weight.shape for l in state.dec.layers] == [(8, 2), (3, 8)]
        vectors = {
            "params": np.concatenate((state.enc.params, state.dec.params)),
            "m": state.opt.m,
            "v": state.opt.v,
        }
        for key, want in vectors.items():
            text = obj["adamw"][key] if key in ("m", "v") else obj[key]
            got = np.frombuffer(base64.b64decode(text), "<f8")
            assert got.size == (8 * 4 + 2 * 9) + (8 * 3 + 3 * 9)
            assert np.array_equal(got, want)

    def test_bad_version_rejected(self, tmp_path):
        data, out, ckpt = trained_checkpoint(tmp_path)
        obj = json.loads(ckpt.read_text())
        obj["format_version"] = 99
        ckpt.write_text(json.dumps(obj))
        argv = ["diagnose", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]
        assert cli.main(argv) == 1
        assert not (out / cli.DIAGNOSTICS_NAME).exists()
