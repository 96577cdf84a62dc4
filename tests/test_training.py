import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from confae import data, net
from confae import regularizers as reg
from confae import training as tr

from oracles import einsum_trace_moments, two_vector_train
from test_net import fd_param_grad, rel_err
from test_regularizers import value_of


def small_config(**overrides):
    base = dict(
        regularizer="none",
        epochs=2,
        batch_size=16,
        lr=1e-3,
        seed=7,
        dims=[3, 12, 2],
        probes=4,
    )
    base.update(overrides)
    return tr.RunConfig(**base)


def standardized_roll(n=200, seed=0):
    return data.standardize(data.swiss_roll(n, seed=seed)[0])


def untimed(record):
    fields = asdict(record)
    del fields["seconds"]
    return fields


def weight_grad(network, g):
    """Gradient that is ``g`` on the first layer's weight and zero elsewhere."""
    grads = net.ParamGradient.from_flat(network, np.zeros_like(network.params))
    grads.weights[0][:] = g
    return grads


def per_array_adamw(network, grads, moments, step, lr, beta1, beta2, eps, weight_decay):
    """The update applied one weight or bias array at a time, as a reference."""
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    arrays = [a for l in network.layers for a in (l.weight, l.bias)]
    gs = [a for pair in zip(grads.weights, grads.biases) for a in pair]
    for theta, g, (m, v) in zip(arrays, gs, moments):
        theta -= lr * weight_decay * theta
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


class TestAdamW:
    def test_zero_gradient_is_a_no_op(self):
        network = net.init([2, 3], ["identity"], 0)
        before = [l.weight.copy() for l in network.layers]
        state = tr.AdamWState.zeros(network.params.size)
        grads = net.ParamGradient.from_flat(network, np.zeros_like(network.params))
        tr.adamw_step(network.params, grads.flat, state, lr=0.1, weight_decay=0.0)
        for layer, b in zip(network.layers, before):
            assert np.array_equal(layer.weight, b)

    def test_first_step_matches_hand_formula(self):
        network = net.init([2, 2], ["identity"], 1)
        theta0 = network.layers[0].weight.copy()
        g = np.array([[0.5, -2.0], [1.5, 0.0]])
        grads = weight_grad(network, g)
        state = tr.AdamWState.zeros(network.params.size)
        lr, eps = 1e-3, 1e-8
        tr.adamw_step(network.params, grads.flat, state, lr=lr)
        # first step: m_hat = g, v_hat = g^2  ->  delta = lr * g / (|g| + eps)
        want = theta0 - lr * g / (np.abs(g) + eps)
        assert np.max(np.abs(network.layers[0].weight - want)) < 1e-15
        assert np.max(np.abs(network.layers[0].weight - theta0)) <= lr * (1 + 1e-9)

    def test_quadratic_bowl_convergence(self):
        network = net.Mlp([net.Layer(np.array([[0.6], [0.8]]), np.zeros(2), "identity")])
        state = tr.AdamWState.zeros(network.params.size)
        assert abs(np.linalg.norm(network.layers[0].weight) - 1.0) < 1e-12
        for _ in range(500):
            grads = weight_grad(network, network.layers[0].weight)
            tr.adamw_step(network.params, grads.flat, state, lr=0.1)
        assert np.linalg.norm(network.layers[0].weight) < 1e-3

    def test_zero_decay_reduces_to_plain_adam(self):
        rng = np.random.default_rng(2)
        network = net.init([3, 4], ["identity"], 3)
        state = tr.AdamWState.zeros(network.params.size)
        # independent plain-Adam reference on a copied parameter array
        theta = network.layers[0].weight.copy()
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        for step in range(1, 51):
            g = rng.normal(size=theta.shape)
            grads = weight_grad(network, g)
            tr.adamw_step(network.params, grads.flat, state, lr=lr, weight_decay=0.0)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta = theta - lr * (m / (1 - b1**step)) / (np.sqrt(v / (1 - b2**step)) + eps)
        assert np.max(np.abs(network.layers[0].weight - theta)) < 1e-15

    def test_decay_is_decoupled(self):
        network = net.Mlp([net.Layer(np.array([[2.0]]), np.zeros(1), "identity")])
        state = tr.AdamWState.zeros(network.params.size)
        g = np.array([[1.0]])
        tr.adamw_step(network.params, weight_grad(network, g).flat, state, lr=0.1, weight_decay=0.5)
        # theta <- theta - lr*wd*theta - lr * g/(|g|+eps)
        want = 2.0 - 0.1 * 0.5 * 2.0 - 0.1 * 1.0 / (1.0 + 1e-8)
        assert network.layers[0].weight[0, 0] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("weight_decay", [1e-2, 0.0])
    def test_vector_step_equals_per_array_update(self, monkeypatch, weight_decay):
        rng = np.random.default_rng(4)
        constants = dict(beta1=0.8, beta2=0.99, eps=1e-7)
        for name, value in constants.items():
            monkeypatch.setattr(tr, f"ADAM_{name.upper()}", value)
        network = net.init([3, 6, 5, 2], ["tanh", "relu", "identity"], 8)
        reference = net.Mlp(network.layers)
        state = tr.AdamWState.zeros(network.params.size)
        arrays = [a for l in reference.layers for a in (l.weight, l.bias)]
        moments = [(np.zeros_like(a), np.zeros_like(a)) for a in arrays]
        opts = dict(lr=1e-2, weight_decay=weight_decay)
        for step in range(1, 21):
            grads = net.ParamGradient.from_flat(network, np.zeros_like(network.params))
            grads.flat[:] = rng.normal(size=grads.flat.size)
            tr.adamw_step(network.params, grads.flat, state, **opts)
            per_array_adamw(reference, grads, moments, step, **opts, **constants)
        assert state.step == 20
        assert np.array_equal(network.params, reference.params)
        for la, lb in zip(network.layers, reference.layers):
            assert np.array_equal(la.weight, lb.weight) and np.array_equal(la.bias, lb.bias)

    @pytest.mark.parametrize("what", ["gradient", "m", "v"])
    def test_size_mismatch_is_refused(self, what):
        network = net.init([2, 3], ["identity"], 0)
        grads = net.ParamGradient.from_flat(network, np.zeros_like(network.params))
        state = tr.AdamWState.zeros(network.params.size)
        if what == "gradient":
            grads.flat = np.zeros(network.params.size + 1)
        else:
            setattr(state, what, np.zeros(network.params.size - 1))
        with pytest.raises(ValueError, match="gradient shape does not match parameters"):
            tr.adamw_step(network.params, grads.flat, state, lr=0.1)
        assert state.step == 0


class TestRunConfig:
    def test_unknown_keys_all_listed(self):
        with pytest.raises(tr.ConfigError) as err:
            tr.RunConfig.from_dict({"bogus": 1, "also_bad": 2, "epochs": 5})
        msg = str(err.value)
        assert "bogus" in msg and "also_bad" in msg

    def test_validation_collects_every_problem(self):
        cfg = small_config()
        cfg.epochs = 0
        cfg.lr = -1.0
        cfg.regularizer = "nope"
        problems = cfg.problems()
        assert len(problems) == 3

    @pytest.mark.parametrize("seed", [-1, 2.5, "7"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(tr.ConfigError) as err:
            tr.RunConfig.from_dict({"seed": seed})
        assert err.value.problems == ["seed: must be a nonnegative integer"]

    def test_numpy_integers_pass_where_ints_do(self):
        cfg = small_config(
            epochs=np.int64(2), batch_size=np.int32(8), seed=np.uint8(3), dims=[np.int64(3), 4, 2]
        )
        assert cfg.problems() == []

    def test_globiso_needs_pairs(self):
        cfg = small_config(regularizer="globiso", lambda_geo=1.0, batch_size=1)
        with pytest.raises(tr.ConfigError, match="batch_size"):
            cfg.validate()

    def test_exact_trace_runs_at_latent_dim_4(self):
        cfg = small_config(
            regularizer="conf", lambda_geo=0.5, epochs=1, exact_trace=True, dims=[3, 10, 4]
        )
        result = tr.train(cfg, standardized_roll())
        assert np.isfinite(result.records[0].geo) and result.records[0].geo > 0.0

    def test_round_trip(self):
        cfg = small_config(regularizer="conf", lambda_geo=0.5)
        again = tr.RunConfig.from_dict(cfg.to_dict())
        assert again == cfg


class TestTrain:
    def test_epoch_geo_is_the_mean_over_batches_that_evaluate_it(self, monkeypatch):
        # 101 samples leave 81 training codes, so batches of 80 end on a
        # singleton, which has no pairs and does not evaluate the term
        values = []
        loss = reg.global_iso_loss_and_grad

        def recording(*args, **kwargs):
            out = loss(*args, **kwargs)
            values.append(out[0])
            return out

        monkeypatch.setattr(reg, "global_iso_loss_and_grad", recording)
        cfg = small_config(regularizer="globiso", lambda_geo=0.3, epochs=1, batch_size=80)
        record = tr.train(cfg, standardized_roll(n=101)).records[0]
        assert len(values) == 1
        assert record.geo == values[0]
        assert record.total == record.recon + 0.3 * record.geo

    def test_bookkeeping_two_steps_one_record(self):
        cfg = small_config(epochs=1, batch_size=5, val_fraction=0.5)
        samples = standardized_roll(n=20)
        result = tr.train(cfg, samples)
        # 20 samples, half for validation -> 10 train samples -> 2 batches
        assert result.state.opt.step == 2
        assert len(result.records) == 1

    def test_deterministic_repeat(self):
        cfg = small_config(regularizer="conf", lambda_geo=0.3, epochs=2)
        samples = standardized_roll()
        a = tr.train(cfg, samples)
        b = tr.train(cfg, samples)
        for la, lb in zip(a.state.dec.layers, b.state.dec.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)
        # every epoch record identical apart from its wall-clock field
        assert len(a.records) == cfg.epochs
        assert [untimed(r) for r in a.records] == [untimed(r) for r in b.records]

    def test_logged_total_is_exact_composition(self):
        cfg = small_config(regularizer="lociso", lambda_geo=0.7, epochs=2)
        result = tr.train(cfg, standardized_roll())
        for rec in result.records:
            assert rec.total == rec.recon + 0.7 * rec.geo

    def test_monitored_regularizer_with_zero_intensity(self):
        cfg = small_config(regularizer="conf", lambda_geo=0.0, epochs=1, seed=3)
        samples = standardized_roll()
        result = tr.train(cfg, samples)
        assert result.records[0].geo > 0.0
        # Monitored MC values are unbiased estimates of the exact-path loss:
        # evaluate both on the trained model over the validation codes.
        _, x_val = tr.split_dataset(cfg, samples)
        codes = net.forward(result.state.enc, x_val)
        exact = value_of(reg.nonlinear_conformal_loss_and_grad, result.state.dec, codes)
        rng = np.random.default_rng(11)
        draws = np.array(
            [
                value_of(
                    reg.nonlinear_conformal_loss_and_grad,
                    result.state.dec,
                    codes,
                    reg.rademacher_block(rng, len(codes), cfg.probes, cfg.latent_dim),
                )
                for _ in range(50)
            ]
        )
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        # ratio estimators are biased at small probe counts; allow bias of a
        # few standard errors plus a small absolute slack
        assert abs(draws.mean() - exact) < 3 * se + 0.05 * abs(exact)

    def test_geo_term_decreases_with_conf_training(self):
        cfg = small_config(
            regularizer="conf", lambda_geo=1.0, epochs=20, batch_size=32, seed=5
        )
        result = tr.train(cfg, standardized_roll(n=320, seed=4))
        geo = [r.geo for r in result.records]
        first = np.median(geo[:5])
        last = np.median(geo[-5:])
        assert last < first

    def test_resume_reproduces_uninterrupted_run(self):
        samples = standardized_roll()
        full_cfg = small_config(regularizer="conf", lambda_geo=0.2, epochs=4)
        straight = tr.train(full_cfg, samples)

        half_cfg = small_config(regularizer="conf", lambda_geo=0.2, epochs=2)
        first = tr.train(half_cfg, samples)
        resumed = tr.train(full_cfg, samples, resume=first.state)
        assert resumed.records[0].epoch == 3  # numbering continues
        for la, lb in zip(straight.state.dec.layers, resumed.state.dec.layers):
            assert np.array_equal(la.weight, lb.weight)

    def test_divergence_aborts_with_location(self):
        # lr so large that the post-step forward pass overflows to inf
        cfg = small_config(lr=1e200, epochs=3, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(tr.TrainingDivergedError, match="epoch"):
                tr.train(cfg, standardized_roll(seed=2))

    def test_rejects_unstandardized_data(self):
        cfg = small_config()
        with pytest.raises(ValueError, match="standardized"):
            tr.train(cfg, data.swiss_roll(100, seed=0)[0])

    def test_exact_trace_training_path(self):
        cfg = small_config(regularizer="conf", lambda_geo=0.5, epochs=2, exact_trace=True)
        result = tr.train(cfg, standardized_roll())
        assert all(np.isfinite(r.geo) and r.geo >= 0 for r in result.records)
        again = tr.train(cfg, standardized_roll())
        for la, lb in zip(result.state.dec.layers, again.state.dec.layers):
            assert np.array_equal(la.weight, lb.weight)

    def test_baseline_schedule_reaches_low_reconstruction(self):
        # full 200-epoch baseline on 5000 samples; the historical target of
        # 0.05 is a per-feature mean squared error, i.e. recon/3 here since
        # the loss sums squared residuals over the three features
        cfg = tr.RunConfig(regularizer="none", epochs=200, seed=42)
        samples = data.standardize(data.swiss_roll(5000, seed=100)[0])
        result = tr.train(cfg, samples)
        assert result.records[-1].val_recon / 3.0 < 0.05


# (regularizer, exact_trace); the probe estimator only matters for the
# moment losses
STEP_CASES = [
    (tag, exact)
    for tag in tr.REGULARIZERS
    for exact in ((True, False) if tag in ("lociso", "conf", "constconf") else (True,))
]


class TestTrainingStepGradients:
    @pytest.mark.parametrize(
        "tag,exact",
        STEP_CASES,
        ids=[f"{t}-attached-{'exact' if e else 'mc'}" for t, e in STEP_CASES],
    )
    def test_step_gradients_match_fd(self, tag, exact):
        # tanh networks keep every loss smooth in the parameters; Monte-Carlo
        # probes come from a generator re-seeded for each evaluation, so the
        # finite differences see the same draw as the gradient
        lam = 0.0 if tag == "none" else 0.7
        cfg = small_config(
            regularizer=tag,
            lambda_geo=lam,
            dims=[3, 5, 2],
            activation="tanh",
            probes=3,
            exact_trace=exact,
        )
        enc, dec = tr.init_networks(cfg)
        x = np.random.default_rng(44).normal(size=(6, 3))

        def step(e, d):
            return tr._batch_losses_and_grads(cfg, lam, e, d, x, np.random.default_rng(45), 1, 0)

        def objective(e, d):
            rec, geo, _, _ = step(e, d)
            return rec + lam * geo

        rec, geo, enc_grads, dec_grads = step(enc, dec)
        assert rec == reg.recon_loss(enc, dec, x)
        assert (geo == 0.0) == (tag == "none")
        for grads, fd in (
            (enc_grads, fd_param_grad(lambda e: objective(e, dec), enc)),
            (dec_grads, fd_param_grad(lambda d: objective(enc, d), dec)),
        ):
            fd_w, fd_b = fd
            for gw, fw in zip(grads.weights, fd_w):
                assert rel_err(gw, fw) < 1e-3
            for gb, fb in zip(grads.biases, fd_b):
                assert rel_err(gb, fb) < 1e-3

    def test_divergence_is_caught_before_the_geometric_term(self, monkeypatch):
        cfg = small_config(regularizer="conf", lambda_geo=0.5)
        enc, dec = tr.init_networks(cfg)
        enc.layers[0].bias[0] = np.inf

        def unreachable(*args, **kwargs):
            raise AssertionError("geometric term evaluated on a diverged batch")

        monkeypatch.setattr(reg, "nonlinear_conformal_loss_and_grad", unreachable)
        x = standardized_roll(n=8)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(tr.TrainingDivergedError, match="recon") as err:
                tr._batch_losses_and_grads(cfg, 0.5, enc, dec, x, np.random.default_rng(0), 3, 4)
        assert (err.value.epoch, err.value.batch) == (3, 4)

    @pytest.mark.parametrize("tag", ["conf", "constconf"])
    def test_degenerate_jacobian_carries_epoch_and_batch(self, tag):
        cfg = small_config(regularizer=tag, lambda_geo=0.5)
        enc, dec = tr.init_networks(cfg)
        for layer in dec.layers:
            layer.weight[:] = 0.0
        x = standardized_roll(n=8)
        with pytest.raises(reg.DegenerateJacobianError, match="epoch 3, batch 4") as err:
            tr._batch_losses_and_grads(cfg, 0.5, enc, dec, x, np.random.default_rng(0), 3, 4)
        assert (err.value.epoch, err.value.batch) == (3, 4)
        assert (err.value.index, err.value.value) == (0, 0.0)


# (regularizer, hidden activation, probes or None for exact moments, batch size)
ORACLE_CASES = [
    ("conf", "relu", 8, 16),
    ("conf", "relu", None, 16),
    ("conf", "tanh", 3, 16),
    ("conf", "tanh", None, 16),
    ("lociso", "tanh", 8, 16),
    ("lociso", "relu", None, 16),
    ("constconf", "relu", 3, 16),
    ("constconf", "tanh", None, 16),
    ("globiso", "relu", None, 16),
    ("globiso", "tanh", None, 199),  # each epoch ends on a singleton batch
    ("none", "relu", None, 16),
    ("none", "tanh", None, 16),
]


def oracle_config(tag, act, probes, batch_size, **overrides):
    base = dict(
        regularizer=tag,
        lambda_geo=None if tag == "none" else 0.4,
        epochs=3,
        batch_size=batch_size,
        dims=[3, 10, 10, 2],
        activation=act,
        probes=probes or 8,
        exact_trace=probes is None,
        weight_decay=0.01 if act == "tanh" else 0.0,
    )
    return small_config(**{**base, **overrides})


class TestTwoVectorOracle:
    """``train`` keeps the bits of two networks stepped one vector at a time."""

    @staticmethod
    def oracle(monkeypatch, cfg, samples):
        with monkeypatch.context() as patch:
            patch.setattr(reg, "trace_moments", einsum_trace_moments)
            return two_vector_train(cfg, samples)

    @staticmethod
    def assert_same_run(state, oracle):
        enc, dec, enc_opt, dec_opt, rng = oracle
        for got, want in ((state.enc, enc), (state.dec, dec)):
            assert np.array_equal(got.params, want.params)
        # the one AdamW state holds the encoder's moments, then the decoder's
        n = state.enc.params.size
        for half, want in ((slice(n), enc_opt), (slice(n, None), dec_opt)):
            assert state.opt.step == want.step
            assert np.array_equal(state.opt.m[half], want.m)
            assert np.array_equal(state.opt.v[half], want.v)
        assert state.opt.m.size == n + state.dec.params.size
        assert state.rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize(
        "tag,act,probes,batch_size",
        ORACLE_CASES,
        ids=[f"{t}-{a}-{'exact' if p is None else f'mc{p}'}-b{b}" for t, a, p, b in ORACLE_CASES],
    )
    def test_trained_bits_equal_the_oracle(self, monkeypatch, tag, act, probes, batch_size):
        cfg = oracle_config(tag, act, probes, batch_size)
        samples = standardized_roll(n=250)
        state = tr.train(cfg, samples).state
        assert state.epoch == 3
        self.assert_same_run(state, self.oracle(monkeypatch, cfg, samples))

    def test_resumed_bits_equal_the_oracle(self, monkeypatch):
        samples = standardized_roll(n=250)
        cfg = oracle_config("conf", "relu", 8, 16)
        first = tr.train(oracle_config("conf", "relu", 8, 16, epochs=1), samples).state
        state = tr.train(cfg, samples, resume=first).state
        self.assert_same_run(state, self.oracle(monkeypatch, cfg, samples))


def test_training_memory_peak_is_bounded():
    # tracemalloc peak of two epochs of the benchmark's conf Monte-Carlo run:
    # 1.48 MiB before the autoencoder vectors, 1.53 MiB with them; drawing an
    # epoch's (4000, 8, 2) probe block in one call instead of per batch
    # reproduces the stream but peaks at 2.13 MiB
    cfg = tr.RunConfig(regularizer="conf", lambda_geo=0.24, epochs=2)
    samples = data.standardize(data.swiss_roll(5000, seed=42)[0])
    tracemalloc.start()
    try:
        tr.train(cfg, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * 2**20, peak


class TestCalibrateIntensity:
    def test_balances_the_two_terms(self):
        cfg = small_config(regularizer="conf")
        samples = standardized_roll()
        lam, recon0, geo0 = tr.calibrate_intensity(cfg, samples)
        assert recon0 > 0 and geo0 > 0
        # the weighted geometric term sits a fixed fraction below the
        # reconstruction scale, anticipating the decay of the latter
        assert lam * geo0 == pytest.approx(tr.CALIBRATION_BALANCE * recon0)

    def test_deterministic(self):
        cfg = small_config(regularizer="globiso")
        samples = standardized_roll()
        assert tr.calibrate_intensity(cfg, samples) == tr.calibrate_intensity(cfg, samples)

    @pytest.mark.parametrize("tag", ["conf", "lociso", "globiso"])
    def test_train_without_intensity_takes_the_calibrated_one(self, tag):
        cfg = small_config(regularizer=tag)
        samples = standardized_roll()
        lam = tr.calibrate_intensity(cfg, samples)[0]
        assert tr.training_intensity(cfg, samples) == lam
        got = tr.train(cfg, samples)
        want = tr.train(replace(cfg, lambda_geo=lam), samples)
        assert [untimed(r) for r in got.records] == [untimed(r) for r in want.records]
        for a, b in ((got.state.enc, want.state.enc), (got.state.dec, want.state.dec)):
            assert np.array_equal(a.params, b.params)

    def test_nothing_to_calibrate_without_regularizer(self):
        with pytest.raises(tr.ConfigError):
            tr.calibrate_intensity(small_config(), standardized_roll())
