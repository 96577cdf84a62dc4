"""Optimization loop: AdamW, minibatching, metrics.

Runs are deterministic: all randomness (parameter init, the train/validation
split, epoch shuffles, probe draws) derives from the config seed through one
seed sequence, and every reduction has a fixed order.

The optimizer works on whole parameter vectors: a network's weights and
biases are views of its ``params`` (see :mod:`confae.net`). The autoencoder
has one AdamW state, whose moments are laid out like the encoder's
``params`` followed by the decoder's. Inside :func:`train` the parameters,
the moments and the gradient are each one such vector, so a batch takes one
AdamW step, and each network views its half of the parameters.

Only :func:`_architectures` maps a config to layers: a checkpoint stores its
run's config, and :func:`init_networks` builds its networks as for a fresh run.

A run's state is one :class:`TrainState`: ``train`` advances it in place,
epoch by epoch (networks, AdamW state and the loop's generator), and
hands that same object to the epoch callback and the result. The learning
rate and the weight decay are constant, and AdamW's other constants are
``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.

A training step records the decoder's tape once and sweeps it backward once:
the losses are functions of the decoder's outputs (:mod:`confae.regularizers`),
so the step sums their weighted adjoints, not their parameter gradients.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import data as data_mod
from . import net
from . import regularizers as reg

REGULARIZERS = ("none", "globiso", "lociso", "conf", "constconf")

# AdamW's moment decay rates and its denominator's offset
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class ConfigError(ValueError):
    """Invalid run configuration; ``problems`` lists every offending key."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration: " + "; ".join(self.problems))


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, batch: int, term: str, value: float):
        self.epoch = epoch
        self.batch = batch
        self.term = term
        super().__init__(
            f"non-finite {term} loss ({value!r}) at epoch {epoch}, batch {batch}"
        )


def _integer(value) -> bool:
    """A plain or numpy integer; a bool, though an ``int``, is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _real(value) -> bool:
    return _integer(value) or isinstance(value, (float, np.floating))


# Each config key with the test its value must pass and the problem reported
# when it fails ({v} is the value). A test checks the type before the range,
# so a mistyped value is reported, not raised on. A real value that is not
# finite (nan or an infinity) is reported as such before its test runs.
_CONFIG_RULES = (
    ("regularizer", lambda v: v in REGULARIZERS, "unknown tag {v!r}"),
    ("lambda_geo", lambda v: v is None or _real(v) and v >= 0, "must be nonnegative"),
    ("epochs", lambda v: _integer(v) and v >= 1, "must be an integer of at least 1"),
    ("batch_size", lambda v: _integer(v) and v >= 1, "must be an integer of at least 1"),
    ("lr", lambda v: _real(v) and v > 0, "must be positive"),
    ("weight_decay", lambda v: _real(v) and v >= 0, "must be nonnegative"),
    ("probes", lambda v: _integer(v) and v >= 1, "must be an integer of at least 1"),
    ("exact_trace", lambda v: isinstance(v, (bool, np.bool_)), "must be true or false"),
    ("seed", lambda v: _integer(v) and v >= 0, "must be a nonnegative integer"),
    (
        "dims",
        lambda v: isinstance(v, (list, tuple))
        and len(v) >= 2
        and all(_integer(d) and d >= 1 for d in v),
        "need a list of at least two positive integer sizes",
    ),
    ("activation", lambda v: v in net.ACTIVATIONS, "unknown tag {v!r}"),
    ("val_fraction", lambda v: _real(v) and 0.0 < v < 1.0, "must lie strictly between 0 and 1"),
    ("checkpoint_every", lambda v: _integer(v) and v >= 0, "must be a nonnegative integer"),
)


@dataclass
class RunConfig:
    regularizer: str = "none"
    lambda_geo: float | None = None
    epochs: int = 200
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 0.0
    probes: int = 8
    exact_trace: bool = False
    seed: int = 42
    dims: list[int] = field(default_factory=lambda: [3, 50, 50, 50, 2])
    activation: str = "relu"
    val_fraction: float = 0.2
    checkpoint_every: int = 0

    @property
    def latent_dim(self) -> int:
        return self.dims[-1]

    def problems(self) -> list[str]:
        out = []
        for key, ok, problem in _CONFIG_RULES:
            value = getattr(self, key)
            if isinstance(value, (float, np.floating)) and not np.isfinite(value):
                out.append(f"{key}: must be finite, got {value}")
            elif not ok(value):
                out.append(f"{key}: {problem.format(v=value)}")
        if self.regularizer == "globiso" and _integer(self.batch_size) and self.batch_size < 2:
            out.append("batch_size: pairwise regularizer needs batches of at least 2")
        return out

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise ConfigError(problems)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        unknown = sorted(set(obj) - set(cls.__dataclass_fields__))
        if unknown:
            raise ConfigError([f"{k}: unknown key" for k in unknown])
        cfg = cls(**obj)
        cfg.validate()
        return cfg


@dataclass
class EpochRecord:
    epoch: int
    recon: float
    geo: float
    val_recon: float
    seconds: float
    total: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class AdamWState:
    """Step count and first/second moments, laid out like the parameter vector they step."""

    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, size: int) -> "AdamWState":
        return cls(0, np.zeros(size), np.zeros(size))


def adamw_step(
    theta: np.ndarray,
    g: np.ndarray,
    state: AdamWState,
    *,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One decoupled-weight-decay Adam step on the parameter vector ``theta``, in place.

    ``g`` is the gradient, and ``state`` holds the moments, all laid out alike.

    Each update is evaluated in the order of
    ``theta -= lr * weight_decay * theta``, ``m = beta1 m + (1 - beta1) g``,
    ``v = beta2 v + (1 - beta2) g g`` and
    ``theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``, with ``beta1``,
    ``beta2`` and ``eps`` the module's ``ADAM_*`` constants, through one scratch
    vector and the step vector instead of a temporary per operation. The
    decay is skipped when ``weight_decay`` is 0, where it changes no bits
    (but the sign of a -0.0).
    """
    m, v = state.m, state.v
    if not theta.shape == g.shape == m.shape == v.shape:
        raise ValueError("gradient shape does not match parameters")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    scratch = np.empty_like(theta)
    if weight_decay != 0.0:  # decay decoupled from the moments
        theta -= np.multiply(lr * weight_decay, theta, out=scratch)
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, out=scratch)
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, g, out=scratch)
    v += np.multiply(scratch, g, out=scratch)
    np.divide(v, bc2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    step = m / bc1
    step *= lr
    step /= scratch
    theta -= step


@dataclass
class TrainState:
    """A run as of its last finished epoch: everything needed to continue it
    exactly where it stopped.

    ``opt`` is the autoencoder's one AdamW state: its moments are laid out
    like ``enc.params`` followed by ``dec.params``. Inside :func:`train`
    each network's ``params`` is a view of one autoencoder vector (see
    :func:`_autoencoder_vectors`).
    """

    epoch: int
    enc: net.Mlp
    dec: net.Mlp
    opt: AdamWState
    rng: np.random.Generator


@dataclass
class TrainResult:
    records: list[EpochRecord]
    state: TrainState


def _derived_seeds(seed: int) -> dict[str, int]:
    children = np.random.SeedSequence(seed).spawn(4)
    names = ("encoder_init", "decoder_init", "split", "loop")
    return {n: int(c.generate_state(1, dtype=np.uint64)[0]) for n, c in zip(names, children)}


def _architectures(config: RunConfig) -> tuple[list[int], list[str]]:
    acts = [config.activation] * (len(config.dims) - 2) + ["identity"]
    return config.dims, acts


def init_networks(config: RunConfig) -> tuple[net.Mlp, net.Mlp]:
    """Seed-derived encoder/decoder pair (decoder dimensions reversed)."""
    seeds = _derived_seeds(config.seed)
    dims, acts = _architectures(config)
    enc = net.init(dims, acts, seeds["encoder_init"])
    dec = net.init(list(reversed(dims)), acts, seeds["decoder_init"])
    return enc, dec


def split_dataset(config: RunConfig, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The run's (train, validation) partition of the (n, d) ``samples``."""
    return data_mod.split(samples, config.val_fraction, _derived_seeds(config.seed)["split"])


def _initial_state(config: RunConfig) -> TrainState:
    """Epoch 0 of a fresh run: seeded networks, zero moments, the loop's generator."""
    enc, dec = init_networks(config)
    rng = np.random.default_rng(_derived_seeds(config.seed)["loop"])
    return TrainState(0, enc, dec, AdamWState.zeros(enc.params.size + dec.params.size), rng)


# looked up on the module per call, so that wrappers installed there are seen
_MOMENT_LOSSES = {
    "lociso": "local_iso_loss_and_grad",
    "conf": "nonlinear_conformal_loss_and_grad",
    "constconf": "constant_conformal_loss_and_grad",
}


def _decoder_tape(config, dec, codes):
    """``(y, rows, tape)``: for a moment regularizer the latent-basis JVP of
    ``codes`` and its (B, m, out) tangent rows, else a primal tape and ``None``."""
    if config.regularizer not in _MOMENT_LOSSES:
        y, tape = net.forward_tape(dec, codes)
        return y, None, tape
    res = net.jvp(dec, codes)
    return res.y, res.jv, res.trace


def _geo_value_and_grads(config, codes, y, rows, probes, want_grad):
    """``(value, g_y, g_rows, g_codes)`` of the enabled geometric loss; an
    adjoint it does not produce, or any without ``want_grad``, is ``None``."""
    if config.regularizer == "globiso":
        value, g_y, g_z = reg.global_iso_loss_and_grad(codes, y, want_grad=want_grad)
        return value, g_y, None, g_z
    loss = getattr(reg, _MOMENT_LOSSES[config.regularizer])
    value, g_rows = loss(rows, probes, want_grad=want_grad)
    return value, None, g_rows, None


def _evaluates_geo(config: RunConfig, batch: int) -> bool:
    """Whether a batch of ``batch`` codes evaluates the geometric term: a
    trailing singleton batch has no pairs to compare."""
    return config.regularizer != "none" and (config.regularizer != "globiso" or batch >= 2)


def _batch_losses_and_grads(config, lam, enc, dec, x, rng, epoch, batch_no, grads=(None, None)):
    """``(recon, geo, enc_grads, dec_grads)`` of one step on recon + lam * geo.

    The decoder is evaluated once (:func:`_decoder_tape`); both losses read
    its outputs, and their ``lam``-weighted adjoints seed one decoder sweep,
    whose code gradient seeds the encoder's. With ``lam`` zero the enabled
    term is only evaluated (monitored mode); ``geo`` is 0.0 where the batch
    does not evaluate it (:func:`_evaluates_geo`). ``epoch`` and
    ``batch_no`` locate a :class:`TrainingDivergedError` or a
    :class:`~confae.regularizers.DegenerateJacobianError`. ``grads`` is the
    pair of :class:`~confae.net.ParamGradient` the sweeps write into, or
    ``None`` for a fresh one.
    """
    codes, enc_tape = net.forward_tape(enc, x)
    y, rows, dec_tape = _decoder_tape(config, dec, codes)
    rec, g_rec = reg.recon_loss_and_grad(y, x)
    if not np.isfinite(rec):
        raise TrainingDivergedError(epoch, batch_no, "recon", rec)
    geo_val, g_y, g_rows, g_z = 0.0, None, None, None
    if _evaluates_geo(config, x.shape[0]):
        probes = None
        if rows is not None and not config.exact_trace:
            probes = reg.rademacher_block(rng, codes.shape[0], config.probes, config.latent_dim)
        try:
            geo_val, g_y, g_rows, g_z = _geo_value_and_grads(
                config, codes, y, rows, probes, want_grad=lam > 0.0
            )
        except reg.DegenerateJacobianError as exc:
            raise reg.DegenerateJacobianError(exc.index, exc.value, epoch, batch_no) from None
        if not np.isfinite(geo_val):
            raise TrainingDivergedError(epoch, batch_no, config.regularizer, geo_val)
    out_grad = g_rec if g_y is None else g_rec + lam * g_y
    tan_grad = None if g_rows is None else lam * g_rows
    enc_grads, dec_grads = grads
    dec_grads, g_codes = net.backward(
        dec, dec_tape, out_grad=out_grad, tan_grad=tan_grad, grads=dec_grads
    )
    if g_z is not None:
        g_codes = g_codes + lam * g_z
    enc_grads, _ = net.backward(enc, enc_tape, out_grad=g_codes, grads=enc_grads, input_grad=False)
    return rec, geo_val, enc_grads, dec_grads


def _check_data(config: RunConfig, samples: np.ndarray, use: str) -> None:
    """Refuse samples that are not standardized or do not fit ``config.dims``."""
    if not data_mod.is_standardized(samples):
        raise ValueError(f"dataset must be standardized before {use}")
    n, size = samples.shape[1], config.dims[0]
    if n != size:
        raise ConfigError([f"dims: input size {size} does not match the data's {n} columns"])


def _autoencoder_vectors(state: TrainState):
    """``(params, flat, grads)`` over the encoder's and then the decoder's parameters.

    ``params`` is one vector, of which the state's networks become views,
    and ``state.opt``'s moments are replaced by copies beside it. ``grads``
    is the pair of gradients the training step writes, views of the one
    vector ``flat``.
    """
    enc, dec, opt = state.enc, state.dec, state.opt
    n = enc.params.size
    # one allocation: in the benchmark's train workloads, four separate
    # vectors let glibc trim and regrow the heap at every batch of the first
    # epoch, and one block did not (the layout is sensitive; see CHANGES.md)
    params, m, v, flat = np.empty((4, n + dec.params.size))
    np.concatenate((enc.params, dec.params), out=params)
    m[:], v[:] = opt.m, opt.v
    opt.m, opt.v = m, v
    grads = []
    for network, half in ((enc, slice(n)), (dec, slice(n, None))):
        network.rebind(params[half])
        grads.append(net.ParamGradient.from_flat(network, flat[half]))
    return params, flat, tuple(grads)


def training_intensity(config: RunConfig, samples: np.ndarray) -> float:
    """The weight of the geometric term when ``config`` trains on the (n, d) ``samples``.

    An enabled regularizer without ``lambda_geo`` takes the intensity
    :func:`calibrate_intensity` proposes, and refuses as it does. A
    :class:`ConfigError` refuses an invalid config and data whose width is not
    ``dims[0]``; ``ValueError`` refuses data that is not standardized.
    """
    config.validate()
    if config.regularizer != "none" and config.lambda_geo is None:
        return calibrate_intensity(config, samples)[0]
    _check_data(config, samples, "training")
    return 0.0 if config.regularizer == "none" else config.lambda_geo


def train(
    config: RunConfig,
    samples: np.ndarray,
    *,
    resume: TrainState | None = None,
    on_epoch=None,
) -> TrainResult:
    """Minimize reconstruction + intensity * geometric term over minibatches of ``samples``.

    The geometric term is evaluated on the codes of the current batch; its
    gradient reaches both networks. With intensity zero the enabled regularizer is still evaluated and
    logged (monitored mode). ``resume`` continues a run toward the same total
    epoch count, bit-exactly, and is itself the state advanced in place.
    """
    # a diverging run is reported by the finite checks, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        lam = training_intensity(config, samples)
        x_train, x_val = split_dataset(config, samples)
        state = _initial_state(config) if resume is None else resume
        params, flat, grads = _autoencoder_vectors(state)
        n_train = x_train.shape[0]
        opts = dict(lr=config.lr, weight_decay=config.weight_decay)
        records = []

        for epoch in range(state.epoch + 1, config.epochs + 1):
            tic = time.perf_counter()
            perm = state.rng.permutation(n_train)
            recon_sum = 0.0
            geo_sum = 0.0
            n_geo = 0  # batches that evaluated the geometric term
            for batch_no, lo in enumerate(range(0, n_train, config.batch_size)):
                idx = perm[lo : lo + config.batch_size]
                x = x_train[idx]
                rec, geo_val, _, _ = _batch_losses_and_grads(
                    config, lam, state.enc, state.dec, x, state.rng, epoch, batch_no, grads
                )
                adamw_step(params, flat, state.opt, **opts)
                recon_sum += rec * x.shape[0]
                geo_sum += geo_val
                n_geo += _evaluates_geo(config, x.shape[0])

            val_recon = reg.recon_loss(state.enc, state.dec, x_val)
            epoch_recon = recon_sum / n_train
            epoch_geo = geo_sum / max(n_geo, 1)
            record = EpochRecord(
                epoch=epoch,
                recon=epoch_recon,
                geo=epoch_geo,
                val_recon=val_recon,
                seconds=time.perf_counter() - tic,
                total=epoch_recon + lam * epoch_geo,
            )
            records.append(record)
            state.epoch = epoch
            if on_epoch is not None:
                on_epoch(state, record)
        return TrainResult(records=records, state=state)


CALIBRATION_SAMPLE = 512

# Fraction of the initial reconstruction magnitude allotted to the geometric
# term. Reconstruction falls by roughly two orders of magnitude over a full
# schedule while the geometric losses keep their initial scale, so matching
# the raw initial values lets the regularizer dominate the late phase and
# collapse the decoder's conditioning to 1; the backoff matches the two terms
# in the trained regime instead.
CALIBRATION_BALANCE = 0.004


def calibrate_intensity(config: RunConfig, samples: np.ndarray):
    """Propose an intensity balancing the two loss terms over a whole run.

    Evaluates reconstruction and the enabled geometric term on the untrained
    networks over a fixed training subsample, one encoding and one decoder
    tape read by both terms (moment losses on exact moments, with no probe
    draw), and returns
    ``(proposed_intensity, recon_value, geo_value)`` with
    ``proposed_intensity = CALIBRATION_BALANCE * recon_value / geo_value``.
    A :class:`ConfigError` refuses a sample on which the term is not
    evaluated (globiso on a one-code training split).
    """
    config.validate()
    if config.regularizer == "none":
        raise ConfigError(["regularizer: nothing to calibrate for tag 'none'"])
    _check_data(config, samples, "calibration")
    x_train, _ = split_dataset(config, samples)
    sample = x_train[:CALIBRATION_SAMPLE]
    if not _evaluates_geo(config, len(sample)):
        problem = f"compares pairs of codes, but the training split holds {len(sample)}"
        raise ConfigError([f"regularizer: {config.regularizer} {problem}"])
    enc, dec = init_networks(config)
    with np.errstate(over="ignore", invalid="ignore"):
        codes = net.forward(enc, sample)
        y, rows, _ = _decoder_tape(config, dec, codes)
        recon0 = reg.recon_loss_and_grad(y, sample, want_grad=False)[0]
        try:
            geo0 = _geo_value_and_grads(config, codes, y, rows, None, want_grad=False)[0]
        except reg.DegenerateJacobianError as exc:
            # the sample is the training split's leading rows, so the index is a row of it
            stage = (
                "calibration of the untrained decoder refused (the code index counts rows of "
                f"the training split, whose first {CALIBRATION_SAMPLE} rows are the sample)"
            )
            raise reg.DegenerateJacobianError(exc.index, exc.value, stage=stage) from None
    if geo0 <= 1e-12:
        raise ConfigError(
            ["lambda_geo: geometric term vanishes on the initial model; calibration is moot"]
        )
    return CALIBRATION_BALANCE * recon0 / geo0, recon0, geo0
