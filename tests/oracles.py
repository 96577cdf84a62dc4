"""Analytic references the tests compare the package against."""

import numpy as np

from confae import net, training
from confae import regularizers as reg


def swiss_roll_point(z: np.ndarray) -> np.ndarray:
    """The roll parametrization at latent (xi, eta); rows of a (n, 2) array map to rows."""
    z = np.asarray(z, dtype=np.float64)
    xi, eta = z[..., 0], z[..., 1]
    return np.stack([xi * np.cos(xi), eta, xi * np.sin(xi)], axis=-1)


def swiss_roll_jacobian(z: np.ndarray) -> np.ndarray:
    """Analytic 3x2 tangent map of the roll parametrization."""
    xi, _ = np.asarray(z, dtype=np.float64)
    return np.array(
        [
            [np.cos(xi) - xi * np.sin(xi), 0.0],
            [0.0, 1.0],
            [np.sin(xi) + xi * np.cos(xi), 0.0],
        ]
    )


def disc_grid(resolution: int = 40, radius: float = 2.0) -> np.ndarray:
    """Square grid over [-radius, radius]^2 clipped to the disc."""
    axis = np.linspace(-radius, radius, resolution)
    xx, yy = np.meshgrid(axis, axis)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    return pts[(pts**2).sum(axis=1) <= radius**2 + 1e-12]


def einsum_trace_moments(rows, probes=None):
    """``regularizers.trace_moments`` with ``P`` from the three-operand einsum."""
    rows = np.asarray(rows, dtype=np.float64)
    g = net.gram(rows)
    p, gp = None, g
    if probes is not None:
        block = reg._probe_block(*rows.shape[:2], probes)
        weights = np.full(block.shape[1], 1.0 / block.shape[1])
        p = np.einsum("bni,bnj,n->bij", block, block, weights)
        gp = g @ p
    return np.einsum("bii->b", gp), np.einsum("bij,bji->b", g, gp), (rows, p, gp)


def global_iso_add_at(codes, y):
    """Global isometry's value and adjoints, scattered by four ``np.add.at`` calls."""
    z = np.asarray(codes, dtype=np.float64)
    iu, ju = np.triu_indices(z.shape[0], k=1)
    dz = np.linalg.norm(z[iu] - z[ju], axis=1)
    dx = np.linalg.norm(y[iu] - y[ju], axis=1)
    gap = dz - dx
    value = float(np.abs(gap).mean())
    sgn = np.sign(gap) / gap.shape[0]

    g_y = np.zeros_like(y)
    safe_dx = np.where(dx > 0.0, dx, 1.0)
    pair_gy = (-sgn / safe_dx * (dx > 0.0))[:, None] * (y[iu] - y[ju])
    np.add.at(g_y, iu, pair_gy)
    np.add.at(g_y, ju, -pair_gy)

    g_z = np.zeros_like(z)
    safe_dz = np.where(dz > 0.0, dz, 1.0)
    pair_gz = (sgn / safe_dz * (dz > 0.0))[:, None] * (z[iu] - z[ju])
    np.add.at(g_z, iu, pair_gz)
    np.add.at(g_z, ju, -pair_gz)
    return value, g_y, g_z


def _two_network_grads(config, lam, enc, dec, x, rng):
    """The encoder's and decoder's gradients of one step, each in its own vector."""
    moment = {
        "lociso": reg.local_iso_loss_and_grad,
        "conf": reg.nonlinear_conformal_loss_and_grad,
        "constconf": reg.constant_conformal_loss_and_grad,
    }.get(config.regularizer)
    codes, enc_tape = net.forward_tape(enc, x)
    if moment is None:
        y, dec_tape = net.forward_tape(dec, codes)
    else:
        res = net.jvp(dec, codes)
        y, dec_tape, rows = res.y, res.trace, res.jv
    _, g_rec = reg.recon_loss_and_grad(y, x)
    g_y = g_rows = g_z = None
    if moment is not None:
        probes = None
        if not config.exact_trace:
            probes = reg.rademacher_block(rng, x.shape[0], config.probes, config.latent_dim)
        _, g_rows = moment(rows, probes, want_grad=lam > 0.0)
    elif config.regularizer == "globiso" and x.shape[0] >= 2:
        _, g_y, g_z = global_iso_add_at(codes, y)
    out_grad = g_rec if g_y is None else g_rec + lam * g_y
    tan_grad = None if g_rows is None else lam * g_rows
    dec_grads, g_codes = net.backward(dec, dec_tape, out_grad=out_grad, tan_grad=tan_grad)
    if g_z is not None:
        g_codes = g_codes + lam * g_z
    enc_grads, _ = net.backward(enc, enc_tape, out_grad=g_codes)
    return enc_grads, dec_grads


def two_vector_train(config, samples):
    """The training loop over two networks with AdamW vectors of their own.

    Each batch takes two ``adamw_step`` calls, one per network, and a
    Monte-Carlo moment loss forms ``P`` by :func:`einsum_trace_moments`
    (the caller installs it as ``regularizers.trace_moments``). Returns the
    trained ``(enc, dec, enc_opt, dec_opt, rng)``.
    """
    lam = 0.0 if config.regularizer == "none" else config.lambda_geo
    x_train = training.split_dataset(config, samples)[0]
    enc, dec = training.init_networks(config)
    enc_opt, dec_opt = (training.AdamWState.zeros(n.params.size) for n in (enc, dec))
    rng = np.random.default_rng(training._derived_seeds(config.seed)["loop"])
    opts = dict(lr=config.lr, weight_decay=config.weight_decay)
    for _ in range(config.epochs):
        perm = rng.permutation(x_train.shape[0])
        for lo in range(0, x_train.shape[0], config.batch_size):
            x = x_train[perm[lo : lo + config.batch_size]]
            enc_grads, dec_grads = _two_network_grads(config, lam, enc, dec, x, rng)
            training.adamw_step(enc.params, enc_grads.flat, enc_opt, **opts)
            training.adamw_step(dec.params, dec_grads.flat, dec_opt, **opts)
    return enc, dec, enc_opt, dec_opt, rng
