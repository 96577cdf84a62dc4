"""Loss terms: reconstruction, isometric and conformal regularizers.

The geometric regularizers are smooth functions of two per-point quadratic
moments of the decoder's pullback metric ``M(z) = J(z)^T J(z)``:

  t1(z) = Tr M(z)      estimated by mean_i ||J v_i||^2,
  t2(z) = Tr M(z)^2    estimated by mean_i ||J^T (J v_i)||^2,

with ``v_i`` Rademacher probe vectors (entries +-1): both estimators are
unbiased and exact for diagonal metrics. A point's probe set is shared
between the two moments, so the conformal ratio sees correlated noise.
With ``probes=None`` the moments are summed over the latent basis vectors
instead, which evaluates them without Monte-Carlo error (cheap while the
latent dimension is small); the losses are differentiable either way.

The ratio-of-estimates in the per-point conformal loss is biased for finite
probe counts (ratio of two unbiased estimates); the exact path exists for
testing and for small latent dimensions.

Every loss is one function ``f(dec, codes, ...) -> (value, dec_grads,
code_grads)``: the value, the parameter gradient of the decoder, and the
gradient w.r.t. the latent codes (so the loss can be chained through an
encoder). With ``want_grad=False`` both gradients are ``None``.
"""

from __future__ import annotations

import numpy as np

from . import net

DEGENERATE_TRACE_FLOOR = 1e-12


class DegenerateJacobianError(ValueError):
    """Raised when a trace estimate collapses (rank-deficient decoder).

    ``epoch`` and ``batch`` locate the failure when it happens in training.
    """

    def __init__(
        self, index: int, value: float, epoch: int | None = None, batch: int | None = None
    ):
        self.index = index
        self.value = value
        self.epoch = epoch
        self.batch = batch
        where = "" if epoch is None else f" (epoch {epoch}, batch {batch})"
        super().__init__(
            f"trace estimate {value:.3e} at code index {index}{where} is not positive; "
            "the decoder Jacobian has collapsed there"
        )


def rademacher_block(rng: np.random.Generator, batch: int, count: int, dim: int) -> np.ndarray:
    """Fresh (batch, count, dim) probe block drawn from ``rng``."""
    return rng.integers(0, 2, size=(batch, count, dim)) * 2.0 - 1.0


def _codes_2d(codes: np.ndarray, dim: int) -> np.ndarray:
    arr = np.asarray(codes, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"codes must be (batch, {dim}), got shape {np.shape(codes)}")
    if arr.shape[0] == 0:
        raise ValueError("code batch is empty")
    return arr


def _probe_block(codes: np.ndarray, probes: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The (B, N, m) probe block plus moment weights; ``None`` is the exact basis."""
    b, m = codes.shape
    if probes is None:
        return np.broadcast_to(np.eye(m), (b, m, m)), np.ones(m)
    block = np.asarray(probes, dtype=np.float64)
    if block.ndim != 3 or block.shape[0] != b or block.shape[2] != m:
        raise ValueError(f"probe block must be (batch, count, {m})")
    if block.shape[1] == 0:
        raise ValueError("probe set is empty")
    return block, np.full(block.shape[1], 1.0 / block.shape[1])


def trace_moments(dec: net.Mlp, codes: np.ndarray, probes: np.ndarray | None = None):
    """Per-code moments ``(t1, t2)`` of the pullback metric, plus the tape.

    ``probes`` is ``None`` for the exact basis sum or a (B, N, m) Rademacher
    block for the Monte-Carlo estimate. The block goes to :func:`net.jvp`
    as is, so a code's N probe tangents share one primal row, and the
    reverse sweep in :func:`_moments_backward` runs the primal adjoint only
    where a second derivative reaches it. The third element feeds
    :func:`_moments_backward`.
    """
    z = _codes_2d(codes, dec.in_dim)
    block, weights = _probe_block(z, probes)
    b, n, _ = block.shape
    res = net.jvp(dec, z, block, with_pullback=True)
    t1 = (res.jv**2).sum(axis=1).reshape(b, n) @ weights
    t2 = (res.pullback**2).sum(axis=1).reshape(b, n) @ weights
    return t1, t2, (res, weights)


def _moments_backward(dec: net.Mlp, tape, d_t1: np.ndarray, d_t2: np.ndarray):
    res, weights = tape
    coeff1 = (d_t1[:, None] * weights[None, :]).reshape(-1, 1)
    coeff2 = (d_t2[:, None] * weights[None, :]).reshape(-1, 1)
    grads, g_codes, _ = net.backward(
        dec,
        res.trace,
        tan_grad=2.0 * coeff1 * res.jv,
        pull_grad=2.0 * coeff2 * res.pullback,
    )
    return grads, g_codes


def _samples_2d(batch: np.ndarray) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[0] == 0:
        raise ValueError("batch is empty")
    return x


def recon_loss(enc: net.Mlp, dec: net.Mlp, batch: np.ndarray) -> float:
    """Mean squared reconstruction error, one squared norm per sample."""
    x = _samples_2d(batch)
    y = net.forward(dec, net.forward(enc, x))
    return float(((x - y) ** 2).sum() / x.shape[0])


def recon_loss_and_grad(dec: net.Mlp, codes: np.ndarray, batch: np.ndarray, *, want_grad=True):
    """Mean squared error of decoding ``codes`` against the samples ``batch``.

    The code gradient is the encoder's output adjoint, so the encoder runs
    once, in the caller.
    """
    x = _samples_2d(batch)
    y, tape = net.forward_tape(dec, codes)
    diff = y - x
    value = float((diff**2).sum() / x.shape[0])
    if not want_grad:
        return value, None, None
    dec_grads, g_codes, _ = net.backward(dec, tape, out_grad=2.0 * diff / x.shape[0])
    return value, dec_grads, g_codes


def global_iso_loss_and_grad(dec: net.Mlp, codes: np.ndarray, *, want_grad=True):
    """Mean absolute gap between latent and decoded pairwise distances."""
    z = _codes_2d(codes, dec.in_dim)
    if z.shape[0] < 2:
        raise ValueError("pairwise distances need at least two codes")
    y, tape = net.forward_tape(dec, z)
    iu, ju = np.triu_indices(z.shape[0], k=1)
    dz = np.linalg.norm(z[iu] - z[ju], axis=1)
    dx = np.linalg.norm(y[iu] - y[ju], axis=1)
    gap = dz - dx
    value = float(np.abs(gap).mean())
    if not want_grad:
        return value, None, None
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

    dec_grads, g_in, _ = net.backward(dec, tape, out_grad=g_y)
    return value, dec_grads, g_z + g_in


def nonlinear_conformal_loss_and_grad(dec, codes, probes=None, *, want_grad=True):
    """Pointwise spectral-uniformity penalty: (m/2) E[t2 / t1^2] - 1/2.

    Vanishes exactly when the pullback metric is a (point-dependent)
    positive multiple of the identity at every code.
    """
    t1, t2, tape = trace_moments(dec, codes, probes)
    bad = np.nonzero(t1 <= DEGENERATE_TRACE_FLOOR)[0]
    if bad.size:
        raise DegenerateJacobianError(int(bad[0]), float(t1[bad[0]]))
    m, b = dec.in_dim, t1.shape[0]
    value = float(np.mean(0.5 * m * t2 / t1**2) - 0.5)
    if not want_grad:
        return value, None, None
    d_t2 = 0.5 * m / (b * t1**2)
    d_t1 = -m * t2 / (b * t1**3)
    return (value, *_moments_backward(dec, tape, d_t1, d_t2))


def local_iso_loss_and_grad(dec, codes, probes=None, *, want_grad=True):
    """Orthonormality penalty E[t2]/(2m) - E[t1]/m + 1/2 on the pullback metric."""
    t1, t2, tape = trace_moments(dec, codes, probes)
    m, b = dec.in_dim, t1.shape[0]
    value = float(t2.mean() / (2 * m) - t1.mean() / m + 0.5)
    if not want_grad:
        return value, None, None
    d_t2 = np.full(b, 1.0 / (2 * m * b))
    d_t1 = np.full(b, -1.0 / (m * b))
    return (value, *_moments_backward(dec, tape, d_t1, d_t2))


def constant_conformal_loss_and_grad(dec, codes, probes=None, *, want_grad=True):
    """Batch-level uniformity penalty (m/2) E[t2] / E[t1]^2 - 1/2.

    The expectations sit inside the ratio, so only a globally constant
    stretch factor brings this to zero (contrast the pointwise loss).
    """
    t1, t2, tape = trace_moments(dec, codes, probes)
    m, b = dec.in_dim, t1.shape[0]
    mean_t1, mean_t2 = float(t1.mean()), float(t2.mean())
    if mean_t1 <= DEGENERATE_TRACE_FLOOR:
        raise DegenerateJacobianError(int(np.argmin(t1)), mean_t1)
    value = 0.5 * m * mean_t2 / mean_t1**2 - 0.5
    if not want_grad:
        return value, None, None
    d_t2 = np.full(b, 0.5 * m / (b * mean_t1**2))
    d_t1 = np.full(b, -m * mean_t2 / (b * mean_t1**3))
    return (value, *_moments_backward(dec, tape, d_t1, d_t2))
