"""Loss terms: reconstruction, isometric and conformal regularizers.

The geometric regularizers are smooth functions of two per-point quadratic
moments of the decoder's pullback metric ``M(z) = J(z)^T J(z)``:

  t1(z) = Tr M(z)      estimated by mean_i v_i^T G v_i    (= ||J v_i||^2),
  t2(z) = Tr M(z)^2    estimated by mean_i v_i^T G^2 v_i  (= ||J^T J v_i||^2),

with ``G`` the m x m Gram matrix of the Jacobian's columns, which one
tangent sweep of the latent basis yields, and ``v_i`` Rademacher probe
vectors (entries +-1): both estimators are unbiased and exact for diagonal
metrics. The probes enter only through the per-code matrix
``P = mean_i v_i v_i^T``, so ``t1 = tr(G P)`` and ``t2 = tr(G G P)``, and a
point's probe set is shared between the two moments, so the conformal ratio
sees correlated noise. With ``probes=None`` the moments are exact,
``t1 = tr G`` and ``t2 = tr G^2``, and no ``P`` is formed: the exact path
costs one Gram einsum and two trace einsums forward, and one ``S @ C``
product back. The losses are differentiable either way.

The ratio-of-estimates in the per-point conformal loss is biased for finite
probe counts (ratio of two unbiased estimates); the exact path has no such
bias.

Every loss is a function of the decoder's outputs, not of the decoder:
reconstruction and global isometry read its primal outputs ``y``, the moment
losses read the (B, m, out) tangent rows of one latent-basis JVP. Each
returns its value plus the adjoints of those outputs (and of the codes, for
global isometry); with ``want_grad=False`` the adjoints are ``None``. The
caller records the decoder's tape once, sums the weighted adjoints and runs
one reverse sweep (:func:`confae.training._batch_losses_and_grads`).
"""

from __future__ import annotations

import functools

import numpy as np

from . import net

DEGENERATE_TRACE_FLOOR = 1e-12


class DegenerateJacobianError(ValueError):
    """Raised when a trace estimate collapses (rank-deficient decoder).

    ``epoch`` and ``batch`` locate the failure when it happens in training;
    ``stage``, when given, leads the message and names the step that refused.
    """

    def __init__(
        self,
        index: int,
        value: float,
        epoch: int | None = None,
        batch: int | None = None,
        stage: str | None = None,
    ):
        self.index = index
        self.value = value
        self.epoch = epoch
        self.batch = batch
        where = "" if epoch is None else f" (epoch {epoch}, batch {batch})"
        lead = "" if stage is None else f"{stage}: "
        super().__init__(
            f"{lead}trace estimate {value:.3e} at code index {index}{where} is not positive; "
            "the decoder Jacobian has collapsed there"
        )


def rademacher_block(rng: np.random.Generator, batch: int, count: int, dim: int) -> np.ndarray:
    """Fresh (batch, count, dim) probe block drawn from ``rng``."""
    return rng.integers(0, 2, size=(batch, count, dim)) * 2.0 - 1.0


def _probe_block(b: int, m: int, probes: np.ndarray) -> np.ndarray:
    """The checked (B, N, m) probe block."""
    block = np.asarray(probes, dtype=np.float64)
    if block.ndim != 3 or block.shape[0] != b or block.shape[2] != m:
        raise ValueError(f"probe block must be (batch, count, {m})")
    if block.shape[1] == 0:
        raise ValueError("probe set is empty")
    return block


def trace_moments(rows: np.ndarray, probes: np.ndarray | None = None):
    """Per-code moments ``(t1, t2)`` of the pullback metric, plus the tape.

    ``rows`` is the (B, m, out) stack of the decoder's tangent rows of
    :func:`net.jvp` along the latent basis: the Jacobian's columns, whose
    Gram matrix is ``G = J^T J``. ``probes`` is ``None`` for the exact moments or a
    (B, N, m) Rademacher block for the Monte-Carlo estimate. The probes
    enter only through the per-code matrix ``P = (1/N) sum_i v_i v_i^T``, so
    ``t1 = tr(G P) = (1/N) sum_i v_i^T G v_i`` and
    ``t2 = tr(G G P) = (1/N) sum_i v_i^T G^2 v_i``. The exact moments
    ``t1 = tr G`` and ``t2 = tr G^2`` form no ``P`` (it would be ``I``, and
    the bits are the same without it). The third element feeds
    :func:`_moments_backward`; its ``P`` is ``None`` on the exact path.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 3 or rows.shape[0] == 0:
        raise ValueError(f"tangent rows must be a nonempty (batch, m, out) stack, got {rows.shape}")
    g = net.gram(rows)
    p, gp = None, g
    if probes is not None:
        block = _probe_block(*rows.shape[:2], probes)
        # one batched product: each term is exactly +-1/N, summed in probe order
        p = (block / block.shape[1]).transpose(0, 2, 1) @ block
        gp = g @ p
    t1 = np.einsum("bii->b", gp)
    t2 = np.einsum("bij,bji->b", g, gp)
    return t1, t2, (rows, p, gp)


def _moments_backward(tape, d_t1: np.ndarray, d_t2: np.ndarray) -> np.ndarray:
    rows, p, gp = tape
    # S = dL/dG = d_t1 P + d_t2 (G P + P G) is symmetric, so G = C C^T
    # gives the tangent-row adjoint dL/dC = 2 S C. With P = I the d_t1 term
    # lands on the diagonal alone.
    b, m = rows.shape[:2]
    s = gp + gp.transpose(0, 2, 1)
    s *= d_t2[:, None, None]
    if p is None:
        s.reshape(b, m * m)[:, :: m + 1] += d_t1[:, None]
    else:
        s += d_t1[:, None, None] * p
    s *= 2.0
    return s @ rows


def _samples_2d(batch: np.ndarray) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"batch must be a nonempty (batch, d) array, got shape {x.shape}")
    return x


def recon_loss(enc: net.Mlp, dec: net.Mlp, batch: np.ndarray) -> float:
    """Mean squared reconstruction error, one squared norm per sample."""
    x = _samples_2d(batch)
    return recon_loss_and_grad(net.forward(dec, net.forward(enc, x)), x, want_grad=False)[0]


def recon_loss_and_grad(y: np.ndarray, batch: np.ndarray, *, want_grad=True):
    """Mean squared error of the decoder outputs ``y`` against the samples ``batch``."""
    x = _samples_2d(batch)
    diff = y - x
    value = float((diff**2).sum() / x.shape[0])
    if not want_grad:
        return value, None
    return value, 2.0 * diff / x.shape[0]


@functools.lru_cache(maxsize=4)
def _pairs(b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(iu, ju, ends)`` of the b(b-1)/2 code pairs ``iu < ju``; ``ends`` is ``iu`` then ``ju``."""
    iu, ju = np.triu_indices(b, k=1)
    ends = np.concatenate([iu, ju])
    for a in (iu, ju, ends):
        a.flags.writeable = False
    return iu, ju, ends


def _scatter(ends: np.ndarray, pair_grad: np.ndarray, b: int) -> np.ndarray:
    """(b, d) sums of ``+pair_grad`` at each pair's first code and ``-pair_grad``
    at its second, accumulated in pair order as ``np.add.at`` would."""
    weights = np.concatenate([pair_grad, -pair_grad])
    out = np.empty((b, pair_grad.shape[1]))
    for c in range(out.shape[1]):
        out[:, c] = np.bincount(ends, weights=weights[:, c], minlength=b)
    return out


def global_iso_loss_and_grad(codes: np.ndarray, y: np.ndarray, *, want_grad=True):
    """Mean absolute gap between latent and decoded pairwise distances.

    ``y`` holds the decoder outputs of ``codes``; the adjoints are w.r.t.
    ``y`` and ``codes`` in that order.
    """
    z = np.asarray(codes, dtype=np.float64)
    b = z.shape[0]
    if b < 2:
        raise ValueError("pairwise distances need at least two codes")
    iu, ju, ends = _pairs(b)
    diff_z = z[iu] - z[ju]
    diff_y = y[iu] - y[ju]
    dz = np.linalg.norm(diff_z, axis=1)
    dx = np.linalg.norm(diff_y, axis=1)
    gap = dz - dx
    value = float(np.abs(gap).mean())
    if not want_grad:
        return value, None, None
    sgn = np.sign(gap) / gap.shape[0]
    safe_dx = np.where(dx > 0.0, dx, 1.0)
    g_y = _scatter(ends, (-sgn / safe_dx * (dx > 0.0))[:, None] * diff_y, b)
    safe_dz = np.where(dz > 0.0, dz, 1.0)
    g_z = _scatter(ends, (sgn / safe_dz * (dz > 0.0))[:, None] * diff_z, b)
    return value, g_y, g_z


def nonlinear_conformal_loss_and_grad(rows, probes=None, *, want_grad=True):
    """Pointwise spectral-uniformity penalty: (m/2) E[t2 / t1^2] - 1/2.

    Vanishes exactly when the pullback metric is a (point-dependent)
    positive multiple of the identity at every code.
    """
    t1, t2, tape = trace_moments(rows, probes)
    bad = np.nonzero(t1 <= DEGENERATE_TRACE_FLOOR)[0]
    if bad.size:
        raise DegenerateJacobianError(int(bad[0]), float(t1[bad[0]]))
    b, m = np.shape(rows)[:2]
    value = float(np.mean(0.5 * m * t2 / t1**2) - 0.5)
    if not want_grad:
        return value, None
    d_t2 = 0.5 * m / (b * t1**2)
    d_t1 = -m * t2 / (b * t1**3)
    return value, _moments_backward(tape, d_t1, d_t2)


def local_iso_loss_and_grad(rows, probes=None, *, want_grad=True):
    """Orthonormality penalty E[t2]/(2m) - E[t1]/m + 1/2 on the pullback metric."""
    t1, t2, tape = trace_moments(rows, probes)
    b, m = np.shape(rows)[:2]
    value = float(t2.mean() / (2 * m) - t1.mean() / m + 0.5)
    if not want_grad:
        return value, None
    d_t2 = np.full(b, 1.0 / (2 * m * b))
    d_t1 = np.full(b, -1.0 / (m * b))
    return value, _moments_backward(tape, d_t1, d_t2)


def constant_conformal_loss_and_grad(rows, probes=None, *, want_grad=True):
    """Batch-level uniformity penalty (m/2) E[t2] / E[t1]^2 - 1/2.

    The expectations sit inside the ratio, so only a globally constant
    stretch factor brings this to zero (contrast the pointwise loss).
    """
    t1, t2, tape = trace_moments(rows, probes)
    b, m = np.shape(rows)[:2]
    mean_t1, mean_t2 = float(t1.mean()), float(t2.mean())
    if mean_t1 <= DEGENERATE_TRACE_FLOOR:
        raise DegenerateJacobianError(int(np.argmin(t1)), mean_t1)
    value = 0.5 * m * mean_t2 / mean_t1**2 - 0.5
    if not want_grad:
        return value, None
    d_t2 = np.full(b, 0.5 * m / (b * mean_t1**2))
    d_t1 = np.full(b, -m * mean_t2 / (b * mean_t1**3))
    return value, _moments_backward(tape, d_t1, d_t2)
