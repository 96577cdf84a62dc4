"""Dense small-matrix kernels: singular values and condition numbers.

Everything here operates on matrices of at most a dozen rows (decoder
Jacobians of narrow networks). Singular values come straight from LAPACK's
SVD, never from the eigenvalues of a Gram matrix, so conditioning is not
squared on the way. All functions are pure.
"""

from __future__ import annotations

import math

import numpy as np


def condition_numbers(stack: np.ndarray) -> np.ndarray:
    """sigma_max / sigma_min of each matrix in a (B, r, c) stack, one batched SVD.

    A matrix whose smallest singular value is at most ``max(r, c) * eps``
    times its largest is numerically rank deficient, and so is the zero
    matrix; both get ``inf``.
    """
    s = np.asarray(stack, dtype=np.float64)
    if s.ndim != 3:
        raise ValueError(f"expected a (batch, rows, cols) stack, got ndim={s.ndim}")
    if not np.all(np.isfinite(s)):
        raise ValueError("matrix entries must be finite")
    sigma = np.linalg.svd(s, compute_uv=False)
    hi, lo = sigma[:, 0], sigma[:, -1]
    deficient = lo <= max(s.shape[1:]) * np.finfo(np.float64).eps * hi
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(deficient, math.inf, hi / lo)


def condition_number(a: np.ndarray) -> float:
    """Operator-norm condition number sigma_max / sigma_min.

    Returns ``math.inf`` for rank-deficient input (see ``condition_numbers``);
    a zero matrix is an error.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not m.any():
        raise ValueError("condition number of the zero matrix is undefined")
    return float(condition_numbers(m[None])[0])
