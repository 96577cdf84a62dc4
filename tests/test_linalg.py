import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confae import linalg


def power_iteration_eigvals(a, iters=20000):
    """Brute-force symmetric eigenvalues: shifted power iteration + deflation.

    Shift by ||A||_F + 1 so all eigenvalues of the shifted matrix are positive
    and the dominant one is extracted first; deflate with the converged
    eigenvector and repeat. Independent of the package's Jacobi path.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    shift = np.linalg.norm(a) + 1.0
    b = a + shift * np.eye(n)
    vals = []
    vecs = []
    rng = np.random.default_rng(12345)
    for _ in range(n):
        v = rng.normal(size=n)
        for u in vecs:
            v -= (u @ v) * u
        v /= np.linalg.norm(v)
        for _ in range(iters):
            w = b @ v
            for u in vecs:
                w -= (u @ w) * u
            nw = np.linalg.norm(w)
            if nw == 0.0:
                break
            v = w / nw
        lam = v @ (b @ v)
        assert np.linalg.norm(b @ v - lam * v) < 1e-9 * np.linalg.norm(b), "oracle failed to converge"
        vals.append(lam - shift)
        vecs.append(v)
    return np.sort(np.array(vals))[::-1]


class TestSymEigvals:
    def test_identity_2x2(self):
        assert np.allclose(linalg.sym_eigvals(np.eye(2)), [1.0, 1.0], atol=0)

    def test_swiss_roll_metric_at_xi_1(self):
        # diag(1 + xi^2, 1) with xi = 1
        vals = linalg.sym_eigvals(np.diag([2.0, 1.0]))
        assert np.allclose(vals, [2.0, 1.0], atol=1e-15)

    def test_random_symmetric_5x5_matches_power_iteration(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(5, 5))
        a = 0.5 * (m + m.T)
        got = linalg.sym_eigvals(a)
        want = power_iteration_eigvals(a)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_descending_order(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 6))
        vals = linalg.sym_eigvals(0.5 * (m + m.T))
        assert np.all(np.diff(vals) <= 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            linalg.sym_eigvals(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            linalg.sym_eigvals(np.ones((2, 3)))

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_psd_spectrum_nonnegative_and_sums_to_trace(self, seed, n):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(n + 1, n))
        a = b.T @ b  # PSD by construction
        vals = linalg.sym_eigvals(a)
        assert np.all(vals >= -1e-10)
        tr = linalg.trace(a)
        assert abs(vals.sum() - tr) <= 1e-9 * max(abs(tr), 1.0)

    def test_trace_of_square_equals_sum_of_squared_eigvals(self):
        rng = np.random.default_rng(11)
        b = rng.normal(size=(4, 4))
        r = b.T @ b
        vals = linalg.sym_eigvals(r)
        assert abs(linalg.trace(r @ r) - np.sum(vals**2)) <= 1e-9 * np.sum(vals**2)


class TestConditionNumber:
    def test_identity(self):
        assert linalg.condition_number(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_diag_2_1(self):
        assert linalg.condition_number(np.diag([2.0, 1.0])) == pytest.approx(2.0, abs=1e-12)

    def test_random_tall_matrix_matches_svd_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 2))
        sigma = np.linalg.svd(a, compute_uv=False)  # Golub-Kahan-style LAPACK path
        want = sigma[0] / sigma[-1]
        assert linalg.condition_number(a) == pytest.approx(want, rel=1e-8)

    def test_gram_squares_the_condition_number(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(4, 3))
        k = linalg.condition_number(a)
        k2 = linalg.condition_number(a.T @ a)
        assert k2 == pytest.approx(k**2, rel=1e-6)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_scalar_invariance(self, seed, alpha):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        k = linalg.condition_number(a)
        assert linalg.condition_number(alpha * a) == pytest.approx(k, rel=1e-10)

    def test_zero_matrix_is_an_error(self):
        with pytest.raises(ValueError):
            linalg.condition_number(np.zeros((2, 2)))

    def test_rank_deficient_gives_inf(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert linalg.condition_number(a) == math.inf


class TestTrace:
    def test_identity_4x4(self):
        assert linalg.trace(np.eye(4)) == 4.0

    def test_swiss_roll_metric(self):
        assert linalg.trace(np.diag([2.0, 1.0])) == 3.0

    def test_similarity_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            assert abs(linalg.trace(a @ b) - linalg.trace(b @ a)) <= 1e-12

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            linalg.trace(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            linalg.trace(np.array([[np.nan, 0.0], [0.0, 1.0]]))
