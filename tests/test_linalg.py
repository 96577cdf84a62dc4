import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confae import linalg


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
