"""Tests for the classical logarithmic norm and its limit-definition check."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slognorm.lognorm import (
    default_mu_h_sequence,
    mu,
    mu_batch,
    mu_limit_check,
    ols_line_weights,
)
from slognorm.matcore import DimensionError, matrix_norm

P_VALUES = (1, 2, math.inf)


def random_matrix(rng: np.random.Generator, n: int, scale: float = 1.0,
                  complex_: bool = False) -> np.ndarray:
    a = rng.uniform(-scale, scale, (n, n))
    if complex_:
        a = a + 1j * rng.uniform(-scale, scale, (n, n))
    return a


class TestMuClosedForms:
    @pytest.mark.parametrize("p", P_VALUES)
    def test_diagonal_real(self, p):
        assert mu(np.diag([-100.0, -200.0]), p) == -100.0

    @pytest.mark.parametrize("p", P_VALUES)
    def test_zero_matrix(self, p):
        assert mu(np.zeros((3, 3)), p) == 0.0

    @pytest.mark.parametrize("b", [0.0, 0.5, 2.0, 7.0])
    def test_shear_two_norm(self, b):
        got = mu([[-1.0, b], [0.0, -1.0]], 2)
        assert got == pytest.approx(max(b / 2 - 1, -(b / 2 + 1)), abs=1e-12)

    def test_pendulum_drift(self):
        assert mu([[0.0, 1.0], [10.0, 0.0]], 2) == pytest.approx(5.5, abs=1e-12)

    def test_one_norm_complex(self):
        # columns: Re(diag) + off-diagonal moduli
        a = np.array([[1 + 5j, 2j], [3, -4 + 1j]])
        assert mu(a, 1) == pytest.approx(max(1 + 3, -4 + 2), abs=1e-12)

    def test_inf_norm_complex(self):
        a = np.array([[1 + 5j, 2j], [3, -4 + 1j]])
        assert mu(a, math.inf) == pytest.approx(max(1 + 2, -4 + 3), abs=1e-12)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            mu(np.eye(2), "nuclear")

    def test_batch_consistent_with_scalar(self):
        rng = np.random.default_rng(5)
        mats = np.stack([random_matrix(rng, 4, complex_=True) for _ in range(12)])
        for p in P_VALUES:
            got = mu_batch(mats, p)
            want = [mu(m, p) for m in mats]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestMuProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from(P_VALUES))
    def test_subadditive(self, seed, n, p):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, n, complex_=True)
        b = random_matrix(rng, n, complex_=True)
        assert mu(a + b, p) <= mu(a, p) + mu(b, p) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.sampled_from(P_VALUES),
        st.floats(0.01, 100.0),
    )
    def test_positive_homogeneous(self, seed, n, p, c):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, n, complex_=True)
        assert mu(c * a, p) == pytest.approx(c * mu(a, p), rel=1e-10, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from(P_VALUES))
    def test_bounded_by_norm(self, seed, n, p):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, n, complex_=True)
        assert abs(mu(a, p)) <= matrix_norm(a, p) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_dominates_spectral_abscissa(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, n, complex_=True)
        abscissa = np.linalg.eigvals(a).real.max()
        assert abscissa <= mu(a, 2) + 1e-9


#: every scalar entry point that takes a matrix from a caller
ENTRY_POINTS = {
    "mu": lambda m: mu(m, 2),
    "mu_limit_check": lambda m: mu_limit_check(m, 1),
    "matrix_norm": lambda m: matrix_norm(m, math.inf),
}


class TestMatrixValidation:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("shape", [(0, 0), (0, 1), (4,), (2, 3), (1, 2, 2)],
                             ids=["0-0", "0-1", "1d", "2-3", "3d"])
    def test_rejects_shapes(self, entry, shape):
        with pytest.raises(DimensionError, match="square"):
            ENTRY_POINTS[entry](np.zeros(shape))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    def test_rejects_nonfinite(self, entry, bad):
        with pytest.raises(ValueError, match="finite"):
            ENTRY_POINTS[entry]([[1.0, bad], [bad, 1.0]])


class TestInterceptWeights:
    def test_recovers_line_intercept_exactly(self):
        x = np.array([1.0, 0.5, 0.25, 0.125])
        y = 3.0 - 2.0 * x
        w0, w1 = ols_line_weights(x)
        assert w0 @ y == pytest.approx(3.0, abs=1e-12)
        assert w1 @ y == pytest.approx(-2.0, abs=1e-12)

    def test_weight_identities(self):
        x = np.array([0.4, 0.2, 0.1])
        w0, w1 = ols_line_weights(x)
        assert w0.sum() == pytest.approx(1.0, abs=1e-12)
        assert w0 @ x == pytest.approx(0.0, abs=1e-12)
        assert w1.sum() == pytest.approx(0.0, abs=1e-12)
        assert w1 @ x == pytest.approx(1.0, abs=1e-12)

    def test_rejects_degenerate_abscissae(self):
        with pytest.raises(ValueError):
            ols_line_weights(np.array([0.5]))
        with pytest.raises(ValueError):
            ols_line_weights(np.array([0.5, 0.5]))


class TestMuLimitCheck:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_default_h_sequence_of_extreme_matrices(self, n):
        # h0 stays positive where squaring the entries of A would overflow
        h0 = default_mu_h_sequence(1e200 * np.eye(n), 2)[0]
        assert h0 == pytest.approx(1e-205, rel=1e-14, abs=0)

    def test_zero_matrix(self):
        assert mu_limit_check(np.zeros((2, 2)), 2) == pytest.approx(0.0, abs=1e-12)

    def test_scalar(self):
        assert mu_limit_check([[-3.0]], 2) == pytest.approx(-3.0, abs=1e-9)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_random_4x4_agrees_with_closed_form(self, p):
        rng = np.random.default_rng(17)
        a = random_matrix(rng, 4, scale=2.0, complex_=True)
        assert mu_limit_check(a, p) == pytest.approx(mu(a, p), abs=1e-6)

    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize(
        "a",
        [-800 * np.eye(2), 1e200 * np.eye(2)]
        + [s * np.array([[-1.0, 2.0], [0.0, -3.0]]) for s in (1e-8, 1e-12, 1e-100)],
        ids=["-800I", "1e200I", "s1e-8", "s1e-12", "s1e-100"],
    )
    def test_default_steps_at_every_scale(self, a, p):
        # the default steps stay above the 1e-10 floor for large norm(A),
        # and I + hA does not round to I for tiny A
        assert mu_limit_check(a, p) == pytest.approx(mu(a, p), rel=1e-8, abs=0)

    def test_explicit_h_sequence(self):
        a = np.diag([-3.0, 1.0])
        h_seq = tuple(1e-4 * 0.5**k for k in range(6))
        assert mu_limit_check(a, 2, h_seq) == pytest.approx(1.0, abs=1e-6)

    def test_h_sequence_validation(self):
        a = np.eye(2)
        with pytest.raises(ValueError):
            mu_limit_check(a, 2, [1e-4])  # too short
        with pytest.raises(ValueError):
            mu_limit_check(a, 2, [1e-4, 1e-4])  # not decreasing
        with pytest.raises(ValueError):
            mu_limit_check(a, 2, [1e-4, 1e-11])  # below the floor

    @pytest.mark.parametrize("h_seq", [[math.nan, math.nan], [math.inf, 1e-3]])
    def test_nonfinite_steps_rejected(self, h_seq):
        # NaN fails both the floor and the ordering comparison; it used to
        # return nan
        with pytest.raises(ValueError, match="finite"):
            mu_limit_check([[-1.0]], 2, h_seq)
