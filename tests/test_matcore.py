"""Tests for the dense matrix layer: construction, norms, eigen kernels."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slognorm.matcore as matcore
from slognorm.matcore import (
    ComplexMatrix,
    DimensionError,
    NonHermitianError,
    Spectrum,
    as_complex_matrix,
    check_p,
    hermitian_part,
    lambda_max_hermitian,
    lambda_max_hermitian_batch,
    matrix_norm,
    matrix_norm_batch,
    max_re_eigvals_batch,
    spectrum,
    vector_norm,
)

P_VALUES = (1, 2, math.inf)


def random_matrix(rng: np.random.Generator, n: int, scale: float = 1.0,
                  complex_: bool = False) -> np.ndarray:
    a = rng.uniform(-scale, scale, (n, n))
    if complex_:
        a = a + 1j * rng.uniform(-scale, scale, (n, n))
    return a


class TestComplexMatrix:
    def test_round_trip(self):
        m = ComplexMatrix(2, 3, [1, 2j, 3, 4, 5, 6 - 1j])
        assert (m.rows, m.cols) == (2, 3)
        assert m.entries == (1, 2j, 3, 4, 5, (6 - 1j))
        assert not m.is_square
        np.testing.assert_array_equal(
            m.array, np.array([[1, 2j, 3], [4, 5, 6 - 1j]])
        )

    def test_entry_count_mismatch(self):
        with pytest.raises(DimensionError):
            ComplexMatrix(2, 2, [1, 2, 3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            ComplexMatrix(1, 2, [1.0, bad])

    @pytest.mark.parametrize("rows,cols", [(0, 1), (1, 0), (-2, 3)])
    def test_nonpositive_dimensions_rejected(self, rows, cols):
        with pytest.raises(DimensionError):
            ComplexMatrix(rows, cols, [])

    def test_from_array_and_identity(self):
        arr = np.array([[1.5, 0], [0, -2]])
        m = ComplexMatrix.from_array(arr)
        assert m == ComplexMatrix(2, 2, [1.5, 0, 0, -2])
        assert ComplexMatrix.from_array(m) is m
        assert ComplexMatrix.identity(3) == ComplexMatrix.from_array(np.eye(3))
        with pytest.raises(DimensionError):
            ComplexMatrix.from_array(np.zeros(4))

    def test_backing_array_immutable(self):
        m = ComplexMatrix.identity(2)
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    def test_numpy_interop_copy_is_independent(self):
        m = ComplexMatrix.identity(2)
        arr = np.array(m)  # np.array copies by default
        arr[0, 0] = 7.0
        assert m.entries[0] == 1.0

    def test_equality_and_repr(self):
        a = ComplexMatrix(1, 2, [1, 2])
        assert a == ComplexMatrix(1, 2, [1, 2])
        assert a != ComplexMatrix(2, 1, [1, 2])
        assert a != "not a matrix"
        assert "1x2" in repr(a)


class TestAsComplexMatrix:
    def test_accepts_nested_lists(self):
        m = as_complex_matrix([[1, 2], [3, 4]])
        assert m.entries == (1, 2, 3, 4)

    def test_square_requirement(self):
        with pytest.raises(DimensionError, match="drift"):
            as_complex_matrix(np.zeros((2, 3)), square=True, name="drift")


class TestCheckP:
    @pytest.mark.parametrize(
        "raw,expected",
        [(1, 1), (2, 2), (math.inf, math.inf), (np.inf, math.inf),
         ("1", 1), ("2", 2), ("inf", math.inf), (" INF ", math.inf), (2.0, 2)],
    )
    def test_accepted(self, raw, expected):
        assert check_p(raw) == expected

    @pytest.mark.parametrize("raw", [0, 3, -1, "fro", None, 1.5])
    def test_rejected(self, raw):
        with pytest.raises((ValueError, TypeError)):
            check_p(raw)


class TestHermitianPart:
    def test_nilpotent_symmetrization(self):
        h = hermitian_part([[0, 2], [0, 0]])
        np.testing.assert_array_equal(h.array, np.array([[0, 1], [1, 0]]))

    def test_hermitian_fixed_point(self):
        m = np.array([[2.0, 1 + 1j], [1 - 1j, -3.0]])
        np.testing.assert_array_equal(hermitian_part(m).array, m)

    def test_imaginary_scalar(self):
        assert hermitian_part([[1j]]).entries == (0,)

    def test_exactly_hermitian_output(self):
        rng = np.random.default_rng(7)
        m = random_matrix(rng, 5, complex_=True)
        h = hermitian_part(m).array
        np.testing.assert_array_equal(h, h.conj().T)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            hermitian_part(np.zeros((2, 3)))


class TestLambdaMaxHermitian:
    @pytest.mark.parametrize(
        "mat,expected",
        [(np.diag([-100.0, -200.0]), -100.0),
         (np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0),
         (np.array([[2.0, 1.0], [1.0, 2.0]]), 3.0)],
    )
    def test_known_values(self, mat, expected):
        assert lambda_max_hermitian(mat) == pytest.approx(expected, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            lambda_max_hermitian([[0, 1], [0, 0]])

    def test_tolerates_roundoff_asymmetry(self):
        m = np.array([[1.0, 0.5], [0.5 + 1e-15, 1.0]])
        assert lambda_max_hermitian(m) == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_batch_matches_lapack(self, n):
        rng = np.random.default_rng(n)
        mats = np.stack([random_matrix(rng, n, complex_=True) for _ in range(16)])
        herm = 0.5 * (mats + np.conj(np.swapaxes(mats, -1, -2)))
        got = lambda_max_hermitian_batch(herm)
        want = np.linalg.eigvalsh(herm)[..., -1]
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_batch_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            lambda_max_hermitian_batch(np.zeros((4, 2, 3)))


class TestMaxReEigvals:
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_matches_general_solver(self, n):
        rng = np.random.default_rng(10 + n)
        mats = np.stack([random_matrix(rng, n, complex_=True) for _ in range(32)])
        got = max_re_eigvals_batch(mats)
        want = np.linalg.eigvals(mats).real.max(axis=-1)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_defective_two_by_two(self):
        # repeated eigenvalue with a Jordan block: closed form must not lose it
        m = np.array([[[-1.0, 5.0], [0.0, -1.0]]])
        assert max_re_eigvals_batch(m)[0] == pytest.approx(-1.0, abs=1e-12)


class TestSpectrum:
    def test_diagonal(self):
        s = spectrum(np.diag([1 + 2j, 3 + 0j]))
        assert sorted(s.eigenvalues, key=lambda z: z.real) == [1 + 2j, 3]
        assert s.residual_bound >= 0

    def test_rotation_generator(self):
        s = spectrum([[0, 1], [-1, 0]])
        got = sorted(s.eigenvalues, key=lambda z: z.imag)
        assert got[0] == pytest.approx(-1j, abs=1e-12)
        assert got[1] == pytest.approx(1j, abs=1e-12)

    @pytest.mark.parametrize("b", [0.0, 1.0, 3.0])
    def test_shear_matrix_defective_pair(self, b):
        s = spectrum([[-1, b], [0, -1]])
        for lam in s.eigenvalues:
            assert lam == pytest.approx(-1.0, abs=1e-7)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_trace_and_determinant(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, n, complex_=True)
        s = spectrum(a)
        assert len(s.eigenvalues) == n
        scale = max(1.0, matrix_norm(a, 2))
        assert sum(s.eigenvalues) == pytest.approx(np.trace(a), abs=1e-8 * n * scale)
        assert np.prod(np.array(s.eigenvalues)) == pytest.approx(
            np.linalg.det(a), rel=1e-6, abs=1e-8
        )

    def test_is_frozen(self):
        s = spectrum(np.eye(2))
        assert isinstance(s, Spectrum)
        with pytest.raises(AttributeError):
            s.residual_bound = 0.0


class TestMatrixNorm:
    @pytest.mark.parametrize("p", P_VALUES)
    def test_identity(self, p):
        assert matrix_norm(np.eye(4), p) == 1.0

    def test_known_values(self):
        assert matrix_norm([[0, 2], [2, 0]], 2) == pytest.approx(2.0, abs=1e-12)
        assert matrix_norm([[1, -2], [3, 4]], 1) == 6.0
        assert matrix_norm([[1, -2], [3, 4]], math.inf) == 7.0

    def test_two_norm_matches_svd(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5):
            a = random_matrix(rng, n, complex_=True)
            assert matrix_norm(a, 2) == pytest.approx(
                np.linalg.norm(a, 2), rel=1e-10, abs=1e-12
            )

    def test_batch_consistent_with_scalar(self):
        rng = np.random.default_rng(4)
        mats = np.stack([random_matrix(rng, 3, complex_=True) for _ in range(8)])
        for p in P_VALUES:
            got = matrix_norm_batch(mats, p)
            want = [matrix_norm(m, p) for m in mats]
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            matrix_norm(np.eye(2), 3)


class TestVectorNorm:
    def test_known_values(self):
        assert vector_norm([3, 4], 2) == 5.0
        assert vector_norm([1, -1, 1], 1) == 3.0
        assert vector_norm([1, -7, 2], math.inf) == 7.0

    def test_complex_entries(self):
        assert vector_norm([3 + 4j], 2) == pytest.approx(5.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            vector_norm([1.0, math.nan], 2)


class TestSpectralInequalities:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.booleans())
    def test_numerical_range_inside_norm_ball(self, seed, n, complex_):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, n, scale=3.0, complex_=complex_)
        lam = lambda_max_hermitian(hermitian_part(m))
        assert lam <= matrix_norm(m, 2) + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_lambda_max_subadditivity_window(self, seed, n):
        rng = np.random.default_rng(seed)
        h1 = hermitian_part(random_matrix(rng, n, complex_=True)).array
        h2 = hermitian_part(random_matrix(rng, n, complex_=True)).array
        lam_sum = lambda_max_hermitian(h1 + h2)
        lam_min2 = -lambda_max_hermitian(-h2)
        assert lambda_max_hermitian(h1) + lam_min2 <= lam_sum + 1e-9
        assert lam_sum <= lambda_max_hermitian(h1) + lambda_max_hermitian(h2) + 1e-9

    def test_lambda_max_shift_identity(self):
        rng = np.random.default_rng(11)
        h = hermitian_part(random_matrix(rng, 4, complex_=True)).array
        shifted = lambda_max_hermitian(h + 2.5 * np.eye(4))
        assert shifted == pytest.approx(lambda_max_hermitian(h) + 2.5, abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_two_norm_interpolation_bound(self, seed, n):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, n, scale=2.0, complex_=True)
        bound = math.sqrt(matrix_norm(m, 1) * matrix_norm(m, math.inf))
        assert matrix_norm(m, 2) <= bound + 1e-9


class TestRunBlocks:
    def test_every_block_runs_once(self):
        for workers in (None, 1, 3):
            done = []
            matcore._run_blocks(done.append, 7, workers, lapack=True)
            assert sorted(done) == list(range(7))

    def test_worker_count_rules(self, monkeypatch):
        assert matcore._block_workers(8, 3, lapack=False) == 3
        assert matcore._block_workers(None, 5, lapack=False) == 1
        with pytest.raises(ValueError, match="workers"):
            matcore._block_workers(0, 5, lapack=True)
        monkeypatch.setattr(matcore, "_openblas_controls", lambda: None)
        assert matcore._block_workers(None, 5, lapack=True) == 1

    def test_lapack_rule_follows_closed_form_switch(self):
        assert not any(matcore._calls_lapack(n, 2) for n in (1, 2))
        assert matcore._calls_lapack(3, 2) and matcore._calls_lapack(100, 2)
        assert not matcore._calls_lapack(100, 1) and not matcore._calls_lapack(100, math.inf)

    def test_concurrent_fan_outs_share_one_blas_hold(self):
        controls = matcore._openblas_controls()
        if controls is None:
            pytest.skip("numpy's OpenBLAS thread controls are not available")
        get, put = controls
        original = get()
        put(2)
        interval = sys.getswitchinterval()
        seen = []

        def fan_out():
            for _ in range(40):
                matcore._run_blocks(lambda b: seen.append(get()), 4, 3, lapack=True)

        threads = [threading.Thread(target=fan_out) for _ in range(4)]
        try:
            before = get()
            sys.setswitchinterval(1e-6)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            for t in threads:
                t.join(timeout=120)
            after = get()
            put(original)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 4 * 40 * 4
        assert set(seen) == {1}  # no holder restored the count under another
        assert after == before
