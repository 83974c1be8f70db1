"""Tests for the dense matrix layer: norms and eigen kernels."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slognorm.matcore as matcore
from slognorm.lognorm import mu
from slognorm.matcore import (
    DimensionError,
    check_p,
    lambda_max_hermitian_batch,
    matrix_norm,
    matrix_norm_batch,
    max_re_eigvals_batch,
    vector_norm,
)

P_VALUES = (1, 2, math.inf)


def random_matrix(rng: np.random.Generator, n: int, scale: float = 1.0,
                  complex_: bool = False) -> np.ndarray:
    a = rng.uniform(-scale, scale, (n, n))
    if complex_:
        a = a + 1j * rng.uniform(-scale, scale, (n, n))
    return a


def hermitian(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


EPS = np.finfo(np.float64).eps

#: dimensions above the n <= 2 closed forms, where lambda_max_hermitian_batch
#: calls LAPACK's eigvalsh
LAPACK_DIMS = range(3, 18)


def assert_matches_eigvalsh(H: np.ndarray, want: np.ndarray | None = None) -> None:
    """lambda_max_hermitian_batch(H) is finite and within 64 eps max|lambda|
    of ``want``, by default LAPACK's eigenvalues of H."""
    want = np.linalg.eigvalsh(H) if want is None else want
    got = lambda_max_hermitian_batch(H)
    assert got.shape == H.shape[:-2]
    assert np.isfinite(got).all()
    err = np.abs(got - want[..., -1])
    bound = 64 * EPS * np.abs(want).max(axis=-1, initial=0.0)
    assert np.all(err <= bound), (err / np.maximum(bound, 1e-300)).max()


def special_hermitian_stack(rng: np.random.Generator, n: int, complex_: bool) -> np.ndarray:
    """Hermitian n x n matrices that stress an eigensolver: random, tied
    diagonals, zero, rank one, block diagonal (a zero off-diagonal splits
    the tridiagonal form) and I + 1e-9 noise like the definitional Grams."""
    def draw(*shape):
        m = rng.standard_normal(shape)
        return m + 1j * rng.standard_normal(shape) if complex_ else m

    def herm(m):
        return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))

    tied = np.diag(np.where(np.arange(n) % 2 == 0, 2.0, -1.0)).astype(draw(1).dtype)
    v = draw(n)
    block = np.zeros((n, n), dtype=v.dtype)
    k = n // 2
    block[:k, :k] = herm(draw(k, k))
    block[k:, k:] = herm(draw(n - k, n - k)) + 3.0 * np.eye(n - k)
    near = np.eye(n) + 1e-9 * draw(4, n, n)
    return np.concatenate([
        herm(draw(8, n, n)), tied[None], -tied[None], np.zeros((1, n, n), v.dtype),
        np.outer(v, np.conj(v))[None], -np.outer(v, np.conj(v))[None], block[None],
        np.conj(np.swapaxes(near, -1, -2)) @ near, herm(near),
    ])


class TestTridiagonalKernel:
    """n > 2: lambda_max_hermitian_batch through LAPACK's eigvalsh (the class
    keeps the name of the batched tridiagonal kernel that served 3 <= n <= 16)."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", LAPACK_DIMS)
    def test_special_stacks_match_eigvalsh(self, n, complex_):
        # against LAPACK's general eigensolver, an algorithm independent of eigvalsh
        stack = special_hermitian_stack(np.random.default_rng(n), n, complex_)
        want = np.sort(np.linalg.eigvals(stack).real, axis=-1)
        assert_matches_eigvalsh(stack, want)
        assert_matches_eigvalsh(stack.reshape(2, -1, n, n), want.reshape(2, -1, n))

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [3, 6, 16])
    def test_extreme_entries(self, n, complex_):
        stack = special_hermitian_stack(np.random.default_rng(50 + n), n, complex_)
        # reference eigenvalues of exactly rescaled matrices, scaled back
        for exp in (-600, 600):
            scaled = stack * 2.0**exp
            assert_matches_eigvalsh(scaled, np.linalg.eigvalsh(stack) * 2.0**exp)
        big = 1e300 * stack
        assert_matches_eigvalsh(big, np.linalg.eigvalsh(big * 2.0**-1000) * 2.0**1000)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_views_and_empty_stacks(self, complex_):
        for n in (3, 6, 17):
            stack = special_hermitian_stack(np.random.default_rng(9), n, complex_)
            for view in (stack[::2], np.swapaxes(stack, -1, -2), stack[:, ::-1, ::-1],
                         np.broadcast_to(stack[0], (3, n, n)), stack[:4].reshape(2, 2, n, n)):
                assert_matches_eigvalsh(view)
            for shape in ((0, n, n), (2, 0, n, n)):
                assert lambda_max_hermitian_batch(np.zeros(shape, stack.dtype)).shape == shape[:-2]

    @pytest.mark.parametrize("n", [3, 6, 7, 16, 17])
    def test_row_bits_do_not_depend_on_the_stack(self, n):
        stack = special_hermitian_stack(np.random.default_rng(n), n, True)
        whole = lambda_max_hermitian_batch(stack)
        for i in range(stack.shape[0]):
            assert lambda_max_hermitian_batch(stack[i:i + 1])[0] == whole[i]
        np.testing.assert_array_equal(lambda_max_hermitian_batch(stack[3:11]), whole[3:11])

    def test_reads_only_the_lower_triangle(self):
        for n in (3, 6, 17):
            stack = special_hermitian_stack(np.random.default_rng(4), n, True)
            lower = np.tril(stack) + np.triu(np.full((n, n), np.nan + 0j), 1)
            np.testing.assert_array_equal(lambda_max_hermitian_batch(lower),
                                          lambda_max_hermitian_batch(stack))


class TestAsComplexMatrix:
    """Input validation by ``_square_matrix``, which copies every caller's
    matrix to complex128 (the class keeps the name of the converter it
    replaced)."""

    def test_accepts_nested_lists(self):
        a = matcore._square_matrix([[1, 2], [3, 4]])
        assert a.dtype == np.complex128
        np.testing.assert_array_equal(a, np.array([[1, 2], [3, 4]]))

    def test_square_requirement(self):
        with pytest.raises(DimensionError, match="drift"):
            matcore._square_matrix(np.zeros((2, 3)), name="drift")


class TestComplexMatrix:
    def test_entry_count_mismatch(self):
        with pytest.raises(DimensionError, match="drift"):
            matcore._square_matrix([[1, 2], [3]], name="drift")


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


class TestLambdaMaxHermitian:
    @pytest.mark.parametrize(
        "mat,expected",
        [(np.diag([-100.0, -200.0]), -100.0),
         (np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0),
         (np.array([[2.0, 1.0], [1.0, 2.0]]), 3.0)],
    )
    def test_known_values(self, mat, expected):
        # on Hermitian input mu_2 is lambda_max
        assert mu(mat, 2) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_batch_matches_lapack(self, n):
        rng = np.random.default_rng(n)
        mats = np.stack([random_matrix(rng, n, complex_=True) for _ in range(16)])
        herm = 0.5 * (mats + np.conj(np.swapaxes(mats, -1, -2)))
        assert_matches_eigvalsh(herm)

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


def svd_norm(m: np.ndarray) -> np.ndarray:
    return np.linalg.svd(m, compute_uv=False)[..., 0]


class TestSpectralNormClosedForm:
    """p = 2 at n <= 2 comes from the matrix entries, checked against the
    largest singular value from LAPACK's SVD."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [1, 2])
    def test_random_stacks_match_svd(self, n, complex_):
        rng = np.random.default_rng(10 * n + complex_)
        mats = rng.standard_normal((3, 5, n, n))
        if complex_:
            mats = mats + 1j * rng.standard_normal((3, 5, n, n))
        got = matrix_norm_batch(mats, 2)
        assert got.shape == (3, 5)
        np.testing.assert_allclose(got, svd_norm(mats), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("mat", [
        np.zeros((2, 2)),
        np.outer([1.0, -2.0], [3.0, 0.5]),                # rank one
        np.outer([1.0 + 2.0j, -1.0j], [0.5, 3.0 - 1.0j]),  # complex rank one
        3.0 * np.eye(2),                                  # g01 = 0, g00 = g11
        (2.0 - 1.0j) * np.eye(2),
    ])
    def test_degenerate_matrices_match_svd(self, mat):
        stack = mat[np.newaxis]
        np.testing.assert_allclose(matrix_norm_batch(stack, 2), svd_norm(stack),
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_non_contiguous_views(self, complex_):
        rng = np.random.default_rng(5)
        mats = rng.standard_normal((9, 3, 3))
        if complex_:
            mats = mats + 1j * rng.standard_normal((9, 3, 3))
        for view in (mats[::2, :2, :2], np.swapaxes(mats[:, 1:, 1:], -1, -2),
                     np.broadcast_to(mats[0, :2, 1:], (4, 2, 2))):
            np.testing.assert_allclose(matrix_norm_batch(view, 2), svd_norm(view),
                                       rtol=1e-13, atol=0)

    def test_empty_stack(self):
        assert matrix_norm_batch(np.zeros((0, 2, 2)), 2).shape == (0,)
        assert matrix_norm_batch(np.zeros((0, 1, 1), dtype=complex), 2).shape == (0,)

    def test_scalar_is_exact_modulus(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        np.testing.assert_array_equal(matrix_norm_batch(z[:, None, None], 2), np.abs(z))
        np.testing.assert_array_equal(matrix_norm_batch(z.real[:, None, None], 2),
                                      np.abs(z.real))

    def test_no_gram_product(self, monkeypatch):
        mats = np.random.default_rng(7).standard_normal((4, 2, 2)) * (1.0 + 1.0j)
        want = svd_norm(mats)

        def no_matmul(*args, **kwargs):
            raise AssertionError("the n <= 2 spectral norm formed a Gram product")

        monkeypatch.setattr(matcore.np, "matmul", no_matmul)
        np.testing.assert_allclose(matrix_norm_batch(mats, 2), want, rtol=1e-13, atol=0)


class TestSpectralNormRange:
    """matrix_norm(M, 2) rescales matrices whose squared entries would
    overflow or underflow, so a power-of-two factor on M carries through to
    its norm wherever the norm is representable."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("exp", [-1000, -600, 600, 1000])
    def test_power_of_two_scaling_carries_through(self, n, exp):
        a = random_matrix(np.random.default_rng(n), n, complex_=True)
        want = math.ldexp(matrix_norm(a, 2), exp)
        assert matrix_norm(np.ldexp(a.real, exp) + 1j * np.ldexp(a.imag, exp), 2) == (
            pytest.approx(want, rel=1e-14, abs=0)
        )

    def test_extreme_entries(self):
        assert matrix_norm([[1e200]], 2) == 1e200
        assert matrix_norm(1e-200 * np.eye(2), 2) == 1e-200
        assert matrix_norm(1e-200 * np.eye(3), 2) == pytest.approx(1e-200, rel=1e-15, abs=0)
        assert matrix_norm(1e300 * np.ones((3, 3)), 2) == pytest.approx(3e300, rel=1e-15)
        assert matrix_norm([[5e-324, 0.0], [0.0, 0.0]], 2) == 5e-324
        for p in (1, math.inf):
            assert matrix_norm([[1e200]], p) == 1e200

    def test_unrepresentable_norm_is_inf(self):
        assert matrix_norm(1e308 * np.ones((2, 2)), 2) == math.inf
        assert matrix_norm(np.zeros((2, 2)), 2) == 0.0


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
        lam = mu(hermitian(m), 2)
        assert lam <= matrix_norm(m, 2) + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_lambda_max_subadditivity_window(self, seed, n):
        rng = np.random.default_rng(seed)
        h1 = hermitian(random_matrix(rng, n, complex_=True))
        h2 = hermitian(random_matrix(rng, n, complex_=True))
        lam_sum = mu(h1 + h2, 2)
        lam_min2 = -mu(-h2, 2)
        assert mu(h1, 2) + lam_min2 <= lam_sum + 1e-9
        assert lam_sum <= mu(h1, 2) + mu(h2, 2) + 1e-9

    def test_lambda_max_shift_identity(self):
        rng = np.random.default_rng(11)
        h = hermitian(random_matrix(rng, 4, complex_=True))
        shifted = mu(h + 2.5 * np.eye(4), 2)
        assert shifted == pytest.approx(mu(h, 2) + 2.5, abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_two_norm_interpolation_bound(self, seed, n):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, n, scale=2.0, complex_=True)
        bound = math.sqrt(matrix_norm(m, 1) * matrix_norm(m, math.inf))
        assert matrix_norm(m, 2) <= bound + 1e-9


class TestRunBlocks:
    def test_every_block_runs_once(self, block_threads):
        expected = [
            np.random.default_rng(np.random.SeedSequence(5, spawn_key=(b,))).random()
            for b in range(7)
        ]
        for cores in (1, 3):
            block_threads.cores(cores)
            done = {}
            matcore._run_blocks(lambda b, rng: done.update({b: rng.random()}), 7, 5, fan_out=True)
            assert [done[b] for b in range(7)] == expected

    def test_worker_count_rules(self, monkeypatch, block_threads):
        block_threads.cores(8)
        assert matcore._block_workers(5, fan_out=False) == 1
        if block_threads.can_fan_out():
            assert matcore._block_workers(3, fan_out=True) == 3
            block_threads.cores(2)
            assert matcore._block_workers(5, fan_out=True) == 2
        monkeypatch.setattr(matcore, "_openblas_controls", lambda: None)
        assert matcore._block_workers(5, fan_out=True) == 1

    def test_fan_out_rule_follows_kernel_switch(self):
        # the eigenvalue kernels call LAPACK above their 2x2 closed forms
        fans_out = matcore._eigen_blocks_fan_out
        assert not fans_out(1) and not fans_out(2, 2)
        assert all(fans_out(n, 2) for n in (3, 6, 16, 17, 100))
        assert not any(fans_out(n, p) for n in (1, 3, 100) for p in (1, math.inf))

    def test_concurrent_fan_outs_share_one_blas_hold(self, block_threads):
        controls = matcore._openblas_controls()
        if controls is None:
            pytest.skip("numpy's OpenBLAS thread controls are not available")
        block_threads.cores(3)
        get, put = controls
        original = get()
        put(2)
        interval = sys.getswitchinterval()
        seen = []

        def fan_out():
            for _ in range(40):
                matcore._run_blocks(lambda b, rng: seen.append(get()), 4, 0, fan_out=True)

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
