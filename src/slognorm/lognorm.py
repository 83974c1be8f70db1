"""Logarithmic norms of complex matrices.

The logarithmic norm mu_p(A) is the one-sided directional derivative of the
induced p-norm at the identity, lim_{h -> 0+} (norm(I + h A, p) - 1) / h.
For p in {1, 2, inf} it has closed forms:

* p = 1:   max over columns j of  Re(a_jj) + sum_{i != j} |a_ij|
* p = 2:   lambda_max((A + A^H) / 2)
* p = inf: max over rows i of     Re(a_ii) + sum_{j != i} |a_ij|

``mu`` evaluates the closed form; ``mu_limit_check`` estimates the defining
limit numerically by extrapolating difference quotients to h = 0, which is
useful as an independent cross-check of the closed forms.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import ArrayLike

from .matcore import (
    _abs_line_sums,
    _square_matrix,
    check_p,
    lambda_max_hermitian_batch,
    matrix_norm,
    matrix_norm_batch,
)

__all__ = ["mu", "mu_batch", "mu_limit_check", "ols_line_weights"]


def mu(A: ArrayLike, p) -> float:
    """Logarithmic norm mu_p(A) for p in {1, 2, inf} via closed forms."""
    p = check_p(p)
    return float(mu_batch(_square_matrix(A, "A")[np.newaxis], p)[0])


def mu_batch(M: np.ndarray, p) -> np.ndarray:
    """Logarithmic norm for a stack of square matrices ``(..., n, n)``.

    Same closed forms as :func:`mu`; intended for vectorized Monte Carlo
    use, so the input is not re-validated.
    """
    p = check_p(p)
    if p == 2:
        herm = 0.5 * (M + np.conj(np.swapaxes(M, -1, -2)))
        if np.iscomplexobj(herm) and not np.any(herm.imag):
            herm = herm.real
        return lambda_max_hermitian_batch(herm)
    mag, lines = _abs_line_sums(M, p)
    lines = lines - np.diagonal(mag, axis1=-2, axis2=-1) + np.diagonal(M, axis1=-2, axis2=-1).real
    return lines.max(axis=-1)


def ols_line_weights(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights (w0, w1) with intercept = w0 . y and slope = w1 . y for the
    least-squares line through (x, y).

    Derived from the normal equations: w1_k = (x_k - xbar) / Sxx and
    w0_k = 1/K - xbar (x_k - xbar) / Sxx.
    """
    x = np.asarray(x, dtype=np.float64)
    k = x.size
    if k < 2:
        raise ValueError("need at least two abscissae for a line fit")
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("abscissae must not be all equal")
    return 1.0 / k - xbar * (x - xbar) / sxx, (x - xbar) / sxx


def _check_h_sequence(h_seq, floor: float = 0.0) -> np.ndarray:
    """``h_seq`` as a float64 array, checked to hold at least two finite step
    sizes above ``floor`` in strictly decreasing order."""
    h = np.asarray(list(h_seq), dtype=np.float64)
    if h.size < 2:
        raise ValueError("h_seq must contain at least two step sizes")
    if not np.all(np.isfinite(h)):
        raise ValueError("step sizes must be finite")
    if np.any(h <= floor):
        raise ValueError(f"step sizes must be greater than {floor:g}")
    if np.any(np.diff(h) >= 0):
        raise ValueError("h_seq must be strictly decreasing")
    return h


def default_mu_h_sequence(A: ArrayLike, p, *, count: int = 8) -> tuple[float, ...]:
    """Geometric step sequence h_k = h0 / 2^k used by :func:`mu_limit_check`.

    h0 is scaled by the matrix norm so the quotients sit in the regime where
    the curvature of h -> norm(I + h A, p) is negligible after the linear
    term is removed by the fit.
    """
    a = _square_matrix(A, "A")
    h0 = 1e-5 / max(1.0, matrix_norm(a, p))
    return tuple(h0 * 0.5**k for k in range(count))


def mu_limit_check(A: ArrayLike, p, h_seq=None) -> float:
    """Estimate mu_p(A) from its defining limit.

    Computes the difference quotient (norm(I + h A, p) - 1) / h for each h
    in ``h_seq`` (strictly decreasing positive reals, all above 1e-10) and
    returns the intercept of the least-squares line through the quotients,
    i.e. the extrapolation to h = 0.

    Without ``h_seq`` the limit is taken for 2^-e A, where e is the binary
    exponent of norm(A, p), on :func:`default_mu_h_sequence`, and scaled
    back by 2^e: mu_p is positively homogeneous and the power-of-two
    scaling is exact, so the steps keep one relative accuracy at every
    scale of A.
    """
    p = check_p(p)
    a = _square_matrix(A, "A")
    shift = 0
    if h_seq is None:
        shift = math.frexp(matrix_norm(a, p))[1]
        a = np.ldexp(a.view(np.float64), -shift).view(np.complex128)
        h_seq = default_mu_h_sequence(a, p)
    h = _check_h_sequence(h_seq, floor=1e-10)
    eye = np.eye(a.shape[0], dtype=a.dtype)
    mats = eye[np.newaxis] + h[:, np.newaxis, np.newaxis] * a[np.newaxis]
    quotients = (matrix_norm_batch(mats, p) - 1.0) / h
    return math.ldexp(float(ols_line_weights(h)[0] @ quotients), shift)
