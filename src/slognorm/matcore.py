"""Dense complex matrix arithmetic and eigenvalue kernels.

Everything else in the package reduces to a handful of primitives defined
here: the largest eigenvalue of a stack of Hermitian matrices, the largest
real part of the spectrum of a general matrix, and induced matrix and
vector p-norms for p in {1, 2, inf}.  All operations are pure functions
that never write to their inputs and are safe to call from many threads.

Batched variants (suffix ``_batch``) operate on stacks of matrices with
shape ``(..., n, n)`` and exist so that Monte Carlo loops elsewhere in the
package can stay vectorized; they share the same numerics as the scalar
entry points, which validate their input, compute in complex128 and
rescale extreme entries for the spectral norm.  The largest Hermitian
eigenvalue and the spectral abscissa come from closed forms for n <= 2 and
from LAPACK above.  The block Monte Carlo engine
(:func:`slognorm.slognorm._moment_blocks`) takes its thread count from
:func:`_block_workers` (the available cores) and holds OpenBLAS to one
thread with :data:`_single_thread_blas` while its blocks fan out; nothing
here changes BLAS threading at import.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "DimensionError",
    "EigenConvergenceError",
    "check_p",
    "lambda_max_hermitian_batch",
    "max_re_eigvals_batch",
    "matrix_norm",
    "matrix_norm_batch",
    "vector_norm",
]

#: :func:`matrix_norm` rescales a matrix whose largest entry modulus lies
#: outside [2^-500, 2^500] before the p = 2 norm squares its entries
_SQUARE_SAFE_EXP = 500


class DimensionError(ValueError):
    """Raised when a matrix or vector has an incompatible shape."""


class EigenConvergenceError(RuntimeError):
    """Raised when an eigensolver fails to converge."""


def _square_matrix(M: ArrayLike, name: str = "matrix") -> np.ndarray:
    """A fresh complex128 copy of ``M``, checked to be a nonempty square
    matrix with finite entries; error messages call it ``name``.

    Every matrix that enters the package from a caller passes through here.
    """
    try:
        a = np.array(M, dtype=np.complex128)
    except ValueError:
        if np.ndim(np.array(M, dtype=object)) != 2:
            raise DimensionError(
                f"{name} must be a nonempty square matrix with rows of equal length"
            ) from None
        raise
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionError(f"{name} must be a nonempty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} entries must be finite (no NaN/Inf)")
    return a


def check_p(p) -> float:
    """Normalize a p-norm selector to 1, 2, or ``math.inf``.

    Accepts the integers 1 and 2, any representation of infinity, and the
    strings "1", "2", "inf".  Anything else raises ValueError.
    """
    if isinstance(p, str):
        s = p.strip().lower()
        if s == "inf":
            return math.inf
        if s in ("1", "2"):
            return int(s)
        raise ValueError(f"unsupported p-norm {p!r}; expected 1, 2 or inf")
    if p == 1:
        return 1
    if p == 2:
        return 2
    if p == math.inf:
        return math.inf
    raise ValueError(f"unsupported p-norm {p!r}; expected 1, 2 or inf")


def _lambda_max_2x2(g00: np.ndarray, g11: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of the Hermitian 2x2 matrices [[g00, g01], [g01*, g11]]
    from their real diagonals and the modulus ``off`` = |g01|."""
    return 0.5 * (g00 + g11) + np.hypot(0.5 * (g00 - g11), off)


def lambda_max_hermitian_batch(H: np.ndarray) -> np.ndarray:
    """Largest eigenvalue for a stack of Hermitian matrices ``(..., n, n)``.

    Assumes the inputs are already Hermitian and reads the lower triangle.
    n = 1 and n = 2 use closed forms, larger n LAPACK's Hermitian solver
    (``eigvalsh``), which solves each matrix on its own, so a matrix's result
    does not depend on the stack it comes in.
    """
    n = H.shape[-1]
    if H.shape[-2] != n:
        raise DimensionError(f"expected square matrices, got shape {H.shape}")
    if n == 1:
        return np.ascontiguousarray(H[..., 0, 0].real)
    if n == 2:
        return _lambda_max_2x2(H[..., 0, 0].real, H[..., 1, 1].real, np.abs(H[..., 0, 1]))
    try:
        return np.linalg.eigvalsh(H)[..., -1]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigenConvergenceError(f"Hermitian eigensolver failed: {exc}") from exc


def max_re_eigvals_batch(M: np.ndarray) -> np.ndarray:
    """Largest real part over the spectrum, for a stack of general matrices.

    n = 1 and n = 2 use closed forms (the 2x2 case via the quadratic
    formula); larger n uses the LAPACK general eigensolver.
    """
    n = M.shape[-1]
    if M.shape[-2] != n:
        raise DimensionError(f"expected square matrices, got shape {M.shape}")
    if n == 1:
        return np.ascontiguousarray(M[..., 0, 0].real)
    if n == 2:
        tr = M[..., 0, 0] + M[..., 1, 1]
        det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
        disc = np.sqrt((tr * tr - 4.0 * det).astype(np.complex128))
        return np.maximum((0.5 * (tr + disc)).real, (0.5 * (tr - disc)).real)
    try:
        return np.linalg.eigvals(M).real.max(axis=-1)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"general eigensolver failed: {exc}") from exc


@functools.cache
def _openblas_controls():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy.

    Looked up on first use, never at import.  None when no such library or
    symbol exists (numpy built against another BLAS, or a system OpenBLAS
    outside numpy's package directory).
    """
    import glob  # only here: importing the package does not pay for it

    root = os.path.dirname(np.__file__)
    for path in sorted(
        glob.glob(os.path.join(os.path.dirname(root), "numpy.libs", "*openblas*"))
        + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
    ):
        try:
            lib = ctypes.CDLL(path)  # the copy numpy already loaded
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


class _SingleThreadBlas:
    """Context that holds OpenBLAS to one thread while blocks fan out.

    Python threads that each call a multi-threaded OpenBLAS oversubscribe
    the cores.  The thread count is process-wide, so concurrent holders
    share one hold: the first to enter saves the count and sets 1, the last
    to leave restores it.  Without :func:`_openblas_controls` it does
    nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._controls = None
        self._saved = 1

    def __enter__(self):
        with self._lock:
            if self._holders == 0:
                self._controls = _openblas_controls()
                if self._controls is not None:
                    self._saved = self._controls[0]()
                    self._controls[1](1)
            self._holders += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._holders -= 1
            if self._holders == 0 and self._controls is not None:
                self._controls[1](self._saved)


_single_thread_blas = _SingleThreadBlas()


def _available_cores() -> int:
    """Cores this process may run on; restricting its CPU affinity (e.g.
    with ``taskset``) caps the threads a fan-out uses."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _block_workers(nblocks: int) -> int:
    """Threads for ``nblocks`` independent blocks: one per available core,
    at most one per block, when OpenBLAS can be held to one thread
    meanwhile; else 1."""
    if _openblas_controls() is None:
        return 1
    return max(1, min(_available_cores(), nblocks))


def matrix_norm(M: ArrayLike, p) -> float:
    """Induced matrix p-norm for p in {1, 2, inf}.

    p = 1 is the maximum column absolute sum, p = inf the maximum row
    absolute sum, and p = 2 is sqrt(lambda_max(M^H M)).  For p = 2 a matrix
    whose largest entry modulus lies outside [2^-500, 2^500] is scaled by a
    power of two before the squares are formed and the norm scaled back, so
    it neither overflows nor underflows while it is representable.
    """
    p = check_p(p)
    a = _square_matrix(M)
    shift = 0
    if p == 2:
        big = float(np.abs(a).max())
        if 0.0 < big < 2.0**-_SQUARE_SAFE_EXP or 2.0**_SQUARE_SAFE_EXP < big < math.inf:
            shift = math.frexp(big)[1]
            a = np.ldexp(a.view(np.float64), -shift).view(np.complex128)
    norm = matrix_norm_batch(a[np.newaxis], p)[0]
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        return float(np.ldexp(norm, shift))


def _gram_2x2(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal entries g00, g11 and off-diagonal modulus |g01| of the Gram
    matrices M^H M of a stack of 2x2 matrices, from the entries of M."""
    a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    if not np.iscomplexobj(M):
        return a * a + c * c, b * b + d * d, np.abs(a * b + c * d)
    g00 = a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag
    g11 = b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag
    return g00, g11, np.abs(np.conj(a) * b + np.conj(c) * d)


def _abs_line_sums(M: np.ndarray, p) -> tuple[np.ndarray, np.ndarray]:
    """|M| and its column (p = 1) or row (p = inf) sums, for norm and mu."""
    mag = np.abs(M)
    return mag, mag.sum(axis=-2 if p == 1 else -1)


def matrix_norm_batch(M: np.ndarray, p) -> np.ndarray:
    """Induced p-norm for a stack of square matrices ``(..., n, n)``.

    The p = 2 norm comes from the entries for n <= 2 (|m_00| at n = 1, the
    closed-form largest eigenvalue of the 2x2 Gram matrix M^H M at n = 2),
    and above from the Gram stack and :func:`lambda_max_hermitian_batch`
    (LAPACK's ``eigvalsh``).
    """
    p = check_p(p)
    n = M.shape[-1]
    if M.shape[-2] != n:
        raise DimensionError(f"expected square matrices, got shape {M.shape}")
    if p != 2:
        return _abs_line_sums(M, p)[1].max(axis=-1)
    if n == 1:
        return np.abs(M[..., 0, 0])
    if n == 2:
        return np.sqrt(_lambda_max_2x2(*_gram_2x2(M)))
    gram = np.matmul(np.conj(np.swapaxes(M, -1, -2)), M)
    lam = lambda_max_hermitian_batch(gram)
    return np.sqrt(np.maximum(lam.real, 0.0))


def _norm_rows(x: np.ndarray, p) -> np.ndarray:
    """Vector p-norm along the last axis of ``x``, p in {1, 2, inf}."""
    mag = np.abs(x)
    if p == 1:
        return mag.sum(axis=-1)
    if p == math.inf:
        return mag.max(axis=-1)
    return np.sqrt((mag * mag).sum(axis=-1))


def vector_norm(x, p) -> float:
    """Vector p-norm for p in {1, 2, inf} with finite entries."""
    p = check_p(p)
    v = np.asarray(x, dtype=np.complex128).ravel()
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError("vector entries must be finite")
    return float(_norm_rows(v, p)) if v.size else 0.0
