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
eigenvalue comes from a closed form for n <= 2, from a batched numpy
kernel (Householder tridiagonalisation and Laguerre's iteration on the
Sturm recurrence) for 3 <= n <= ``_TRIDIAGONAL_MAX_N``, and from LAPACK
above; the spectral abscissa calls LAPACK for n > 2.  The Monte Carlo engines
seed and run their independent blocks through :func:`_run_blocks`, which
alone picks the thread count (from the available cores and whether the
blocks may fan out) and holds OpenBLAS to one thread during a fan-out;
nothing here changes BLAS threading at import.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

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

#: largest dimension whose Hermitian lambda_max comes from the batched
#: tridiagonal kernel; LAPACK's eigvalsh above it.  On stacks of 4096 Gram
#: matrices (I + 0.03 N(0,1))^H (I + 0.03 N(0,1)), one thread, 2-core Xeon,
#: numpy 2.4.6, the kernel against eigvalsh took, in ms, real / complex:
#: n = 6: 3.5 vs 15.2 / 6.3 vs 20.3; n = 12: 15.9 vs 42.8 / 30.9 vs 66.4;
#: n = 16: 40.5 vs 72.8 / 74.3 vs 107.3; n = 20: 61 vs 106 / 137 vs 168;
#: n = 24: 119 vs 154 / 258 vs 246.  Beyond 16 its lead falls below 1.3x
#: (1.2x on the 655-matrix stacks the estimators pass at n = 20).
_TRIDIAGONAL_MAX_N = 16

#: smallest pivot of the Sturm recurrence in :func:`_lambda_max_tridiagonal`
_PIVMIN = np.finfo(np.float64).tiny

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


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2, elementwise and real, for real or complex z."""
    if np.iscomplexobj(z):
        return z.real * z.real + z.imag * z.imag
    return z * z


def _sum_rows(rows) -> np.ndarray:
    """The sum of equal-shape arrays, added in order.

    ``np.add.reduce`` over the rows of a one-column array sums them pairwise,
    so its bits would depend on how many columns a stack has.
    """
    return functools.reduce(np.add, rows)


def _tridiagonalize(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals d (n, count) and squared off-diagonal moduli e2 (n - 1, count)
    of Householder tridiagonal forms (Golub & Van Loan, Matrix Computations,
    sec. 8.3) of the Hermitian matrices in the column stack T (n, n, count).

    Only the lower triangle of T is read, and T is overwritten.  Step k
    reflects x, column k below the diagonal, onto its first entry with
    P = I - 2 u u^H, u = w / |w|, w = x + phase(x_0) |x| e_0; the new
    off-diagonal entry has modulus |x| and is not formed, because the
    largest eigenvalue needs only its square.  A column x whose squares
    underflow to 0 is left unreflected.
    """
    n, count = T.shape[0], T.shape[2]
    complex_ = np.iscomplexobj(T)
    conj = np.conj if complex_ else (lambda z: z)
    e2 = np.empty((n - 1, count))
    for k in range(n - 2):
        x = T[k + 1:, k]
        head2 = _abs2(x[0])
        e2[k] = _sum_rows([head2, *map(_abs2, x[1:])])
        norm, head = np.sqrt(e2[k]), np.sqrt(head2)
        if complex_:
            phase = np.divide(x[0], head, out=np.ones_like(x[0]), where=head > 0)
        else:
            phase = np.copysign(1.0, x[0])
        size = np.sqrt(2.0 * norm) * np.sqrt(norm + head)  # |w|
        inv = np.divide(1.0, size, out=np.zeros_like(size), where=norm > 0)
        u = x * inv
        u[0] = (x[0] + phase * norm) * inv
        # trailing block a <- P a P = a - u v^H - v u^H, v = 2 (p - (u^H p) u), p = a u
        # entry by entry, on contiguous vectors: numpy rounds the complex
        # product of a row with a broadcast one differently when count = 1
        a = T[k + 1:, k + 1:]
        m = n - k - 1
        p = np.empty_like(u)
        for i in range(m):
            np.multiply(a[i, 0], u[0], out=p[i])
            for j in range(1, m):
                p[i] += (a[i, j] if j <= i else conj(a[j, i])) * u[j]
        cu = conj(u)
        v = p - _sum_rows((cu * p).real) * u
        v += v
        cv = conj(v)
        for i in range(m):
            for j in range(i + 1):
                a[i, j] -= u[i] * cv[j]
                a[i, j] -= v[i] * cu[j]
    e2[n - 2] = _abs2(T[n - 1, n - 2])
    return np.diagonal(T, axis1=0, axis2=1).T.real.copy(), e2


def _lambda_max_tridiagonal(d: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each symmetric tridiagonal matrix with diagonal
    d (n, count) and squared off-diagonals e2 (n - 1, count), entries of
    order 1.

    Laguerre's iteration on det(x I - T), whose roots are all real, falls
    monotonically from the Gershgorin upper bound to the largest root
    (Wilkinson, The Algebraic Eigenvalue Problem, sec. 7.2).  The
    determinant's first two logarithmic derivatives come from the LDL^T
    pivots q_i = x - d_i - e2_(i-1) / q_(i-1) of the Sturm recurrence (Barth,
    Martin & Wilkinson 1967), with a pivot below the smallest normal number
    replaced by it, as LAPACK's dstebz does.  Each column stops at the first
    step that would not decrease it (a replaced pivot means x is already an
    eigenvalue, and its step is at most that number); columns that stop
    are dropped from the work arrays once half of them have, so a column's
    result never depends on the others.
    """
    n, count = d.shape
    e = np.sqrt(e2)
    radius = np.zeros_like(d)
    radius[1:] += e
    radius[:-1] += e
    x = np.max(d + radius, axis=0)
    out = np.empty(count)
    live = np.arange(count)
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size:
            shifted = x - d
            q = np.maximum(shifted[0], _PIVMIN)
            r = 1.0 / q  # (log q_i)'
            r2 = r * r
            g, h, y = r.copy(), r2.copy(), r2 + r2  # y = (log q_i)'^2 - (log q_i)''
            for i in range(1, n):
                t = e2[i - 1] / q
                q = np.maximum(shifted[i] - t, _PIVMIN)
                r = (1.0 + t * r) / q
                y *= t / q
                r2 = r * r
                g += r  # sum 1 / (x - lambda)
                h += r2 + y  # sum 1 / (x - lambda)^2
                y += r2 + r2
            delta = n / (g + np.sqrt(np.maximum((n - 1) * (n * h - g * g), 0.0)))
            step = x - delta
            moving = (delta > _PIVMIN) & (step < x)
            x = np.where(moving, step, x)
            keep = np.flatnonzero(moving)
            if 2 * keep.size <= live.size:
                out[live] = x
                live, x, d, e2 = live[keep], x[keep], d[:, keep], e2[:, keep]
    return out


def _lambda_max_columns(H: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each Hermitian matrix in the stack H (count, n, n),
    from its lower triangle, with n >= 3.

    The stack is copied once to an (n, n, count) layout, so that every
    operation acts on contiguous length-count vectors, and each matrix is
    scaled by a power of two to a largest lower-triangle entry modulus in
    [1/2, 1) before anything is squared.
    """
    n = H.shape[-1]
    T = np.array(np.moveaxis(H, 0, -1), dtype=np.result_type(H.dtype, np.float64), order="C")
    big = functools.reduce(np.maximum, (np.abs(T[i, :i + 1]).max(axis=0) for i in range(n)))
    # 2^1023 at most: a matrix of subnormal entries is scaled up only that far
    exp = np.minimum(-np.frexp(big)[1], 1023)
    T *= np.ldexp(1.0, exp)
    return np.ldexp(_lambda_max_tridiagonal(*_tridiagonalize(T)), -exp)


def lambda_max_hermitian_batch(H: np.ndarray) -> np.ndarray:
    """Largest eigenvalue for a stack of Hermitian matrices ``(..., n, n)``.

    Assumes the inputs are already Hermitian and reads the lower triangle.
    n = 1 and n = 2 use closed forms, 3 <= n <= ``_TRIDIAGONAL_MAX_N`` the
    batched tridiagonal kernel :func:`_lambda_max_columns`, and larger n the
    LAPACK Hermitian solver.
    """
    n = H.shape[-1]
    if H.shape[-2] != n:
        raise DimensionError(f"expected square matrices, got shape {H.shape}")
    if n == 1:
        return np.ascontiguousarray(H[..., 0, 0].real)
    if n == 2:
        return _lambda_max_2x2(H[..., 0, 0].real, H[..., 1, 1].real, np.abs(H[..., 0, 1]))
    if n <= _TRIDIAGONAL_MAX_N:
        return _lambda_max_columns(H.reshape(-1, n, n)).reshape(H.shape[:-2])
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


def _eigen_blocks_fan_out(n: int, p=2, general: bool = False) -> bool:
    """Whether Monte Carlo blocks whose statistic takes the eigenvalue
    kernels of n x n matrices at norm p run on every available core.

    They do when the kernel calls LAPACK: :func:`lambda_max_hermitian_batch`
    (mu_2, the spectral norm) above ``_TRIDIAGONAL_MAX_N`` and, for a
    statistic that also takes the spectral abscissa (``general``),
    :func:`max_re_eigvals_batch` above n = 2.  p = 1 and p = inf are
    entrywise closed forms.  The batched tridiagonal kernel runs short
    numpy calls under the interpreter lock and gains nothing from threads:
    fanned out on two cores, case (g)'s definitional run took 0.88-1.13 s
    against 0.75-1.03 s on one thread (12 runs each), with 10-18 MB more
    peak RSS.
    """
    return p == 2 and n > (2 if general else _TRIDIAGONAL_MAX_N)


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


def _block_workers(nblocks: int, fan_out: bool) -> int:
    """Threads for ``nblocks`` independent blocks: one per available core,
    at most one per block, when the blocks may ``fan_out`` and OpenBLAS can
    be held to one thread meanwhile; else 1."""
    if not fan_out or _openblas_controls() is None:
        return 1
    return max(1, min(_available_cores(), nblocks))


def _run_blocks(
    run: Callable[[int, np.random.Generator], None], nblocks: int, seed: int, fan_out: bool
) -> None:
    """Call ``run(b, rng_b)`` for every block b on :func:`_block_workers`
    threads, where rng_b is seeded from (seed, spawn_key=(b,)) only.

    Estimator blocks fan out when their kernel calls LAPACK (see
    :func:`_eigen_blocks_fan_out`); fanning out the n <= 2 and p in {1, inf}
    closed forms raised peak memory by more than 10% on two-channel 2x2
    systems, also with the entrywise closed form in :func:`matrix_norm_batch`,
    and the tridiagonal kernel gains no speed from threads, so they stay on
    one thread.  Simulation blocks always fan out.  Blocks
    must write disjoint outputs, so that the thread count cannot change
    any result.
    A fan-out holds OpenBLAS to one thread and restores the previous count
    when the last block has finished, also when a block raises.
    """

    def seeded(b: int) -> None:
        run(b, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,))))

    threads = _block_workers(nblocks, fan_out)
    if threads == 1:
        for b in range(nblocks):
            seeded(b)
        return
    with _single_thread_blas, ThreadPoolExecutor(max_workers=threads) as pool:
        for future in [pool.submit(seeded, b) for b in range(nblocks)]:
            future.result()


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
    (the tridiagonal kernel up to ``_TRIDIAGONAL_MAX_N``, LAPACK beyond).
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
