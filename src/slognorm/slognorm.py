"""Stochastic logarithmic norms of linear SDE coefficient tuples.

For the linear Ito system dX = A X dt + sum_j B(j) X dW(j) with constant
square matrices, the stochastic logarithmic norm nu_p^l(A, B(1:m)) bounds
the exponential growth rate of the l-th mean E norm(X_t, p)^l, exactly as
the classical logarithmic norm mu_p does for ODEs.  This module offers two
estimators plus every closed-form bound the theory provides:

* ``nu_direct`` evaluates l * E[mu_p(A - 1/2 sum B^2 + sum B zeta)] with
  zeta i.i.d. standard normal (the white-noise representation).
* ``nu_definitional`` estimates the defining limit: the h -> 0 intercept of
  the difference quotients (E norm(I + hA + sum B dW + sum BB I_(i,j), p)^l
  - 1) / h.

Each estimate, like the perturbed-spectrum check, is a Gaussian expectation,
and :func:`_expectation` alone picks how to take it: one evaluation without
noise, the adaptive Gauss-Kronrod rule over one channel at the default
sample count, else Monte Carlo.

The two functionals genuinely differ on some inputs — for B = I, p = 2,
l = 2 the direct route gives 2 mu_2(A) - 1 while the definitional limit is
2 mu_2(A) + 1 — so both are exposed, never averaged or reconciled; callers
(and the CLI) are expected to compare them and surface disagreement.

The Monte Carlo estimates and the simulator share one deterministic block
plan, :func:`_moment_blocks`: draws come in blocks whose size depends only
on the dimension, each seeded from (seed, block index) and reduced to
(count, sum, M2), and the blocks fan out over the available cores and
merge in fixed order, so every result is bit-identical for a given seed
whatever the number of cores.
"""

from __future__ import annotations

import functools
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from . import matcore
from .lognorm import _check_h_sequence, mu, mu_batch, ols_line_weights
from .matcore import (
    DimensionError,
    EigenConvergenceError,
    _square_matrix,
    check_p,
    matrix_norm,
    matrix_norm_batch,
    max_re_eigvals_batch,
)

__all__ = [
    "SdeSystem",
    "McConfig",
    "NuEstimate",
    "BoundsReport",
    "BOUND_APPLICABILITY",
    "StabilityClass",
    "PerturbedSpectrumCheck",
    "ScalingCheck",
    "default_samples",
    "default_h_sequence",
    "nu_direct",
    "nu_definitional",
    "bounds_report",
    "classify",
    "scalar_stability",
    "twobytwo_inf_ms_stable",
    "expected_max_re_perturbed",
    "scaling_check",
]

#: replicates or paths per RNG block; the unit of deterministic parallelism
_BLOCK = 4096


def _block_size(dim: int) -> int:
    """Replicates or simulated paths per RNG block for ``dim x dim`` systems.

    Fixed at ``_BLOCK`` up to dim 32 and shrunk quadratically beyond that so
    a block's working set stays bounded.  The size depends only on the
    system, never on the thread count, so the random stream partition (and with
    it every numeric result) is reproducible.
    """
    return max(64, min(_BLOCK, 4_194_304 // max(1, dim * dim)))


#: doubles per (rows, dim, dim) temporary when a block's statistic is evaluated;
#: an antithetic pair holds its noise and one perturbed stack at once
_CHUNK_DOUBLES = 2**18


#: absolute allowance added to 3-sigma windows when comparing estimates whose
#: Monte Carlo variance vanishes; covers summation rounding of the mean
FP_FLOOR = 1e-9

#: the extrapolation error, relative to max(1, |value|), above which a
#: definitional estimate from exact quotients is flagged: curved finite
#: limits give about 3e-5 at the default steps, divergent ones about 0.2
_BIAS_RTOL = 1e-3


@dataclass(frozen=True, eq=False)
class SdeSystem:
    """Coefficients (A, B(1)..B(m)) of a linear SDE with m noise channels.

    ``A`` is the drift (units 1/time), ``diffusions`` the ordered noise
    coefficients (units 1/sqrt(time)), each given as a 2-D array-like; all
    must be nonempty, square, finite and of identical dimension.  m = 0
    denotes a deterministic ODE.  They are stored as read-only arrays, ``A``
    of shape (n, n) and ``diffusions`` stacked as (m, n, n), in float64 when
    every entry of the system is real (so the Hermitian eigenvalue kernels
    take the faster real-symmetric path) and in complex128 otherwise.
    Systems compare by identity: ``==`` on arrays is elementwise.
    """

    A: np.ndarray
    diffusions: np.ndarray = ()

    def __post_init__(self):
        a = _square_matrix(self.A, "A")
        bs = [_square_matrix(b, f"B({j + 1})") for j, b in enumerate(self.diffusions)]
        for j, b in enumerate(bs):
            if b.shape != a.shape:
                raise DimensionError(f"B({j + 1}) has shape {b.shape} but A has {a.shape}")
        bs = np.stack(bs) if bs else np.zeros((0,) + a.shape, dtype=np.complex128)
        if not np.any(a.imag) and not np.any(bs.imag):
            a, bs = a.real.copy(), bs.real.copy()
        a.flags.writeable = False
        bs.flags.writeable = False
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "diffusions", bs)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return len(self.diffusions)

    def scaled(self, alpha: float) -> "SdeSystem":
        """The system (alpha A, sqrt(alpha) B(1:m)) for finite alpha > 0."""
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {alpha}")
        return SdeSystem(alpha * self.A, math.sqrt(alpha) * self.diffusions)


def default_samples(n: int) -> int:
    """Default Monte Carlo sample count by system dimension."""
    if n <= 4:
        return 10**6
    if n <= 16:
        return 10**5
    return 10**4


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo controls shared by all estimators.

    ``samples=None`` resolves to :func:`default_samples` for the system at
    hand.  ``antithetic`` draws (zeta, -zeta) pairs and averages each pair
    into one replicate, so the reported standard error is the spread of the
    pair means; with it enabled the effective sample count is rounded down
    to a multiple of two.  The thread count is not a setting: see
    :func:`_moment_blocks`, where it can never change a result.
    """

    samples: int | None = None
    seed: int = 42
    antithetic: bool = True

    def __post_init__(self):
        if self.samples is not None and _check_count(self.samples, "samples") < 2:
            raise ValueError(f"samples must be at least 2, got {self.samples}")
        _check_seed(self.seed)

    def resolve_samples(self, n: int) -> int:
        return self.samples if self.samples is not None else default_samples(n)


@dataclass(frozen=True)
class NuEstimate:
    """An estimate of nu_p^l with its error, and the ``method`` behind it.

    ``monte_carlo``: ``std_error`` is the sample standard deviation of the
    per-replicate statistic, merged from per-block moments, divided by
    sqrt(replicates); under antithetic pairing the replicate is a pair mean.
    ``quadrature``: the Gauss-Kronrod rule of :func:`_gaussian_expectation`
    over one channel's zeta, ``std_error`` its error estimate (a heuristic,
    not a bound, for a statistic with kinks in zeta) and ``samples`` its
    node count.  ``closed_form``: no noise, one evaluation (``samples`` 1),
    the direct value exact with ``std_error`` 0; any other direct
    ``std_error`` is at least the rounding bound of the sum behind the
    value.  ``h_used`` is present exactly for the definitional estimator,
    whose ``std_error`` includes the h = 0 extrapolation error;
    ``bias_warning`` marks definitional runs where that error exceeds 10x
    the Monte Carlo error, or for exact quotients ``_BIAS_RTOL`` of
    max(1, |value|).
    """

    value: float
    std_error: float
    samples: int
    estimator: str
    p: float
    l: int
    h_used: tuple[float, ...] | None = None
    bias_warning: bool = False
    method: str = "monte_carlo"

    def __post_init__(self):
        if self.estimator not in ("direct", "definitional"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.method not in ("monte_carlo", "quadrature", "closed_form"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.estimator == "definitional" and not self.h_used:
            raise ValueError("definitional estimates must record h_used")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


class StabilityClass(str, Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically_stable"
    STABLE = "stable"
    UNSTABLE = "unstable"


def classify(nu: NuEstimate, tol: float = 0.0) -> StabilityClass:
    """Map an estimate of nu to a stability verdict.

    value + 2 se < -tol is asymptotically stable; |value| <= 2 se + tol is
    the indeterminate boundary, reported as stable; anything else is
    unstable.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    if nu.value + 2.0 * nu.std_error < -tol:
        return StabilityClass.ASYMPTOTICALLY_STABLE
    if abs(nu.value) <= 2.0 * nu.std_error + tol:
        return StabilityClass.STABLE
    return StabilityClass.UNSTABLE


# ---------------------------------------------------------------------------
# deterministic block Monte Carlo engine
# ---------------------------------------------------------------------------


def _rounding_floor(count, mean_abs):
    """The rounding bound eps * log2(count) * mean|x| of a mean of ``count``
    terms x, the least error such a mean can claim (also on arrays)."""
    return np.finfo(np.float64).eps * np.log2(count) * mean_abs


def _block_moments(x: np.ndarray, out: np.ndarray) -> None:
    """Reduce x (..., count) along its last axis into out (5, ...): the
    count, the sum, about the rounded mean m = sum / count the residue
    sum (x - m) and M2 = sum (x - m)^2, and the sum of |x|.  Each is the
    pairwise sum of one contiguous row, so it depends on that row only."""
    total = x.sum(axis=-1)
    dev = x - (total / max(x.shape[-1], 1))[..., np.newaxis]
    out[0], out[1], out[2] = x.shape[-1], total, dev.sum(axis=-1)
    # one work array: fresh block-sized temporaries are mapped and faulted in
    out[3] = np.multiply(dev, dev, out=dev).sum(axis=-1)
    out[4] = np.abs(x, out=dev).sum(axis=-1)


def _merge_moments(moments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means and standard errors from the :func:`_block_moments` of every
    block, stacked as (5, blocks, ...): the one place where a spread
    becomes an error bar.

    Blocks merge in block order (Chan, Golub & LeVeque 1979): the mean is
    sum / N, and with d = m - mean for each block's rounded mean m,
    M2 = sum M2_b + sum d (n_b d + 2 residue_b) is sum (x - mean)^2 with
    no cancelling sum of squares.  The error sqrt(M2 / (N - 1)) / sqrt(N)
    is never below the :func:`_rounding_floor`, and NaN for one value.
    """
    counts, sums, residues, m2s, abs_sums = moments
    with np.errstate(divide="ignore", invalid="ignore"):
        count = np.add.reduce(counts, axis=0)
        mean = np.add.reduce(sums, axis=0) / count
        d = sums / np.maximum(counts, 1) - mean
        m2 = np.add.reduce(m2s, axis=0) + np.add.reduce(d * (counts * d + 2.0 * residues), axis=0)
        se = np.sqrt(m2 / (count - 1)) / np.sqrt(count)
        return mean, np.maximum(se, _rounding_floor(count, np.add.reduce(abs_sums, axis=0) / count))


def _moment_blocks(run: Callable[[np.random.Generator, int, int, np.ndarray], None], total: int,
                   ncols: int, dim: int, seed: int) -> tuple[np.ndarray, ...]:
    """Means, standard errors and counts of ``ncols`` columns over ``total``
    items, from blocks of ``_block_size(dim)`` items: block b calls
    ``run(rng_b, start, count, out)``, rng_b seeded from (seed,
    spawn_key=(b,)) only, which reduces its items into out (5, ncols) with
    :func:`_block_moments`, so memory is O(block).  The blocks run on
    :func:`slognorm.matcore._block_workers` threads, with OpenBLAS held to
    one thread until the last has finished (also when one raises), and
    merge in block order, so the thread count cannot change a bit.
    """
    block = _block_size(dim)
    nblocks = -(-total // block)
    moments = np.empty((5, nblocks, ncols))

    def seeded(b: int) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        run(rng, b * block, min(block, total - b * block), moments[:, b])

    threads = matcore._block_workers(nblocks)
    if threads == 1:
        for b in range(nblocks):
            seeded(b)
    else:
        with matcore._single_thread_blas, ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(seeded, range(nblocks)))
    return (*_merge_moments(moments), np.add.reduce(moments[0], axis=0))


def _expectation(f: Callable[[np.ndarray, bool], np.ndarray], system: SdeSystem, ncols: int,
                 cfg: McConfig, draw_cols: int, scale: float):
    """(means, errors, samples, method) of the ``ncols`` columns of
    E f(xi, paired), for xi unit normals (count, ``draw_cols``) on which f
    acts row by row, averaging each row with its negation when paired.

    The one place where a method is chosen: without noise f runs once
    (``closed_form``); with one channel at the default sample count
    :func:`_gaussian_expectation` integrates over xi, ``scale`` being the
    size of the numbers whose rounding f carries (``quadrature``); else, or
    when that rule gives up, Monte Carlo (``monte_carlo``).  Under
    antithetic pairing a Monte Carlo replicate is the mean over a pair of
    samples, so there are half as many replicates as ``cfg`` asks for
    samples; each block of :func:`_moment_blocks` draws (count,
    ``draw_cols``) unit normals.  Nodes and draws alike reach f in row
    chunks that keep each (rows, dim, dim) temporary near ``_CHUNK_DOUBLES``.
    """
    if system.m == 0:
        return f(np.empty((1, 0)), False).reshape(ncols), np.zeros(ncols), 1, "closed_form"
    dim = system.dim
    chunk = max(1, _CHUNK_DOUBLES // (dim * dim))

    def rows(xi: np.ndarray, paired: bool) -> np.ndarray:
        """f on the rows of xi, chunk by chunk, joined in the memory layout
        f returns: a reduction's summation order follows the layout."""
        return np.concatenate([f(xi[lo:lo + chunk], paired) for lo in range(0, len(xi), chunk)])

    if system.m == 1 and cfg.samples is None:
        quad = _gaussian_expectation(lambda z: rows(z[:, np.newaxis], False), dim, scale)
        if quad is not None:
            return (*quad, "quadrature")
    samples = cfg.resolve_samples(dim)
    if cfg.antithetic and samples < 4:
        raise ValueError("antithetic estimation needs at least 4 samples")
    reps = samples // 2 if cfg.antithetic else samples

    def run(rng: np.random.Generator, start: int, count: int, out: np.ndarray) -> None:
        xi = rng.standard_normal((count, draw_cols))
        try:
            vals = rows(xi, cfg.antithetic).reshape(count, ncols)
        except EigenConvergenceError as exc:
            raise EigenConvergenceError(
                f"{exc} (while evaluating replicates {start}..{start + count})"
            ) from exc
        # each column contiguous, as the pairwise sums of _block_moments expect
        _block_moments(np.ascontiguousarray(vals.T), out)

    means, ses, _ = _moment_blocks(run, reps, ncols, dim, cfg.seed)
    return means, ses, 2 * reps if cfg.antithetic else reps, "monte_carlo"


def _paired(stat: Callable[[np.ndarray], np.ndarray], base, noise: np.ndarray,
            antithetic: bool, out: np.ndarray | None = None) -> np.ndarray:
    """stat(base + noise), averaged with stat(base - noise) under antithetic
    pairing; ``out``, when given, holds base + noise and then base - noise."""
    value = stat(np.add(base, noise, out=out))
    if antithetic:
        value = 0.5 * (value + stat(np.subtract(base, noise, out=out)))
    return value


def _white_noise(system: SdeSystem, stat: Callable[[np.ndarray], np.ndarray], ncols: int,
                 cfg: McConfig):
    """:func:`_expectation` of stat(A - 1/2 sum B^2 + sum B zeta), with
    zeta(1)..zeta(m) i.i.d. standard normal."""
    bs = system.diffusions
    base = system.A - 0.5 * _sum_squares(bs)

    def pair(z: np.ndarray, antithetic: bool) -> np.ndarray:
        # one channel takes a product, not a gemm: a first gemm faults in
        # OpenBLAS's work buffers.  Unpaired, base + noise overwrites noise
        noise = z[..., np.newaxis] * bs[0] if system.m == 1 else np.tensordot(z, bs, axes=(1, 0))
        return _paired(stat, base, noise, antithetic, out=None if antithetic else noise)

    # a vanishing integrand is known only to a few ulps of the matrix entries
    scale = float(np.abs(base).max() + np.abs(bs).max(initial=0.0))
    return _expectation(pair, system, ncols, cfg, system.m, scale)


# ---------------------------------------------------------------------------
# direct estimator
# ---------------------------------------------------------------------------


#: the G7/K15 Gauss-Kronrod rule on [-1, 1] (Piessens et al., QUADPACK,
#: 1983) as rows: the nodes, their Kronrod weights and the Gauss weights
_G7K15 = np.array([
    (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
     0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0),
    (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
     0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782),
    (0, 0.1294849661688697, 0, 0.27970539148927664, 0, 0.3818300505051189, 0, 0.4179591836734694),
])
_G7K15 = np.concatenate([_G7K15[:, :-1] * [[-1.0], [1.0], [1.0]], _G7K15[:, ::-1]], axis=1)

#: rows over the points -1, the 15 nodes, 1: the K15 and G7 weights, and f
#: at -1 and at 1 less the polynomial through f at the nodes, by Lagrange's
#: prod over i != j of (1 - x_i) / (x_j - x_i)
_K15_END = np.prod((1.0 - _G7K15[0]) / (
    _G7K15[0][:, np.newaxis] - _G7K15[0] + np.diag(1.0 - _G7K15[0])), axis=1)
_RULE = np.pad(np.stack([*_G7K15[1:], -_K15_END[::-1], -_K15_END]), ((0, 0), (1, 1)))
_RULE[2, 0] = _RULE[3, -1] = 1.0

#: the rule starts from these 12 intervals, narrow where phi is large, up to
#: L = 12, where a polynomial of degree 40 has shed all but 1e-10 of its
#: Gaussian mean; it accepts an error of 1e-10 of the integral of |f| and
#: gives up after 2^15 nodes
_QUAD_EDGES = np.array([-12.0, -8.0, -6.0, -4.5, -3.0, -1.5, 0.0, 1.5, 3.0, 4.5, 6.0, 8.0, 12.0])
_QUAD_RTOL, _QUAD_BUDGET = 1e-10, 2**15


def _kronrod(lo, hi, f: Callable[[np.ndarray], np.ndarray]):
    """Per interval [lo, hi]: the K15 integral of g = f phi, its error, the
    K15 integral of |g| and g at lo and at hi; None if g is not finite."""
    half = 0.5 * (hi - lo)[:, np.newaxis]
    z = 0.5 * (lo + hi)[:, np.newaxis] + half * np.pad(_G7K15[0], 1, constant_values=(-1.0, 1.0))
    g = f(z.ravel()).reshape(*z.shape, -1) * np.exp(-0.5 * z * z)[..., np.newaxis]
    g /= math.sqrt(2.0 * math.pi)
    if not np.all(np.isfinite(g)):
        return None
    kronrod, gauss, left, right = np.einsum("rj,ijc->ric", _RULE, g)
    # QUADPACK's error: the K15 - G7 gap, scaled down by how far it lies
    # below the spread of g about its mean, for a smooth g
    spread = np.einsum("j,ijc->ic", _RULE[0], np.abs(g - 0.5 * kronrod[:, np.newaxis]))
    gap = np.abs(kronrod - gauss)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(spread > 0, spread * np.minimum(1.0, (200.0 * gap / spread) ** 1.5), gap)
    # K15 integrates the polynomial P through the nodes exactly, so its error
    # is at most the width times the largest |g - P|, which g at the two ends
    # (where P extrapolates) gauges even where K15 and G7 happen to agree
    err += np.abs(left) + np.abs(right)
    mass = np.einsum("j,ijc->ic", _RULE[0], np.abs(g))
    return half * kronrod, half * err, half * mass, g[:, [0, -1]]


def _gaussian_expectation(f: Callable[[np.ndarray], np.ndarray], dim: int, scale: float):
    """(E f(zeta), its error, the node count) for zeta standard normal and
    f: nodes (count,) -> (count, ncols); None when f is not finite or no
    convergence within ``_QUAD_BUDGET`` or :func:`default_samples` nodes.

    Adaptive G7/K15 bisection from ``_QUAD_EDGES`` on [-L, L]: the
    tolerance is ``_QUAD_RTOL`` E|f| plus 16 ulps of ``scale`` (the size of
    the numbers whose rounding f carries, so that f = 0 converges); the
    tail 2 (|f(-L)| + |f(L)|) phi(L) / L must lie under half of it, and the
    intervals' errors are bisected under the other half.  f gets every
    node of a round at once and must act row by row (:func:`_expectation`
    hands it on in row chunks); intervals are summed in order, so no bit
    depends on batching.
    """
    budget = min(_QUAD_BUDGET, default_samples(dim))
    lo, hi, kept, nodes, tol = _QUAD_EDGES[:-1], _QUAD_EDGES[1:], None, 0, None
    while True:
        nodes += 17 * lo.size
        rule = None if nodes > budget else _kronrod(lo, hi, f)
        if rule is None:
            return None
        value, err, mass, ends = rule
        if tol is None:  # from the first round: E|f| and f phi at -L and L
            tol = _QUAD_RTOL * mass.sum(axis=0) + 16 * np.finfo(float).eps * scale
            tail = 2.0 * (np.abs(ends[0, 0]) + np.abs(ends[-1, 1])) / _QUAD_EDGES[-1]
            if not np.all(tail <= 0.5 * tol):
                return None
        parts = (lo, hi, value, err, mass)
        lo, hi, value, err, mass = parts = parts if kept is None else tuple(
            np.concatenate(c) for c in zip(kept, parts))
        if np.all(err.sum(axis=0) <= 0.5 * tol):
            break
        # bisect every interval over an equal share of that half (NaN too,
        # until the nodes run out)
        split = ~np.all(err <= 0.5 * tol / lo.size, axis=1)
        kept, mid = tuple(c[~split] for c in parts), 0.5 * (lo + hi)[split]
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
    error = np.maximum(err.sum(axis=0) + tail, _rounding_floor(nodes, mass.sum(axis=0)))
    return value[np.argsort(lo)].sum(axis=0), error, nodes


def nu_direct(system: SdeSystem, p=2, l: int = 2, cfg: McConfig | None = None) -> NuEstimate:
    """Estimate nu_p^l as l * E[mu_p(A - 1/2 sum B^2 + sum B zeta)].

    zeta(1)..zeta(m) are i.i.d. standard normal.  :func:`_expectation`
    takes the mean: l * mu_p(A) exactly with zero standard error when m = 0
    (``closed_form``); with one channel and ``cfg.samples`` left at None a
    1-D Gaussian integral (``quadrature``), or when that rule does not
    converge the Monte Carlo run at :func:`default_samples`; else a Monte
    Carlo mean over ``cfg.samples`` draws (antithetic by default).
    """
    p = check_p(p)
    l = _check_l(l)
    (value,), (se,), total, method = _white_noise(
        system, lambda g: l * mu_batch(g, p), 1, cfg or McConfig())
    return NuEstimate(value=float(value), std_error=float(se), samples=total,
                      estimator="direct", p=p, l=l, method=method)


def _check_count(value, name: str) -> int:
    """``value`` as an int, or ValueError naming ``name`` if it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_seed(seed) -> None:
    if not 0 <= _check_count(seed, "seed") < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")


def _check_step(h) -> None:
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step size h must be finite and positive, got h={h}")


def _check_l(l) -> int:
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool) or l < 1:
        raise ValueError(f"l must be a positive integer, got {l!r}")
    return int(l)


def _sum_squares(bs: np.ndarray) -> np.ndarray:
    """sum_j B(j) @ B(j) for a stack of matrices (m, n, n); zero when m = 0."""
    return np.einsum("mij,mjk->ik", bs, bs)


def _channel_products(bs: np.ndarray) -> np.ndarray:
    """The products B(i) @ B(j) of a stack (m, n, n), as (m, m, n, n)."""
    return np.einsum("iab,jbc->ijac", bs, bs)


# ---------------------------------------------------------------------------
# definitional estimator
# ---------------------------------------------------------------------------


def default_h_sequence(system: SdeSystem | ArrayLike, p=2, *, count: int = 7) -> tuple[float, ...]:
    """Step sizes h0 * 2^-k, k = 0..count-1, with h0 = 0.05 / max(1, norm(A, p))."""
    a = system.A if isinstance(system, SdeSystem) else system
    h0 = 0.05 / max(1.0, matrix_norm(a, p))
    return tuple(h0 * 0.5**k for k in range(count))


def nu_definitional(
    system: SdeSystem,
    p=2,
    l: int = 2,
    h_seq: Sequence[float] | None = None,
    cfg: McConfig | None = None,
) -> NuEstimate:
    """Estimate nu_p^l from its defining h -> 0 limit.

    For each h in ``h_seq`` the quotient (E norm(G_h, p)^l - 1) / h is
    computed, where G_h = I + hA + sum_j B(j) dW(j) + sum_ij B(i)B(j)
    I_(i,j)(h), and collapsed to its least-squares h = 0 intercept.  With
    one channel and ``cfg.samples`` None every h is integrated over
    dW / sqrt(h) at shared nodes, as in :func:`nu_direct`, and with m = 0
    one evaluation is exact; otherwise one standard-normal draw per
    replicate is rescaled across the h-sequence (common random numbers).
    :func:`_expectation` makes that choice.  Its error is combined (in
    quadrature) with the intercept error of the fit to the mean curve.

    Every h must satisfy h * norm(A, p) < 0.1 (expansion regime).  When the
    extrapolation residual exceeds 10x the Monte Carlo error, or for exact
    quotients (quadrature or m = 0) ``_BIAS_RTOL`` of max(1, |value|) — the
    h-range is too coarse for the curvature, or the limit is infinite —
    the estimate carries ``bias_warning=True`` rather than raising.
    """
    p = check_p(p)
    l = _check_l(l)
    cfg = cfg or McConfig()
    a, bs = system.A, system.diffusions
    n, m = system.dim, system.m
    if h_seq is None:
        h_seq = default_h_sequence(system, p)
    h = _check_h_sequence(h_seq)
    worst = float(h[0] * matrix_norm(a, p))
    if worst >= 0.1:
        raise ValueError(
            f"largest step violates the expansion regime: h*norm(A,p) = {worst:.3g} >= 0.1"
        )
    nh = h.size
    weights = ols_line_weights(h)[0]

    eye = np.eye(n, dtype=a.dtype)
    deterministic = eye[np.newaxis] + h[:, np.newaxis, np.newaxis] * a  # (nh, n, n)
    pairs = _channel_products(bs)

    def quotient(g: np.ndarray, hk: float) -> np.ndarray:
        return (matrix_norm_batch(g, p) ** l - 1.0) / hk

    def intercept_and_quotients(xi: np.ndarray, antithetic: bool) -> np.ndarray:
        """The fitted intercept and the quotient for every h, from one batch
        of unit normals (count, m * m), as (count, 1 + nh)."""
        count = xi.shape[0]
        cols = np.empty((1 + nh, count), dtype=np.float64)  # intercept, quotients
        # (count, n, n) work arrays shared by every h: fresh temporaries of
        # this size (128 KiB at n = 2) are mapped and unmapped by the
        # allocator on every step, and their pages faulted in again
        noise, second, g = (np.empty((count, n, n), dtype=a.dtype) for _ in range(3))
        for k in range(nh):
            hk = float(h[k])
            # -xi gives exactly -dW and the same I (negation is exact), so
            # one transform serves both members of the pair
            dw, imat = _increments_from_normals(xi, hk)
            # np.tensordot(dw, bs, axes=(1, 0)) as the 2-d product it reduces to
            np.dot(dw, bs.reshape(m, n * n), out=noise.reshape(count, n * n))
            np.einsum("sij,ijab->sab", imat, pairs, out=second)
            cols[1 + k] = _paired(
                lambda x: quotient(np.add(x, second, out=x), hk),
                deterministic[k], noise, antithetic, out=g,
            )
        # summed in h order, row by row: a gemv's bits depend on the row count
        cols[0] = functools.reduce(operator.add, map(operator.mul, weights, cols[1:]))
        return cols.T

    # a quotient is known only to a few ulps of 1 / h, the intercept to their sum
    means, errs, total, method = _expectation(intercept_and_quotients, system, 1 + nh, cfg,
                                              m * m, l * float(np.abs(weights) @ (1.0 / h)))
    value, noise_se = float(means[0]), float(errs[0])
    extrap_se = _intercept_residual_error(h, means[1:])
    # exact quotients are never within 10x their own error of a curved line:
    # for them only an extrapolation error on the value's own scale is flagged
    floor = FP_FLOOR if method == "monte_carlo" else _BIAS_RTOL
    bias = extrap_se > 10.0 * noise_se and extrap_se > floor * max(1.0, abs(value))
    return NuEstimate(
        value=value,
        std_error=math.hypot(noise_se, extrap_se),
        samples=total,
        estimator="definitional",
        p=p,
        l=l,
        h_used=tuple(float(v) for v in h),
        bias_warning=bool(bias),
        method=method,
    )


def _intercept_residual_error(h: np.ndarray, qbar: np.ndarray) -> float:
    """Standard error of the h = 0 intercept from the residuals of the
    least-squares line through the mean quotient curve (0 when the line
    fits exactly, e.g. with only two step sizes)."""
    k = h.size
    if k <= 2:
        return 0.0
    w0, w1 = ols_line_weights(h)
    resid = qbar - (w0 @ qbar + (w1 @ qbar) * h)
    s2 = float((resid**2).sum() / (k - 2))
    return math.sqrt(s2 * float(w0 @ w0))


def _increments_from_normals(xi: np.ndarray, h: float,
                             rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Wiener increments and iterated integrals from unit normals (count, m * m).

    dW = sqrt(h) xi[:, :m] and I = 1/2 (dW dW^T - h Id), plus the two-point
    area L_(i,j) = (h/2) sign(zeta zeta') added to I_(i,j) and subtracted from
    I_(j,i) for each pair i < j, with zeta, zeta' that pair's two columns.
    For m = 1 this is the exact integral (dW^2 - h) / 2.  For m >= 2 the area
    is not the Levy area path by path, but like it has mean 0 given dW,
    variance h^2/4 and no correlation across pairs, which is all the
    mean-square operator E[G (x) conj(G)] of the Milstein step sees.  The
    transform is odd in xi: -xi gives exactly -dW and the same I.

    dW(1..m), then I flattened row-major, are written in place as the first
    m + m^2 rows of ``rows``, each of count entries: the simulator passes
    its state-major step coefficients.  Without ``rows`` they go to fresh
    path-major (count, m) and (count, m, m) arrays, the layout whose
    products the definitional estimator takes.  Returns (count, m) and
    (count, m, m) views of what was written.
    """
    count, m = xi.shape[0], math.isqrt(xi.shape[1])
    if rows is None:
        dw, imat = np.empty((count, m)).T, np.empty((count, m * m)).T
    else:
        dw, imat = rows[:m], rows[m:m + m * m]
    np.multiply(math.sqrt(h), xi[:, :m].T, out=dw)
    imat = imat.reshape(m, m, count)
    col = m
    # entry by entry, in place: row operations beat broadcasting over tiny m x m
    for i in range(m):
        diag = np.multiply(dw[i], dw[i], out=imat[i, i])
        diag -= h
        diag *= 0.5
        for j in range(i + 1, m):
            half = np.multiply(dw[i], dw[j], out=imat[j, i])
            half *= 0.5
            area = np.copysign(0.5 * h, xi[:, col] * xi[:, col + 1])
            np.add(half, area, out=imat[i, j])
            half -= area
            col += 2
    return dw.T, imat.transpose(2, 0, 1)


def sample_wiener_increments(
    rng: np.random.Generator, count: int, m: int, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` joint samples of dW ~ N(0, h I_m) and iterated
    integrals I_(i,j) for m channels, as the Milstein step uses them.

    Returns arrays of shape (count, m) and (count, m, m), with
    I_(i,j) + I_(j,i) = dW(i) dW(j) - delta_ij h.  The diagonal is the exact
    integral int_0^h int_0^s dW(i) dW(i); each off-diagonal pair carries the
    two-point area of :func:`_increments_from_normals` in place of the Levy
    area, so the Milstein step keeps weak order 1 and the exact-area
    scheme's mean-square operator, but not its paths.
    """
    if _check_count(m, "m") < 1:
        raise ValueError(f"need at least one channel, got m={m}")
    if _check_count(count, "count") < 0:
        raise ValueError(f"count must be nonnegative, got count={count}")
    _check_step(h)
    return _increments_from_normals(rng.standard_normal((count, m * m)), h)


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

#: applicability predicate for each bound identifier, keyed by field name
BOUND_APPLICABILITY = {
    "main12_upper": "p = 2, m = 1 (quadratic lambda_max term only for l > 2)",
    "main12_exact_B_eq_I": "p = 2, m = 1, B = I",
    "msest_upper": "p = 2, m = 1 (quadratic mu term only for l > 2)",
    "beq1_identities": "p = 2, m = 1, B = I, l in {1, 2} (exact identity)",
    "lpest1_upper": "any p, m = 1",
    "lpest_upper": "any p, m = 1",
    "mu_upper": "any p, any m",
    "mu_lower": "any p, any m",
    "abs_bound": "any p, any m (bound on |nu|)",
    "multi_channel_upper": "m > 1 (spectral refinement when p = 2 and l >= 2)",
}


@dataclass(frozen=True)
class BoundsReport:
    """Every applicable closed-form bound on nu_p^l for one system.

    Inapplicable bounds are None, never zero-filled;
    :data:`BOUND_APPLICABILITY` states each field's predicate.  All values
    are upper bounds except ``mu_lower`` (a lower bound), ``abs_bound`` (a
    bound on |nu|), and the two exact identities ``main12_exact_B_eq_I``
    and ``beq1_identities``.  ``main12_upper`` and ``msest_upper`` state
    one bound, the p = 2 spectral bound of :func:`_spectral_upper`, in the
    paper's lambda_max and mu forms (lambda_max(X + X^H) = 2 mu_2(X),
    lambda_max(B^H B) = norm(B, 2)^2), so they carry the same value; the
    p = 2, l >= 2 ``multi_channel_upper`` is that bound summed over the
    channels.
    """

    p: float
    l: int
    channels: int
    main12_upper: float | None = None
    main12_exact_B_eq_I: float | None = None
    msest_upper: float | None = None
    beq1_identities: float | None = None
    lpest1_upper: float | None = None
    lpest_upper: float | None = None
    mu_upper: float | None = None
    mu_lower: float | None = None
    abs_bound: float | None = None
    multi_channel_upper: float | None = None

    def items(self) -> dict[str, float]:
        """The applicable bounds as an identifier -> value mapping."""
        return {
            name: getattr(self, name)
            for name in BOUND_APPLICABILITY
            if getattr(self, name) is not None
        }


def _spectral_upper(a: np.ndarray, bs: np.ndarray, l: int) -> float:
    """The p = 2 spectral bound l mu_2(A) + l/2 sum_j (norm(B(j), 2)^2
    + mu_2(B(j)) + mu_2(-B(j))), plus l(l - 2)/2 sum_j mu_2(B(j))^2 when
    l > 2."""
    total = mu(a, 2)
    for b in bs:
        mu_b = mu(b, 2)
        # left to right, not +=: the m = 1 value keeps its last bits
        total = total + 0.5 * matrix_norm(b, 2) ** 2 + 0.5 * (mu_b + mu(-b, 2))
        if l > 2:
            total += (l - 2) / 2.0 * mu_b**2
    return l * total


def bounds_report(system: SdeSystem, p=2, l: int = 2) -> BoundsReport:
    """Evaluate every closed-form bound applicable to (system, p, l)."""
    p = check_p(p)
    l = _check_l(l)
    # complex128 as the scalar entry points compute: a real product sums in
    # another order than a complex one, which moves case (h)'s last digits
    a = system.A.astype(np.complex128)
    bs = system.diffusions.astype(np.complex128)
    m = system.m
    mu_a = mu(a, p)
    squares = [b @ b for b in bs]
    out: dict[str, float | None] = {}

    # any p, any m: the white-noise sandwich and the absolute bound
    up = low = 0.0
    for b, b2 in zip(bs, squares):
        odd = mu(b, p) + mu(-b, p)
        up += mu(-b2, p) + odd
        low += mu(b2, p) + odd
    out["mu_upper"] = l * mu_a + 0.5 * l * up
    out["mu_lower"] = l * mu_a - 0.5 * l * low
    drift = a - 0.5 * sum(squares, np.zeros_like(a))
    out["abs_bound"] = l * matrix_norm(drift, p) + l * sum(matrix_norm(b, p) for b in bs)

    if m == 1:
        b = bs[0]
        bnorm = matrix_norm(b, p)
        out["lpest1_upper"] = (
            l * mu_a
            + 0.5 * l * mu(-squares[0], p)
            + l * (l + 1) / 4.0 * bnorm**2
            + l * bnorm
        )
        out["lpest_upper"] = l * mu_a + l * bnorm * (1.0 + (l + 3) / 4.0 * bnorm)
        if p == 2:
            out["main12_upper"] = out["msest_upper"] = _spectral_upper(a, bs, l)
            if np.array_equal(b, np.eye(system.dim)):
                out["main12_exact_B_eq_I"] = l * mu_a + 0.5 * l + l * (l - 2) / 2.0
                if l == 1:
                    out["beq1_identities"] = mu_a
                elif l == 2:
                    out["beq1_identities"] = 2.0 * mu_a + 1.0
    elif m > 1 and p == 2 and l >= 2:
        out["multi_channel_upper"] = _spectral_upper(a, bs, l)
    elif m > 1:
        norms = [matrix_norm(b, p) for b in bs]
        cross = sum(
            matrix_norm(bs[i] @ bs[j], p)
            for i in range(m)
            for j in range(m)
            if i != j
        )
        out["multi_channel_upper"] = (
            l * mu_a
            - 0.5 * l * mu(sum(bs[1:], bs[0].copy()), p)
            + l * sum(norms)
            + 0.5 * l * sum(v**2 for v in norms)
            + l / math.sqrt(2.0) * cross
        )
    return BoundsReport(p=p, l=l, channels=m, **out)


# ---------------------------------------------------------------------------
# special-case stability criteria
# ---------------------------------------------------------------------------


def scalar_stability(alpha: complex, beta: complex, l: int) -> bool:
    """Stability of the scalar SDE dX = alpha X dt + beta X dW in the l-th mean.

    l = 1: Re(alpha) + |beta|^2 / 2 <= 0;  l = 2: 2 Re(alpha) + |beta|^2 <= 0.
    """
    if l == 1:
        return complex(alpha).real + 0.5 * abs(beta) ** 2 <= 0.0
    if l == 2:
        return 2.0 * complex(alpha).real + abs(beta) ** 2 <= 0.0
    raise ValueError(f"l must be 1 or 2, got {l!r}")


def twobytwo_inf_ms_stable(lam1, lam2, alpha1, beta1, alpha2, beta2) -> bool:
    """Mean-square stability test in the inf-norm for the 2x2 system with
    diagonal drift diag(lam1, lam2) and antidiagonal-coupled noise entries:
    2 max(lam) + 2 (5/4 max(|a1|+|b1|, |a2|+|b2|) + 1)^2 <= 0."""
    lam = max(float(lam1), float(lam2))
    coupling = max(abs(alpha1) + abs(beta1), abs(alpha2) + abs(beta2))
    return 2.0 * lam + 2.0 * (1.25 * coupling + 1.0) ** 2 <= 0.0


# ---------------------------------------------------------------------------
# spectrum of the perturbed stability matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbedSpectrumCheck:
    """Paired comparison of E[max Re spectrum(A - 1/2 sum B^2 + sum B zeta)]
    against half the direct nu_2^2 statistic on the same zeta.

    ``method`` says what the errors and ``samples`` mean, as in
    :class:`NuEstimate`: Monte Carlo standard errors over ``samples`` draws,
    a quadrature error estimate over ``samples`` nodes, or (``closed_form``,
    no noise) zero errors from one evaluation.
    """

    estimate: float
    estimate_stderr: float
    half_nu: float
    half_nu_stderr: float
    inequality_holds: bool
    samples: int
    method: str


def expected_max_re_perturbed(
    system: SdeSystem, cfg: McConfig | None = None
) -> PerturbedSpectrumCheck:
    """Estimate the expected spectral abscissa of the randomly perturbed
    stability matrix and check it against nu_2^2 / 2.

    The expectation is taken as in :func:`nu_direct`: one evaluation when
    m = 0, the Gauss-Kronrod rule over one channel at the default sample
    count, else Monte Carlo.  Both statistics are evaluated at the same zeta,
    so the comparison ``inequality_holds`` (estimate <= half_nu within 3
    errors of their difference) is a paired test; pointwise
    max Re lambda(M) <= mu_2(M) makes it hold with margin for any system.
    """
    cfg = cfg or McConfig()

    def stat(mats: np.ndarray) -> np.ndarray:
        max_re, half_nu = max_re_eigvals_batch(mats), mu_batch(mats, 2)
        return np.column_stack([max_re, half_nu, max_re - half_nu])

    means, ses, total, method = _white_noise(system, stat, 3, cfg)
    return PerturbedSpectrumCheck(
        estimate=float(means[0]),
        estimate_stderr=float(ses[0]),
        half_nu=float(means[1]),
        half_nu_stderr=float(ses[1]),
        inequality_holds=bool(means[0] - means[1] <= 3.0 * ses[2] + FP_FLOOR),
        samples=total,
        method=method,
    )


# ---------------------------------------------------------------------------
# scaling law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingCheck:
    """Matched-seed comparison of nu(alpha A, sqrt(alpha) B) with alpha * nu(A, B)."""

    alpha: float
    base: NuEstimate
    scaled: NuEstimate
    expected: float
    difference: float
    tolerance: float
    within_tolerance: bool


def scaling_check(
    system: SdeSystem,
    alpha: float,
    p=2,
    l: int = 2,
    h_seq: Sequence[float] | None = None,
    cfg: McConfig | None = None,
) -> ScalingCheck:
    """Verify nu_p^l(alpha A, sqrt(alpha) B) = alpha * nu_p^l(A, B).

    Runs the definitional estimator on the base system with ``h_seq`` and
    on the scaled system with ``h_seq / alpha`` under the same seed.  The
    time change h -> h/alpha couples the two runs draw-for-draw, so the
    difference is pure floating-point noise; the check window is 3 combined
    standard errors plus a small absolute allowance for that rounding.
    """
    scaled_system = system.scaled(alpha)  # rejects a bad alpha before any estimate
    cfg = cfg or McConfig()
    if h_seq is None:
        h_seq = default_h_sequence(system, p)
    base = nu_definitional(system, p, l, h_seq, cfg)
    scaled_h = tuple(h / alpha for h in base.h_used)
    scaled = nu_definitional(scaled_system, p, l, scaled_h, cfg)
    expected = alpha * base.value
    difference = scaled.value - expected
    tol = 3.0 * math.hypot(scaled.std_error, alpha * base.std_error) + FP_FLOOR
    return ScalingCheck(
        alpha=float(alpha),
        base=base,
        scaled=scaled,
        expected=expected,
        difference=difference,
        tolerance=tol,
        within_tolerance=bool(abs(difference) <= tol),
    )
