"""Ensemble moment simulation for linear SDEs with multiplicative noise.

Integrates dX = A X dt + sum_j B(j) X dW(j) over many independent paths
with the Euler-Maruyama (strong order 0.5) or Milstein scheme and records
the sample mean and standard error of norm(X_t, p)^l at evenly spaced
checkpoints.  Milstein has strong order 1.0 when m <= 1 or the B(j)
commute.  Otherwise its iterated integrals carry a two-point area in place
of the Levy area (see :func:`slognorm.slognorm.sample_wiener_increments`):
the scheme then has weak order 1, and its mean-square operator is exactly
that of Milstein with the exact area.  The fitted slope of log-moments
against time (:func:`growth_rate`) is the quantity the stochastic
logarithmic norm bounds, which makes the simulator an end-to-end oracle for
the estimators in :mod:`slognorm.slognorm`.

Paths are simulated in blocks through the estimators' block runner
(:func:`slognorm.slognorm._moment_blocks`), each seeded from (seed, block
index) and reduced in path order, so trajectories are bit-identical for a
given seed whatever the number of cores.  A path whose norm passes 1e150,
or whose norm^l overflows, is flagged as diverged and the affected
checkpoints report an infinite moment rather than raising.

Each step is x <- x + (hA + sum dW(j) B(j) + sum I_(i,j) B(i) B(j)) x, with
no I terms for Euler-Maruyama.  A block's state is state-major, (n, count),
so every numpy call runs along the paths.  :func:`_apply_step` makes one
gemm of a table of the step's matrices (B(j), for Milstein B(i) B(j), and
hA last), stacked once per system, with each path's coefficient rows
(dW | I | 1), which the sampler's transform writes in place; that gives
every update matrix, drift included, and one multiply and n adds apply
them.  :func:`em_step` and :func:`milstein_step` run the same kernel.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

from .lognorm import ols_line_weights
from .matcore import _norm_rows, check_p, vector_norm
from .slognorm import (SdeSystem, _block_moments, _channel_products, _check_count, _check_l,
                       _check_seed, _check_step, _increments_from_normals, _moment_blocks)

__all__ = [
    "SimConfig",
    "MomentTrajectory",
    "DIVERGENCE_THRESHOLD",
    "em_step",
    "milstein_step",
    "simulate_moments",
    "growth_rate",
    "milstein_R",
    "milstein_ms_stable",
    "em_2x2_ms_stable",
]

#: norm magnitude beyond which a path is flagged as diverged
DIVERGENCE_THRESHOLD = 1e150

_SCHEMES = ("euler_maruyama", "milstein")


@dataclass(frozen=True)
class SimConfig:
    """Ensemble integration controls.

    ``t_end / h`` must be a whole number of steps and ``checkpoints`` must
    divide it; moments are recorded at t = 0 and after every
    steps/checkpoints-th step.
    """

    h: float
    t_end: float
    paths: int
    checkpoints: int = 10
    scheme: str = "milstein"
    seed: int = 42
    p: float = 2
    l: int = 2

    def __post_init__(self):
        _check_step(self.h)
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")
        if _check_count(self.paths, "paths") < 1:
            raise ValueError(f"paths must be positive, got {self.paths}")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        _check_seed(self.seed)
        object.__setattr__(self, "p", check_p(self.p))
        object.__setattr__(self, "l", _check_l(self.l))
        steps = self.steps  # validates integrality
        if _check_count(self.checkpoints, "checkpoints") < 1 or steps % self.checkpoints:
            raise ValueError(
                f"checkpoints ({self.checkpoints}) must divide the step count ({steps})"
            )

    @property
    def steps(self) -> int:
        """Total step count t_end / h, validated to be a whole number."""
        ratio = self.t_end / self.h
        if not math.isfinite(ratio):
            raise ValueError(
                f"t_end/h overflows: step size h = {self.h!r} is too small for "
                f"t_end = {self.t_end!r}"
            )
        steps = int(round(ratio))
        if steps < 1 or abs(ratio - steps) > 1e-9 * max(1.0, ratio):
            raise ValueError(
                f"t_end/h = {ratio!r} is not a whole number of steps"
            )
        return steps


@dataclass(frozen=True)
class MomentTrajectory:
    """Estimated E norm(X_t, p)^l at the checkpoint times.

    ``moments[0]`` is the exact deterministic value norm(x0, p)^l.  A
    checkpoint where any path has diverged (norm beyond 1e150, or norm^l
    overflowed) reports infinite moment and standard error, with the
    offending path count in ``diverged``.  A system without noise has exact
    moments and zero standard errors; for a noisy one they come from
    :func:`slognorm.slognorm._merge_moments`, so none is below the rounding
    bound, and one path gives NaN after t = 0.
    """

    times: np.ndarray
    moments: np.ndarray
    std_errors: np.ndarray
    paths: int
    config: SimConfig
    diverged: np.ndarray

    def __post_init__(self):
        if not (len(self.times) == len(self.moments) == len(self.std_errors) == len(self.diverged)):
            raise ValueError("times/moments/std_errors/diverged must have equal length")

    def write_csv(self, dest: Union[str, "io.TextIOBase", IO[str]]) -> None:
        """Write columns time, moment, stderr, paths, scheme; one row per checkpoint."""
        if isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__"):
            with open(dest, "w", newline="") as fh:
                self._write_rows(fh)
        else:
            self._write_rows(dest)

    def _write_rows(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time", "moment", "stderr", "paths", "scheme"])
        for t, mom, se in zip(self.times, self.moments, self.std_errors):
            writer.writerow([repr(float(t)), repr(float(mom)), repr(float(se)),
                             self.paths, self.config.scheme])


def _step_table(bs: np.ndarray, drift: np.ndarray, milstein: bool) -> np.ndarray:
    """The matrices of one step as the columns of one (n^2, K + 1) table,
    each flattened row-major: B(1)..B(m), then for Milstein the products
    B(i) B(j) in row-major (i, j) order, then the drift hA."""
    n = drift.shape[-1]
    cols = (bs, _channel_products(bs), drift) if milstein else (bs, drift)
    return np.ascontiguousarray(np.concatenate([c.reshape(-1, n * n) for c in cols]).T)


def _apply_step(x, table, coef, upd) -> None:
    """x <- x + (hA + sum dW B + sum I BB) x in place on states x (n, count).

    ``table`` is from :func:`_step_table` and ``coef`` (K + 1, count) holds
    each path's dW, I flattened and 1 as rows in the table's column order,
    so one gemm into ``upd`` (n^2, count) gives every path's update matrix,
    drift included.  The mat-vec is then one multiply of ``upd`` by x and
    n adds of its rows (each contiguous over the paths), in place."""
    n = x.shape[0]
    u = np.matmul(table, coef, out=upd).reshape(n, n, -1)
    u *= x
    for b in range(1, n):
        u[:, 0] += u[:, b]
    x += u[:, 0]


def _step(system: SdeSystem, x, dw, iter_ints, h: float) -> np.ndarray:
    """:func:`milstein_step`, or :func:`em_step` when ``iter_ints`` is None,
    into a fresh array: x is left alone.  The batch is stepped as the
    columns of one state-major block, padded to a multiple of four, so that
    a state keeps its bits whatever batch it comes in: one column would
    make the product a BLAS matrix-vector call, and at n = 1 (one table
    row) it is one for every column count, whose tail columns past a
    multiple of four round the folded drift differently."""
    a, m, x = system.A, system.m, np.asarray(x)
    count, n = math.prod(x.shape[:-1]), x.shape[-1]
    dtype = np.result_type(a, system.diffusions, x, np.float64)
    table = _step_table(system.diffusions, h * a, iter_ints is not None).astype(dtype)
    cols = -(-count // 4) * 4
    coef = np.zeros((table.shape[1], cols))
    coef[-1] = 1.0
    coef[:m, :count] = np.reshape(dw, (count, m)).T
    if iter_ints is not None:
        coef[m:-1, :count] = np.reshape(iter_ints, (count, m * m)).T
    state = np.zeros((n, cols), dtype=dtype)
    state[:, :count] = x.reshape(count, n).T
    _apply_step(state, table, coef, np.empty((n * n, cols), dtype=dtype))
    return state[:, :count].T.reshape(x.shape)


def em_step(system: SdeSystem, x, dw, h: float) -> np.ndarray:
    """Euler-Maruyama update x + h A x + sum_j dW(j) B(j) x.

    ``x`` may be a single state (n,) or a batch (..., n); ``dw`` must carry
    matching leading axes with final axis m.  Runs the ensemble's kernel
    on the batch transposed to (n, count).
    """
    return _step(system, x, dw, None, h)


def milstein_step(system: SdeSystem, x, dw, iter_ints, h: float) -> np.ndarray:
    """Milstein update: Euler-Maruyama plus sum_ij I_(i,j) B(i) B(j) x.

    ``iter_ints`` are iterated Wiener integrals shaped (..., m, m) and are
    expected to satisfy the sampler symmetry identity
    I_(i,j) + I_(j,i) = dW(i) dW(j) - delta_ij h.  Runs the ensemble's
    kernel as :func:`em_step` does, with the products B(i) B(j) as extra
    columns of its table.
    """
    return _step(system, x, dw, iter_ints, h)


def simulate_moments(system: SdeSystem, x0, cfg: SimConfig) -> MomentTrajectory:
    """Estimate E norm(X_t, p)^l over an ensemble of independent paths.

    The initial condition is deterministic, so ``moments[0]`` is exact.
    Blocks of paths from :func:`slognorm.slognorm._moment_blocks` own
    independent child seeds and fan out over every available core; each
    reduces its live values at every checkpoint with
    :func:`slognorm.slognorm._block_moments`, and the blocks merge in fixed
    order, so the result is bit-identical for a fixed ``cfg.seed`` whatever
    the thread count.
    """
    x0 = np.asarray(x0).ravel()
    if x0.shape[0] != system.dim:
        raise ValueError(f"x0 has dimension {x0.shape[0]}, system is {system.dim}")
    start_norm = vector_norm(x0, cfg.p)
    if start_norm == 0.0:
        raise ValueError("x0 must be nonzero")

    steps = cfg.steps
    ncheck = cfg.checkpoints
    stride = steps // ncheck
    n, m = system.dim, system.m
    sampled = cfg.scheme == "milstein" and m > 0  # dW and I from the sampler, else dW only
    root_h = math.sqrt(cfg.h)
    a = system.A
    dtype = np.complex128 if (np.iscomplexobj(a) or np.iscomplexobj(x0)) else np.float64
    table = _step_table(system.diffusions, cfg.h * a, sampled).astype(dtype)
    x0 = x0.astype(dtype)[:, np.newaxis]

    def run(rng: np.random.Generator, start: int, count: int, out: np.ndarray) -> None:
        x = np.repeat(x0, count, axis=1)
        coef = np.empty((table.shape[1], count))
        coef[-1] = 1.0
        upd = np.empty((n * n, count), dtype=dtype)
        alive = np.ones(count, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(1, steps + 1):
                if sampled:
                    _increments_from_normals(rng.standard_normal((count, m * m)), cfg.h, coef)
                else:
                    np.multiply(root_h, rng.standard_normal((count, m)).T, out=coef[:m])
                _apply_step(x, table, coef, upd)
                if step % stride == 0:
                    norms = _norm_rows(x.T, cfg.p)
                    vals = norms**cfg.l
                    alive &= np.isfinite(vals) & (norms <= DIVERGENCE_THRESHOLD)
                    _block_moments(vals[alive], out[:, step // stride - 1])

    means, ses, live = _moment_blocks(run, cfg.paths, ncheck, system.dim, cfg.seed)

    times = np.arange(ncheck + 1, dtype=np.float64) * (stride * cfg.h)
    diverged = np.concatenate([[0], cfg.paths - live]).astype(np.int64)
    dead = diverged > 0
    moments = np.where(dead, math.inf, np.concatenate([[start_norm**cfg.l], means]))
    # without noise every path is the same path, so the moments are exact
    errors = np.where(dead, math.inf, np.concatenate([[0.0], ses if m else np.zeros(ncheck)]))
    for arr in (times, moments, errors, diverged):
        arr.flags.writeable = False
    return MomentTrajectory(
        times=times, moments=moments, std_errors=errors,
        paths=cfg.paths, config=cfg, diverged=diverged,
    )


def growth_rate(traj: MomentTrajectory) -> tuple[float, float]:
    """Least-squares exponential growth rate of the moment trajectory.

    Fits log(moments) against times over the leading run of finite,
    positive moments and returns (slope, slope standard error); the error
    propagates each checkpoint's moment stderr through the logarithm by the
    delta method.  Fewer than three usable checkpoints is an error.
    """
    mom = np.asarray(traj.moments, dtype=np.float64)
    usable = np.isfinite(mom) & (mom > 0.0)
    cut = int(np.argmin(usable)) if not usable.all() else usable.size
    if cut < 3:
        raise ValueError(f"need at least 3 finite positive moments, have {cut}")
    t = np.asarray(traj.times, dtype=np.float64)[:cut]
    y = np.log(mom[:cut])
    y_se = np.asarray(traj.std_errors, dtype=np.float64)[:cut] / mom[:cut]
    coeffs = ols_line_weights(t)[1]
    slope = float(coeffs @ y)
    slope_se = float(np.sqrt(((coeffs * y_se) ** 2).sum()))
    return slope, slope_se


def milstein_R(h: float, lam: complex, mu: complex) -> float:
    """Mean-square stability function of the scalar Milstein scheme:
    R(h) = |1 + h lam|^2 + |h mu^2| + |h^2 mu^4| / 2."""
    _check_step(h)
    lam = complex(lam)
    mu = complex(mu)
    return float(
        abs(1.0 + h * lam) ** 2 + abs(h * mu**2) + 0.5 * abs(h**2 * mu**4)
    )


def milstein_ms_stable(h: float, lam: complex, mu: complex) -> bool:
    """True when the scalar Milstein iteration is mean-square stable, R(h) < 1."""
    return milstein_R(h, lam, mu) < 1.0


def em_2x2_ms_stable(h, lam1, lam2, alpha1, beta1, alpha2, beta2) -> bool:
    """Mean-square stability of the Euler-Maruyama iteration on the 2x2
    test system with drift diag(lam1, lam2) and noise rows (alpha_i, beta_i):
    max_i {(1 + lam_i h)^2 + (|alpha_i| + |beta_i|)^2} < 1."""
    _check_step(h)
    first = (1.0 + float(lam1) * h) ** 2 + (abs(alpha1) + abs(beta1)) ** 2
    second = (1.0 + float(lam2) * h) ** 2 + (abs(alpha2) + abs(beta2)) ** 2
    return max(first, second) < 1.0
