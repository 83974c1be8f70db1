"""Correctness oracles for every benchmark command, using numpy only.

* Direct estimates of nu are l * E[mu_p(A - B^2/2 + sum_i z_i B_i)] with
  z ~ N(0, I).  The oracle evaluates that Gaussian expectation, and the
  spread of the antithetic pair mean, by the trapezoid rule on a fine grid,
  which needs none of the package's code.  Each estimate must also lie
  inside the report's own mu_lower/mu_upper sandwich.
* Simulated moments E|X(t)|_2^2 = tr P(t), where vec P solves
  d vec P/dt = (I (x) A + conj(A) (x) I + sum_i conj(B_i) (x) B_i) vec P
  (Arnold 1974; Higham 2001).  The exponential of that operator is the
  oracle; the window adds the schemes' O(h) weak error, sized by the exact
  moment of the Euler-Maruyama recursion.
* The pendulum report has the closed form E|N(c, s^2)| - eps * b, and
  ``lognorm`` must return its closed form exactly.

Definitional estimates on non-scalar noise have no finite oracle yet.  They
must be finite numbers, and their ``bias_warning`` flags are counted, not
failed.

Monte Carlo checks allow Z_TOL standard errors.  The benchmark is run on
many seeds, each with a few dozen checks, and a 3-sigma window would then
fail some correct runs.
"""

from __future__ import annotations

import math
from functools import lru_cache
from pathlib import Path

import numpy as np

import cases

Z_TOL = 5.0
REL_FLOOR = 1e-9  # rounding allowance on Monte Carlo means whose spread is 0

# E|N(c, s^2)| - eps * b for the pendulum at its CLI defaults.
PENDULUM = {"g_over_l": 10.0, "eps": 0.1, "b": 50.0}


def num(value) -> float:
    """A report number; reports write non-finite values as strings."""
    if isinstance(value, str) and value in ("inf", "-inf", "nan"):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# exact values
# ---------------------------------------------------------------------------


def mu_batch(m: np.ndarray, p: str) -> np.ndarray:
    """Classical logarithmic norm of a stack of square matrices."""
    n = m.shape[-1]
    if p == "2":
        h = 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))
        if n == 1:
            return h[..., 0, 0].real
        if n == 2:
            a, d = h[..., 0, 0].real, h[..., 1, 1].real
            return 0.5 * (a + d) + np.sqrt(0.25 * (a - d) ** 2 + np.abs(h[..., 0, 1]) ** 2)
        return np.linalg.eigvalsh(h)[..., -1]
    mag = np.abs(m)
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    axis = -2 if p == "1" else -1  # column sums for p = 1, row sums for p = inf
    return (mag.sum(axis=axis) - np.abs(diag) + diag.real).max(axis=-1)


def _gauss_grid(points: int, half_width: float = 9.0) -> tuple[np.ndarray, np.ndarray]:
    z = np.linspace(-half_width, half_width, points)
    w = np.exp(-0.5 * z * z) * (z[1] - z[0]) / math.sqrt(2.0 * math.pi)
    w[[0, -1]] *= 0.5
    return z, w


@lru_cache(maxsize=None)
def direct_value(inputs: str, system: str, p: str = "2", l: int = 2) -> tuple[float, float]:
    """Mean and standard deviation of the antithetic pair mean
    (f(z) + f(-z)) / 2 of f(z) = l * mu_p(A - sum B^2/2 + sum z_i B_i),
    z ~ N(0, I), by the trapezoid rule on a grid symmetric about 0."""
    a, bs = cases.load_system(Path(inputs), system)
    base = a - 0.5 * sum(b @ b for b in bs)
    if len(bs) == 1:
        z, w = _gauss_grid(200_001 if a.shape[0] <= 2 else 60_001)
        f = np.concatenate([mu_batch(base + z[c, None, None] * bs[0], p)
                            for c in np.array_split(np.arange(z.size), 16)])
        rows = [(1.0, w, 0.5 * l * (f + f[::-1]))]
    elif len(bs) == 2:
        z, w = _gauss_grid(2001)

        def f_row(i: int) -> np.ndarray:
            return mu_batch(base + z[i] * bs[0] + z[:, None, None] * bs[1], p)

        rows = ((w[i], w, 0.5 * l * (f_row(i) + f_row(z.size - 1 - i)[::-1]))
                for i in range(z.size))
    else:
        raise ValueError("the oracle covers one or two noise channels")
    shift = l * float(mu_batch(base[np.newaxis], p)[0])  # f(0), against cancellation
    mean = second = 0.0
    for wi, wj, pair in rows:
        mean += wi * float(wj @ (pair - shift))
        second += wi * float(wj @ (pair - shift) ** 2)
    return float(shift + mean), math.sqrt(max(second - mean * mean, 0.0))


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a Taylor series."""
    norm = float(np.abs(m).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0 else 0
    x = m / 2.0**s
    out = np.eye(m.shape[0], dtype=np.complex128)
    term = out.copy()
    for k in range(1, 30):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def mean_square(inputs: str, system: str, times: list[float], h: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact E|X(t)|_2^2 = tr P(t) from X(0) = (1, ..., 1), and the same
    moment of the Euler-Maruyama recursion with step h,
    vec P <- ((I + hA)^- (x) (I + hA) + h sum conj(B_i) (x) B_i) vec P."""
    a, bs = cases.load_system(Path(inputs), system)
    n = a.shape[0]
    eye = np.eye(n)
    op = np.kron(eye, a) + np.kron(a.conj(), eye) + sum(np.kron(b.conj(), b) for b in bs)
    g = eye + h * a
    step = np.kron(g.conj(), g) + h * sum(np.kron(b.conj(), b) for b in bs)
    p0 = np.ones(n * n, dtype=np.complex128)
    trace = np.eye(n).reshape(-1)  # tr P = <vec I, vec P>
    exact = [float((trace @ (_expm(op * t) @ p0)).real) for t in times]
    euler = [float((trace @ (np.linalg.matrix_power(step, round(t / h)) @ p0)).real)
             for t in times]
    return np.array(exact), np.array(euler)


def pendulum_value() -> float:
    g, eps, b = PENDULUM["g_over_l"], PENDULUM["eps"], PENDULUM["b"]
    c, s = 1.0 + g, b + eps
    folded = s * math.sqrt(2.0 / math.pi) * math.exp(-c * c / (2 * s * s)) + c * math.erf(
        c / (s * math.sqrt(2.0))
    )
    return folded - eps * b


# ---------------------------------------------------------------------------
# per-command checks: each returns (failures, bias warnings)
# ---------------------------------------------------------------------------


def _close(value: float, se: float, exact: float, what: str, errs: list[str]) -> None:
    tol = Z_TOL * se + REL_FLOOR * max(1.0, abs(exact))
    if not abs(value - exact) <= tol:
        errs.append(f"{what}: {value!r} vs exact {exact!r} (tolerance {tol:.3g})")


def _check_direct(est: dict, bounds: dict, exact: tuple[float, float] | None, what: str,
                  errs: list[str]) -> None:
    """``exact`` is the oracle's (mean, antithetic pair standard deviation).

    The window uses the larger of the reported standard error and the
    oracle's: a statistic that moves only in a rare tail can report a
    spread near zero when no draw reached that tail.
    """
    value, se = num(est["value"]), num(est["std_error"])
    if not (math.isfinite(value) and math.isfinite(se)):
        errs.append(f"{what}: non-finite direct estimate {value!r} +/- {se!r}")
        return
    lo, hi = num(bounds["mu_lower"]), num(bounds["mu_upper"])
    slack = Z_TOL * se + REL_FLOOR * max(1.0, abs(value))
    if not lo - slack <= value <= hi + slack:
        errs.append(f"{what}: direct estimate {value!r} outside [{lo!r}, {hi!r}]")
    if exact is not None:
        mean, pair_sd = exact
        _close(value, max(se, pair_sd / math.sqrt(est["samples"] // 2)), mean, what, errs)


def _check_estimates(report: dict, exact: tuple[float, float], what: str,
                     errs: list[str]) -> int:
    """Check a ``slognorm`` report; returns its definitional bias warnings."""
    res = report["results"]
    warnings = 0
    for est in res["estimates"]:
        if est["estimator"] == "direct":
            _check_direct(est, res["bounds"], exact, what, errs)
        else:
            if not math.isfinite(num(est["value"])):
                errs.append(f"{what}: non-finite definitional estimate {est['value']!r}")
            warnings += bool(est.get("bias_warning"))
    return warnings


def _check_simulation(report: dict, inputs: str, system: str, what: str,
                      errs: list[str]) -> None:
    """Checkpoint moments against tr P(t).  Both schemes have O(h) weak
    error; the gap between the exact Euler-Maruyama moment and tr P(t) sizes
    it and widens the window."""
    traj = report["results"]["trajectory"]
    times = [num(t) for t in traj["times"]]
    moments = [num(v) for v in traj["moments"]]
    ses = [num(v) for v in traj["std_errors"]]
    exact, euler = mean_square(inputs, system, times, num(report["invocation"]["h"]))
    if any(traj["diverged"]):
        errs.append(f"{what}: {traj['diverged'][-1]} paths diverged")
    if len(moments) != report["invocation"]["checkpoints"] + 1:
        errs.append(f"{what}: {len(moments)} moments for "
                    f"{report['invocation']['checkpoints']} checkpoints")
    for t, mom, se, ex, em in zip(times, moments, ses, exact, euler):
        tol = Z_TOL * se + abs(em - ex) + REL_FLOOR * max(1.0, abs(ex))
        if not abs(mom - ex) <= tol:
            errs.append(f"{what} at t={t}: {mom!r} vs exact {ex!r} (tolerance {tol:.3g})")


TABLE1_EXACT = {"a": -225.0, "f": -300.0}
CASE_G_VALUE = 747.62  # the computed row (g); the printed +924.53 is not reproducible


def _table1_value(inputs: str, case: str) -> tuple[float, float]:
    if case in TABLE1_EXACT:
        return TABLE1_EXACT[case], 0.0
    return direct_value(inputs, f"case_{case}.json")


def check(name: str, report: dict, inputs: Path) -> tuple[list[str], int]:
    """Validate one parsed report against the oracle ``name``."""
    errs: list[str] = []
    warnings = 0
    where = str(inputs)
    if name == "table1":
        rows = {row["case"]: row for row in report["results"]["cases"]}
        if sorted(rows) != list("abcdefghi"):
            errs.append(f"table1: rows {sorted(rows)}")
        for case, row in rows.items():
            exact = None if case == "h" else _table1_value(where, case)
            _check_direct(row["nu"], row["bounds"], exact, f"table1 case {case}", errs)
        if "g" in rows and abs(_table1_value(where, "g")[0] - CASE_G_VALUE) > 0.01:
            errs.append("oracle: case g quadrature disagrees with 747.62")
    elif name in ("case_g", "case_e", "case_d", "noncommuting"):
        system = f"{name}.json"
        warnings = _check_estimates(report, direct_value(where, system), name, errs)
    elif name in ("case_e_p1", "case_e_pinf"):
        p = name.rsplit("_p", 1)[1]
        est = report["results"]["estimates"]
        if report["invocation"]["p"] != p or len(est) != 1:
            errs.append(f"{name}: unexpected invocation or estimates")
        else:
            _check_direct(est[0], report["results"]["bounds"],
                          direct_value(where, "case_e.json", p), name, errs)
    elif name == "pendulum":
        exact = pendulum_value()
        res = report["results"]
        if abs(num(res["nu_closed_form"]["value"]) - exact) > 1e-12 * abs(exact):
            errs.append(f"pendulum: closed form {res['nu_closed_form']['value']!r} vs {exact!r}")
        est = res["nu_estimate"]
        _close(num(est["value"]), num(est["std_error"]), exact, "pendulum", errs)
    elif name == "lognorm":
        value = num(report["results"]["mu"]["value"])
        if value != cases.LOGNORM_MU2:
            errs.append(f"lognorm: {value!r} != {cases.LOGNORM_MU2!r}")
    elif name.startswith("sim_"):
        _check_simulation(report, where, name[len("sim_"):] + ".json", name, errs)
    else:
        errs.append(f"no oracle named {name!r}")
    return errs, warnings
