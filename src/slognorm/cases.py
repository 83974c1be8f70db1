"""Table 1 benchmark systems and worked examples, with their oracles.

``TABLE1_CASES`` and ``TABLE1_REFERENCE`` hold the published comparison
table: the drift and single diffusion of each row and the printed
(lower bound, nu, upper bound) row.  :func:`table1_row` judges a fresh
nu_2^2 estimate and bounds against that row.  The worked examples
(:func:`pendulum`, :func:`nonnormal`) pair a system with the exact value of
its nu_2^2 and its stability threshold.  An estimate agrees with an exact
value when it lies within 3 standard errors plus ``FP_FLOOR``
(:func:`agrees`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .slognorm import FP_FLOOR, BoundsReport, NuEstimate, SdeSystem

__all__ = [
    "TABLE1_CASES",
    "TABLE1_REFERENCE",
    "TABLE1_ANNOTATIONS",
    "WorkedExample",
    "agrees",
    "table1_system",
    "table1_row",
    "pendulum",
    "nonnormal",
]

#: benchmark systems (drift, single diffusion) transcribed from the
#: published comparison table; case (h) is regenerated randomly at run time.
TABLE1_CASES: dict[str, dict] = {
    "a": {
        "A": [[-100, 0], [0, -200]],
        "B": [[5, 0], [0, 6]],
        "closed_form": -225.0,
        "annotations": [
            "the reference nu (-104.70) is not reproducible from the white-noise "
            "statistic 2*max(-112.5+5z, -218+6z), which concentrates at -225 "
            "because its second branch is active only for z > 105.5",
        ],
    },
    "b": {"A": [[-100, 0], [200, -200]], "B": [[5, 2], [0, 6]]},
    "c": {"A": [[-100, 20], [0, -200]], "B": [[5, 2], [0, 6]]},
    "d": {
        "A": [[-100 + 20j, 0], [2, -200 + 1j]],
        "B": [[5 + 1j, 0], [2j, -6 - 10j]],
    },
    "e": {"A": [[-100, 20], [7, -200]], "B": [[5, 2], [4, 6]]},
    "f": {
        "A": [[-100]],
        "B": [[10]],
        "closed_form": -300.0,
        "annotations": [
            "reference nu -300.26 reflects sampling error in the original benchmark "
            "run; the statistic 2*(-150+10z) has exact mean -300",
        ],
    },
    "g": {
        "A": None,  # assembled in _table1_case_g from the 3x3 blocks
        "B": None,
        "annotations": [
            "neither estimator nor any closed-form bound reproduces this reference "
            "row (+924.53 / -918.52 / +4839.8); the white-noise estimate is near "
            "+747.6 and the tightest printed upper bound evaluates to +938.5",
        ],
    },
    "i": {"A": [[-100, 0], [0, -1]], "B": [[0, 2], [2, 0]]},
}

#: printed reference rows (lower bound, nu, upper bound) per case
TABLE1_REFERENCE: dict[str, tuple[float, float, float]] = {
    "a": (-112.39, -104.70, -40.393),
    "b": (-119.19, -114.68, -31.393),
    "c": (-240.82, -224.15, -153.02),
    "d": (-224.90, -223.54, -59.075),
    "e": (-268.37, -232.32, -121.915),
    "f": (-300.00, -300.26, -100.00),
    "g": (-918.52, 924.53, 4839.8),
    "h": (-2.5191e7, 1.2369e5, 2.5330e7),
    "i": (-6.0000, -5.91409, -2.0000),
}

#: notes on the table as a whole
TABLE1_ANNOTATIONS = [
    "the reference Lbound/Ubound columns are not consistently reproduced by "
    "any single printed bound formula; every computed bound is reported "
    "under its own identifier for comparison",
]

_CASE_H_ANNOTATION = (
    "matrices are regenerated as 100*U(0,1) from the run seed; the "
    "reference row used unpublished draws, so values are not "
    "comparable (smoke case only)"
)


def _table1_case_g() -> tuple[np.ndarray, np.ndarray]:
    a1 = np.array([[0.1, 4, 20], [0, 0.1, 5], [0, 0, 0.1]])
    a2 = np.array([[-0.2, 3, 100], [0, -0.2, 50], [0, 0, -0.2]])
    b1 = np.array([[2, 30, 10], [0, 2, 50], [0, 0, 2]])
    b2 = np.array([[4, 6, 20], [0, 4, 40], [0, 0, 4]])
    a12 = np.array([
        [2.2857e-2, -2.3547e-2, -6.8279e-2],
        [9.3914e-2, -9.6719e-2, -2.8049e-1],
        [2.8585e-1, -2.9443e-1, -8.5382e-1],
    ])
    b12 = np.array([
        [1.2606e-1, -4.6007e-1, 7.0963e-3],
        [1.8156e-1, -6.6259e-1, 1.0235e-2],
        [1.4481e-1, -5.2845e-1, 8.1625e-3],
    ])
    zero = np.zeros((3, 3))
    a = np.block([[a1, a12], [zero, a2]])
    b = np.block([[b1, b12], [zero, b2]])
    return a, b


def table1_system(case: str, seed: int = 42) -> SdeSystem:
    """Build the benchmark system for one table row.

    Case (h) has no published entries; it is regenerated as 100 * U(0, 1)
    matrices from a child of ``seed``, so it serves as a deterministic
    smoke case rather than a value check.
    """
    if case == "g":
        a, b = _table1_case_g()
    elif case == "h":
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1000,)))
        a = 100.0 * rng.random((100, 100))
        b = 100.0 * rng.random((100, 100))
    else:
        spec = TABLE1_CASES[case]
        a, b = np.array(spec["A"]), np.array(spec["B"])
    return SdeSystem(a, (b,))


def agrees(value: float, target: float, std_error: float) -> bool:
    """Whether ``value`` lies within 3 ``std_error`` + ``FP_FLOOR`` of ``target``."""
    return abs(value - target) <= 3.0 * std_error + FP_FLOOR


def table1_row(case: str, est: NuEstimate, bounds: BoundsReport) -> dict:
    """One case's reference row and the verdicts of ``est`` and ``bounds`` on it.

    Keys in report order: ``reference``, ``closed_form_value`` (rows with an
    exact nu), ``verdicts`` (None for the regenerated case (h)) and
    ``annotations``.  The estimate matches the printed nu within
    max(1% of it, 3 SE) + ``FP_FLOOR``; a bound column matches within 1%.
    """
    ref_lower, ref_nu, ref_upper = TABLE1_REFERENCE[case]
    row: dict = {"reference": {"lower": ref_lower, "nu": ref_nu, "upper": ref_upper}}
    if case == "h":
        return {**row, "verdicts": None, "annotations": [_CASE_H_ANNOTATION]}
    spec = TABLE1_CASES[case]
    tol = max(0.01 * abs(ref_nu), 3.0 * est.std_error) + FP_FLOOR
    verdicts = {
        "nu_matches_reference": abs(est.value - ref_nu) <= tol,
        "nu_reference_tolerance": tol,
        "upper_matches_reference": abs(bounds.mu_upper - ref_upper) <= 0.01 * abs(ref_upper),
        "lower_matches_reference": abs(bounds.mu_lower - ref_lower) <= 0.01 * abs(ref_lower),
    }
    closed = spec.get("closed_form")
    if closed is not None:
        row["closed_form_value"] = closed
        verdicts["matches_closed_form"] = agrees(est.value, closed, est.std_error)
    return {**row, "verdicts": verdicts, "annotations": list(spec.get("annotations", []))}


@dataclass(frozen=True)
class WorkedExample:
    """A worked system, the exact value of its nu_2^2 and its stability
    threshold; ``system`` is None when no real coefficients realize it."""

    system: SdeSystem | None
    nu: float
    threshold: float


def _folded_normal_mean(c: float, s: float) -> float:
    """E|N(c, s^2)| for s > 0."""
    return s * math.sqrt(2.0 / math.pi) * math.exp(-c * c / (2.0 * s * s)) + c * math.erf(
        c / (s * math.sqrt(2.0))
    )


def pendulum(g_over_l: float, eps: float, b: float) -> WorkedExample:
    """Noisy linearized pendulum: drift [[0, 1], [g/l, 0]], diffusion [[0, eps], [b, 0]].

    nu = E|N(c, s^2)| - eps*b with c = 1 + g/l and s = b + eps; the
    threshold is the amplitude c/eps that mean-square stabilization needs.
    """
    c = 1.0 + g_over_l
    system = SdeSystem([[0.0, 1.0], [g_over_l, 0.0]], ([[0.0, eps], [b, 0.0]],))
    return WorkedExample(system, _folded_normal_mean(c, b + eps) - eps * b, c / eps)


def nonnormal(b: float, sigma2: float) -> WorkedExample:
    """Drift [[-1, b], [0, -1]], diffusion [[0, sigma], [-sigma, 0]].

    nu = sigma^2 - 2 + |b| exactly, so nu <= 0 iff sigma^2 is at most the
    threshold min(2 - b, 2 + b).  A negative ``sigma2`` models imaginary
    sigma, which has no real system.
    """
    system = None
    if sigma2 >= 0:
        sigma = math.sqrt(sigma2)
        system = SdeSystem([[-1.0, b], [0.0, -1.0]], ([[0.0, sigma], [-sigma, 0.0]],))
    return WorkedExample(system, sigma2 - 2.0 + abs(b), min(2.0 - b, 2.0 + b))
