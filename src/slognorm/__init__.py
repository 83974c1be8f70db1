"""Stochastic logarithmic norms for linear Ito systems.

Tools for the one-sided growth rate nu_p^l of the l-th moment of
``dX = A X dt + sum_j B_j X dW_j``: two estimators (a white-noise formula
and the limit definition as vanishing-step difference quotients), Monte
Carlo or, for one channel, Gauss-Kronrod quadrature, closed-form upper and
lower bounds, stability classifiers for scalar and small structured
systems, consistency checks (scaling law, perturbed-spectrum inequality,
deterministic limit), and an ensemble Euler-Maruyama/Milstein simulator
for moment trajectories with growth-rate fits.  All Monte Carlo results
are bit-reproducible for a given seed, whatever the number of cores.
"""

from __future__ import annotations

from .matcore import DimensionError, EigenConvergenceError
from .lognorm import mu, mu_limit_check
from .slognorm import (
    BOUND_APPLICABILITY,
    BoundsReport,
    McConfig,
    NuEstimate,
    PerturbedSpectrumCheck,
    ScalingCheck,
    SdeSystem,
    StabilityClass,
    bounds_report,
    classify,
    expected_max_re_perturbed,
    nu_definitional,
    nu_direct,
    scalar_stability,
    scaling_check,
    twobytwo_inf_ms_stable,
)
from .sdesim import (
    MomentTrajectory,
    SimConfig,
    em_2x2_ms_stable,
    growth_rate,
    milstein_R,
    milstein_ms_stable,
    simulate_moments,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DimensionError",
    "EigenConvergenceError",
    # classical logarithmic norm
    "mu",
    "mu_limit_check",
    # stochastic logarithmic norm
    "SdeSystem",
    "McConfig",
    "NuEstimate",
    "BoundsReport",
    "BOUND_APPLICABILITY",
    "StabilityClass",
    "PerturbedSpectrumCheck",
    "ScalingCheck",
    "nu_direct",
    "nu_definitional",
    "bounds_report",
    "classify",
    "scalar_stability",
    "twobytwo_inf_ms_stable",
    "expected_max_re_perturbed",
    "scaling_check",
    # ensemble simulation
    "SimConfig",
    "MomentTrajectory",
    "simulate_moments",
    "growth_rate",
    "milstein_R",
    "milstein_ms_stable",
    "em_2x2_ms_stable",
]
