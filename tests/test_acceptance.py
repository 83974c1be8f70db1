"""Acceptance gate: one test per shipped guarantee, at pinned tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Criterion 1 is split in two: the benchmark rows that are
reproducible are checked in ``test_01_benchmark_nu_reproduction``;
``test_01_benchmark_case_g_reference_row`` checks the 6x6 case against an
exact Gauss-Hermite quadrature of the direct statistic (+747.62298) and
asserts that the published +924.53, which no implemented estimator or
bound reproduces, stays outside the estimate's tolerance and stays flagged
as a mismatch in the ``table1`` report.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner
from numpy.polynomial.hermite_e import hermegauss

import slognorm
from slognorm.cases import TABLE1_CASES, TABLE1_REFERENCE, table1_system
from slognorm.cli import cli
from slognorm.lognorm import mu, mu_limit_check
from slognorm.matcore import max_re_eigvals_batch
from slognorm.sdesim import (
    SimConfig,
    em_2x2_ms_stable,
    em_step,
    growth_rate,
    milstein_R,
    milstein_step,
    simulate_moments,
)
from slognorm.slognorm import (
    FP_FLOOR,
    McConfig,
    SdeSystem,
    bounds_report,
    expected_max_re_perturbed,
    nu_definitional,
    nu_direct,
    scaling_check,
)

P_CYCLE = (1, 2, math.inf)
BENCHMARK_SAMPLES = 10**6


def scalar_system(alpha: float, beta: float) -> SdeSystem:
    return SdeSystem([[alpha]], ([[beta]],))


@pytest.fixture(scope="module")
def benchmark_estimates():
    """Direct nu_2^2 estimates for every valued benchmark row, plus timing."""
    cfg = McConfig(samples=BENCHMARK_SAMPLES, seed=42)
    t0 = time.perf_counter()
    estimates = {
        case: nu_direct(table1_system(case), 2, 2, cfg)
        for case in ("a", "b", "c", "d", "e", "f", "g", "i")
    }
    elapsed = time.perf_counter() - t0
    return estimates, elapsed


@pytest.fixture(scope="module")
def table1_cases():
    """The ``table1`` report's per-case payloads at a small sample count."""
    result = CliRunner().invoke(cli, ["table1", "--samples", "64"])
    assert result.exit_code == 0
    return {c["case"]: c for c in json.loads(result.stdout)["results"]["cases"]}


def test_01_benchmark_nu_reproduction(benchmark_estimates, table1_cases):
    estimates, elapsed = benchmark_estimates

    # rows whose printed nu is reproduced by the white-noise estimator
    for case in ("b", "c", "d", "e", "i"):
        est = estimates[case]
        ref = TABLE1_REFERENCE[case][1]
        tol = max(0.01 * abs(ref), 3.0 * est.std_error)
        assert abs(est.value - ref) <= tol, (
            f"case ({case}): {est.value} vs reference {ref} (tol {tol})"
        )

    # (f) is exactly -300; the printed -300.26 carries the reference run's
    # own Monte Carlo error and still agrees within 1%
    f = estimates["f"]
    assert abs(f.value - (-300.0)) <= 3.0 * f.std_error + 1e-9
    ref_f = TABLE1_REFERENCE["f"][1]
    assert abs(f.value - ref_f) <= max(0.01 * abs(ref_f), 3.0 * f.std_error)

    # (a) concentrates at the closed-form -225, not the printed -104.70,
    # and the emitted report must carry the discrepancy annotation
    a = estimates["a"]
    assert abs(a.value - (-225.0)) <= 3.0 * a.std_error + 1e-9
    assert any("-104.70" in note for note in TABLE1_CASES["a"]["annotations"])
    assert any("-104.70" in note for note in table1_cases["a"]["annotations"])

    assert elapsed < 60.0, f"benchmark suite took {elapsed:.1f}s (budget 60s)"


def gauss_hermite_nu22(system: SdeSystem, nodes: int) -> float:
    """2 * E[mu_2(A - B^2/2 + zeta B)] for one channel by Gauss-Hermite quadrature.

    Uses numpy's probabilists' Hermite rule and ``eigvalsh`` directly, so it
    shares no code with ``nu_direct`` or the mu kernels.
    """
    (b,) = system.diffusions
    base = system.A - 0.5 * b @ b
    z, w = hermegauss(nodes)
    mats = base + z[:, None, None] * b
    herm = 0.5 * (mats + np.conj(np.swapaxes(mats, 1, 2)))
    lam_max = np.linalg.eigvalsh(herm)[:, -1]
    return 2.0 * float(np.dot(w, lam_max)) / math.sqrt(2.0 * math.pi)


def test_01_benchmark_case_g_reference_row(benchmark_estimates, table1_cases):
    """The 6x6 row: the estimate against exact quadrature, and the printed nu.

    The direct statistic for case (g) depends on one standard normal, so its
    mean is a 1-D Gaussian integral; the 10^6-sample estimate must agree with
    it within 3 SE.  The printed reference nu (+924.53) is not reproduced by
    that value or by any implemented bound, so the test also pins the printed
    row and asserts that the discrepancy stays flagged in the ``table1``
    report instead of being matched by a wider tolerance.
    """
    estimates, _ = benchmark_estimates
    est = estimates["g"]
    system = table1_system("g")

    exact = gauss_hermite_nu22(system, 64)
    assert abs(gauss_hermite_nu22(system, 128) - exact) <= 1e-9
    assert abs(est.value - exact) <= 3.0 * est.std_error + FP_FLOOR, (
        f"case (g): computed {est.value:.9g} +/- {est.std_error:.3g} vs "
        f"quadrature {exact:.9g}"
    )

    assert TABLE1_REFERENCE["g"] == (-918.52, 924.53, 4839.8)
    ref = TABLE1_REFERENCE["g"][1]
    tol = max(0.01 * abs(ref), 3.0 * est.std_error) + FP_FLOOR
    assert abs(est.value - ref) > tol, (
        f"case (g): computed {est.value:.6g} now reproduces the printed {ref}"
    )

    case_g = table1_cases["g"]
    assert case_g["verdicts"]["nu_matches_reference"] is False
    assert any("+924.53" in note for note in case_g["annotations"])


def test_02_zero_variance_closed_forms():
    # nonnormal 2x2 family: nu_2^2 = sigma^2 - 2 + |b| with zero variance
    cfg = McConfig(samples=512, seed=3)
    for b in (0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0):
        for sigma in (0.0, 0.5, 1.0):
            system = SdeSystem([[-1.0, b], [0.0, -1.0]], ([[0.0, sigma], [-sigma, 0.0]],))
            est = nu_direct(system, 2, 2, cfg)
            assert est.value == pytest.approx(sigma**2 - 2.0 + abs(b), abs=1e-12)
            assert est.std_error <= 1e-12

    # no diffusion: the estimator returns l * mu_p(A) exactly
    rng = np.random.default_rng(17)
    for k in range(3):
        a = rng.uniform(-3, 3, (4, 4)) + 1j * rng.uniform(-3, 3, (4, 4))
        system = SdeSystem(a)
        for p in P_CYCLE:
            for l in (1, 2, 3):
                est = nu_direct(system, p, l, cfg)
                assert est.value == l * mu(system.A, p)
                assert est.std_error == 0.0


def test_03_identity_diffusion_estimator_dichotomy(tmp_path):
    a = np.diag([-2.0, -5.0])
    system = SdeSystem(a, (np.eye(2),))

    direct = nu_direct(system, 2, 2, McConfig(samples=200_000, seed=7))
    assert abs(direct.value - (2 * mu(a, 2) - 1.0)) <= 3 * direct.std_error + 1e-9

    limit = nu_definitional(system, 2, 2, cfg=McConfig(samples=200_000, seed=7))
    assert abs(limit.value - (2 * mu(a, 2) + 1.0)) <= 3 * limit.std_error + 1e-9

    gap = abs(direct.value - limit.value)
    assert gap > 3 * math.hypot(direct.std_error, limit.std_error) + FP_FLOOR

    # and the CLI warns about the disagreement
    system_file = tmp_path / "identity_diffusion.json"
    system_file.write_text(json.dumps({
        "A": {"rows": 2, "cols": 2, "data": [-2.0, 0.0, 0.0, -5.0]},
        "B": [{"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]}],
    }))
    result = CliRunner().invoke(
        cli, ["slognorm", str(system_file), "--samples", "20000"]
    )
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert any("disagree" in w for w in report["warnings"])


def test_04_scalar_definitional_law():
    cfg = McConfig(samples=100_000, seed=11)
    for alpha, beta in ((-100.0, 10.0), (-1.0, 1.0), (0.0, 1.0)):
        target = 2.0 * alpha + beta**2
        est = nu_definitional(scalar_system(alpha, beta), 2, 2, cfg=cfg)
        window = max(0.02 * abs(target), 3.0 * est.std_error)
        assert abs(est.value - target) <= window, (
            f"(alpha, beta) = ({alpha}, {beta}): {est.value} vs {target} "
            f"(window {window})"
        )


def test_05_scaling_law():
    rng = np.random.default_rng(73)
    system = SdeSystem(rng.uniform(-1.5, 1.5, (3, 3)), (rng.uniform(-1.5, 1.5, (3, 3)),))
    for alpha in (0.5, 2.0, 4.0):
        chk = scaling_check(system, alpha, cfg=McConfig(samples=20_000, seed=5))
        assert chk.within_tolerance, (
            f"alpha={alpha}: |{chk.difference}| > {chk.tolerance}"
        )


def test_06_bound_sandwich_on_random_systems():
    rng = np.random.default_rng(1234)
    violations = []
    for k in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        def draw():
            return rng.uniform(-5, 5, (n, n))
        system = SdeSystem(draw(), tuple(draw() for _ in range(m)))
        p = P_CYCLE[k % 3]
        l = (1, 2, 4)[k % 3]
        est = nu_direct(system, p, l, McConfig(samples=20_000, seed=k))
        rep = bounds_report(system, p, l)
        slack = 3.0 * est.std_error + FP_FLOOR
        if not (rep.mu_lower - slack <= est.value <= rep.mu_upper + slack):
            violations.append((k, "sandwich", est.value, rep.mu_lower, rep.mu_upper))
        if abs(est.value) > rep.abs_bound + slack:
            violations.append((k, "absolute", est.value, rep.abs_bound))
    assert not violations, violations


def test_07_perturbed_spectrum_inequality():
    for case in ("b", "c", "i"):
        chk = expected_max_re_perturbed(
            table1_system(case), McConfig(samples=100_000, seed=29)
        )
        assert chk.inequality_holds, f"case ({case}): {chk}"

    rng = np.random.default_rng(4321)
    for k in range(20):
        system = SdeSystem(rng.uniform(-2, 2, (4, 4)), (rng.uniform(-2, 2, (4, 4)),))
        chk = expected_max_re_perturbed(system, McConfig(samples=20_000, seed=k))
        assert chk.inequality_holds, f"random system {k}: {chk}"


def test_08_strong_convergence_orders():
    # scalar geometric Brownian motion dX = -X dt + X dW, exact solution
    # X_T = exp(-1.5 T + W_T), integrated on dyadic refinements of one
    # Brownian path per sample
    system = scalar_system(-1.0, 1.0)
    paths = 2000
    levels = list(range(4, 11))  # h = 2^-4 .. 2^-10
    rng = np.random.default_rng(99)
    finest = rng.standard_normal((paths, 2**levels[-1])) * math.sqrt(2.0 ** -levels[-1])
    w_end = finest.sum(axis=1)
    exact = np.exp(-1.5 + w_end)

    errors = {"euler_maruyama": [], "milstein": []}
    hs = []
    for lev in levels:
        nsteps = 2**lev
        h = 2.0**-lev
        hs.append(h)
        dw = finest.reshape(paths, nsteps, -1).sum(axis=2)
        x_em = np.ones((paths, 1))
        x_mil = np.ones((paths, 1))
        for k in range(nsteps):
            step_dw = dw[:, k : k + 1]
            iints = 0.5 * (step_dw**2 - h)
            x_em = em_step(system, x_em, step_dw, h)
            x_mil = milstein_step(system, x_mil, step_dw,
                                  iints[:, :, np.newaxis], h)
        errors["euler_maruyama"].append(
            math.sqrt(np.mean((x_em[:, 0] - exact) ** 2))
        )
        errors["milstein"].append(
            math.sqrt(np.mean((x_mil[:, 0] - exact) ** 2))
        )

    log_h = np.log(hs)
    em_slope = float(np.polyfit(log_h, np.log(errors["euler_maruyama"]), 1)[0])
    mil_slope = float(np.polyfit(log_h, np.log(errors["milstein"]), 1)[0])
    assert em_slope == pytest.approx(0.5, abs=0.15), f"EM slope {em_slope}"
    assert mil_slope == pytest.approx(1.0, abs=0.15), f"Milstein slope {mil_slope}"


def test_09_moment_law_growth_rate():
    # dX = -100 X dt + 10 X dW: E X_t^2 = exp(-100 t)
    system = scalar_system(-100.0, 10.0)
    cfg = SimConfig(h=1e-4, t_end=0.02, paths=100_000, checkpoints=10, seed=2)
    t0 = time.perf_counter()
    traj = simulate_moments(system, [1.0], cfg)
    rate, rate_se = growth_rate(traj)
    elapsed = time.perf_counter() - t0
    assert abs(rate - (-100.0)) <= 15.0, f"rate {rate} +/- {rate_se}"
    assert elapsed < 120.0, f"simulation took {elapsed:.1f}s (budget 120s)"


def test_10_scheme_stability_truth_tables():
    assert milstein_R(1.0, -1.0, 0.0) == 0.0
    assert milstein_R(1.0, -1.0, 0.0) < 1.0
    assert milstein_R(0.7, 0.0, 0.0) == 1.0  # never stable without decay
    assert not milstein_R(0.7, 0.0, 0.0) < 1.0
    assert milstein_R(0.001, -100.0, 10.0) == pytest.approx(0.915, abs=1e-12)
    assert milstein_R(0.001, -100.0, 10.0) < 1.0

    assert em_2x2_ms_stable(1.0, -1.0, -1.0, 0.0, 0.0, 0.0, 0.0)
    assert not em_2x2_ms_stable(2.0, -1.0, -1.0, 0.0, 0.0, 0.0, 0.0)
    assert not em_2x2_ms_stable(0.005, -100.0, -200.0, 5.0, 0.0, 6.0, 0.0)


def test_11_cli_byte_identical_reruns(tmp_path):
    matrix_file = tmp_path / "mat.json"
    matrix_file.write_text(json.dumps(
        {"rows": 2, "cols": 2, "data": [-100.0, 0.0, 0.0, -200.0]}
    ))
    rng = np.random.default_rng(8)
    system_file = tmp_path / "sys.json"
    system_file.write_text(json.dumps({
        "A": {"rows": 3, "cols": 3,
              "data": (rng.uniform(-1, 1, 9) - 2 * np.eye(3).ravel()).tolist()},
        "B": [
            {"rows": 3, "cols": 3, "data": rng.uniform(-0.5, 0.5, 9).tolist()}
            for _ in range(2)
        ],
    }))

    # slognorm (n = 3, p = 2) and simulate run two blocks each, which fan
    # out unless the process is pinned to one CPU
    invocations = [
        ["lognorm", str(matrix_file), "--p", "2"],
        ["slognorm", str(system_file), "--samples", "8200", "--seed", "7"],
        ["simulate", str(system_file), "--h", "0.05", "--t-end", "0.5",
         "--paths", "5000", "--checkpoints", "5", "--seed", "7"],
        ["table1", "--samples", "64", "--seed", "3"],
        ["table1", "--seed", "3"],  # quadratures, case (h) through LAPACK
        ["examples", "--which", "pendulum", "--samples", "512", "--seed", "7"],
        ["examples", "--which", "nonnormal", "--sigma2", "0.5",
         "--samples", "512", "--seed", "7"],
    ]
    env = {k: v for k, v in os.environ.items() if k != "SLOGNORM_SEED"}
    # the child imports the same package as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(slognorm.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))

    def pin_to_one_cpu():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # two runs as they are, then one on a single CPU where affinity can be set
    setups = [None, None] + ([pin_to_one_cpu] if hasattr(os, "sched_setaffinity") else [])
    for args in invocations:
        outputs = []
        for setup in setups:
            proc = subprocess.run([sys.executable, "-m", "slognorm.cli", *args],
                                  capture_output=True, env=env, timeout=300, preexec_fn=setup)
            assert proc.returncode == 0, (args, proc.stderr.decode())
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], f"rerun changed stdout: {args}"
        assert outputs[0] == outputs[-1], f"one CPU changed stdout: {args}"


def test_12_mu_limit_and_spectral_abscissa():
    rng = np.random.default_rng(2025)
    for k in range(100):
        n = int(rng.integers(1, 9))
        a = rng.uniform(-4, 4, (n, n))
        if k % 2:
            a = a + 1j * rng.uniform(-4, 4, (n, n))
        p = P_CYCLE[k % 3]
        closed = mu(a, p)
        limit = mu_limit_check(a, p)
        assert abs(closed - limit) <= 1e-6, (k, p, closed, limit)
        abscissa = float(max_re_eigvals_batch(np.asarray(a, dtype=np.complex128)[np.newaxis])[0])
        assert abscissa <= mu(a, 2) + 1e-9, (k, abscissa)


def test_13_direct_quadrature_matches_monte_carlo(benchmark_estimates):
    """At the default sample count the one-channel direct estimate is a
    Gauss-Kronrod quadrature.  On every Table 1 row at p = 2 it must equal
    the independent 128-node Gauss-Hermite oracle ``gauss_hermite_nu22`` to
    1e-12, within its own error bar, and lie within 3 combined standard
    errors of an explicit Monte Carlo run: the 10^6-sample runs of
    criterion 1, and 2000 samples for the 100x100 case (h), where 10^6
    eigensolves would take minutes."""
    estimates, _ = benchmark_estimates
    mc = dict(estimates)
    mc["h"] = nu_direct(table1_system("h"), 2, 2, McConfig(samples=2000, seed=42))
    for case in "abcdefghi":
        system = table1_system(case)
        quad = nu_direct(system, 2, 2, McConfig(seed=42))
        assert quad.method == "quadrature" and mc[case].method == "monte_carlo", case
        # every row converges on the rule's 12 starting intervals
        assert quad.samples == 12 * 17, case
        exact = gauss_hermite_nu22(system, 128)
        assert quad.value == pytest.approx(exact, rel=1e-12, abs=1e-12), case
        assert abs(quad.value - exact) <= quad.std_error + 4 * math.ulp(exact), case
        assert quad.std_error <= 1e-12 * max(1.0, abs(exact)), case
        window = 3.0 * math.hypot(quad.std_error, mc[case].std_error) + FP_FLOOR
        assert abs(quad.value - mc[case].value) <= window, (
            f"case ({case}): quadrature {quad.value!r} vs Monte Carlo "
            f"{mc[case].value!r} +/- {mc[case].std_error:.3g}"
        )


def _row_sum_pair_sd(system: SdeSystem, p) -> float:
    """The standard deviation of the antithetic pair mean (f(z) + f(-z)) / 2
    of f(z) = 2 mu_p(A - B^2/2 + z B), z ~ N(0, 1), at p = 1 or inf, by
    the trapezoid rule on [-12, 12] and mu_inf as the largest Re m_ii plus
    the off-diagonal row sum (mu_1: of the transpose); shares no code with
    the estimators."""
    (b,) = system.diffusions
    base = system.A - 0.5 * b @ b
    z = np.linspace(-12.0, 12.0, 4801)
    f = np.empty(z.size)
    for lo in range(0, z.size, 200):
        mats = base + z[lo:lo + 200, None, None] * b
        if p == 1:
            mats = np.swapaxes(mats, 1, 2)
        diag = np.diagonal(mats, axis1=1, axis2=2)
        f[lo:lo + 200] = 2.0 * (diag.real + np.abs(mats).sum(axis=2) - np.abs(diag)).max(axis=1)
    w = np.exp(-0.5 * z * z) * (z[1] - z[0]) / math.sqrt(2.0 * math.pi)
    pair = 0.5 * (f + f[::-1])
    mean = float(w @ pair) / float(w.sum())
    return math.sqrt(float(w @ (pair - mean) ** 2) / float(w.sum()))


@pytest.mark.parametrize("p", [1, math.inf])
def test_14_direct_quadrature_at_p1_and_inf(p):
    """The statistic at p = 1 and inf has kinks in zeta, which the adaptive
    rule refines.  On every Table 1 row it must lie within 3 combined
    standard errors of an explicit Monte Carlo run at the default sample
    count (2000 samples for the 100x100 case (h)).  As in perfbench's
    oracle, the Monte Carlo error is at least the pair spread over the
    whole law divided by sqrt(pairs): case (h) at p = inf moves only in a
    tail that no draw reaches, so its runs report a spread near zero."""
    for case in "abcdefghi":
        system = table1_system(case)
        quad = nu_direct(system, p, 2, McConfig(seed=42))
        samples = 2000 if case == "h" else 10**6 if system.dim <= 2 else 10**5
        mc = nu_direct(system, p, 2, McConfig(samples=samples, seed=42))
        assert quad.method == "quadrature" and mc.method == "monte_carlo", case
        mc_se = max(mc.std_error, _row_sum_pair_sd(system, p) / math.sqrt(mc.samples // 2))
        window = 3.0 * math.hypot(quad.std_error, mc_se) + FP_FLOOR
        assert abs(quad.value - mc.value) <= window, (
            f"case ({case}), p = {p}: quadrature {quad.value!r} vs Monte Carlo "
            f"{mc.value!r} +/- {mc_se:.3g}"
        )


def _mu2(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1])


def test_15_definitional_quadrature_oracles():
    """With one channel the definitional quotients are Gaussian integrals
    in dW / sqrt(h), and the default estimate is their quadrature.

    * Scalars: E (1 + ha + sqrt(h) zeta b + h (zeta^2 - 1) b^2 / 2)^2 is
      1 + h (2a + b^2) + h^2 (a^2 + b^4 / 2), so every quotient lies on a
      line with intercept 2a + b^2, which the fit recovers exactly.
    * B = I with diagonal A: norm(G_h) = c + h max(a) with c > 0 scalar, so
      the l = 1 and l = 2 quotients are lines too, with intercept
      ``main12_exact_B_eq_I``.
    * Monte Carlo at explicit samples agrees within 3 standard errors, on
      the default steps and on two steps, whose line fit has no residual.
    """
    for alpha, beta in ((-100.0, 10.0), (-1.0, 1.0), (0.0, 1.0), (2.0, -3.0)):
        est = nu_definitional(scalar_system(alpha, beta), 2, 2)
        target = 2.0 * alpha + beta**2
        assert est.method == "quadrature"
        assert est.value == pytest.approx(target, rel=1e-10, abs=1e-10), (alpha, beta)

    for a in (np.diag([-2.0, -5.0]), np.diag([3.0, -1.0, 0.5])):
        system = SdeSystem(a, (np.eye(a.shape[0]),))
        for l in (1, 2):
            est = nu_definitional(system, 2, l)
            exact = bounds_report(system, 2, l).main12_exact_B_eq_I
            assert exact == pytest.approx(l * float(np.diag(a).max()) + l * (l - 1) / 2)
            assert est.method == "quadrature"
            assert est.value == pytest.approx(exact, rel=1e-10, abs=1e-10), (a, l)

    for case in "deg":
        system = table1_system(case)
        h0 = nu_definitional(system, 2, 2).h_used[0]
        for steps in ((h0, h0 / 2), None):
            quad = nu_definitional(system, 2, 2, steps)
            mc = nu_definitional(system, 2, 2, steps, McConfig(samples=10**5, seed=7))
            assert quad.method == "quadrature" and mc.method == "monte_carlo"
            assert abs(quad.value - mc.value) <= 3.0 * math.hypot(quad.std_error, mc.std_error), (
                f"case ({case}), steps {steps}: quadrature {quad.value!r} vs Monte Carlo "
                f"{mc.value!r} +/- {mc.std_error:.3g}"
            )


def test_16_definitional_divergence_law():
    """The quotients grow like c1 / sqrt(h), c1 = l (mu_2(B) + mu_2(-B)) /
    sqrt(2 pi) for one channel, so the 7-step halving fit from h0 gives an
    intercept near K c1 / sqrt(h0), where K is the fit's intercept for
    1 / sqrt(h / h0) (ROADMAP item 2).  Case (e), deterministic at h0 = 1e-10."""
    steps = 1e-10 * 0.5 ** np.arange(7)
    k_fit = float(np.polyfit(steps / steps[0], (steps / steps[0]) ** -0.5, 1)[1])
    assert k_fit == pytest.approx(5.0085, abs=1e-4)
    system = table1_system("e")
    (b,) = system.diffusions
    c1 = 2.0 * (_mu2(b) + _mu2(-b)) / math.sqrt(2.0 * math.pi)
    est = nu_definitional(system, 2, 2, tuple(steps))
    assert est.method == "quadrature"
    assert est.value * math.sqrt(steps[0]) / c1 == pytest.approx(k_fit, abs=1e-3)
