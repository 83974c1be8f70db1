"""Tests for the stochastic logarithmic norm estimators, bounds, and checks."""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import tracemalloc

import numpy as np
import pytest

import slognorm.matcore as matcore
import slognorm.slognorm as slognorm_module
from slognorm.cases import nonnormal, pendulum, table1_row, table1_system
from slognorm.lognorm import mu, ols_line_weights
from slognorm.matcore import DimensionError, EigenConvergenceError, matrix_norm, matrix_norm_batch
from slognorm.slognorm import (
    BOUND_APPLICABILITY,
    FP_FLOOR,
    McConfig,
    NuEstimate,
    SdeSystem,
    StabilityClass,
    _increments_from_normals,
    bounds_report,
    classify,
    default_h_sequence,
    default_samples,
    expected_max_re_perturbed,
    nu_definitional,
    nu_direct,
    sample_wiener_increments,
    scalar_stability,
    scaling_check,
    twobytwo_inf_ms_stable,
)

P_VALUES = (1, 2, math.inf)


def scalar_system(alpha: float, beta: float) -> SdeSystem:
    return SdeSystem([[alpha]], ([[beta]],))


def nonnormal_system(b: float, sigma: float) -> SdeSystem:
    return SdeSystem([[-1.0, b], [0.0, -1.0]], ([[0.0, sigma], [-sigma, 0.0]],))


def random_system(rng: np.random.Generator, n: int, m: int, scale: float = 1.0,
                  complex_: bool = False) -> SdeSystem:
    def draw():
        a = rng.uniform(-scale, scale, (n, n))
        if complex_:
            a = a + 1j * rng.uniform(-scale, scale, (n, n))
        return a

    return SdeSystem(draw(), tuple(draw() for _ in range(m)))


class TestSdeSystem:
    def test_coerces_array_likes(self):
        sys_ = SdeSystem([[1, 0], [0, 1]], ([[1, 2], [3, 4]], np.zeros((2, 2))))
        np.testing.assert_array_equal(sys_.A, np.eye(2))
        np.testing.assert_array_equal(sys_.diffusions[0], [[1, 2], [3, 4]])
        assert sys_.diffusions.shape == (2, 2, 2)
        assert sys_.dim == 2 and sys_.m == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"B\(1\)"):
            SdeSystem(np.eye(2), (np.eye(3),))

    def test_nonsquare(self):
        with pytest.raises(DimensionError, match="A must"):
            SdeSystem(np.zeros((2, 3)))
        with pytest.raises(DimensionError, match=r"B\(2\) must"):
            SdeSystem(np.eye(2), (np.eye(2), np.zeros((2, 3))))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 1), (1, 0), (4,), (2, 2, 2)],
                             ids=["0-0", "0-1", "1-0", "1d", "3d"])
    def test_rejects_shapes(self, shape):
        with pytest.raises(DimensionError):
            SdeSystem(np.zeros(shape))
        with pytest.raises(DimensionError):
            SdeSystem([[1.0]], (np.zeros(shape),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="A entries must be finite"):
            SdeSystem([[1.0, bad], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"B\(1\) entries must be finite"):
            SdeSystem(np.eye(2), ([[1.0, 0.0], [bad, 1.0]],))

    def test_storage_dtype(self):
        sys_ = SdeSystem(np.eye(2), (np.eye(2),))
        assert sys_.A.dtype == np.float64 and sys_.diffusions.dtype == np.float64
        # an imaginary part anywhere makes the whole system complex
        for sys_ in (SdeSystem(1j * np.eye(2), (np.eye(2),)),
                     SdeSystem(np.eye(2), (np.eye(2), 1j * np.eye(2)))):
            assert sys_.A.dtype == np.complex128
            assert sys_.diffusions.dtype == np.complex128
        # a zero imaginary part stores real
        assert SdeSystem(np.eye(2, dtype=complex)).A.dtype == np.float64

    def test_empty_diffusions(self):
        sys_ = SdeSystem(np.eye(3))
        assert sys_.diffusions.shape == (0, 3, 3) and sys_.m == 0

    def test_arrays_read_only(self):
        sys_ = SdeSystem(np.eye(2), (1j * np.eye(2),))
        with pytest.raises(ValueError):
            sys_.A[0, 0] = 5.0
        with pytest.raises(ValueError):
            sys_.diffusions[0, 0, 0] = 5.0

    def test_copies_input(self):
        a, b = np.eye(2), np.eye(2, dtype=complex)
        sys_ = SdeSystem(a, (b,))
        a[0, 0] = b[0, 0] = 7.0
        assert a.flags.writeable and b.flags.writeable
        assert sys_.A[0, 0] == 1.0 and sys_.diffusions[0, 0, 0] == 1.0

    def test_scaled(self):
        sys_ = scalar_system(-2.0, 3.0).scaled(4.0)
        np.testing.assert_array_equal(sys_.A, [[-8.0]])
        np.testing.assert_array_equal(sys_.diffusions, [[[6.0]]])
        with pytest.raises(ValueError):
            scalar_system(-2.0, 3.0).scaled(0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_scaled_rejects_nonfinite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            scalar_system(-2.0, 3.0).scaled(alpha)


class TestMcConfig:
    def test_defaults(self):
        cfg = McConfig()
        assert cfg.samples is None and cfg.seed == 42
        assert cfg.antithetic
        assert [f.name for f in dataclasses.fields(McConfig)] == ["samples", "seed", "antithetic"]

    def test_resolve_samples_by_dimension(self):
        assert McConfig().resolve_samples(2) == default_samples(2) == 10**6
        assert McConfig().resolve_samples(10) == 10**5
        assert McConfig().resolve_samples(64) == 10**4
        assert McConfig(samples=777).resolve_samples(2) == 777

    @pytest.mark.parametrize("kwargs", [
        {"samples": 1}, {"seed": -1}, {"seed": 2**64},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            McConfig(**kwargs)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "7", None])
    def test_rejects_non_integral_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            McConfig(seed=seed)

    @pytest.mark.parametrize("samples", [1e4, 100.0, "100"])
    def test_rejects_non_integral_samples(self, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            McConfig(samples=samples)

    def test_accepts_numpy_integer_seed(self):
        assert McConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


class TestNuEstimate:
    def test_definitional_requires_h_used(self):
        with pytest.raises(ValueError):
            NuEstimate(value=0.0, std_error=0.0, samples=10,
                       estimator="definitional", p=2, l=2)

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValueError):
            NuEstimate(value=0.0, std_error=0.0, samples=10,
                       estimator="oracle", p=2, l=2)

    def test_rejects_negative_stderr(self):
        with pytest.raises(ValueError):
            NuEstimate(value=0.0, std_error=-1.0, samples=10,
                       estimator="direct", p=2, l=2)

    def test_method_defaults_to_monte_carlo_and_is_checked(self):
        est = NuEstimate(value=0.0, std_error=0.0, samples=10, estimator="direct", p=2, l=2)
        assert est.method == "monte_carlo"
        with pytest.raises(ValueError, match="unknown method"):
            NuEstimate(value=0.0, std_error=0.0, samples=10, estimator="direct",
                       p=2, l=2, method="oracle")
        with pytest.raises(ValueError, match="unknown method"):
            NuEstimate(value=0.0, std_error=0.0, samples=10, estimator="definitional",
                       p=2, l=2, h_used=(0.1, 0.05), method="oracle")
        # both estimators may be quadratures or closed forms
        for method in ("quadrature", "closed_form"):
            est = NuEstimate(value=0.0, std_error=0.0, samples=10, estimator="definitional",
                             p=2, l=2, h_used=(0.1, 0.05), method=method)
            assert est.method == method


class TestClassify:
    def test_spec_examples(self):
        est = lambda v, se: NuEstimate(value=v, std_error=se, samples=100,
                                       estimator="direct", p=2, l=2)
        assert classify(est(-300.0, 0.1)) is StabilityClass.ASYMPTOTICALLY_STABLE
        assert classify(est(0.0, 0.01)) is StabilityClass.STABLE
        assert classify(est(70.0, 0.5), tol=1.0) is StabilityClass.UNSTABLE

    def test_tol_widens_boundary(self):
        est = NuEstimate(value=-0.5, std_error=0.0, samples=100,
                         estimator="direct", p=2, l=2)
        assert classify(est) is StabilityClass.ASYMPTOTICALLY_STABLE
        assert classify(est, tol=1.0) is StabilityClass.STABLE

    def test_rejects_negative_tol(self):
        est = NuEstimate(value=0.0, std_error=0.0, samples=2,
                         estimator="direct", p=2, l=2)
        with pytest.raises(ValueError):
            classify(est, tol=-0.1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_nonfinite_tol(self, tol):
        # a NaN tol fails every comparison, which used to read as unstable
        est = NuEstimate(value=-5.0, std_error=0.1, samples=100,
                         estimator="direct", p=2, l=2)
        with pytest.raises(ValueError, match="tol"):
            classify(est, tol)


class TestNuDirect:
    def test_case_f_exact(self):
        est = nu_direct(scalar_system(-100.0, 10.0), 2, 2,
                        McConfig(samples=4096, seed=1))
        assert est.value == pytest.approx(-300.0, abs=1e-9)
        assert est.std_error <= 1e-9
        assert est.samples == 4096 and est.estimator == "direct"
        assert est.h_used is None

    @pytest.mark.parametrize("b", [0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0])
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    def test_nonnormal_zero_variance_grid(self, b, sigma):
        est = nu_direct(nonnormal_system(b, sigma), 2, 2,
                        McConfig(samples=512, seed=3))
        assert est.value == pytest.approx(sigma**2 - 2.0 + abs(b), abs=1e-12)
        assert est.std_error <= 1e-12

    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_deterministic_system_is_exact(self, p, l):
        rng = np.random.default_rng(5)
        sys_ = random_system(rng, 3, 0, complex_=True)
        est = nu_direct(sys_, p, l, McConfig(samples=100, seed=0))
        assert est.value == l * mu(sys_.A, p)
        assert est.std_error == 0.0 and est.samples == 1

    def test_identity_diffusion_direct_identities(self):
        a = np.diag([-2.0, -5.0])
        sys_ = SdeSystem(a, (np.eye(2),))
        one = nu_direct(sys_, 2, 1, McConfig(samples=4096, seed=7))
        two = nu_direct(sys_, 2, 2, McConfig(samples=4096, seed=7))
        assert one.value == pytest.approx(mu(a, 2) - 0.5, abs=1e-9)
        assert two.value == pytest.approx(2 * mu(a, 2) - 1.0, abs=1e-9)
        assert max(one.std_error, two.std_error) <= 1e-9

    def test_deterministic_across_workers_and_seeds(self, block_threads):
        rng = np.random.default_rng(9)
        sys_ = random_system(rng, 3, 2)
        runs = block_threads.across(
            lambda: nu_direct(sys_, 2, 2, McConfig(samples=20000, seed=11)), cores=(1, 4))
        assert runs[1].value == runs[4].value
        assert runs[1].std_error == runs[4].std_error
        other = nu_direct(sys_, 2, 2, McConfig(samples=20000, seed=12))
        assert other.value != runs[1].value

    def test_antithetic_halves_replicates_not_samples(self):
        sys_ = scalar_system(-1.0, 1.0)
        est = nu_direct(sys_, 2, 2, McConfig(samples=1001, seed=2))
        assert est.samples == 1000  # rounded to a whole number of pairs
        est = nu_direct(sys_, 2, 2, McConfig(samples=1001, seed=2, antithetic=False))
        assert est.samples == 1001

    def test_validates_l(self):
        with pytest.raises(ValueError):
            nu_direct(scalar_system(-1.0, 1.0), 2, 0)
        with pytest.raises(ValueError):
            nu_direct(scalar_system(-1.0, 1.0), 2, 1.5)


# (case, p, samples, seed, antithetic) -> (value, std_error) of nu_direct
# as float.hex, with the blocks reduced to (count, sum, residue, M2); 2x2
# rows only, whose kernels are closed forms with no LAPACK call.  Case (b)
# is one block, so its bits are those of the single pairwise sum before.
_EXPLICIT_SAMPLE_RUNS = {
    ("b", 2, 4096, 1, True): ("-0x1.c829c40c8fd6cp+6", "0x1.f2d45a691c92ep-13"),
    ("d", 2, 20000, 3, True): ("-0x1.bf01d822072f7p+7", "0x1.c3e603aff091bp-11"),
    ("e", 1, 5000, 5, False): ("-0x1.95f5691018ffbp+7", "0x1.ca47417350adap-6"),
}

# the same runs before quadrature and the error floor existed, when one
# pairwise sum over every replicate gave the mean and numpy's std the error
_PAIRWISE_SUM_RUNS = {
    ("b", 2, 4096, 1, True): ("-0x1.c829c40c8fd6cp+6", "0x1.f2d45a691c92ep-13"),
    ("d", 2, 20000, 3, True): ("-0x1.bf01d822072f5p+7", "0x1.c3e603aff091bp-11"),
    ("e", 1, 5000, 5, False): ("-0x1.95f5691018ffap+7", "0x1.ca47417350adap-6"),
}


class TestDirectQuadrature:
    """One channel and the default sample count: an adaptive Gauss-Kronrod
    quadrature at every p, else the Monte Carlo run at the default sample
    count, bit for bit.  The quadrature's values are checked against
    independent oracles in ``test_acceptance``."""

    def test_case_g_stays_flagged(self):
        est = nu_direct(table1_system("g"), 2, 2)
        assert est.method == "quadrature"
        row = table1_row("g", est, bounds_report(table1_system("g"), 2, 2))
        assert row["verdicts"]["nu_matches_reference"] is False
        assert abs(est.value - 924.53) > 100.0

    @pytest.mark.parametrize("which, p", [("pendulum", 2), ("e", 1), ("e", math.inf)])
    def test_fallback_is_the_default_monte_carlo_run(self, monkeypatch, which, p):
        # statistics with kinks in zeta: a quadrature now, and the default
        # Monte Carlo run when the rule runs out of nodes
        system = pendulum(10.0, 0.1, 50.0).system if which == "pendulum" else table1_system(which)
        assert nu_direct(system, p, 2, McConfig(seed=9)).method == "quadrature"
        monkeypatch.setattr(slognorm_module, "_QUAD_BUDGET", 100)
        fallback = nu_direct(system, p, 2, McConfig(seed=9))
        explicit = nu_direct(system, p, 2, McConfig(samples=default_samples(system.dim), seed=9))
        assert fallback.method == "monte_carlo"
        assert dataclasses.astuple(fallback) == dataclasses.astuple(explicit)

    def test_rule_integrates_polynomials_exactly(self):
        x, kronrod, gauss = slognorm_module._G7K15
        assert np.array_equal(x, -x[::-1]) and np.all(np.diff(x) > 0)
        assert np.array_equal(kronrod, kronrod[::-1]) and np.array_equal(gauss, gauss[::-1])
        assert np.count_nonzero(gauss) == 7 and np.all(gauss[1::2] > 0)
        # K15 is exact to degree 22 and G7 to degree 13 on [-1, 1]
        for k in range(0, 23, 2):
            assert float(kronrod @ x ** k) == pytest.approx(2.0 / (k + 1), rel=1e-14)
        for k in range(0, 14, 2):
            assert float(gauss @ x ** k) == pytest.approx(2.0 / (k + 1), rel=1e-14)
        np.testing.assert_allclose(gauss[1::2], np.polynomial.legendre.leggauss(7)[1],
                                   rtol=1e-14, atol=0)
        # the end rows vanish on a degree-14 polynomial sampled at -1, the nodes, 1
        ends = np.concatenate([[-1.0], x, [1.0]])
        np.testing.assert_allclose(slognorm_module._RULE[2:] @ (ends ** 14 - 3 * ends + 1), 0.0,
                                   atol=1e-12)
        assert np.array_equal(slognorm_module._RULE[:2, 1:-1], [kronrod, gauss])

    @pytest.mark.parametrize("count", [64, 128])
    def test_rule_matches_numpy_hermegauss(self, count):
        # the adaptive rule and numpy's Gauss-Hermite rule agree on smooth
        # integrands: E cos(2 zeta) = e^-2, E e^(zeta/2) = e^(1/8), E zeta^6 = 15
        def f(z):
            return np.stack([np.cos(2.0 * z), np.exp(0.5 * z), z ** 6], axis=1)

        value, err, _ = slognorm_module._gaussian_expectation(f, 1, 0.0)
        ref_z, ref_w = np.polynomial.hermite_e.hermegauss(count)
        np.testing.assert_allclose(value, ref_w / math.sqrt(2.0 * math.pi) @ f(ref_z),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(value, [math.exp(-2.0), math.exp(0.125), 15.0],
                                   rtol=1e-12, atol=0)
        assert np.all(err <= 1e-10 * np.abs(value))

    def test_rules_that_disagree_are_rejected(self):
        # a kink is refined until the rules agree: E|zeta - 1/2|; an
        # integrand that oscillates on every scale exhausts the nodes
        expect = slognorm_module._gaussian_expectation
        kinked = expect(lambda z: np.abs(z - 0.5)[:, None], 1, 0.0)
        exact = 2 * math.exp(-0.125) / math.sqrt(2 * math.pi) + 0.5 * math.erf(0.5 / math.sqrt(2))
        assert kinked[0][0] == pytest.approx(exact, rel=1e-12)
        assert kinked[2] > 12 * 17
        assert expect(lambda z: np.sin(1e7 * z)[:, None], 1, 0.0) is None

    def test_kink_error_is_not_understated(self):
        # f = |zeta - s| on [-0.01, 0.01] for kinks s across the interval: at
        # some s K15 and G7 err alike, and only the end-value term shows the
        # kink; the estimate stays above 3/4 of the exact K15 error
        def density(z):
            return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

        def normal_cdf(z):
            return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

        lo, hi = -0.01, 0.01
        for s in np.linspace(-0.0099, 0.0099, 991):
            value, err, _, _ = slognorm_module._kronrod(
                np.array([lo]), np.array([hi]), lambda z: np.abs(z - s)[:, None])
            # int |z - s| phi(z) dz over [lo, hi], with int z phi dz = -phi
            exact = (s * (2 * normal_cdf(s) - normal_cdf(lo) - normal_cdf(hi))
                     + 2 * density(s) - density(lo) - density(hi))
            assert err[0, 0] >= 0.75 * abs(value[0, 0] - exact), s

    def test_rule_gives_up_when_no_interval_can_be_refined(self, monkeypatch):
        # NaN error estimates fail every test: a fallback, not an endless loop
        kronrod = slognorm_module._kronrod

        def nan_errors(*args):
            value, err, mass, mid = kronrod(*args)
            return value, np.full_like(err, np.nan), mass, mid

        monkeypatch.setattr(slognorm_module, "_kronrod", nan_errors)
        assert slognorm_module._gaussian_expectation(lambda z: z[:, None] ** 2, 1, 0.0) is None

    def test_quadrature_tail_covers_heavy_integrands(self):
        # E zeta^20 = 19!! = 654729075, most of it beyond |zeta| = 4; the
        # tail of zeta^60 beyond |zeta| = 12 is too heavy, and the rule gives up
        est = slognorm_module._gaussian_expectation(lambda z: (z ** 20)[:, None], 1, 0.0)
        assert est[0][0] == pytest.approx(654729075.0, rel=1e-10)
        assert est[1][0] <= 1e-10 * 654729075.0
        assert slognorm_module._gaussian_expectation(lambda z: (z ** 60)[:, None], 1, 0.0) is None

    def test_vanishing_integrand_is_a_quadrature(self):
        # nu = sigma^2 - 2 + |b| = 0: f(zeta) is 0 up to rounding, which no
        # relative test passes, so 16 ulps of the matrix entries are allowed
        est = nu_direct(nonnormal(1.0, 1.0).system, 2, 2)
        assert est.method == "quadrature" and est.samples == 12 * 17  # first round
        assert abs(est.value) <= 1e-15 and est.std_error <= 1e-15

    def test_nonfinite_statistic_falls_back(self):
        assert slognorm_module._gaussian_expectation(
            lambda z: np.full((len(z), 1), np.nan), 1, 0.0) is None
        assert slognorm_module._gaussian_expectation(
            lambda z: np.where(z > 3.3, np.inf, 1.0)[:, None], 1, 0.0) is None

    def test_chunked_rule_is_bitwise_equal(self, monkeypatch):
        # n = 100: the rules run in 26-matrix chunks
        system = table1_system("h", seed=3)
        chunked = nu_direct(system, 2, 2)
        monkeypatch.setattr(slognorm_module, "_CHUNK_DOUBLES", 2**40)
        assert dataclasses.astuple(nu_direct(system, 2, 2)) == dataclasses.astuple(chunked)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rule_sees_the_statistic_as_returned(self, order):
        # the row chunks join in the layout f returns, and the rule's sums
        # follow the layout: the perturbed check's columns come C-ordered,
        # the definitional quotients F-ordered
        def f(xi, paired):
            z = xi[:, 0]
            return np.array(np.stack([np.abs(z - 0.3), np.cos(3 * z), z * z], axis=1), order=order)

        system = table1_system("c")
        *got, method = slognorm_module._expectation(f, system, 3, McConfig(), 1, 1.0)
        want = slognorm_module._gaussian_expectation(lambda z: f(z[:, None], False), 2, 1.0)
        assert method == "quadrature"
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("key", list(_EXPLICIT_SAMPLE_RUNS))
    def test_explicit_samples_are_unchanged(self, key):
        case, p, samples, seed, antithetic = key
        est = nu_direct(table1_system(case), p, 2,
                        McConfig(samples=samples, seed=seed, antithetic=antithetic))
        value, se = _EXPLICIT_SAMPLE_RUNS[key]
        assert (est.value.hex(), est.std_error.hex()) == (value, se)
        old_value, old_se = (float.fromhex(v) for v in _PAIRWISE_SUM_RUNS[key])
        assert est.value == pytest.approx(old_value, rel=4e-16, abs=0)
        assert est.std_error == pytest.approx(old_se, rel=1e-13, abs=0)
        assert est.method == "monte_carlo" and est.samples == samples

    def test_two_channels_stay_monte_carlo(self):
        sys_ = random_system(np.random.default_rng(9), 2, 2)
        assert nu_direct(sys_, 2, 2, McConfig(samples=None, seed=1)).method == "monte_carlo"


class TestBlockReduction:
    """Blocks reduce to (count, sum, residue, M2, sum |x|) and merge in
    block order into the mean and standard error of the concatenated
    values."""

    @staticmethod
    def _reduce(blocks):
        moments = np.empty((5, len(blocks), 1))
        for b, x in enumerate(blocks):
            slognorm_module._block_moments(x[np.newaxis], moments[:, b])
        return slognorm_module._merge_moments(moments)

    def test_merge_matches_numpy_on_unequal_blocks(self):
        # mean 1, spread 1e-9: a sum of squares less N mean^2 loses every digit
        rng = np.random.default_rng(14)
        blocks = [1.0 + 1e-9 * rng.standard_normal(k) for k in (4096, 1000, 17, 2500, 3)]
        (mean,), (se,) = self._reduce(blocks)
        flat = np.concatenate(blocks)
        assert mean == pytest.approx(np.mean(flat), rel=1e-12, abs=0)
        assert se == pytest.approx(np.std(flat, ddof=1) / math.sqrt(flat.size), rel=1e-12, abs=0)

    def test_equal_values_merge_to_the_rounding_floor(self):
        (mean,), (se,) = self._reduce([np.full(k, 0.1) for k in (4096, 7)])
        assert mean == pytest.approx(0.1, rel=1e-15)
        assert se == pytest.approx(np.finfo(float).eps * math.log2(4103) * 0.1, rel=1e-12)

    def test_one_value_has_no_spread(self):
        (mean,), (se,) = self._reduce([np.array([2.5])])
        assert mean == 2.5 and math.isnan(se)


class TestMemory:
    """The estimators hold one block of replicates, not all of them."""

    @staticmethod
    def _peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("estimator", ["definitional", "direct"])
    def test_peak_does_not_grow_with_samples(self, estimator):
        sys_ = table1_system("e")

        def run(samples):
            cfg = McConfig(samples=samples, seed=1)
            if estimator == "definitional":
                return lambda: nu_definitional(sys_, 2, 2, cfg=cfg)
            return lambda: nu_direct(sys_, 2, 2, cfg)

        run(2000)()  # warm caches and imports outside the measurement
        small, large = self._peak(run(200_000)), self._peak(run(2_000_000))
        assert large <= 1.5 * small, (small, large)


class TestErrorFloor:
    """A reported direct error is never below the rounding bound
    eps * log2(N) * mean|x| of the sum behind the value."""

    def test_zero_spread_monte_carlo_reports_the_rounding_bound(self):
        # case (e) at p = inf: the pair means of -215 spread by 2.0e-17,
        # below the ulp of 215, which was reported as the error before
        est = nu_direct(table1_system("e"), math.inf, 2,
                        McConfig(samples=4096, seed=2))
        assert est.value == -215.0
        floor = np.finfo(float).eps * math.log2(2048) * 215.0
        assert est.std_error == pytest.approx(floor, rel=1e-12)
        assert est.std_error >= math.ulp(215.0)

    def test_quadrature_error_is_floored(self, monkeypatch):
        # case (a) and B = 0 (f is the constant -225): the error is never
        # below the rounding bound eps * log2(nodes) * 225 of the sum behind
        # the value, nor below the ulp of 225; from 24 unit intervals the
        # rule's own error estimate falls below that bound, which is the error
        systems = (table1_system("a"), SdeSystem(np.diag([-112.5, -300.0]), (np.zeros((2, 2)),)))
        for edges in (None, np.linspace(-12.0, 12.0, 25)):
            if edges is not None:
                monkeypatch.setattr(slognorm_module, "_QUAD_EDGES", edges)
            for system in systems:
                est = nu_direct(system, 2, 2)
                floor = np.finfo(float).eps * math.log2(est.samples) * 225.0
                assert est.method == "quadrature"
                assert est.value == pytest.approx(-225.0, rel=1e-14)
                assert est.std_error >= floor and est.std_error >= math.ulp(225.0)
                if edges is not None:
                    assert est.std_error == pytest.approx(floor, rel=1e-9)

    def test_deterministic_system_keeps_zero_error(self):
        est = nu_direct(SdeSystem([[-1.0]]), 2, 2)
        assert est.method == "closed_form"
        assert est.std_error == 0.0 and est.samples == 1


class TestNuDefinitional:
    def test_scalar_law(self):
        est = nu_definitional(scalar_system(-1.0, 1.0), 2, 2,
                              cfg=McConfig(samples=40000, seed=21))
        assert est.estimator == "definitional"
        assert len(est.h_used) == 7
        assert est.value == pytest.approx(-1.0, abs=max(4 * est.std_error, 0.02))

    def test_identity_diffusion_limit(self):
        sys_ = SdeSystem(np.diag([-2.0, -5.0]), (np.eye(2),))
        est = nu_definitional(sys_, 2, 2, cfg=McConfig(samples=40000, seed=23))
        assert est.value == pytest.approx(-3.0, abs=max(4 * est.std_error, 0.05))

    def test_deterministic_system_reduces_to_mu(self):
        # m = 0: each quotient is evaluated once, whatever the sample count
        rng = np.random.default_rng(31)
        sys_ = random_system(rng, 3, 0)
        h = np.array([1e-5 * 0.5**k for k in range(7)])
        for p in P_VALUES:
            est = nu_definitional(sys_, p, 2, h_seq=tuple(h),
                                  cfg=McConfig(samples=16, seed=1))
            assert est.value == pytest.approx(2 * mu(sys_.A, p), abs=1e-6)
            assert est.samples == 1 and est.method == "closed_form"
            # the intercept of the exact quotients, and only its fit error
            quotients = np.array([(matrix_norm(np.eye(3) + hk * sys_.A, p) ** 2 - 1) / hk
                                  for hk in h])
            intercept = np.polyfit(h, quotients, 1)[1]
            assert est.value == pytest.approx(intercept, rel=1e-9, abs=0)
            # no sampling error: the quotients lie on a line up to rounding
            assert est.std_error <= 1e-8

    @pytest.mark.parametrize("a", [[[0.0, 1.0], [0.0, 0.0]], [[-3.0, 10.0], [0.0, -3.0]]])
    def test_curved_finite_limit_is_not_flagged(self, a):
        # B = I with non-normal A: the quotients curve in h, so their line
        # fit leaves a residual far above the quadrature error, but the limit
        # 2 mu_2(A) + 1 is finite and lies within the extrapolation error
        system = SdeSystem(np.array(a), (np.eye(2),))
        est = nu_definitional(system, 2, 2)
        exact = bounds_report(system, 2, 2).main12_exact_B_eq_I
        assert est.method == "quadrature" and not est.bias_warning
        assert 0 < abs(est.value - exact) <= 3.0 * est.std_error <= 1e-3 * abs(exact)
        # the divergent Table 1 row (e) is flagged: its error is 23% of the value
        assert nu_definitional(table1_system("e"), 2, 2).bias_warning

    def test_multi_channel_runs_and_is_deterministic(self, block_threads):
        # the two blocks fan out
        rng = np.random.default_rng(37)
        sys_ = random_system(rng, 3, 3, scale=0.5)
        runs = block_threads.across(
            lambda: nu_definitional(sys_, 2, 2, cfg=McConfig(samples=8200, seed=5)))
        assert len({(r.value, r.std_error) for r in runs.values()}) == 1, runs
        assert block_threads.picked == [2 if block_threads.can_fan_out() else 1]

    def test_rejects_h_outside_expansion_regime(self):
        sys_ = scalar_system(-100.0, 1.0)
        with pytest.raises(ValueError, match="expansion regime"):
            nu_definitional(sys_, 2, 2, h_seq=(0.01, 0.005))

    def test_rejects_bad_h_sequences(self):
        sys_ = scalar_system(-1.0, 1.0)
        with pytest.raises(ValueError):
            nu_definitional(sys_, 2, 2, h_seq=(0.01,))
        with pytest.raises(ValueError):
            nu_definitional(sys_, 2, 2, h_seq=(0.01, 0.02))
        with pytest.raises(ValueError):
            nu_definitional(sys_, 2, 2, h_seq=(0.01, -0.001))

    @pytest.mark.parametrize("h_seq", [
        (math.nan, math.nan), (0.01, math.nan), (math.inf, 0.01),
    ])
    def test_rejects_nonfinite_h(self, h_seq):
        # NaN passes every comparison of the other checks
        with pytest.raises(ValueError, match="finite"):
            nu_definitional(scalar_system(-1.0, 1.0), 2, 2, h_seq=h_seq)

    def test_default_h_sequences_of_extreme_matrices(self):
        # h0 stays positive where squaring the entries of A would overflow
        h0 = default_h_sequence(1e200 * np.eye(2), 2)[0]
        assert h0 == pytest.approx(5e-202, rel=1e-14, abs=0)
        assert default_h_sequence(1e-200 * np.eye(2), 2)[0] == 0.05

    def test_default_h_sequence_scaling(self):
        seq = default_h_sequence(scalar_system(-100.0, 1.0), 2)
        assert len(seq) == 7
        assert seq[0] == pytest.approx(0.05 / 100.0)
        assert all(a / b == pytest.approx(2.0) for a, b in zip(seq, seq[1:]))
        # small matrices are clamped at h0 = 0.05
        assert default_h_sequence(np.zeros((2, 2)), 2)[0] == 0.05


def _estimates(sys_, p, direct_cfg, definitional_cfg):
    d = nu_direct(sys_, p, 2, direct_cfg)
    f = nu_definitional(sys_, p, 2, cfg=definitional_cfg)
    return (d.value, d.std_error, f.value, f.std_error)


class TestBlockFanOut:
    """RNG blocks fan out over threads without changing a bit, whatever
    kernel the statistic calls, wherever OpenBLAS can be held."""

    def test_case_g_bitwise_equal_across_workers(self, block_threads):
        sys_ = table1_system("g")
        runs = block_threads.across(lambda: _estimates(
            sys_, 2, McConfig(samples=20000, seed=4), McConfig(samples=10000, seed=4)))
        assert len(set(runs.values())) == 1, runs

    def test_chunked_blocks_bitwise_equal(self, monkeypatch, block_threads):
        # n = 100: 419-replicate blocks evaluated in 26-row chunks; the
        # 9-step p = 1 run ends in a 1-row chunk, whose intercept a gemv over
        # the chunk's rows would round differently
        sys_ = random_system(np.random.default_rng(100), 100, 1)
        nine = default_h_sequence(sys_, 1, count=9)

        def run():
            return _estimates(
                sys_, 2, McConfig(samples=430, seed=6, antithetic=False),
                McConfig(samples=64, seed=6, antithetic=False),
            ) + dataclasses.astuple(nu_definitional(
                sys_, 1, 2, nine, McConfig(samples=105, seed=6, antithetic=False)))

        runs = block_threads.across(run)
        assert len(set(runs.values())) == 1, runs
        monkeypatch.setattr(slognorm_module, "_CHUNK_DOUBLES", 2**40)
        block_threads.cores(1)
        assert run() == runs[1]

    @pytest.mark.parametrize("dim, p", [(2, 2), (6, 1), (6, math.inf)])
    def test_blocks_fan_out_without_lapack(self, block_threads, dim, p):
        # the n <= 2 and p in {1, inf} closed forms fan out as LAPACK does
        sys_ = random_system(np.random.default_rng(dim), dim, 1, scale=0.1)
        cfg = McConfig(samples=20000, seed=1)  # 3 blocks

        def run():
            checks = [nu_direct(sys_, p, 2, cfg), nu_definitional(sys_, p, 2, cfg=cfg)]
            if dim <= 2:
                checks.append(expected_max_re_perturbed(sys_, cfg))
            return [dataclasses.astuple(c) for c in checks]

        runs = block_threads.across(run, cores=(1, 8))
        assert runs[8] == runs[1]
        threads = 3 if block_threads.can_fan_out() else 1
        assert block_threads.picked == [threads] * (3 if dim <= 2 else 2)

    def test_auto_is_serial_without_blas_pinning(self, monkeypatch, block_threads):
        monkeypatch.setattr(matcore, "_openblas_controls", lambda: None)
        sys_ = table1_system("g")
        cfg = McConfig(samples=20000, seed=1)
        block_threads.cores(8)
        nu_direct(sys_, 2, 2, cfg)
        expected_max_re_perturbed(sys_, cfg)
        assert block_threads.picked == [1, 1]

    def test_auto_uses_every_core_for_lapack_blocks(self, block_threads):
        if not block_threads.can_fan_out():
            pytest.skip("needs numpy's OpenBLAS thread controls")
        # eigvalsh and eigvals above n = 2
        sys_ = random_system(np.random.default_rng(17), 3, 1, scale=0.1)
        cfg = McConfig(samples=20000, seed=1)  # 3 blocks
        for cores in (2, 8):
            block_threads.cores(cores)
            nu_direct(sys_, 2, 2, cfg)
            expected_max_re_perturbed(table1_system("g"), cfg)
            assert block_threads.picked == [min(cores, 3)] * 2

    def test_blas_threads_restored_after_fan_out(self, monkeypatch, block_threads):
        controls = matcore._openblas_controls()
        if controls is None:
            pytest.skip("numpy's OpenBLAS thread controls are not available")
        get, put = controls
        original = get()
        put(2)
        try:
            before = get()
            if before == 1:
                pytest.skip("OpenBLAS cannot run two threads here")
            sys_ = table1_system("g")
            cfg = McConfig(samples=20000, seed=1)
            block_threads.cores(2)
            inside = []
            real_mu_batch = slognorm_module.mu_batch

            def recording(M, p):
                inside.append(get())
                return real_mu_batch(M, p)

            def failing(M, p):
                inside.append(get())
                raise EigenConvergenceError("injected failure")

            # its spectral abscissa calls LAPACK, so its blocks fan out
            monkeypatch.setattr(slognorm_module, "mu_batch", recording)
            expected_max_re_perturbed(sys_, cfg)
            assert get() == before
            monkeypatch.setattr(slognorm_module, "mu_batch", failing)
            with pytest.raises(EigenConvergenceError, match="while evaluating replicates"):
                expected_max_re_perturbed(sys_, cfg)
            assert get() == before
            assert set(inside) == {1}
        finally:
            put(original)


class TestEstimatorDichotomy:
    def test_identity_diffusion_gap(self):
        sys_ = SdeSystem(np.diag([-2.0, -5.0]), (np.eye(2),))
        direct = nu_direct(sys_, 2, 2, McConfig(samples=20000, seed=2))
        limit = nu_definitional(sys_, 2, 2, cfg=McConfig(samples=20000, seed=2))
        gap = abs(direct.value - limit.value)
        assert gap > 3 * math.hypot(direct.std_error, limit.std_error)
        assert direct.value < limit.value  # -5 vs -3


class TestIteratedIntegrals:
    def test_single_channel_exact(self):
        rng = np.random.default_rng(41)
        dw, imat = (a[0] for a in sample_wiener_increments(rng, 1, 1, 0.25))
        assert dw.shape == (1,) and imat.shape == (1, 1)
        assert imat[0, 0] == 0.5 * (dw[0] ** 2 - 0.25)

    def test_symmetry_identity_machine_precision(self):
        rng = np.random.default_rng(43)
        h = 0.01
        dw, imat = sample_wiener_increments(rng, 5000, 3, h)
        outer = dw[:, :, None] * dw[:, None, :]
        target = outer - h * np.eye(3)
        np.testing.assert_allclose(imat + np.swapaxes(imat, 1, 2), target,
                                   rtol=0, atol=1e-12)

    def test_moments_match_theory(self):
        rng = np.random.default_rng(47)
        h = 0.04
        n = 10**5
        dw, imat = sample_wiener_increments(rng, n, 2, h)
        # increments: mean 0, variance h per channel
        assert dw.mean(axis=0) == pytest.approx([0.0, 0.0], abs=4 * math.sqrt(h / n))
        assert dw.var(axis=0) == pytest.approx([h, h], rel=0.05)
        # off-diagonal integrals: mean 0, variance h^2/2
        se = math.sqrt(h**2 / 2 / n)
        assert imat[:, 0, 1].mean() == pytest.approx(0.0, abs=4 * se)
        assert imat[:, 0, 1].var() == pytest.approx(h**2 / 2, rel=0.1)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_wiener_increments(rng, 4, 0, 0.1)
        with pytest.raises(ValueError):
            sample_wiener_increments(rng, 4, 1, 0.0)

    @pytest.mark.parametrize("count, m, name", [
        (4.0, 2, "count"), (4.5, 2, "count"), ("4", 2, "count"),
        (4, 2.0, "m"), (4, 1.5, "m"), (4, None, "m"),
    ])
    def test_non_integer_count_or_channels_rejected(self, count, m, name):
        with pytest.raises(ValueError, match=rf"{name} must be an integer, got "):
            sample_wiener_increments(np.random.default_rng(0), count, m, 0.1)

    def test_two_point_area_law(self):
        # the area L_(i,j) = (I_(i,j) - I_(j,i)) / 2 of every pair i < j is
        # +-h/2, with mean 0 given dW and signs independent across pairs
        h, n = 0.04, 10**5
        for m in (2, 3):
            rng = np.random.default_rng(50 + m)
            dw, imat = sample_wiener_increments(rng, n, m, h)
            i, j = np.triu_indices(m, 1)
            area = 0.5 * (imat[:, i, j] - imat[:, j, i])
            np.testing.assert_allclose(np.abs(area), h / 2, rtol=1e-12)
            products = [area] + [area * dw[:, [k]] for k in range(m)]
            products.append(area * dw[:, i] * dw[:, j])
            for prod in products:
                se = prod.std(axis=0) / math.sqrt(n)
                assert np.all(np.abs(prod.mean(axis=0)) <= 4 * se)
            # with dW = 0 the transform returns the area alone, exactly
            xi = rng.standard_normal((4096, m * m))
            xi[:, :m] = 0.0
            _, bare = _increments_from_normals(xi, h)
            assert np.all(np.abs(bare[:, i, j]) == h / 2)
            assert np.array_equal(bare[:, j, i], -bare[:, i, j])
            assert np.all(bare[:, range(m), range(m)] == -h / 2)
        signs = np.sign(area)  # the three pairs of the m = 3 pass
        for a, b in ((0, 1), (0, 2), (1, 2)):
            assert abs((signs[:, a] * signs[:, b]).mean()) <= 4 / math.sqrt(n)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, -0.5])
    def test_nonfinite_or_negative_step_rejected(self, h):
        with pytest.raises(ValueError, match=r"finite and positive, got h="):
            sample_wiener_increments(np.random.default_rng(0), 2, 2, h)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match=r"count=-1"):
            sample_wiener_increments(np.random.default_rng(0), -1, 2, 0.1)

    def test_zero_count_is_empty(self):
        dw, imat = sample_wiener_increments(np.random.default_rng(0), 0, 2, 0.1)
        assert dw.shape == (0, 2) and imat.shape == (0, 2, 2)


def _reference_increments(xi: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The two-point transform as one matrix formula: dW = sqrt(h) xi over
    the first m columns and I = (dW dW^T - h Id) / 2; then for the k-th pair
    i < j in row-major order, whose columns are m + 2k and m + 2k + 1, the
    area L = -h/2 when exactly one of the two columns is negative, else
    +h/2, is added to I_(i,j) and subtracted from I_(j,i)."""
    m = int(round(math.sqrt(xi.shape[1])))
    assert m * m == xi.shape[1]
    dw = math.sqrt(h) * xi[:, :m]
    imat = 0.5 * (np.einsum("si,sj->sij", dw, dw) - h * np.eye(m))
    negative = xi[:, m:] < 0
    area = np.where(negative[:, 0::2] != negative[:, 1::2], -0.5 * h, 0.5 * h)
    i, j = np.triu_indices(m, 1)
    imat[:, i, j] += area
    imat[:, j, i] -= area
    return dw, imat


def _reference_definitional(system: SdeSystem, p, l: int, cfg: McConfig) -> tuple[float, float]:
    """(value, std_error) of nu_definitional as first written: the transform
    runs once per sign and step, each pair is averaged afterwards, and the
    blocks, row chunks and the merge of the block moments are laid out here
    rather than by the engine."""
    sm = slognorm_module
    a, bs = system.A, system.diffusions
    n, m = system.dim, system.m
    h = np.array(default_h_sequence(system, p))
    weights = ols_line_weights(h)[0]
    samples = cfg.resolve_samples(n)
    reps = samples // 2 if cfg.antithetic else samples
    block = sm._block_size(n)
    chunk = max(1, sm._CHUNK_DOUBLES // (n * n))
    deterministic = np.eye(n, dtype=a.dtype)[np.newaxis] + h[:, np.newaxis, np.newaxis] * a
    pairs = np.einsum("iab,jbc->ijac", bs, bs)

    def quotient_rows(xi):
        rows = np.empty((xi.shape[0], h.size), dtype=np.float64)
        for k in range(h.size):
            hk = float(h[k])
            dw, imat = _reference_increments(xi, hk)
            g = (deterministic[k] + np.tensordot(dw, bs, axes=(1, 0))
                 + np.einsum("sij,ijab->sab", imat, pairs))
            rows[:, k] = (matrix_norm_batch(g, p) ** l - 1.0) / hk
        return rows

    def pair_rows(xi):
        rows = quotient_rows(xi)
        return 0.5 * (rows + quotient_rows(-xi)) if cfg.antithetic else rows

    # per block: count, column sums, and about the rounded block mean the
    # residue and M2, then the sum of |x|
    counts, sums, residues, m2s, abs_sums = [], [], [], [], []
    for b in range(-(-reps // block)):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(b,)))
        xi = rng.standard_normal((min(block, reps - b * block), m * m))
        rows = np.concatenate([pair_rows(xi[i:i + chunk]) for i in range(0, len(xi), chunk)])
        intercepts = np.array([functools.reduce(operator.add, row * weights) for row in rows])
        # (1 + nh, count) in C order: each column's values contiguous
        cols = np.ascontiguousarray(np.vstack([intercepts, rows.T]))
        total = cols.sum(axis=1)
        dev = cols - (total / len(xi))[:, np.newaxis]
        counts.append(len(xi))
        sums.append(total)
        residues.append(dev.sum(axis=1))
        m2s.append((dev * dev).sum(axis=1))
        abs_sums.append(np.abs(cols).sum(axis=1))
    assert sum(counts) == reps
    mean = functools.reduce(operator.add, sums) / reps
    between = [(s / c - mean) * (c * (s / c - mean) + 2.0 * r)
               for c, s, r in zip(counts, sums, residues)]
    m2 = functools.reduce(operator.add, m2s)[0] + functools.reduce(operator.add, between)[0]
    mc_se = math.sqrt(m2 / (reps - 1)) / math.sqrt(reps)
    floor = np.finfo(float).eps * np.log2(reps) * functools.reduce(operator.add, abs_sums)[0] / reps
    extrap_se = sm._intercept_residual_error(h, mean[1:])
    return float(mean[0]), math.hypot(max(mc_se, floor), extrap_se)


class TestTransformOnce:
    """The transform runs once per (block, h) and serves both members of an
    antithetic pair; every bit matches the matrix statement of the transform
    and the definitional estimator as first written."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_transform_is_odd_bit_for_bit(self, m):
        xi = np.random.default_rng(m).standard_normal((1500, m * m))
        kept = xi.copy()
        dw, imat = _increments_from_normals(xi, 0.013)
        neg_dw, neg_imat = _increments_from_normals(-xi, 0.013)
        assert np.array_equal(neg_dw, -dw)
        assert np.array_equal(neg_imat, imat)
        assert np.array_equal(xi, kept)  # the caller's draws are left alone

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("h", [0.05, 3.1e-6])
    def test_transform_matches_reference(self, m, h):
        xi = np.random.default_rng(10 + m).standard_normal((4096, m * m))
        dw, imat = _increments_from_normals(xi, h)
        ref_dw, ref_imat = _reference_increments(xi, h)
        assert np.array_equal(dw, ref_dw)
        assert np.array_equal(imat, ref_imat)

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("p", P_VALUES)
    def test_definitional_matches_reference_two_channels(self, antithetic, p):
        sys_ = random_system(np.random.default_rng(31), 3, 2, scale=0.5)
        cfg = McConfig(samples=9000, seed=8, antithetic=antithetic)
        est = nu_definitional(sys_, p, 2, cfg=cfg)
        assert (est.value, est.std_error) == _reference_definitional(sys_, p, 2, cfg)

    @pytest.mark.parametrize("p, antithetic", [(2, False), (math.inf, True)])
    def test_definitional_matches_reference_chunked(self, p, antithetic):
        # n = 100: blocks evaluated in 26-row chunks; (2, False) is the case
        # of the fan-out test, p = inf keeps the paired run cheap
        sys_ = random_system(np.random.default_rng(100), 100, 1)
        cfg = McConfig(samples=128 if antithetic else 64, seed=6, antithetic=antithetic)
        est = nu_definitional(sys_, p, 2, cfg=cfg)
        assert (est.value, est.std_error) == _reference_definitional(sys_, p, 2, cfg)


class TestBoundsReport:
    def test_case_f_values(self):
        rep = bounds_report(scalar_system(-100.0, 10.0), 2, 2)
        assert rep.mu_upper == pytest.approx(-300.0, abs=1e-9)
        assert rep.mu_lower == pytest.approx(-300.0, abs=1e-9)
        assert rep.msest_upper == pytest.approx(-100.0, abs=1e-9)
        assert rep.main12_upper == pytest.approx(-100.0, abs=1e-9)
        assert rep.lpest1_upper == pytest.approx(-130.0, abs=1e-9)
        assert rep.lpest_upper == pytest.approx(70.0, abs=1e-9)
        assert rep.abs_bound == pytest.approx(2 * 150.0 + 2 * 10.0, abs=1e-9)

    def test_case_i_values(self):
        sys_ = SdeSystem(np.diag([-100.0, -1.0]), ([[0.0, 2.0], [2.0, 0.0]],))
        rep = bounds_report(sys_, 2, 2)
        assert rep.mu_upper == pytest.approx(-2.0, abs=1e-9)
        assert rep.mu_lower == pytest.approx(-10.0, abs=1e-9)

    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_zero_diffusion_collapses_to_mu(self, p, l):
        rng = np.random.default_rng(53)
        a = rng.uniform(-2, 2, (3, 3))
        rep = bounds_report(SdeSystem(a, (np.zeros((3, 3)),)), p, l)
        target = l * mu(a, p)
        for name in ("mu_upper", "mu_lower", "lpest1_upper", "lpest_upper"):
            assert getattr(rep, name) == pytest.approx(target, abs=1e-9), name
        if p == 2:
            assert rep.msest_upper == pytest.approx(target, abs=1e-9)
            assert rep.main12_upper == pytest.approx(target, abs=1e-9)
        assert rep.abs_bound == pytest.approx(l * matrix_norm(a, p), abs=1e-9)

    def test_applicability_m0(self):
        rep = bounds_report(SdeSystem(np.eye(2)), 2, 2)
        assert set(rep.items()) == {"mu_upper", "mu_lower", "abs_bound"}

    def test_applicability_single_channel(self):
        rep = bounds_report(scalar_system(-1.0, 0.5), 2, 2)
        assert set(rep.items()) == {
            "main12_upper", "msest_upper", "lpest1_upper", "lpest_upper",
            "mu_upper", "mu_lower", "abs_bound",
        }
        rep = bounds_report(scalar_system(-1.0, 0.5), math.inf, 2)
        assert set(rep.items()) == {
            "lpest1_upper", "lpest_upper", "mu_upper", "mu_lower", "abs_bound",
        }
        # a 1x1 identity diffusion additionally activates the exact rows
        rep = bounds_report(scalar_system(-1.0, 1.0), 2, 2)
        assert {"beq1_identities", "main12_exact_B_eq_I"} <= set(rep.items())

    def test_identity_diffusion_exact_rows(self):
        a = np.diag([-2.0, -5.0])
        sys_ = SdeSystem(a, (np.eye(2),))
        for l in (1, 2):
            rep = bounds_report(sys_, 2, l)
            expected = mu(a, 2) if l == 1 else 2 * mu(a, 2) + 1.0
            assert rep.beq1_identities == pytest.approx(expected, abs=1e-12)
            # the two exact identities agree for l in {1, 2}
            assert rep.main12_exact_B_eq_I == pytest.approx(expected, abs=1e-12)
        rep = bounds_report(sys_, 2, 3)
        assert rep.beq1_identities is None
        assert rep.main12_exact_B_eq_I is not None

    def test_multi_channel_spectral_form(self):
        rng = np.random.default_rng(59)
        sys_ = random_system(rng, 3, 2)
        a, bs = sys_.A, sys_.diffusions
        l = 2
        want = l * mu(a, 2) + l * sum(
            0.5 * matrix_norm(b, 2) ** 2 + 0.5 * (mu(b, 2) + mu(-b, 2)) for b in bs
        )
        rep = bounds_report(sys_, 2, l)
        assert rep.multi_channel_upper == pytest.approx(want, abs=1e-9)
        assert rep.main12_upper is None and rep.msest_upper is None

    def test_multi_channel_norm_form(self):
        rng = np.random.default_rng(61)
        sys_ = random_system(rng, 2, 2)
        a = sys_.A
        b1, b2 = sys_.diffusions
        l, p = 1, 1
        norms = [matrix_norm(b1, p), matrix_norm(b2, p)]
        want = (
            l * mu(a, p)
            - 0.5 * l * mu(b1 + b2, p)
            + l * sum(norms)
            + 0.5 * l * sum(v**2 for v in norms)
            + l / math.sqrt(2) * (matrix_norm(b1 @ b2, p) + matrix_norm(b2 @ b1, p))
        )
        rep = bounds_report(sys_, p, l)
        assert rep.multi_channel_upper == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_spectral_bounds_match_lambda_max_forms(self, complex_):
        # the paper's form: 1/2 l lambda_max(A + A^H) + sum_j [1/4 l
        # (lambda_max(B + B^H) + lambda_max(-(B + B^H))) + 1/2 l
        # lambda_max(B^H B)] + l (l - 2) / 8 sum_j lambda_max(B + B^H)^2
        def lam(h):
            return float(np.linalg.eigvalsh(h)[-1])

        rng = np.random.default_rng(71)
        for n in range(1, 5):
            for m in range(1, 4):
                for l in range(1, 5):
                    if m > 1 and l < 2:
                        continue  # the norm form applies there
                    sys_ = random_system(rng, n, m, scale=2.0, complex_=complex_)
                    a = sys_.A
                    terms = [0.5 * l * lam(a + a.conj().T)]
                    for b in sys_.diffusions:
                        herm = b + b.conj().T
                        terms += [0.25 * l * lam(herm), 0.25 * l * lam(-herm),
                                  0.5 * l * lam(b.conj().T @ b)]
                        if l > 2:
                            terms.append(l * (l - 2) / 8.0 * lam(herm) ** 2)
                    want = pytest.approx(
                        sum(terms), rel=1e-13, abs=1e-13 * sum(abs(t) for t in terms)
                    )
                    rep = bounds_report(sys_, 2, l)
                    if m == 1:
                        assert rep.main12_upper == want, (n, m, l)
                        assert rep.msest_upper == want, (n, m, l)
                    else:
                        assert rep.multi_channel_upper == want, (n, m, l)

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", list("abcdefgi"))
    def test_main12_is_msest(self, case, l):
        # one bound in two notations, so one value to the last bit
        rep = bounds_report(table1_system(case), 2, l)
        assert rep.main12_upper == rep.msest_upper

    def test_applicability_table_is_complete(self):
        from slognorm.slognorm import BoundsReport

        field_names = {
            f for f in BoundsReport.__dataclass_fields__
            if f not in ("p", "l", "channels")
        }
        assert field_names == set(BOUND_APPLICABILITY)

    def test_sandwich_on_random_systems(self):
        rng = np.random.default_rng(67)
        for k in range(10):
            sys_ = random_system(rng, int(rng.integers(1, 5)),
                                 int(rng.integers(1, 4)), scale=2.0)
            p = P_VALUES[k % 3]
            est = nu_direct(sys_, p, 2, McConfig(samples=4096, seed=k))
            rep = bounds_report(sys_, p, 2)
            slack = 3 * est.std_error + FP_FLOOR
            assert rep.mu_lower - slack <= est.value <= rep.mu_upper + slack
            assert abs(est.value) <= rep.abs_bound + slack


class TestStabilityPredicates:
    def test_scalar_stability(self):
        assert scalar_stability(-100, 10, 2)
        assert not scalar_stability(0, 1, 2)
        assert scalar_stability(-0.5, 1, 1)  # boundary counts as stable
        assert scalar_stability(-1 + 5j, 1, 2)  # only the real part matters
        with pytest.raises(ValueError):
            scalar_stability(-1, 1, 3)

    def test_twobytwo_inf_norm(self):
        assert twobytwo_inf_ms_stable(-100, -100, 0, 0, 0, 0)
        assert not twobytwo_inf_ms_stable(-1, -1, 1, 0, 0, 0)
        assert twobytwo_inf_ms_stable(-3, -3, 0, 0, 0, 0)


def _two_line_mean(a1: float, mu_: float, sigma: float) -> float:
    """E max(L1, L2) for two lines in zeta ~ N(0, 1) with E L1 = a1 and
    L2 - L1 = mu + sigma zeta: a1 + mu Phi(mu/sigma) + sigma phi(mu/sigma)."""
    x = mu_ / sigma
    phi = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return a1 + mu_ * 0.5 * math.erfc(-x / math.sqrt(2.0)) + sigma * phi


class TestPerturbedSpectrum:
    @pytest.mark.parametrize("case, a1, mu_, sigma", [
        # triangular A - B^2/2 + zeta B: max Re lambda is the larger diagonal,
        # -112.5 + 5 zeta against -218 + 6 zeta for (a), and for (d)
        # -112 + 5 zeta against -168 - 6 zeta
        ("a", -112.5, -105.5, 1.0),
        ("d", -112.0, -56.0, 11.0),
    ])
    def test_one_channel_is_the_closed_form_quadrature(self, case, a1, mu_, sigma):
        chk = expected_max_re_perturbed(table1_system(case))
        assert chk.method == "quadrature"
        assert chk.estimate == pytest.approx(_two_line_mean(a1, mu_, sigma), rel=1e-12, abs=0)
        assert 0 < chk.estimate_stderr <= 1e-9 and chk.inequality_holds

    def test_deterministic_reduction(self):
        a = np.array([[-1.0, 3.0], [0.0, -2.0]])
        chk = expected_max_re_perturbed(SdeSystem(a), McConfig(samples=64, seed=1))
        assert chk.estimate == pytest.approx(-1.0, abs=1e-9)
        assert chk.half_nu == pytest.approx(mu(a, 2), abs=1e-9)
        assert chk.inequality_holds
        # without noise one evaluation is exact, whatever the sample count
        assert chk.samples == 1 and chk.method == "closed_form"
        assert chk.estimate_stderr == chk.half_nu_stderr == 0.0

    def test_identity_diffusion_margin(self):
        a = np.diag([-2.0, -5.0])
        chk = expected_max_re_perturbed(
            SdeSystem(a, (np.eye(2),)), McConfig(samples=20000, seed=3)
        )
        # statistic pair: max Re lambda(A - I/2 + z I) vs mu_2(A - I/2 + z I)
        assert chk.estimate == pytest.approx(mu(a, 2) - 0.5, abs=3 * chk.estimate_stderr + 1e-9)
        assert chk.inequality_holds
        assert chk.samples == 20000


class TestScalingCheck:
    def test_alpha_one_is_identity(self):
        sys_ = scalar_system(-1.0, 1.0)
        chk = scaling_check(sys_, 1.0, cfg=McConfig(samples=4096, seed=5))
        assert chk.scaled.value == chk.base.value
        assert chk.within_tolerance and chk.difference == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 4.0])
    def test_matched_seed_scaling(self, alpha):
        rng = np.random.default_rng(71)
        sys_ = random_system(rng, 3, 1, scale=1.5)
        chk = scaling_check(sys_, alpha, cfg=McConfig(samples=8192, seed=6))
        assert chk.within_tolerance
        assert chk.expected == pytest.approx(alpha * chk.base.value, abs=1e-12)
        # common random numbers couple the runs far below the statistical scale
        assert abs(chk.difference) < 0.1 * max(chk.tolerance, FP_FLOOR)

    def test_deterministic_homogeneity(self):
        sys_ = SdeSystem(np.diag([-1.0, 2.0]))
        chk = scaling_check(sys_, 3.0, cfg=McConfig(samples=16, seed=1))
        assert chk.scaled.value == pytest.approx(3.0 * chk.base.value, abs=1e-6)
        assert chk.within_tolerance

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            scaling_check(scalar_system(-1.0, 1.0), -2.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_alpha_before_estimating(self, monkeypatch, alpha):
        def fail(*args, **kwargs):
            raise AssertionError("estimated before checking alpha")

        monkeypatch.setattr(slognorm_module, "nu_definitional", fail)
        with pytest.raises(ValueError, match="alpha must be finite"):
            scaling_check(scalar_system(-1.0, 1.0), alpha)


class TestPerturbationInequalities:
    """Coefficient-perturbation upper bounds, checked with the definitional
    estimator on small random pairs inside 3-sigma windows."""

    @pytest.mark.parametrize("seed", [101, 103])
    def test_l1_split_bound(self, seed):
        rng = np.random.default_rng(seed)
        a, da = (rng.uniform(-0.4, 0.4, (3, 3)) for _ in range(2))
        b, db = (rng.uniform(-0.4, 0.4, (3, 3)) for _ in range(2))
        cfg = McConfig(samples=8192, seed=seed)
        lhs = nu_definitional(SdeSystem(a + da, (b + db,)), 2, 1, cfg=cfg)
        r1 = nu_definitional(SdeSystem(a, (math.sqrt(2) * b,)), 2, 1, cfg=cfg)
        r2 = nu_definitional(SdeSystem(da, (math.sqrt(2) * db,)), 2, 1, cfg=cfg)
        rhs = r1.value + r2.value + matrix_norm((b - db) @ (b - db), 2) / math.sqrt(2)
        window = 3 * math.hypot(lhs.std_error, r1.std_error, r2.std_error) + FP_FLOOR
        assert lhs.value <= rhs + window

    @pytest.mark.parametrize("l", [1, 2])
    def test_mean_split_bound(self, l):
        rng = np.random.default_rng(107)
        a, da = (rng.uniform(-0.4, 0.4, (3, 3)) for _ in range(2))
        b, db = (rng.uniform(-0.4, 0.4, (3, 3)) for _ in range(2))
        mid = (b + db) / math.sqrt(2)
        cfg = McConfig(samples=8192, seed=211)
        lhs = nu_definitional(SdeSystem(a + da, (b + db,)), 2, l, cfg=cfg)
        r1 = nu_definitional(SdeSystem(a, (mid,)), 2, l, cfg=cfg)
        r2 = nu_definitional(SdeSystem(da, (mid,)), 2, l, cfg=cfg)
        window = 3 * math.hypot(lhs.std_error, r1.std_error, r2.std_error) + FP_FLOOR
        assert lhs.value <= r1.value + r2.value + window


def test_package_root_exports_only_the_user_api():
    import slognorm

    assert slognorm.__all__ == [
        "__version__",
        "DimensionError", "EigenConvergenceError",
        "mu", "mu_limit_check",
        "SdeSystem", "McConfig", "NuEstimate", "BoundsReport", "BOUND_APPLICABILITY",
        "StabilityClass", "PerturbedSpectrumCheck", "ScalingCheck",
        "nu_direct", "nu_definitional", "bounds_report", "classify",
        "scalar_stability", "twobytwo_inf_ms_stable", "expected_max_re_perturbed",
        "scaling_check",
        "SimConfig", "MomentTrajectory", "simulate_moments", "growth_rate",
        "milstein_R", "milstein_ms_stable", "em_2x2_ms_stable",
    ]
    for name in slognorm.__all__:
        assert hasattr(slognorm, name), name
