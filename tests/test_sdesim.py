"""Tests for the ensemble SDE moment simulator and scheme stability tests."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

import slognorm.sdesim as sdesim
import slognorm.slognorm as slognorm_module
from slognorm.sdesim import (
    DIVERGENCE_THRESHOLD,
    MomentTrajectory,
    SimConfig,
    em_2x2_ms_stable,
    growth_rate,
    milstein_R,
    milstein_ms_stable,
    simulate_moments,
)
from slognorm.slognorm import SdeSystem, sample_wiener_increments


def scalar_system(alpha: float, beta: float) -> SdeSystem:
    return SdeSystem([[alpha]], ([[beta]],))


class TestSimConfig:
    def test_valid_defaults(self):
        cfg = SimConfig(h=0.01, t_end=1.0, paths=100)
        assert cfg.steps == 100
        assert cfg.scheme == "milstein" and cfg.p == 2 and cfg.l == 2

    def test_near_integral_ratio_accepted(self):
        cfg = SimConfig(h=0.1, t_end=1.0, paths=10)
        assert cfg.steps == 10

    @pytest.mark.parametrize("kwargs", [
        {"h": 0.3, "t_end": 1.0, "paths": 10},           # non-integral steps
        {"h": 0.1, "t_end": 1.0, "paths": 10, "checkpoints": 7},
        {"h": -0.1, "t_end": 1.0, "paths": 10},
        {"h": 0.1, "t_end": 0.0, "paths": 10},
        {"h": 0.1, "t_end": 1.0, "paths": 0},
        {"h": 0.1, "t_end": 1.0, "paths": 10, "scheme": "heun"},
        {"h": 0.1, "t_end": 1.0, "paths": 10, "l": 0},
        {"h": 0.1, "t_end": 1.0, "paths": 10, "l": 2.5},
        {"h": 0.1, "t_end": 1.0, "paths": 10, "p": 3},
        {"h": 0.1, "t_end": 1.0, "paths": 10, "seed": -1},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "7"])
    def test_rejects_non_integral_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SimConfig(h=0.1, t_end=1.0, paths=10, seed=seed)

    @pytest.mark.parametrize("field, value", [("paths", 100.0), ("checkpoints", 5.0)])
    def test_rejects_non_integral_counts(self, field, value):
        kwargs = {"h": 0.1, "t_end": 1.0, "paths": 10, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(**kwargs)

    def test_rejects_boolean_l(self):
        with pytest.raises(ValueError, match="l must be a positive integer"):
            SimConfig(h=0.1, t_end=1.0, paths=10, l=True)

    def test_p_string_canonicalized(self):
        cfg = SimConfig(h=0.1, t_end=1.0, paths=10, p="inf")
        assert cfg.p == math.inf


def kernel_step(sys_: SdeSystem, x, dw, imat=None, h: float = 0.01) -> np.ndarray:
    """x (n, count) after one step of the simulator's kernel, in place:
    Milstein with the iterated integrals ``imat`` (count, m, m), else
    Euler-Maruyama; ``dw`` is (count, m), as the sampler returns them."""
    count = x.shape[1]
    rows = [dw] if imat is None else [dw, np.reshape(imat, (count, dw.shape[1] ** 2))]
    coef = np.vstack([r.T for r in rows] + [np.ones((1, count))])
    table = sdesim._step_table(sys_.diffusions, h * sys_.A, imat is not None).astype(x.dtype)
    sdesim._apply_step(x, table, coef, np.empty((table.shape[0], count), dtype=x.dtype))
    return x


class TestSteppers:
    """Hand formulas for single states: one-column blocks of the kernel."""

    def test_zero_coefficients_leave_state_unchanged(self):
        out = kernel_step(scalar_system(0.0, 0.0), np.array([[2.0]]), np.array([[0.7]]), h=0.3)
        assert out[0, 0] == 2.0

    def test_em_pure_drift(self):
        out = kernel_step(scalar_system(-1.0, 0.0), np.array([[1.0]]), np.array([[5.0]]), h=0.1)
        assert out[0, 0] == pytest.approx(0.9, abs=1e-15)

    def test_em_pure_noise(self):
        w = 0.37
        out = kernel_step(scalar_system(0.0, 1.0), np.array([[1.0]]), np.array([[w]]), h=0.1)
        assert out[0, 0] == pytest.approx(1.0 + w, abs=1e-15)

    def test_em_no_diffusion(self):
        sys_ = SdeSystem(np.diag([-1.0, -2.0]))
        out = kernel_step(sys_, np.array([[1.0], [1.0]]), np.empty((1, 0)), h=0.5)
        np.testing.assert_allclose(out[:, 0], [0.5, 0.0], atol=1e-15)

    def test_milstein_reduces_to_em_without_noise_squared_term(self):
        sys_ = SdeSystem(np.diag([-1.0, -2.0]), (np.zeros((2, 2)),))
        x = np.array([[1.0], [2.0]])
        dw = np.array([[0.4]])
        em = kernel_step(sys_, x.copy(), dw, h=0.1)
        mil = kernel_step(sys_, x.copy(), dw, np.zeros((1, 1, 1)), h=0.1)
        np.testing.assert_array_equal(em, mil)

    def test_milstein_scalar_correction(self):
        h, w = 0.1, 0.37
        iint = 0.5 * (w**2 - h)
        out = kernel_step(scalar_system(0.0, 1.0), np.array([[1.0]]), np.array([[w]]),
                          np.array([[[iint]]]), h)
        assert out[0, 0] == pytest.approx(1.0 + w + iint, abs=1e-15)

    def test_milstein_sqrt_h_increment_is_exact_factor(self):
        h = 0.04
        out = kernel_step(scalar_system(0.0, 1.0), np.array([[1.0]]), np.array([[math.sqrt(h)]]),
                          np.zeros((1, 1, 1)), h)
        assert out[0, 0] == 1.0 + math.sqrt(h)

    def test_milstein_multi_channel_matches_hand_formula(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 2))
        b1, b2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        sys_ = SdeSystem(a, (b1, b2))
        x = rng.normal(size=2)
        dw, imat = sample_wiener_increments(rng, 1, 2, 0.02)
        out = kernel_step(sys_, x[:, np.newaxis].copy(), dw, imat, 0.02)
        dw, imat = dw[0], imat[0]
        bs = [b1, b2]
        update = 0.02 * a + dw[0] * b1 + dw[1] * b2
        for i in range(2):
            for j in range(2):
                update = update + imat[i, j] * (bs[i] @ bs[j])
        np.testing.assert_allclose(out[:, 0], x + update @ x, rtol=1e-13)


def _reference_step(x, a, bs, pairs, dw, imat, h):
    """The step kernel as first written, allocating every temporary."""
    update = h * a + np.tensordot(dw, bs, axes=(-1, 0))
    if pairs is not None:
        update = update + np.einsum("...ij,ijab->...ab", imat, pairs)
    return x + np.einsum("...ab,...b->...a", update, x)


def _two_channel_system(seed: int, complex_: bool = False) -> SdeSystem:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2)) - 2 * np.eye(2)
    bs = [0.3 * rng.normal(size=(2, 2)) for _ in range(2)]
    if complex_:
        a = a + 1j * rng.normal(size=(2, 2))
        bs = [b + 0.2j * rng.normal(size=(2, 2)) for b in bs]
    return SdeSystem(a, tuple(bs))


class TestBufferedStep:
    """The ensemble loop steps each block's state-major buffer (n, count) in
    place with one kernel: one gemm of the step table against the
    (dW | I | 1) rows, then one multiply and n adds.  Complex
    Euler-Maruyama keeps the bits of the allocating reference; real n = 3
    Euler-Maruyama sums the mat-vec's three products in another order than
    the reference's einsum, and Milstein its terms too, so they match it to
    rounding.  The simulation loop keeps the bits of the kernel stepping
    all paths as one block, also at the benchmark's shapes (n <= 2, m = 1,
    real)."""

    @staticmethod
    def _check(got, expected, exact: bool) -> None:
        if exact:
            np.testing.assert_array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.abs(expected).max())

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("milstein", [False, True])
    def test_buffered_step_matches_reference(self, m, complex_, milstein):
        rng = np.random.default_rng(m)
        n, count = 3, 4096
        dtype = np.complex128 if complex_ else np.float64
        a = rng.normal(size=(n, n)).astype(dtype)
        bs = rng.normal(size=(m, n, n)).astype(dtype)
        pairs = slognorm_module._channel_products(bs) if milstein and m else None
        x = rng.normal(size=(count, n)).astype(dtype)
        dw = rng.normal(size=(count, m))
        imat = rng.normal(size=(count, m, m)) if pairs is not None else None
        expected = _reference_step(x, a, bs, pairs, dw, imat, 0.01)
        state = kernel_step(SdeSystem(a, tuple(bs)), x.T.copy(), dw, imat, 0.01)
        self._check(state.T, expected, exact=pairs is None and complex_)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_small_block_matches_reference(self, complex_):
        # m = 0..3 channels, real or complex coefficients, on 50-column blocks
        rng = np.random.default_rng(4)
        for m in range(4):
            a = rng.normal(size=(3, 3)) + (1j * rng.normal(size=(3, 3)) if complex_ else 0)
            bs = rng.normal(size=(m, 3, 3)) + (0.2j * rng.normal(size=(m, 3, 3)) if complex_ else 0)
            sys_ = SdeSystem(a, tuple(bs))
            x = rng.normal(size=(50, 3))
            dw = rng.normal(size=(50, m))
            imat = rng.normal(size=(50, m, m))
            pairs = slognorm_module._channel_products(bs) if m else None
            state = np.ascontiguousarray(x.T, dtype=a.dtype)
            self._check(kernel_step(sys_, state.copy(), dw, None, 0.01).T,
                        _reference_step(x, a, bs, None, dw, None, 0.01), exact=complex_)
            self._check(kernel_step(sys_, state.copy(), dw, imat, 0.01).T,
                        _reference_step(x, a, bs, pairs, dw, imat, 0.01),
                        exact=pairs is None and complex_)

    @staticmethod
    def _check_reference_loop(sys_: SdeSystem, x0, cfg: SimConfig) -> None:
        """simulate_moments against the kernel stepping one (n, paths) block
        on the same draws (bit for bit) and against the allocating reference."""
        a, bs, m = sys_.A, sys_.diffusions, sys_.m
        pairs = slognorm_module._channel_products(bs) if cfg.scheme == "milstein" else None
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
        x = np.tile(np.array(x0, dtype=a.dtype)[:, np.newaxis], (1, cfg.paths))
        ref = x.T.copy()
        expected, reference = [], []
        for step in range(1, cfg.steps + 1):
            if pairs is not None:
                dw, imat = sample_wiener_increments(rng, cfg.paths, m, cfg.h)
            else:
                dw, imat = math.sqrt(cfg.h) * rng.standard_normal((cfg.paths, m)), None
            kernel_step(sys_, x, dw, imat, cfg.h)
            ref = _reference_step(ref, a, bs, pairs, dw, imat, cfg.h)
            if step % (cfg.steps // cfg.checkpoints) == 0:
                expected.append((sdesim._norm_rows(x.T, 2) ** 2).sum() / cfg.paths)
                reference.append((sdesim._norm_rows(ref, 2) ** 2).sum() / cfg.paths)
        traj = simulate_moments(sys_, x0, cfg)
        np.testing.assert_array_equal(traj.moments[1:], expected)
        np.testing.assert_allclose(traj.moments[1:], reference, rtol=1e-13)

    @pytest.mark.parametrize("scheme", ["milstein", "euler_maruyama"])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_simulation_matches_reference_loop(self, scheme, complex_):
        cfg = SimConfig(h=0.02, t_end=0.4, paths=700, checkpoints=4, seed=9, scheme=scheme)
        self._check_reference_loop(_two_channel_system(5, complex_), [1.0, -0.5], cfg)

    @pytest.mark.parametrize("scheme", ["milstein", "euler_maruyama"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_single_channel_simulation_matches_reference_loop(self, scheme, n):
        # the shapes of the benchmark's simulations: n <= 2, m = 1, real
        rng = np.random.default_rng(20 + n)
        sys_ = SdeSystem(rng.normal(size=(n, n)) - 2 * np.eye(n), (0.5 * rng.normal(size=(n, n)),))
        cfg = SimConfig(h=0.02, t_end=0.4, paths=700, checkpoints=4, seed=9, scheme=scheme)
        self._check_reference_loop(sys_, [1.0, -0.5][:n], cfg)


class TestSimulateMoments:
    def test_deterministic_scalar_matches_manual_iteration(self):
        sys_ = SdeSystem(np.array([[-1.0]]))
        cfg = SimConfig(h=0.1, t_end=1.0, paths=1, checkpoints=10,
                        scheme="euler_maruyama")
        traj = simulate_moments(sys_, [1.0], cfg)
        v = 1.0
        expected = [1.0]
        for _ in range(10):
            v = v + (0.1 * -1.0) * v
            expected.append(v**2)
        np.testing.assert_allclose(traj.moments, expected, rtol=1e-13)
        assert traj.moments[0] == 1.0 and traj.std_errors[0] == 0.0
        np.testing.assert_allclose(traj.times, np.linspace(0.0, 1.0, 11), atol=1e-12)

    @pytest.mark.parametrize("scheme", ["euler_maruyama", "milstein"])
    def test_single_noisy_path_has_nan_standard_errors(self, scheme):
        # one path has no sample spread; 0.0 would claim an exact moment
        cfg = SimConfig(h=0.01, t_end=0.1, paths=1, checkpoints=5, scheme=scheme)
        traj = simulate_moments(scalar_system(-1.0, 0.5), [1.0], cfg)
        assert traj.std_errors[0] == 0.0
        assert np.isnan(traj.std_errors[1:]).all()
        assert np.isfinite(traj.moments).all()
        assert math.isnan(growth_rate(traj)[1])

    def test_deterministic_2x2_matches_manual_iteration(self):
        a = np.array([[-1.0, 0.5], [0.0, -2.0]])
        sys_ = SdeSystem(a)
        cfg = SimConfig(h=0.05, t_end=0.5, paths=1, checkpoints=5, p=1, l=3)
        traj = simulate_moments(sys_, [1.0, 1.0], cfg)
        x = np.array([1.0, 1.0])
        expected = [2.0**3]
        for k in range(1, 11):
            x = x + 0.05 * (a @ x)
            if k % 2 == 0:
                expected.append(np.abs(x).sum() ** 3)
        np.testing.assert_allclose(traj.moments, expected, rtol=1e-12)

    def test_second_moment_law_short_horizon(self):
        # dX = -100 X dt + 10 X dW has E X_t^2 = exp(-100 t)
        sys_ = scalar_system(-100.0, 10.0)
        cfg = SimConfig(h=1e-4, t_end=0.01, paths=20000, checkpoints=10, seed=5)
        traj = simulate_moments(sys_, [1.0], cfg)
        target = math.exp(-1.0)
        assert traj.moments[-1] == pytest.approx(
            target, abs=3 * traj.std_errors[-1] + 0.01
        )
        assert int(traj.diverged.sum()) == 0

    def test_growth_rate_recovers_moment_exponent(self):
        # dX = -5 X dt + X dW: nu_2^2 = 2(-5) + 1 = -9
        sys_ = scalar_system(-5.0, 1.0)
        cfg = SimConfig(h=1e-3, t_end=0.2, paths=20000, checkpoints=10, seed=9)
        traj = simulate_moments(sys_, [1.0], cfg)
        rate, rate_se = growth_rate(traj)
        assert rate == pytest.approx(-9.0, abs=max(0.9, 3 * rate_se))

    def test_divergence_reported_as_inf(self):
        sys_ = SdeSystem(np.array([[1e160]]))
        cfg = SimConfig(h=0.1, t_end=0.2, paths=8, checkpoints=2)
        traj = simulate_moments(sys_, [1.0], cfg)
        assert traj.moments[0] == 1.0
        assert np.all(np.isinf(traj.moments[1:]))
        assert np.all(np.isinf(traj.std_errors[1:]))
        assert np.all(traj.diverged[1:] == 8)
        with pytest.raises(ValueError):
            growth_rate(traj)
        buf = io.StringIO()
        traj.write_csv(buf)
        assert "inf" in buf.getvalue().splitlines()[-1]

    def test_threshold_is_documented_scale(self):
        assert DIVERGENCE_THRESHOLD == 1e150

    def test_bitwise_deterministic_across_workers(self, block_threads):
        rng = np.random.default_rng(13)
        sys_ = SdeSystem(
            rng.normal(size=(2, 2)) - 2 * np.eye(2),
            tuple(0.3 * rng.normal(size=(2, 2)) for _ in range(2)),
        )
        cfg = SimConfig(h=0.05, t_end=1.0, paths=6000, checkpoints=10, seed=21)
        runs = block_threads.across(lambda: simulate_moments(sys_, [1.0, -1.0], cfg))
        # simulation blocks fan out whatever the dimension: both blocks here
        assert block_threads.picked == [2 if block_threads.can_fan_out() else 1]
        for traj in runs.values():
            np.testing.assert_array_equal(traj.moments, runs[1].moments)
            np.testing.assert_array_equal(traj.std_errors, runs[1].std_errors)

    def test_blocks_shrink_with_dimension(self, monkeypatch, block_threads):
        # _block_size(40) = 2621 paths, so 3000 paths make two blocks
        sys_ = SdeSystem(-np.eye(40), (0.1 * np.random.default_rng(40).normal(size=(40, 40)),))
        cfg = SimConfig(h=0.01, t_end=0.02, paths=3000, checkpoints=2, seed=9,
                        scheme="euler_maruyama")
        blocks = []
        moment_blocks = sdesim._moment_blocks

        def recording(run, total, ncols, dim, seed):
            def counted(rng, start, count, out):
                blocks.append((start, count))
                run(rng, start, count, out)

            return moment_blocks(counted, total, ncols, dim, seed)

        monkeypatch.setattr(sdesim, "_moment_blocks", recording)
        runs = block_threads.across(lambda: simulate_moments(sys_, np.ones(40), cfg), cores=(1, 2))
        assert sorted(blocks) == [(0, 2621)] * 2 + [(2621, 379)] * 2
        assert block_threads.picked == [2 if block_threads.can_fan_out() else 1]
        np.testing.assert_array_equal(runs[2].moments, runs[1].moments)
        np.testing.assert_array_equal(runs[2].std_errors, runs[1].std_errors)

    def test_schemes_coincide_without_diffusion(self):
        sys_ = SdeSystem(np.array([[-2.0, 1.0], [0.0, -3.0]]))
        base = dict(h=0.1, t_end=1.0, paths=4, checkpoints=5, seed=3)
        em = simulate_moments(sys_, [1.0, 1.0], SimConfig(scheme="euler_maruyama", **base))
        mil = simulate_moments(sys_, [1.0, 1.0], SimConfig(scheme="milstein", **base))
        np.testing.assert_array_equal(em.moments, mil.moments)

    def test_noiseless_ensemble_has_zero_standard_errors(self):
        # every path is the same path; a sum of squares less N mean^2
        # reported up to 1.9e-10 here
        sys_ = SdeSystem(np.array([[-1.0, 2.0], [0.0, -3.0]]))
        cfg = SimConfig(h=0.01, t_end=1.0, paths=10_000, checkpoints=10)
        traj = simulate_moments(sys_, [1.0, 1.0], cfg)
        assert np.all(traj.std_errors == 0.0)
        assert np.isfinite(traj.moments).all()

    def test_standard_error_is_linear_in_small_noise(self):
        # B = b I: the spread of norm(X_t)^2 is linear in b to first order,
        # and at b = 1e-9 it is far above the rounding of the moments
        def errors(b):
            sys_ = SdeSystem(np.array([[-1.0, 2.0], [0.0, -3.0]]), (b * np.eye(2),))
            cfg = SimConfig(h=0.01, t_end=1.0, paths=10_000, checkpoints=10, seed=5)
            return simulate_moments(sys_, [1.0, 1.0], cfg).std_errors[1:]

        small, large = errors(1e-9), errors(1e-7)
        assert np.all(small > 0.0)
        np.testing.assert_allclose(small, 1e-2 * large, rtol=1e-2)

    def test_x0_validation(self):
        sys_ = scalar_system(-1.0, 1.0)
        cfg = SimConfig(h=0.1, t_end=1.0, paths=4)
        with pytest.raises(ValueError, match="dimension"):
            simulate_moments(sys_, [1.0, 2.0], cfg)
        with pytest.raises(ValueError, match="nonzero"):
            simulate_moments(sys_, [0.0], cfg)

    def test_arrays_are_read_only(self):
        traj = simulate_moments(
            scalar_system(-1.0, 0.5),
            [1.0],
            SimConfig(h=0.1, t_end=0.5, paths=16, checkpoints=5),
        )
        with pytest.raises(ValueError):
            traj.moments[0] = 0.0


# the two-channel systems of the benchmark: B1 B2 != B2 B1 and B1 B2c = B2c B1
MC_A = np.array([[-1.0, 0.5], [0.0, -2.0]])
MC_B1 = np.array([[0.3, 0.2], [0.0, 0.1]])
MC_B2 = np.array([[0.0, 0.4], [-0.4, 0.2]])
MC_B2C = np.array([[0.25, 0.1], [0.0, 0.15]])
# complex variants; scaling B1 and B2c by phases keeps them commuting
MC_COMPLEX = (MC_A + 1j * np.array([[0.3, 0.0], [0.1, -0.2]]), MC_B1 * np.exp(0.4j),
              MC_B2 + 0.1j * np.array([[1.0, 0.0], [0.0, -1.0]]), MC_B2C * np.exp(-0.7j))


def _milstein_mean_square_operator(a, bs, h):
    """E[G (x) conj(G)] of one two-channel Milstein step, exactly: G is a
    polynomial of degree 2 in dW, so a 3-node Gauss-Hermite rule per channel
    integrates G (x) conj(G) exactly, and the area +-h/2 of the pair is
    averaged over both signs.  Acts on row-major vec(P), P = E[X X^H]."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(3)
    weights = weights / weights.sum()
    n = a.shape[0]
    total = np.zeros((n * n, n * n), dtype=np.complex128)
    for k1 in range(3):
        for k2 in range(3):
            dw = math.sqrt(h) * nodes[[k1, k2]]
            for area in (0.5 * h, -0.5 * h):
                iint = 0.5 * (np.outer(dw, dw) - h * np.eye(2))
                iint += np.array([[0.0, area], [-area, 0.0]])
                g = np.eye(n) + h * a + dw[0] * bs[0] + dw[1] * bs[1]
                g = g + sum(iint[i, j] * bs[i] @ bs[j] for i in range(2) for j in range(2))
                total += 0.5 * weights[k1] * weights[k2] * np.kron(g, g.conj())
    return total


class TestExactMeanSquare:
    """The simulated mean square of the two-channel Milstein scheme against
    the exact moment of the same discrete scheme."""

    def test_operator_reproduces_the_exact_area_scheme(self):
        op = _milstein_mean_square_operator(MC_A, (MC_B1, MC_B2), 0.01)
        vec = np.linalg.matrix_power(op, 100) @ np.ones(4)
        assert vec.reshape(2, 2).trace().real == pytest.approx(0.3046841, abs=5e-8)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("commuting", [False, True])
    def test_simulated_moments_match_exact_operator(self, complex_, commuting):
        a, b1, b2, b2c = MC_COMPLEX if complex_ else (MC_A, MC_B1, MC_B2, MC_B2C)
        bs = (b1, b2c if commuting else b2)
        cfg = SimConfig(h=0.01, t_end=1.0, paths=20_000, checkpoints=10, seed=7)
        traj = simulate_moments(SdeSystem(a, bs), [1.0, 1.0], cfg)
        op = _milstein_mean_square_operator(a, bs, cfg.h)
        stride = np.linalg.matrix_power(op, cfg.steps // cfg.checkpoints)
        vec = np.ones(4, dtype=np.complex128)
        for mom, se in zip(traj.moments[1:], traj.std_errors[1:]):
            vec = stride @ vec
            exact = vec.reshape(2, 2).trace().real
            assert abs(mom - exact) <= 4 * se, (mom, exact, se)


def synthetic_trajectory(times, moments, std_errors=None) -> MomentTrajectory:
    times = np.asarray(times, dtype=np.float64)
    moments = np.asarray(moments, dtype=np.float64)
    if std_errors is None:
        std_errors = np.zeros_like(moments)
    cfg = SimConfig(h=0.1, t_end=1.0, paths=100, checkpoints=10)
    return MomentTrajectory(
        times=times, moments=moments, std_errors=np.asarray(std_errors),
        paths=100, config=cfg, diverged=np.zeros(len(times), dtype=np.int64),
    )


class TestGrowthRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 1.0, 11)
        rate, se = growth_rate(synthetic_trajectory(t, np.exp(-2.0 * t)))
        assert rate == pytest.approx(-2.0, abs=1e-12)
        assert se == 0.0

    def test_constant_trajectory(self):
        t = np.linspace(0.0, 1.0, 6)
        rate, _ = growth_rate(synthetic_trajectory(t, np.ones(6)))
        assert rate == pytest.approx(0.0, abs=1e-12)

    def test_infinite_tail_uses_finite_prefix(self):
        t = np.linspace(0.0, 1.0, 11)
        mom = np.exp(3.0 * t)
        mom[6:] = math.inf
        rate, _ = growth_rate(synthetic_trajectory(t, mom))
        assert rate == pytest.approx(3.0, abs=1e-12)

    def test_too_few_finite_checkpoints(self):
        with pytest.raises(ValueError, match="at least 3"):
            growth_rate(synthetic_trajectory([0.0, 0.1, 0.2], [1.0, math.inf, math.inf]))

    def test_stderr_propagates_through_log(self):
        t = np.linspace(0.0, 1.0, 11)
        mom = np.exp(-2.0 * t)
        rate, se = growth_rate(synthetic_trajectory(t, mom, 0.01 * mom))
        assert rate == pytest.approx(-2.0, abs=1e-12)
        assert se > 0.0


class TestMomentTrajectory:
    def test_length_validation(self):
        cfg = SimConfig(h=0.1, t_end=1.0, paths=10)
        with pytest.raises(ValueError, match="equal length"):
            MomentTrajectory(
                times=np.zeros(3), moments=np.zeros(2), std_errors=np.zeros(3),
                paths=10, config=cfg, diverged=np.zeros(3, dtype=np.int64),
            )

    def test_write_csv_format(self):
        traj = synthetic_trajectory([0.0, 0.5, 1.0], [1.0, 0.5, 0.25],
                                    [0.0, 0.01, 0.02])
        buf = io.StringIO()
        traj.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "time,moment,stderr,paths,scheme"
        assert lines[1] == "0.0,1.0,0.0,100,milstein"
        assert len(lines) == 4

    def test_write_csv_to_path(self, tmp_path):
        traj = synthetic_trajectory([0.0, 1.0], [1.0, 2.0])
        out = tmp_path / "traj.csv"
        traj.write_csv(str(out))
        assert out.read_text().startswith("time,moment,stderr")


class TestSchemeStabilityFunctions:
    def test_milstein_R_exact_values(self):
        assert milstein_R(1.0, -1.0, 0.0) == 0.0
        assert milstein_R(0.7, 0.0, 0.0) == 1.0
        assert milstein_R(0.001, -100.0, 10.0) == pytest.approx(0.915, abs=1e-12)

    def test_milstein_stability_verdicts(self):
        assert milstein_ms_stable(1.0, -1.0, 0.0)
        assert not milstein_ms_stable(0.7, 0.0, 0.0)  # boundary R = 1
        assert milstein_ms_stable(0.001, -100.0, 10.0)
        assert not milstein_ms_stable(0.05, -100.0, 10.0)  # R = 16.25

    def test_milstein_R_complex_coefficients(self):
        # |1 + h lam|^2 with lam = i: 1 + h^2
        assert milstein_R(0.5, 1j, 0.0) == pytest.approx(1.25, abs=1e-14)

    def test_milstein_R_rejects_bad_h(self):
        with pytest.raises(ValueError):
            milstein_R(0.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            milstein_R(-0.5, -1.0, 0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_stability_functions_reject_non_finite_h(self, h):
        with pytest.raises(ValueError, match="step size h must be finite"):
            milstein_R(h, -1.0, 1.0)
        with pytest.raises(ValueError, match="step size h must be finite"):
            milstein_ms_stable(h, -1.0, 1.0)
        with pytest.raises(ValueError, match="step size h must be finite"):
            em_2x2_ms_stable(h, -1.0, -1.0, 0.0, 0.0, 0.0, 0.0)

    def test_em_2x2_verdicts(self):
        assert em_2x2_ms_stable(1.0, -1.0, -1.0, 0.0, 0.0, 0.0, 0.0)
        assert not em_2x2_ms_stable(2.0, -1.0, -1.0, 0.0, 0.0, 0.0, 0.0)
        # max{(1 - 0.5)^2 + 25, (1 - 1)^2 + 36} = 36
        assert not em_2x2_ms_stable(0.005, -100.0, -200.0, 5.0, 0.0, 6.0, 0.0)
        assert em_2x2_ms_stable(0.01, -100.0, -100.0, 0.5, 0.3, 0.2, 0.1)

    def test_em_2x2_rejects_bad_h(self):
        with pytest.raises(ValueError):
            em_2x2_ms_stable(0.0, -1.0, -1.0, 0.0, 0.0, 0.0, 0.0)
