import math

import numpy as np
import pytest

from ttm_lab.dynamics import (convergence_rate_fit, estimate_contraction,
                              evolve_layer, iterate_to_fixed_point,
                              temperature_sweep)
from ttm_lab.numerics import Rng


def field(values):
    return np.asarray(values, dtype=np.float64)


def random_field(shape, seed):
    return Rng(seed).uniform(shape, 0.1, 0.9)


def contraction(gain):
    return lambda f: evolve_layer(f, gain)


class TestEvolveLayer:
    def test_identity_configuration(self):
        f = random_field((2, 4), seed=1)
        out = evolve_layer(f, 1.0)
        assert np.abs(out - f).max() < 1e-15

    def test_hand_case(self):
        out = evolve_layer(field([[0.3, 0.7]]), 0.5)
        assert np.abs(out[0] - np.array([0.4, 0.6])).max() < 1e-12

    def test_clamps_into_bounds(self):
        # gain 3 sends 0.1 to -0.7 and 0.9 to 1.7
        out = evolve_layer(field([[0.1, 0.9]]), 3.0)
        assert np.array_equal(out, field([[0.01, 0.99]]))


class TestFixedPoint:
    def test_constant_map_converges_in_one_step(self):
        target = field([[0.5, 0.5]])
        report = iterate_to_fixed_point(lambda f: target, field([[0.2, 0.8]]),
                                        tol=1e-9, max_iter=10)
        # first step jumps to the target; second confirms residual 0
        assert report.converged and report.iterations <= 2

    def test_linear_contraction_geometric_decay(self):
        update = contraction(0.9)
        start = random_field((2, 4), seed=5)
        report = iterate_to_fixed_point(update, start, tol=1e-6, max_iter=500)
        assert report.converged
        ratios = [b / a for a, b in zip(report.residuals, report.residuals[1:])
                  if a > 0]
        assert max(abs(r - 0.9) for r in ratios) < 1e-9
        predicted = math.ceil(math.log(report.residuals[0] / 1e-6)
                              / math.log(1 / 0.9))
        assert abs(report.iterations - predicted) <= 2

    def test_expansion_flagged_not_raised(self):
        report = iterate_to_fixed_point(
            contraction(1.05),
            field([[0.45, 0.55]]), tol=1e-9, max_iter=20)
        assert not report.converged

    def test_error_bound_at_every_step(self):
        L = 0.9
        update = contraction(L)
        start = random_field((2, 4), seed=7)
        star = np.full((2, 4), 0.5)
        current = start
        e0 = np.linalg.norm(start - star)
        for k in range(1, 60):
            current = update(current)
            err = np.linalg.norm(current - star)
            assert err <= L ** k * e0 * (1 + 1e-9)

    def test_residuals_monotone_for_contractions(self):
        report = iterate_to_fixed_point(contraction(0.7),
                                        random_field((2, 3), seed=8),
                                        tol=1e-10, max_iter=200)
        r = report.residuals
        assert all(b <= a + 1e-12 for a, b in zip(r[1:], r[2:]))


class TestContractionEstimate:
    def test_linear_factor_recovered(self):
        L = estimate_contraction(contraction(0.9), 50, seed=1)
        assert abs(L - 0.9) < 1e-9

    def test_constant_map_zero(self):
        target = field(np.full((2, 4), 0.5))
        assert estimate_contraction(lambda f: target, 20, seed=2) == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            estimate_contraction(contraction(0.5), 1, seed=0)


class TestRateFit:
    def test_reference_decay(self):
        alpha, gamma = convergence_rate_fit([1.0, 0.93, 0.93 ** 2, 0.93 ** 3])
        assert abs(gamma - 0.93) < 1e-9
        assert abs(alpha - 0.07) < 1e-9

    def test_constant_residuals(self):
        alpha, gamma = convergence_rate_fit([0.5, 0.5, 0.5, 0.5])
        assert gamma == pytest.approx(1.0) and alpha == pytest.approx(0.0)

    def test_noisy_geometric_within_band(self):
        rng = Rng(13)
        truth = 0.8
        res = [truth ** k * (1.0 + float(rng.uniform((), -0.01, 0.01)))
               for k in range(30)]
        _, gamma = convergence_rate_fit(res)
        assert abs(gamma - truth) < 0.02

    def test_positive_prefix_truncation(self):
        _, gamma = convergence_rate_fit([1.0, 0.5, 0.25, 0.0, 7.0])
        assert abs(gamma - 0.5) < 1e-9

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            convergence_rate_fit([1.0, 0.0, 0.5])


class TestSweep:
    def test_two_endpoints(self):
        t, curve = temperature_sweep(lambda m: (m - 0.9) ** 2, 0.1, 1.0, 2)
        assert t == 1.0 and len(curve) == 2

    def test_convex_curve_hits_grid_minimum(self):
        t, curve = temperature_sweep(lambda m: (m - 0.42) ** 2, 0.0, 1.0, 11)
        grid = [g for g, _ in curve]
        want = min(grid, key=lambda g: (g - 0.42) ** 2)
        assert t == want

    def test_result_is_grid_point_in_range(self):
        t, curve = temperature_sweep(lambda m: math.sin(5 * m), 0.2, 2.0, 7)
        assert 0.2 <= t <= 2.0 and any(t == g for g, _ in curve)

    def test_tie_prefers_smaller_multiplier(self):
        t, _ = temperature_sweep(lambda m: 1.0, 0.1, 1.0, 5)
        assert t == 0.1

    def test_matches_exhaustive_evaluation(self):
        losses = {}
        def f(m):
            losses[m] = (m - 1.3) ** 2 + 0.1 * math.cos(9 * m)
            return losses[m]
        t, curve = temperature_sweep(f, 0.5, 2.0, 16)
        best = min(losses, key=lambda k: (losses[k], k))
        assert t == best

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            temperature_sweep(lambda m: m, 1.0, 0.5, 4)
        with pytest.raises(ValueError):
            temperature_sweep(lambda m: m, 0.0, 1.0, 1)
