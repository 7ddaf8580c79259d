"""Tests for observation assembly and the noise calibration formulas."""

import json
import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from conftest import random_spline

from chebspike.chebyshev import ChebPoly
from chebspike.measures import DiscreteMeasure, moments
from chebspike.observation import (Observation, assemble_y_from_projection,
                                   lambda_algorithm, lambda_rice,
                                   observation_from_dict, observation_to_dict,
                                   polynomial_from_theta, rice_tail_bound,
                                   scaled_sigma, simulate, theta_of_polynomial)
from chebspike.splines import (NonUniformSpline, boundary_vector,
                               distributional_derivative, projection_vector)


class TestSimulate:
    def test_noiseless_equals_moments(self):
        mu = DiscreteMeasure([-0.2, 0.4], [1.0, -2.0])
        obs = simulate(mu, 12, -1, 0.0, seed=5)
        np.testing.assert_array_equal(obs.y, moments(mu, 12))

    def test_same_seed_is_identical(self):
        mu = DiscreteMeasure([0.1], [1.0])
        a = simulate(mu, 20, 2, 0.3, seed=42)
        b = simulate(mu, 20, 2, 0.3, seed=42)
        np.testing.assert_array_equal(a.y, b.y)

    def test_noiseless_prefix(self):
        mu = DiscreteMeasure([0.1], [1.0])
        obs = simulate(mu, 20, 3, 0.5, seed=1)
        np.testing.assert_array_equal(obs.y[:4], moments(mu, 20)[:4])
        assert np.any(obs.y[4:] != moments(mu, 20)[4:])

    def test_pure_noise_variance(self):
        sups = []
        for seed in range(400):
            obs = simulate(DiscreteMeasure.empty(), 9, -1, 1.0, seed=seed)
            sups.append(obs.y)
        var = np.var(np.concatenate(sups))
        assert var == pytest.approx(1.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Observation(np.zeros(3), 3, 2, 0.0)
        with pytest.raises(ValueError):
            Observation(np.zeros(4), 0, 3, -1.0)

    @pytest.mark.parametrize("y, sigma", [([0.0, np.nan, 0.0, 0.0], 0.1),
                                          ([np.inf, 0.0, 0.0, 0.0], 0.1),
                                          (np.zeros(4), np.nan),
                                          (np.zeros(4), np.inf)])
    def test_non_finite_data_rejected(self, y, sigma):
        # a NaN in y used to reach the conic solver, which refused the
        # start as not centrosymmetric (NaN != NaN)
        with pytest.raises(ValueError, match="finite"):
            Observation(np.array(y), 0, 3, sigma)


class TestAssembleFromProjection:
    def test_exact_projection_reproduces_moments(self):
        rng = np.random.default_rng(3)
        for d in range(4):
            f = random_spline(rng, d, 2)
            m = d + 8
            obs = assemble_y_from_projection(projection_vector(f, m),
                                             boundary_vector(f), m, d)
            np.testing.assert_allclose(
                obs.y, moments(distributional_derivative(f), m), atol=1e-10)

    def test_noise_enters_with_parity_sign(self):
        rng = np.random.default_rng(9)
        for d in (0, 1, 2, 3):
            f = random_spline(rng, d, 1)
            m = d + 6
            theta = projection_vector(f, m)
            n = rng.standard_normal(m - d)
            clean = assemble_y_from_projection(theta, boundary_vector(f), m, d)
            noisy = assemble_y_from_projection(theta + n, boundary_vector(f), m, d)
            diff = noisy.y - clean.y
            np.testing.assert_allclose(diff[:d + 1], np.zeros(d + 1), atol=1e-14)
            np.testing.assert_allclose(diff[d + 1:], (-1.0) ** (d + 1) * n,
                                       atol=1e-12)

    def test_zero_inputs(self):
        obs = assemble_y_from_projection(np.zeros(6), np.zeros(4), 7, 1)
        np.testing.assert_array_equal(obs.y, np.zeros(8))


class TestThetaOfPolynomial:
    def test_zero_polynomial(self):
        p = ChebPoly([0.0, 0.0, 0.0])
        np.testing.assert_array_equal(theta_of_polynomial(p, 10, 2), np.zeros(8))

    def test_linearity(self):
        rng = np.random.default_rng(12)
        m, d = 9, 1
        a = ChebPoly(rng.standard_normal(m - d))
        b = ChebPoly(rng.standard_normal(m - d))
        combo = ChebPoly(2.0 * a.coeffs - 3.0 * b.coeffs)
        np.testing.assert_allclose(
            theta_of_polynomial(combo, m, d),
            2.0 * theta_of_polynomial(a, m, d) - 3.0 * theta_of_polynomial(b, m, d),
            atol=1e-10)

    def test_globally_polynomial_spline(self):
        # when f is a global polynomial of admissible degree, its projection
        # coefficients equal the inner products of that polynomial
        m, d = 10, 2
        f = NonUniformSpline(d, [], [[1.0, 0.5, -0.25]])
        p_direct = projection_vector(f, m)
        as_cheb = ChebPoly.from_chebyshev_t(npcheb.poly2cheb([1.0, 0.5, -0.25]))
        np.testing.assert_allclose(theta_of_polynomial(as_cheb, m, d), p_direct,
                                   atol=1e-10)

    def test_degree_error(self):
        with pytest.raises(ValueError):
            theta_of_polynomial(ChebPoly(np.ones(10)), 10, 2)

    def test_roundtrip_with_inverse(self):
        rng = np.random.default_rng(21)
        m, d = 11, 2
        theta = rng.standard_normal(m - d)
        p = polynomial_from_theta(theta, m, d)
        np.testing.assert_allclose(theta_of_polynomial(p, m, d), theta,
                                   atol=1e-9)


class TestPolynomialFromTheta:
    GRID = np.linspace(-1.0, 1.0, 1024)

    # sup error of p -> theta_of_polynomial -> polynomial_from_theta on the
    # grid, relative to sup |p|, worst over seeds 0..5: about 10x the
    # measured 5.1e-15, 1.1e-14, 5.8e-14, 5.6e-13 and, at m = 64, 6x the
    # measured 4.2e-11, so that a solve of the Gram (normal) equations,
    # which loses 2.9e-10 to 4.8e-10 per seed there, fails.
    @pytest.mark.parametrize("m, d, bound", [
        (11, 2, 5e-14), (16, 1, 1e-13), (32, 0, 5e-13), (32, 2, 5e-12),
        (64, 2, 2.5e-10)])
    def test_roundtrip_on_grid(self, m, d, bound):
        worst = 0.0
        for seed in range(6):
            p = ChebPoly(np.random.default_rng(seed).standard_normal(m - d))
            q = polynomial_from_theta(theta_of_polynomial(p, m, d), m, d)
            assert q.coeffs.shape == (m - d,)
            ref = p(self.GRID)
            worst = max(worst,
                        np.abs(q(self.GRID) - ref).max() / np.abs(ref).max())
        assert worst <= bound

    @pytest.mark.parametrize("m, d", [(1, 0), (3, 2)])
    def test_single_coefficient(self, m, d):
        p = ChebPoly([-1.75])
        q = polynomial_from_theta(theta_of_polynomial(p, m, d), m, d)
        np.testing.assert_allclose(q.coeffs, p.coeffs, rtol=1e-15)

    def test_wrong_length_theta(self):
        with pytest.raises(ValueError):
            polynomial_from_theta(np.ones(8), 10, 1)


class TestLambdaFormulas:
    def test_rice_value(self):
        assert lambda_rice(0.01, 128, 1, 1.0) == pytest.approx(1.1472, abs=1e-4)

    def test_rice_small_eta_limit(self):
        # sqrt(8 * 3 * ln 10) with sigma = 1, m = 2, d = -1
        val = lambda_rice(1.0, 2, -1, 1e-12)
        assert val == pytest.approx(math.sqrt(24 * math.log(10.0)), rel=1e-6)

    def test_rice_linear_in_sigma(self):
        one = lambda_rice(0.05, 32, -1, 0.5)
        two = lambda_rice(0.10, 32, -1, 0.5)
        assert two == pytest.approx(2 * one)

    def test_algorithm_is_twice_rice(self):
        assert lambda_algorithm(0.3, 24, 1, 0.7) == pytest.approx(
            2 * lambda_rice(0.3, 24, 1, 0.7))

    def test_algorithm_zero_sigma(self):
        assert lambda_algorithm(0.0, 24, 1, 0.7) == 0.0


class TestScaledSigma:
    def test_example(self):
        assert scaled_sigma(0.002, 10, 2) == pytest.approx(1.44)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            scaled_sigma(0.1, 10, -1)

    def test_zero(self):
        assert scaled_sigma(0.0, 10, 2) == 0.0

    def test_large_m_is_finite(self):
        assert np.isfinite(scaled_sigma(1e-300, 200, 3))


class TestRiceTailBound:
    def test_unit_at_reference_level(self):
        m, d, sigma = 32, -1, 1.0
        lam_r = sigma * math.sqrt(8 * (m - d) * math.log(5 * (m + d + 1)))
        assert rice_tail_bound(lam_r, sigma, m, d) == pytest.approx(1.0)

    def test_value_at_calibration_threshold(self):
        m, d, sigma, eta = 32, -1, 1.0, 1.0
        lam0 = lambda_rice(sigma, m, d, eta)
        assert rice_tail_bound(lam0, sigma, m, d) == pytest.approx(1.0 / 160.0)

    def test_precondition(self):
        with pytest.raises(ValueError):
            rice_tail_bound(0.1, 1.0, 32, -1)


class TestSerialization:
    def test_roundtrip(self):
        obs = Observation(np.arange(5.0), 1, 4, 0.25)
        again = observation_from_dict(json.loads(json.dumps(observation_to_dict(obs))))
        np.testing.assert_array_equal(again.y, obs.y)
        assert (again.d, again.m, again.sigma) == (1, 4, 0.25)
