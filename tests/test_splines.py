"""Tests for non-uniform splines and the moment-transfer identity."""

import json

import numpy as np
import pytest

from chebspike.measures import DiscreteMeasure, moments
from chebspike.splines import (NonUniformSpline, boundary_residual,
                               boundary_vector, distributional_derivative,
                               integrate_from_spikes, moments_via_transfer,
                               projection_vector, spline_from_dict,
                               spline_to_dict, transfer_matrices)

from conftest import random_spline

SQRT2 = np.sqrt(2.0)


class TestConstruction:
    def test_rejects_unsorted_knots(self):
        with pytest.raises(ValueError):
            NonUniformSpline(0, [0.5, -0.5], [[0.0], [1.0], [2.0]])

    @pytest.mark.parametrize("knots, pieces", [([np.nan], [[0.0], [0.0]]),
                                               ([0.0], [[0.0], [np.nan]])])
    def test_rejects_non_finite(self, knots, pieces):
        # NaN passes the ordering, domain and continuity checks
        with pytest.raises(ValueError, match="finite"):
            NonUniformSpline(0, knots, pieces)

    def test_rejects_smoothness_violation(self):
        # two linear pieces with a value jump is not C^0
        with pytest.raises(ValueError):
            NonUniformSpline(1, [0.0], [[0.0, 1.0], [5.0, 1.0]])

    def test_accepts_continuous_kink(self):
        f = NonUniformSpline(1, [0.0], [[0.0, 2.0], [0.0, -1.0]])
        assert f(0.5) == pytest.approx(-0.5)

    def test_evaluation_is_piecewise(self):
        f = NonUniformSpline(0, [0.0], [[0.0], [1.0]])
        np.testing.assert_array_equal(f(np.array([-0.5, 0.5])), [0.0, 1.0])

    def test_array_evaluation_equals_scalar_calls(self):
        # the CLI's profile evaluates on arrays; each value must be the
        # scalar call's bit for bit, knots and endpoints included
        rng = np.random.default_rng(7)
        for degree in (0, 1, 2, 3):
            f = random_spline(rng, degree, 3, jump_scale=1e4)
            t = np.sort(np.concatenate([np.linspace(-1.0, 1.0, 257), f.knots]))
            for deriv in (0, 1):
                scalar = [f.value(float(v), deriv) for v in t]
                assert f.value(t, deriv).tolist() == scalar


class TestDistributionalDerivative:
    def test_step_function(self):
        f = NonUniformSpline(0, [0.0], [[0.0], [1.0]])
        mu = distributional_derivative(f)
        np.testing.assert_array_equal(mu.support, [0.0])
        np.testing.assert_array_equal(mu.weights, [1.0])

    def test_slope_change(self):
        # slope 2 then slope -1 at the knot 0.5: jump of f' is -3
        f = NonUniformSpline(1, [0.5], [[0.0, 2.0], [1.5, -1.0]])
        mu = distributional_derivative(f)
        np.testing.assert_array_equal(mu.support, [0.5])
        np.testing.assert_allclose(mu.weights, [-3.0])

    def test_disguised_global_polynomial(self):
        f = NonUniformSpline(2, [0.3], [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert distributional_derivative(f).is_empty


class TestTransferMatrices:
    def test_order_zero_row(self):
        w1, w2 = transfer_matrices(1, 0)
        np.testing.assert_array_equal(w1, [[-1.0, 1.0]])
        assert w2.shape == (1, 2)

    def test_first_noisy_row_degree_zero(self):
        _, w2 = transfer_matrices(2, 0)
        np.testing.assert_allclose(w2[0], [SQRT2, SQRT2])

    def test_shapes(self):
        w1, w2 = transfer_matrices(12, 3)
        assert w1.shape == (4, 8)
        assert w2.shape == (9, 8)

    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            transfer_matrices(2, 2)


class TestProjectionVector:
    def test_constant_function(self):
        f = NonUniformSpline(0, [], [[1.0]])
        p = projection_vector(f, 5)
        expected = [SQRT2 * (1.0 - (-1.0) ** k) for k in range(1, 6)]
        np.testing.assert_allclose(p, expected, atol=1e-13)

    def test_step_spline_order_two(self):
        f = NonUniformSpline(0, [0.0], [[0.0], [1.0]])
        p = projection_vector(f, 4)
        # integral of phi_2' over [0, 1] = sqrt(2) (T_2(1) - T_2(0)) = 2 sqrt(2)
        assert p[1] == pytest.approx(2 * SQRT2, abs=1e-13)

    def test_zero_function(self):
        f = NonUniformSpline(1, [], [[0.0, 0.0]])
        np.testing.assert_allclose(projection_vector(f, 6), np.zeros(5),
                                   atol=1e-15)

    def test_matches_adaptive_quadrature(self):
        from numpy.polynomial import chebyshev as npcheb
        from scipy.integrate import quad
        from chebspike.splines import _phi_deriv_cheb
        rng = np.random.default_rng(31)
        f = random_spline(rng, 2, 2)
        m, d = 9, 2
        p = projection_vector(f, m)
        for j, k in enumerate(range(d + 1, m + 1)):
            dphi = _phi_deriv_cheb(k, d + 1)
            val, _ = quad(lambda t: f(t) * npcheb.chebval(t, dphi),
                          -1.0, 1.0, points=f.knots.tolist(), limit=200)
            assert p[j] == pytest.approx(val, abs=1e-9)


    @pytest.mark.parametrize("d", range(-1, 4))
    def test_derivative_family_matches_each_order(self, d):
        # the one batched chebder against one chebder per order
        from chebspike.splines import _phi_deriv_cheb, _phi_deriv_family
        for m in (d + 1, d + 2, 16, 33, 64):
            fam = _phi_deriv_family(m, d)
            assert fam.shape == (m - d, m - d)
            for j, k in enumerate(range(d + 1, m + 1)):
                np.testing.assert_array_equal(fam[:j + 1, j], _phi_deriv_cheb(k, d + 1))
                np.testing.assert_array_equal(fam[j + 1:, j], 0.0)

    @pytest.mark.parametrize("degree", range(4))
    @pytest.mark.parametrize("n_knots", range(7))
    def test_bit_identical_to_per_pair_loop(self, degree, n_knots):
        # the stacked antiderivative and edge evaluation against one
        # chebint and two chebval calls per (order, piece), summed left to
        # right
        from numpy.polynomial import chebyshev as npcheb
        from chebspike.splines import _phi_deriv_cheb

        def per_pair(f, m):
            edges = np.concatenate([[-1.0], f.knots, [1.0]])
            pieces = [npcheb.poly2cheb(piece) for piece in f.pieces]
            out = np.zeros(m - f.degree)
            for j, k in enumerate(range(f.degree + 1, m + 1)):
                dphi = _phi_deriv_cheb(k, f.degree + 1)
                acc = 0.0
                for i, pc in enumerate(pieces):
                    anti = npcheb.chebint(npcheb.chebmul(pc, dphi))
                    acc += float(npcheb.chebval(edges[i + 1], anti)
                                 - npcheb.chebval(edges[i], anti))
                out[j] = acc
            return out

        rng = np.random.default_rng(10 * degree + n_knots)
        f = random_spline(rng, degree, n_knots, min_gap=0.02, jump_scale=1e4)
        for m in sorted({degree + 1, degree + 2, 16, 33, 64}):
            np.testing.assert_array_equal(projection_vector(f, m), per_pair(f, m))


class TestMomentsViaTransfer:
    def test_step_spline_matches_atom_moments(self):
        f = NonUniformSpline(0, [0.0], [[0.0], [1.0]])
        y = moments_via_transfer(projection_vector(f, 4), boundary_vector(f), 4, 0)
        np.testing.assert_allclose(y, [1.0, 0.0, -SQRT2, 0.0, SQRT2], atol=1e-12)

    def test_global_polynomial_gives_zero(self):
        f = NonUniformSpline(2, [], [[0.5, -1.0, 2.0]])
        y = moments_via_transfer(projection_vector(f, 8), boundary_vector(f), 8, 2)
        np.testing.assert_allclose(y, np.zeros(9), atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        f = random_spline(rng, 1, 2)
        p = projection_vector(f, 7)
        b = boundary_vector(f)
        one = moments_via_transfer(p, b, 7, 1)
        two = moments_via_transfer(2 * p, 2 * b, 7, 1)
        np.testing.assert_allclose(two, 2 * one, atol=1e-12)

    def test_transfer_identity_random_splines(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.integers(0, 4))
            s = int(rng.integers(1, 5))
            f = random_spline(rng, d, s)
            m = d + 1 + int(rng.integers(4, 12))
            via = moments_via_transfer(projection_vector(f, m),
                                       boundary_vector(f), m, d)
            direct = moments(distributional_derivative(f), m)
            assert np.abs(via - direct).max() < 1e-8


class TestIntegrateFromSpikes:
    def test_empty_measure_constant(self):
        f = integrate_from_spikes(DiscreteMeasure.empty(),
                                  np.array([1.0, 1.0]), 0)
        np.testing.assert_allclose(f(np.linspace(-1, 1, 7)), np.ones(7))

    def test_step_from_single_atom(self):
        f = integrate_from_spikes(DiscreteMeasure([0.0], [1.0]),
                                  np.array([0.0, 1.0]), 0)
        assert f(-0.5) == 0.0
        assert f(0.5) == 1.0

    def test_roundtrip(self):
        rng = np.random.default_rng(23)
        grid = np.linspace(-1, 1, 257)
        for _ in range(40):
            d = int(rng.integers(0, 4))
            f = random_spline(rng, d, int(rng.integers(1, 5)))
            g = integrate_from_spikes(distributional_derivative(f),
                                      boundary_vector(f), d)
            np.testing.assert_allclose(g(grid), f(grid), atol=1e-9)

    def test_smoothness_of_result(self):
        rng = np.random.default_rng(5)
        f = random_spline(rng, 3, 3)
        for t in f.knots:
            for l in range(3):
                left = np.polynomial.polynomial.polyval(
                    t, np.polynomial.polynomial.polyder(f.pieces[0], l)
                    if l else f.pieces[0])
        # constructor already validated; sanity-check one jump directly
        mu = distributional_derivative(f)
        assert mu.support.size == 3

    def test_boundary_residual_roundtrip(self):
        rng = np.random.default_rng(6)
        f = random_spline(rng, 2, 2)
        assert boundary_residual(f, boundary_vector(f)) == 0.0


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        f = random_spline(rng, 2, 2)
        g = spline_from_dict(json.loads(json.dumps(spline_to_dict(f))))
        assert g.degree == f.degree
        np.testing.assert_array_equal(g.knots, f.knots)
        np.testing.assert_allclose(g.pieces, f.pieces)

    def test_read_validates(self):
        with pytest.raises(ValueError):
            spline_from_dict({"degree": 1, "knots": [0.0]})
