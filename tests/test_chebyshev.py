"""Tests for the Chebyshev basis utilities."""

import functools

import numpy as np
import pytest

from numpy.polynomial import chebyshev as npcheb

from chebspike.blasso import LEVEL_TOL, solve_blasso
from chebspike.chebyshev import (ChebPoly, ConstantDualError, _polish_abs_maximum,
                                 abs_sup, arccos_distance, cheb_grid, endpoint_weight,
                                 eval_phi, eval_poly, merge_close,
                                 unit_level_roots)
from chebspike.measures import DiscreteMeasure
from chebspike.observation import lambda_rice, simulate

SQRT2 = np.sqrt(2.0)


class TestEvalPhi:
    def test_order_zero_is_one(self):
        assert eval_phi(0, 0.37) == 1.0

    def test_right_endpoint(self):
        assert eval_phi(2, 1.0) == pytest.approx(SQRT2, abs=1e-14)

    def test_interior_value(self):
        # arccos(0.5) = pi/3, cos(3 * pi/3) = -1
        assert eval_phi(3, 0.5) == pytest.approx(-SQRT2, abs=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            eval_phi(2, 1.5)

    def test_vectorized(self):
        ts = np.array([-1.0, 0.0, 1.0])
        np.testing.assert_allclose(eval_phi(1, ts),
                                   SQRT2 * np.array([-1.0, 0.0, 1.0]),
                                   atol=1e-14)


class TestEvalPoly:
    def test_constant(self):
        assert eval_poly(ChebPoly([1.0, 0.0, 0.0]), 0.9) == pytest.approx(1.0)

    def test_phi1_at_zero(self):
        assert eval_poly(ChebPoly([0.0, 1.0, 0.0]), 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_phi2_at_zero(self):
        assert eval_poly(ChebPoly([0.0, 0.0, 1.0]), 0.0) == pytest.approx(-SQRT2)

    def test_matches_direct_trig_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            m = rng.integers(0, 65)
            coeffs = rng.standard_normal(m + 1)
            t = rng.uniform(-1.0, 1.0)
            theta = np.arccos(t)
            direct = coeffs[0] + SQRT2 * sum(
                coeffs[k] * np.cos(k * theta) for k in range(1, m + 1))
            assert eval_poly(ChebPoly(coeffs), t) == pytest.approx(direct, abs=1e-12)


class TestArccosDistance:
    def test_full_span(self):
        assert arccos_distance(1.0, -1.0) == pytest.approx(np.pi)

    def test_zero_at_equal_points(self):
        assert arccos_distance(0.31, 0.31) == 0.0

    def test_quarter_turn(self):
        assert arccos_distance(0.0, SQRT2 / 2) == pytest.approx(np.pi / 4)

    def test_triangle_inequality_on_grid(self):
        g = np.linspace(-1.0, 1.0, 100)
        th = np.arccos(g)
        dab = np.abs(th[:, None] - th[None, :])
        # d(a,c) <= d(a,b) + d(b,c) over all triples
        lhs = dab[:, None, :]            # (a, b, c) -> d(a, c)
        rhs = dab[:, :, None] + dab[None, :, :]
        assert np.all(lhs <= rhs + 1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            arccos_distance(2.0, 0.0)


def _chebyshev_monomial_coeffs(k):
    """T_k in the monomial basis with exact integer arithmetic."""
    prev, cur = [1], [0, 1]
    if k == 0:
        return prev
    for _ in range(k - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def _symbolic_derivative_at_one(k, l):
    coeffs = _chebyshev_monomial_coeffs(k)
    for _ in range(l):
        coeffs = [i * c for i, c in enumerate(coeffs)][1:] or [0]
    return float(sum(coeffs))


class TestEndpointWeight:
    def test_vanishes_when_order_exceeds_degree(self):
        assert endpoint_weight(1, 2) == 0.0

    def test_first_derivative_of_t3(self):
        assert endpoint_weight(3, 1) == 9.0

    def test_second_derivative_of_t2(self):
        assert endpoint_weight(2, 2) == 4.0

    def test_matches_symbolic_differentiation(self):
        for k in range(21):
            for l in range(6):
                assert endpoint_weight(k, l) == _symbolic_derivative_at_one(k, l)

    def test_left_endpoint_sign(self):
        # T_k^{(l)}(-1) = (-1)^(k+l) w_{k,l}
        for k, l in [(3, 1), (4, 2), (5, 0), (6, 3)]:
            coeffs = _chebyshev_monomial_coeffs(k)
            for _ in range(l):
                coeffs = [i * c for i, c in enumerate(coeffs)][1:] or [0]
            left = float(sum(c * (-1.0) ** i for i, c in enumerate(coeffs)))
            assert left == pytest.approx((-1.0) ** (k + l) * endpoint_weight(k, l))


class TestAbsSup:
    @pytest.mark.parametrize("m", [1, 2, 5, 32, 128])
    @pytest.mark.parametrize("c", [1.0, np.cos(0.5 / 32), 0.3])
    def test_against_a_dense_grid(self, m, c):
        # the exact sup is never below the sup over a 20,001-point grid, and
        # it matches the grid maximum polished by a bounded scalar search
        # between that point's neighbours
        from scipy.optimize import minimize_scalar
        rng = np.random.default_rng(m)
        p = ChebPoly(rng.standard_normal(m + 1))
        sup, t = abs_sup(p, c)
        assert -c <= t <= c
        assert sup == abs(eval_poly(p, t))
        grid = c * np.cos(np.linspace(0.0, np.pi, 20001))
        vals = np.abs(eval_poly(p, grid))
        assert vals.max() <= sup * (1.0 + 1e-14)
        i = int(np.argmax(vals))
        lo, hi = sorted((grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]))
        ref = minimize_scalar(lambda u: -abs(eval_poly(p, u)), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-14})
        assert abs(sup - max(-ref.fun, vals.max())) <= 1e-12 * sup

    def test_interior_maximum_between_grid_points(self):
        # T_m reaches its sup at the extrema cos(k pi / m); with c short of
        # 1 the sup over [-c, c] is reached inside, at an extremum
        p = ChebPoly.from_chebyshev_t(np.eye(9)[8])
        sup, t = abs_sup(p, 0.99)
        assert sup == pytest.approx(1.0, abs=1e-14)
        assert np.min(np.abs(np.arccos(t) - np.pi * np.arange(9) / 8)) <= 1e-7

    def test_monotone_polynomial_peaks_at_the_bound(self):
        sup, t = abs_sup(ChebPoly([0.5, 1.0]), 0.25)
        assert (sup, t) == (0.5 + SQRT2 * 0.25, 0.25)

    def test_constant(self):
        assert abs_sup(ChebPoly([-2.0]), 0.5) == (2.0, -0.5)
        assert abs_sup(ChebPoly([0.0, 0.0, 0.0])) == (0.0, -1.0)


class TestUnitLevelRoots:
    def test_empty_when_level_unreached(self):
        lam = 0.8
        p = ChebPoly([0.0, 0.0, 0.0, 0.4 * lam / SQRT2])  # max |p| = 0.4 lam
        assert unit_level_roots(p, lam, 1e-3).size == 0

    def test_chebyshev_extrema(self):
        # lam * T_8 touches the level at the 9 extrema of T_8
        lam = 0.3
        coeffs = np.zeros(9)
        coeffs[8] = lam / SQRT2
        pts = unit_level_roots(ChebPoly(coeffs), lam, 1e-4)
        expected = np.sort(np.cos(np.pi * np.arange(9) / 8))
        np.testing.assert_allclose(pts, expected, atol=1e-7)

    def test_constant_at_level_raises(self):
        with pytest.raises(ConstantDualError):
            unit_level_roots(ChebPoly([0.5] + [0.0] * 8), 0.5, 1e-3)

    def test_certificate_level_set_is_support(self):
        from chebspike.certificates import SIGN_INTERPOLANT, build_certificate
        lam = 2.5
        cert = build_certificate([0.0], 128, SIGN_INTERPOLANT, anchor=0)
        scaled = ChebPoly(lam * cert.poly.coeffs)
        pts = unit_level_roots(scaled, lam, 1e-3)
        assert pts.size == 1
        assert abs(pts[0]) <= 1e-6

    def test_returned_points_reach_level(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(4, 40))
            coeffs = rng.standard_normal(m + 1)
            p = ChebPoly(coeffs)
            grid = cheb_grid(4 * m)
            lam = 0.9 * np.abs(eval_poly(p, grid)).max()
            tol = 1e-3
            pts = unit_level_roots(p, lam, tol)
            if pts.size:
                vals = np.abs(eval_poly(p, pts))
                # exactly the locator's own filter, which solve_blasso relies on
                assert np.all(vals >= lam * (1.0 - tol))


def squared_level_roots(p, level, tol, imag_tol=1e-3):
    """Reference locator: the real roots of level^2 - p^2, one colleague
    matrix of size 2m, then the same polish, level filter and merge as
    `unit_level_roots` (which takes the roots of level - p and level + p)."""
    m = max(p.degree_bound, 1)
    tc = p.to_chebyshev_t()
    q = -npcheb.chebmul(tc, tc)
    q[0] += level * level
    q = npcheb.chebtrim(q, tol=1e-14 * np.abs(q).max())
    roots = np.atleast_1d(npcheb.chebroots(q)) if q.size >= 2 else np.array([])
    real = roots[np.abs(roots.imag) <= imag_tol].real if np.iscomplexobj(roots) \
        else roots
    real = real[(real >= -1.0 - 1e-9) & (real <= 1.0 + 1e-9)]
    candidates = np.concatenate([np.clip(real, -1.0, 1.0), [-1.0, 1.0]])
    dc1 = npcheb.chebder(tc)
    dc2 = npcheb.chebder(dc1)
    polished = np.array([t0 if abs(t0) >= 1.0 else
                         _polish_abs_maximum(tc, dc1, dc2, t0) for t0 in candidates])
    keep = np.abs(npcheb.chebval(polished, tc)) >= level * (1.0 - tol)
    pts = np.sort(polished[keep])
    if pts.size == 0:
        return pts
    return pts[merge_close(pts, np.abs(npcheb.chebval(pts, tc)), 0.5 / m)]


@functools.lru_cache(maxsize=None)
def dual_polynomial(m, seed):
    """The dual polynomial and lam of a noisy 3-spike solve_blasso run."""
    rng = np.random.default_rng(seed)
    theta = np.pi * np.array([0.2, 0.5, 0.8]) + rng.uniform(-0.05, 0.05, 3)
    x = DiscreteMeasure(np.sort(np.cos(theta)), rng.uniform(0.8, 2.0, 3)
                        * rng.choice([-1.0, 1.0], 3))
    sigma = 1e-5
    lam = lambda_rice(sigma, m, -1, 1.0)
    sol = solve_blasso(simulate(x, m, -1, sigma, seed), lam)
    return sol.dual.dual_poly, lam


class TestLevelRootsAgainstSquared:
    """The two degree-m root problems find the points the one degree-2m
    problem finds."""

    @staticmethod
    def assert_same(p, lam, tol):
        got = unit_level_roots(p, lam, tol)
        ref = squared_level_roots(p, lam, tol)
        assert got.size == ref.size
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)
        return got

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("frac", [0.9, 1.0])
    def test_random_polynomials(self, sign, frac):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = int(rng.integers(4, 41))
            p = ChebPoly(sign * rng.standard_normal(m + 1))
            lam = frac * np.abs(eval_poly(p, cheb_grid(4 * m))).max()
            self.assert_same(p, lam, 1e-3)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("m", [5, 8, 33])
    def test_scaled_chebyshev_polynomial(self, sign, m):
        lam = 0.7
        coeffs = np.zeros(m + 1)
        coeffs[m] = sign * lam / SQRT2
        pts = self.assert_same(ChebPoly(coeffs), lam, 1e-4)
        assert pts.size == m + 1

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("m", [8, 32, 128])
    def test_dual_polynomials(self, sign, m):
        p, lam = dual_polynomial(m, seed=m)
        pts = self.assert_same(ChebPoly(sign * p.coeffs), lam, LEVEL_TOL)
        assert pts.size >= 1
