"""Tests for the constructive dual certificates."""

import numpy as np
import pytest

from conftest import random_separated_measure

from chebspike.certificates import (QIC, SIGN_INTERPOLANT, SquaredFejerKernel,
                                    build_certificate, extraction_residual,
                                    odd_part_residual, symmetrize_support,
                                    trig_second_derivative_sup,
                                    verify_certificate)


class TestSymmetrizeSupport:
    def test_center_point(self):
        np.testing.assert_allclose(symmetrize_support([0.0]).points,
                                   [0.25, 0.75])

    def test_right_endpoint_single_image(self):
        np.testing.assert_allclose(symmetrize_support([1.0]).points, [0.5])

    def test_left_endpoint_merged_on_torus(self):
        np.testing.assert_allclose(symmetrize_support([-1.0]).points, [0.0])

    def test_symmetry_mod_one(self):
        sym = symmetrize_support([-0.6, 0.1, 0.7])
        for x in sym.points:
            mirrored = (1.0 - x) % 1.0
            assert np.min(np.abs(sym.points - mirrored)) < 1e-12

    def test_gap_implied_by_separation(self):
        # separation-compliant supports give circle gaps >= 2.5/m
        rng = np.random.default_rng(0)
        m = 128
        for _ in range(5):
            mu = random_separated_measure(rng, 3, m)
            pts = symmetrize_support(mu.support).points
            gaps = np.diff(np.concatenate([pts, [pts[0] + 1.0]]))
            assert gaps.min() >= 2.5 / m - 1e-12


class TestKernel:
    def test_value_at_zero(self):
        assert SquaredFejerKernel(64).value(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_first_zero(self):
        m = 64
        n = m // 2 + 1
        assert SquaredFejerKernel(m).value(1.0 / n) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        ker = SquaredFejerKernel(32)
        ts = np.linspace(0.0, 1.0, 501)
        assert ker.value(ts).min() >= -1e-12

    def test_derivatives_match_finite_differences(self):
        ker = SquaredFejerKernel(16)
        h = 1e-5
        for t0 in (0.13, 0.37, 0.61):
            fd1 = (ker.value(t0 + h) - ker.value(t0 - h)) / (2 * h)
            assert ker.d1(t0) == pytest.approx(fd1, rel=1e-6, abs=1e-8)
            fd2 = (ker.d1(t0 + h) - ker.d1(t0 - h)) / (2 * h)
            assert ker.d2(t0) == pytest.approx(fd2, rel=1e-6, abs=1e-6)

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            SquaredFejerKernel(63)


class TestBuildCertificate:
    def test_anchor_value_single_point(self):
        cert = build_certificate([0.0], 128, SIGN_INTERPOLANT, anchor=0)
        assert cert.poly(0.0) == pytest.approx(1.0, abs=1e-8)

    def test_other_points_vanish(self):
        T = [-0.6, 0.1, 0.7]
        cert = build_certificate(T, 128, SIGN_INTERPOLANT, anchor=1)
        assert cert.poly(-0.6) == pytest.approx(0.0, abs=1e-8)
        assert cert.poly(0.7) == pytest.approx(0.0, abs=1e-8)

    def test_qic_interpolates_and_stays_bounded(self):
        cert = build_certificate([0.0], 128, QIC, targets=[1.0])
        assert cert.poly(0.0) == pytest.approx(1.0, abs=1e-8)
        grid = np.cos(np.linspace(0, np.pi, 10_000))
        assert np.abs(cert.poly(grid)).max() <= 1.0 + 1e-9

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            build_certificate([0.0], 127, SIGN_INTERPOLANT, anchor=0)

    def test_unseparated_support_rejected(self):
        with pytest.raises(ValueError):
            build_certificate([0.99999], 128, SIGN_INTERPOLANT, anchor=0)

    def test_qic_needs_unit_targets(self):
        with pytest.raises(ValueError):
            build_certificate([0.0], 128, QIC, targets=[0.5])


class TestVerifyCertificate:
    def test_random_supports_pass_all_properties(self):
        rng = np.random.default_rng(5)
        m = 128
        for trial in range(3):
            mu = random_separated_measure(rng, int(rng.integers(2, 5)), m)
            T = mu.support
            for j in range(T.size):
                cert = build_certificate(T, m, SIGN_INTERPOLANT, anchor=j)
                rep = verify_certificate(cert, T, m, 10 * m)
                assert rep.interpolation_residual <= 1e-8
                assert rep.worst_margin >= -1e-9
            signs = rng.choice([-1.0, 1.0], T.size)
            cert = build_certificate(T, m, QIC, targets=signs)
            rep = verify_certificate(cert, T, m, 10 * m)
            assert rep.interpolation_residual <= 1e-8
            assert rep.worst_margin >= -1e-9

    def test_evenness_and_extraction(self):
        cert = build_certificate([-0.6, 0.1, 0.7], 128, SIGN_INTERPOLANT,
                                 anchor=0)
        assert odd_part_residual(cert) <= 1e-10
        assert extraction_residual(cert) <= 1e-10

    def test_bernstein_bound(self):
        m = 128
        cert = build_certificate([-0.6, 0.1, 0.7], m, SIGN_INTERPOLANT,
                                 anchor=2)
        assert trig_second_derivative_sup(cert) <= m * m * (1.0 + 1e-6)

    def test_qic_paper_constants(self):
        # the certified pinch implies the isolation condition with
        # constants 0.00848 and 0.00879
        rng = np.random.default_rng(9)
        m = 128
        mu = random_separated_measure(rng, 3, m)
        T = mu.support
        cert = build_certificate(T, m, QIC, targets=np.ones(T.size))
        theta = np.linspace(0.0, np.pi, 10_000)
        t = np.cos(theta)
        q = cert.poly(t)
        dmin = np.abs(theta[:, None] - np.arccos(T)[None, :]).min(axis=1)
        bound = np.minimum(0.00848 * m ** 2 * dmin ** 2, 0.00879)
        assert np.all(1.0 - np.abs(q) >= bound - 1e-9)
