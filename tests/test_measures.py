"""Tests for atomic measures, moments, and separation geometry."""

import json

import numpy as np
import pytest

from chebspike.measures import (DiscreteMeasure, edge_distance,
                                hausdorff_arccos, measure_from_dict,
                                measure_to_dict, min_separation, moments,
                                separation_ok, tv_norm)

SQRT2 = np.sqrt(2.0)


class TestDiscreteMeasure:
    def test_sorts_support(self):
        mu = DiscreteMeasure([0.5, -0.5], [1.0, 2.0])
        np.testing.assert_array_equal(mu.support, [-0.5, 0.5])
        np.testing.assert_array_equal(mu.weights, [2.0, 1.0])

    def test_merges_coincident_points(self):
        mu = DiscreteMeasure([0.2, 0.2, -0.1], [1.0, 2.0, 0.5])
        np.testing.assert_array_equal(mu.support, [-0.1, 0.2])
        np.testing.assert_array_equal(mu.weights, [0.5, 3.0])

    def test_drops_cancelled_weights(self):
        mu = DiscreteMeasure([0.3, 0.3], [1.0, -1.0])
        assert mu.is_empty

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([1.5], [1.0])

    @pytest.mark.parametrize("support, weights", [([np.nan], [1.0]), ([0.2], [np.nan]),
                                                  ([0.2], [np.inf])])
    def test_rejects_non_finite(self, support, weights):
        # NaN passes the domain check and used to reach the moments
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure(support, weights)


class TestMoments:
    def test_atom_at_zero(self):
        mu = DiscreteMeasure([0.0], [1.0])
        np.testing.assert_allclose(moments(mu, 4),
                                   [1.0, 0.0, -SQRT2, 0.0, SQRT2], atol=1e-14)

    def test_atom_at_one(self):
        mu = DiscreteMeasure([1.0], [2.0])
        np.testing.assert_allclose(moments(mu, 3),
                                   [2.0, 2 * SQRT2, 2 * SQRT2, 2 * SQRT2],
                                   atol=1e-14)

    def test_empty(self):
        np.testing.assert_array_equal(moments(DiscreteMeasure.empty(), 2),
                                      np.zeros(3))

    def test_linearity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s1 = np.sort(rng.uniform(-1, 1, 3))
            s2 = np.sort(rng.uniform(-1, 1, 2))
            w1, w2 = rng.standard_normal(3), rng.standard_normal(2)
            mu = DiscreteMeasure(s1, w1)
            nu = DiscreteMeasure(s2, w2)
            both = DiscreteMeasure(np.concatenate([s1, s2]),
                                   np.concatenate([w1, w2]))
            np.testing.assert_allclose(moments(both, 12),
                                       moments(mu, 12) + moments(nu, 12),
                                       atol=1e-12)


class TestTvNorm:
    def test_two_atoms(self):
        assert tv_norm(DiscreteMeasure([0.1, 0.7], [3.0, -2.0])) == 5.0

    def test_empty(self):
        assert tv_norm(DiscreteMeasure.empty()) == 0.0

    def test_absolute_sum(self):
        mu = DiscreteMeasure([-0.5, 0.0, 0.5], [0.5, -0.25, 1.0])
        assert tv_norm(mu) == 1.75

    def test_scaling(self):
        rng = np.random.default_rng(1)
        sup = np.sort(rng.uniform(-1, 1, 4))
        w = rng.standard_normal(4)
        mu = DiscreteMeasure(sup, w)
        for c in (-2.0, 0.5, 3.0):
            assert tv_norm(DiscreteMeasure(sup, c * w)) == pytest.approx(
                abs(c) * tv_norm(mu))

    def test_subadditive_under_merged_sum(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            shared = rng.uniform(-1, 1, 2)
            s1 = np.concatenate([shared, rng.uniform(-1, 1, 2)])
            s2 = np.concatenate([shared, rng.uniform(-1, 1, 1)])
            w1 = rng.standard_normal(4)
            w2 = rng.standard_normal(3)
            total = DiscreteMeasure(np.concatenate([s1, s2]),
                                    np.concatenate([w1, w2]))
            assert tv_norm(total) <= (tv_norm(DiscreteMeasure(s1, w1))
                                      + tv_norm(DiscreteMeasure(s2, w2)) + 1e-12)


class TestSeparation:
    def test_symmetric_pair(self):
        assert min_separation([-SQRT2 / 2, SQRT2 / 2]) == pytest.approx(np.pi / 2)

    def test_singleton_is_infinite(self):
        assert min_separation([0.3]) == np.inf

    def test_endpoints_coincide_mod_reflection(self):
        assert min_separation([1.0, -1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, 5)
        base = min_separation(pts)
        for _ in range(5):
            assert min_separation(rng.permutation(pts)) == base

    def test_edge_distance_interior(self):
        assert edge_distance([0.5]) == pytest.approx(np.pi / 3)

    def test_edge_distance_of_endpoint_set(self):
        assert edge_distance([1.0]) == np.inf

    def test_edge_distance_center(self):
        assert edge_distance([0.0]) == pytest.approx(np.pi / 2)

    def test_separation_ok_single_center(self):
        assert separation_ok([0.0], 64)

    def test_separation_ok_close_pair_fails(self):
        pts = [np.cos(1.0), np.cos(1.1)]   # arccos distance 0.1 < 5*pi/64
        assert not separation_ok(pts, 64)

    def test_separation_ok_edge_fails(self):
        assert not separation_ok([0.99999], 128)


class TestHausdorff:
    def test_both_empty(self):
        assert hausdorff_arccos([], []) == 0.0

    def test_one_empty(self):
        assert hausdorff_arccos([0.3], []) == np.inf

    def test_known_pair(self):
        d = hausdorff_arccos([0.0], [SQRT2 / 2])
        assert d == pytest.approx(np.pi / 4)


class TestSerialization:
    def test_roundtrip(self):
        mu = DiscreteMeasure([-0.4, 0.6], [1.5, -2.5])
        again = measure_from_dict(json.loads(json.dumps(measure_to_dict(mu))))
        np.testing.assert_array_equal(again.support, mu.support)
        np.testing.assert_array_equal(again.weights, mu.weights)

    def test_read_validates(self):
        with pytest.raises(ValueError):
            measure_from_dict({"support": [0.1]})
        with pytest.raises(ValueError):
            measure_from_dict({"support": [3.0], "weights": [1.0]})
