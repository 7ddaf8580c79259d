"""Tests for the regularized spike-recovery pipeline."""

import dataclasses

import numpy as np
import pytest

from chebspike import sdp
from chebspike.blasso import (BlassoError, BlassoOptions, _refine_support,
                              assemble_dual_sdp, fit_weights, solve_blasso,
                              verify_first_order)
from chebspike.chebyshev import ChebPoly, cheb_grid, eval_poly
from chebspike.measures import DiscreteMeasure, moments, phi_matrix
from chebspike.observation import Observation, simulate

SQRT2 = np.sqrt(2.0)


def noiseless_obs(measure, m, d=-1):
    return simulate(measure, m, d, 0.0, seed=0)


def subdiagonal_sums(X):
    return np.array([np.trace(X, offset=-k) for k in range(X.shape[0])])


class TestAssembleDualSdp:
    def test_dimensions(self):
        obs = noiseless_obs(DiscreteMeasure([0.0], [1.0]), 8)
        prob = assemble_dual_sdp(obs, 0.5)
        assert prob.psd_block_dims == (9, 9)
        assert prob.free_dim == 9
        assert prob.n_constraints == 18

    def test_identity_gram_is_feasible_at_zero(self):
        # alpha = 0 with Q = (lam/(m+1)) I satisfies every constraint row
        m, lam = 8, 0.7
        obs = Observation(np.zeros(m + 1), -1, m, 0.0)
        prob = assemble_dual_sdp(obs, lam)
        Q = lam / (m + 1) * np.eye(m + 1)
        for b, ent in enumerate(prob.block_entries):
            lhs = np.zeros(prob.n_constraints)
            lhs[ent.rows] = ent.coeffs * subdiagonal_sums(Q)
            want = np.zeros(prob.n_constraints)
            want[0 if b == 0 else m + 1] = lam
            np.testing.assert_allclose(lhs[ent.rows], want[ent.rows], atol=1e-14)

    def test_quadratic_skips_exact_orders(self):
        obs = Observation(np.zeros(7), 2, 6, 0.0)
        prob = assemble_dual_sdp(obs, 1.0)
        np.testing.assert_array_equal(np.diag(prob.quad),
                                      [0, 0, 0, 1, 1, 1, 1])

    def test_rejects_nonpositive_lam(self):
        obs = Observation(np.zeros(7), -1, 6, 0.0)
        with pytest.raises(ValueError):
            assemble_dual_sdp(obs, 0.0)

    def test_constant_polynomial_is_boundary_feasible(self):
        # alpha = lam * e_0 has sup norm exactly lam; the Gram pair
        # Q1 = (2 lam / (m+1)) I, Q2 = 0 certifies it
        m, lam = 6, 0.9
        obs = Observation(np.zeros(m + 1), -1, m, 0.0)
        prob = assemble_dual_sdp(obs, lam)
        alpha = np.zeros(m + 1)
        alpha[0] = lam
        blocks = [2 * lam / (m + 1) * np.eye(m + 1), np.zeros((m + 1, m + 1))]
        lhs = prob.free_coeffs @ alpha
        for blk, ent in zip(blocks, prob.block_entries):
            lhs[ent.rows] += ent.coeffs * subdiagonal_sums(blk)
        np.testing.assert_allclose(lhs, prob.rhs, atol=1e-12)


class TestSolveBlasso:
    def test_zero_observation_gives_empty(self):
        obs = Observation(np.zeros(9), -1, 8, 0.0)
        sol = solve_blasso(obs, 0.5)
        assert sol.measure.is_empty
        assert sol.kkt_residuals["tv_identity_gap"] == 0.0

    def test_single_atom_exact_recovery(self):
        x = DiscreteMeasure([0.0], [2.0])
        sol = solve_blasso(noiseless_obs(x, 16), 1e-6)
        assert len(sol.measure) == 1
        assert abs(sol.measure.support[0]) <= 1e-4
        assert sol.measure.weights[0] == pytest.approx(2.0, abs=1e-4)

    def test_two_signed_atoms(self):
        x = DiscreteMeasure([-0.5, 0.3], [-0.8, 1.5])
        sol = solve_blasso(noiseless_obs(x, 32), 1e-6)
        assert len(sol.measure) == 2
        np.testing.assert_allclose(sol.measure.support, x.support, atol=1e-6)
        np.testing.assert_allclose(sol.measure.weights, x.weights, atol=1e-4)

    def test_exact_order_constraint_is_active(self):
        x = DiscreteMeasure([-0.4, 0.35], [1.0, 2.0])
        obs = simulate(x, 24, 0, 0.05, seed=3)
        sol = solve_blasso(obs, 0.2)
        got = moments(sol.measure, 24)
        assert got[0] == pytest.approx(obs.y[0], abs=1e-9)

    def test_degenerate_constant_dual(self):
        y = np.zeros(9)
        y[0] = 2.0
        sol = solve_blasso(Observation(y, -1, 8, 0.0), 0.5)
        assert sol.degenerate
        c0 = moments(sol.measure, 8)[0]
        assert c0 == pytest.approx(1.5, abs=1e-3)
        assert len(sol.measure) <= 8 + 2
        assert np.all(sol.measure.weights > 0)

    def test_dual_feasibility_invariant(self):
        x = DiscreteMeasure([-0.6, 0.2, 0.7], [1.0, -1.0, 0.5])
        lam = 1e-5
        sol = solve_blasso(noiseless_obs(x, 40), lam)
        grid = cheb_grid(4 * 40)
        sup = np.abs(eval_poly(sol.dual.dual_poly, grid)).max()
        assert sup <= lam * (1.0 + 1e-6)

    def test_support_cardinality_bound(self):
        x = DiscreteMeasure([-0.6, 0.2, 0.7], [1.0, -1.0, 0.5])
        sol = solve_blasso(noiseless_obs(x, 24), 1e-5)
        assert not sol.degenerate
        assert len(sol.measure) <= 25

    def test_strong_duality(self):
        x = DiscreteMeasure([-0.3, 0.55], [2.0, 1.0])
        sol = solve_blasso(noiseless_obs(x, 20), 1e-4)
        pobj = sol.primal_objective()
        assert abs(pobj + sol.dual.objective) <= 1e-6 * (1.0 + abs(pobj))

    def test_solver_failure_surfaces(self):
        obs = Observation(np.zeros(9), -1, 8, 0.0)
        with pytest.raises(BlassoError):
            solve_blasso(obs, 0.5, BlassoOptions(sdp_tol=1e-9, sdp_max_iter=1))

    def test_near_miss_accepts_best_iterate(self):
        # sdp.solve is deterministic and returns its best iterate: cut its
        # iterations so that the best measure lands in (tol, 10 tol]
        x = DiscreteMeasure([-0.5, 0.3], [-0.8, 1.5])
        obs, lam, tol = noiseless_obs(x, 32), 1e-4, 1e-9
        log = sdp.solve(assemble_dual_sdp(obs, lam), tol=1e-13,
                        max_iter=200).iteration_log
        best = np.minimum.accumulate(
            [max(r["rp"], r["rd"], r["rc"], abs(r["gap"])) for r in log])
        k = int(np.argmax(best <= 10.0 * tol))
        assert k >= 1 and tol < best[k]
        sol = solve_blasso(obs, lam, BlassoOptions(sdp_tol=tol, sdp_max_iter=k))
        assert sol.sdp_gap == best[k]
        assert len(sol.measure) == 2
        with pytest.raises(BlassoError, match="dual conic solve failed"):
            solve_blasso(obs, lam, BlassoOptions(sdp_tol=tol, sdp_max_iter=k - 1))


class TestEdgeCases:
    @pytest.mark.parametrize("m", [2, 3, 32])
    def test_lam_above_data_sup_gives_empty(self, m):
        x = DiscreteMeasure([-0.4, 0.5], [1.0, -0.7])
        obs = noiseless_obs(x, m)
        t = np.cos(np.linspace(0.0, np.pi, 20001))
        lam = 1.05 * np.abs(eval_poly(ChebPoly(obs.y), t)).max()
        sol = solve_blasso(obs, lam)
        assert sol.measure.is_empty
        assert all(v == 0.0 for v in sol.kkt_residuals.values())

    @pytest.mark.parametrize("m", [2, 3, 32])
    @pytest.mark.parametrize("lam", [1e-6, 0.1])
    def test_first_order_residuals_across_m(self, m, lam):
        x = DiscreteMeasure([-0.4, 0.5], [1.0, -0.7])
        sol = solve_blasso(noiseless_obs(x, m), lam)
        assert sol.kkt_residuals["tv_identity_gap"] <= 1e-6 * lam
        assert sol.kkt_residuals["feasibility_gap"] <= 1e-6 * lam


class TestFitWeights:
    def test_plain_least_squares(self):
        x = DiscreteMeasure([0.0], [2.0])
        obs = noiseless_obs(x, 12)
        w, mult, keep = fit_weights([0.0], obs, 0.0, [1.0])
        assert w[0] == pytest.approx(2.0, abs=1e-12)
        assert mult.size == 0

    def test_single_atom_shrinkage_formula(self):
        x = DiscreteMeasure([0.2], [1.5])
        obs = noiseless_obs(x, 10)
        lam = 1e-3
        w, _, _ = fit_weights([0.2], obs, lam, [1.0])
        phi = phi_matrix([0.2], 10)[:, 0]
        expected = (phi @ obs.y - lam) / (phi @ phi)
        assert w[0] == pytest.approx(expected, abs=1e-12)

    def test_exact_order_pins_weight(self):
        x = DiscreteMeasure([0.0], [1.7])
        obs = noiseless_obs(x, 8, d=0)
        w, mult, _ = fit_weights([0.0], obs, 0.3, [1.0])
        # phi_0(0) = 1, so the order-0 constraint forces the weight to y_0
        assert w[0] == pytest.approx(obs.y[0], abs=1e-12)
        assert mult.size == 1

    def test_wrong_sign_atom_dropped(self):
        x = DiscreteMeasure([0.0], [2.0])
        obs = noiseless_obs(x, 12)
        w, _, keep = fit_weights([0.0, 0.6], obs, 1e-6, [1.0, -1.0])
        assert keep[0] and not keep[1]
        assert w[1] == 0.0

    def test_empty_support_rejected(self):
        obs = noiseless_obs(DiscreteMeasure([0.0], [1.0]), 8)
        with pytest.raises(ValueError):
            fit_weights([], obs, 0.1, [])

    def test_rank_deficient_constraints_named(self):
        x = DiscreteMeasure([0.3], [1.0])
        obs = noiseless_obs(x, 8, d=1)
        with pytest.raises(BlassoError, match="rows 0..1"):
            fit_weights([0.3, 0.3], obs, 0.1, [1.0, 1.0])


class TestRefineSupport:
    @pytest.mark.parametrize("d, lam", [(-1, 0.0), (-1, 1e-3), (0, 1e-3), (4, 1e-3)])
    def test_converges_from_offset_positions(self, d, lam):
        # noiseless data: at lam = 0, and with more exact orders than the two
        # atoms have unknowns (d = 4), the optimum is the true measure
        x = DiscreteMeasure([-0.5, 0.3], [-0.8, 1.5])
        obs = noiseless_obs(x, 32, d)
        signs = np.sign(x.weights)
        ref, _, _ = _refine_support(x.support, obs, lam, signs, 1e-8)
        if lam == 0.0 or d + 1 > 2 * len(x):
            np.testing.assert_allclose(ref, x.support, atol=1e-10, rtol=0)
        for off in ([1e-3, 1e-3], [-1e-3, 1e-3]):
            t, a, nu = _refine_support(x.support + off, obs, lam, signs, 1e-8)
            np.testing.assert_allclose(t, ref, atol=1e-10, rtol=0)
            assert nu.size == d + 1
            eq = phi_matrix(t, 32)[:d + 1] @ a - obs.y[:d + 1]
            assert np.abs(eq).max(initial=0.0) <= 1e-12

    def test_prunes_below_floor_before_the_last_fit(self):
        # the middle atom fits a consistent weight of about 5e-4, under the
        # floor: it is dropped, and the returned weights are the last fit's
        x = DiscreteMeasure([-0.5, 0.0, 0.3], [-0.8, 5e-4, 1.5])
        obs = noiseless_obs(x, 32)
        signs = np.sign(x.weights)
        a0, _, keep = fit_weights(x.support, obs, 1e-6, signs)
        assert keep.all() and 0.0 < a0[1] < 1e-3
        t, a, _ = _refine_support(x.support, obs, 1e-6, signs, 1e-3)
        assert t.size == 2 and np.all(np.abs(a) >= 1e-3)
        np.testing.assert_allclose(t, x.support[[0, 2]], atol=1e-2)
        np.testing.assert_array_equal(a, fit_weights(t, obs, 1e-6, signs[[0, 2]])[0])

    @pytest.mark.parametrize("d", [-1, 2])
    def test_all_pruned_gives_empty(self, d):
        x = DiscreteMeasure([-0.5, 0.3], [-0.8, 1.5])
        obs = noiseless_obs(x, 32, d)
        signs = np.sign(x.weights)
        # a floor above every fitted weight
        t, a, nu = _refine_support(x.support, obs, 1e-6, signs, 10.0)
        assert t.size == 0 and a.size == 0
        np.testing.assert_array_equal(nu, np.zeros(d + 1))
        # signs the sign-consistent fit rejects entirely
        if d < 0:
            t, a, nu = _refine_support(x.support, obs, 1e-6, -signs, 1e-8)
            assert t.size == 0 and a.size == 0 and nu.size == 0

    def test_solve_with_floor_above_every_weight_is_empty(self):
        x = DiscreteMeasure([-0.5, 0.3], [-0.8, 1.5])
        obs = noiseless_obs(x, 32)
        sol = solve_blasso(obs, 1e-3, BlassoOptions(amplitude_floor=10.0))
        assert sol.measure.is_empty
        assert sol.kkt_residuals["tv_identity_gap"] == 0.0


class TestRandomizedRegimes:
    def test_pipeline_invariants_across_regimes(self):
        """Mixed sweep over sizes, exact orders, and noise levels: duality
        gap, optimality identities, exact-order residuals, and noiseless
        exact recovery must hold everywhere."""
        from chebspike.cli import random_separated_support
        from chebspike.measures import hausdorff_arccos, separation_ok
        from chebspike.observation import lambda_rice

        rng = np.random.default_rng(99)
        runs = 0
        trial = 0
        while runs < 25:
            trial += 1
            m = int(rng.choice([8, 12, 16, 24, 32]))
            d = int(rng.choice([-1, -1, 0, 1, 2]))
            if m <= d + 2:
                continue
            n_spikes = int(rng.integers(1, 4))
            try:
                support = random_separated_support(rng, n_spikes, max(m, 12),
                                                   margin=1.2, max_tries=3000)
            except Exception:
                continue
            amps = rng.uniform(0.3, 3.0, n_spikes) * rng.choice([-1.0, 1.0],
                                                                n_spikes)
            x = DiscreteMeasure(support, amps)
            sigma = float(rng.choice([0.0, 1e-4, 1e-2]))
            obs = simulate(x, m, d, sigma, seed=trial)
            lam = (lambda_rice(sigma, m, d, 1.0) * rng.uniform(0.5, 2.0)
                   if sigma > 0 else 10.0 ** rng.uniform(-7, -3))
            sol = solve_blasso(obs, lam)
            runs += 1
            kk = sol.kkt_residuals
            assert sol.duality_gap_rel <= 1e-6
            assert kk["tv_identity_gap"] <= 1e-6 * lam * (1 + len(sol.measure))
            if not sol.degenerate:
                assert len(sol.measure) <= m + 1
            if d >= 0 and not sol.measure.is_empty:
                assert kk["equality_gap"] <= 1e-7 * (1 + np.abs(obs.y[:d + 1]).max())
            if d == -1:
                assert kk["feasibility_gap"] <= 1e-6 * lam
            if sigma == 0.0 and separation_ok(x.support, m) and lam <= 1e-5:
                assert hausdorff_arccos(sol.measure.support, x.support) <= 1e-4


class TestVerifyFirstOrder:
    def test_exact_recovery_residuals(self):
        x = DiscreteMeasure([-0.5, 0.3], [-0.8, 1.5])
        lam = 1e-6
        sol = solve_blasso(noiseless_obs(x, 32), lam)
        res = verify_first_order(sol)
        assert res["tv_identity_gap"] <= 1e-6 * lam
        assert res["feasibility_gap"] <= 1e-6 * lam

    def test_perturbed_solution_fails(self):
        x = DiscreteMeasure([-0.5, 0.3], [-0.8, 1.5])
        lam = 1e-4
        sol = solve_blasso(noiseless_obs(x, 32), lam)
        bad_measure = DiscreteMeasure(sol.measure.support,
                                      sol.measure.weights * np.array([1.0, 2.0]))
        bad = dataclasses.replace(sol, measure=bad_measure)
        res = verify_first_order(bad)
        assert res["tv_identity_gap"] > 1e-3 * lam

    def test_empty_solution(self):
        obs = Observation(np.zeros(9), -1, 8, 0.0)
        sol = solve_blasso(obs, 0.5)
        assert verify_first_order(sol)["tv_identity_gap"] == 0.0
