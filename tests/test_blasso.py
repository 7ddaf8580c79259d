"""Tests for the regularized spike-recovery pipeline."""

import dataclasses

import numpy as np
import pytest

from chebspike import sdp
from chebspike.blasso import (BlassoError, BlassoOptions, EXCHANGE_TOL,
                              _refine_support, _stationarity_poly,
                              assemble_dual_sdp, fit_weights, solve_blasso,
                              solution_to_dict, verify_first_order)
from chebspike.chebyshev import ChebPoly, abs_sup, cheb_grid, eval_poly
from chebspike.measures import DiscreteMeasure, moments, phi_matrix
from chebspike.observation import Observation, simulate

SQRT2 = np.sqrt(2.0)


def noiseless_obs(measure, m, d=-1):
    return simulate(measure, m, d, 0.0, seed=0)


def subdiagonal_sums(X):
    return np.array([np.trace(X, offset=-k) for k in range(X.shape[0])])


def dense_rows(X0, X1, alpha, lam):
    """The dual program's equality rows written out, as residuals: for
    k = 0 .. m, block 0 reads (k-th subdiagonal sum of X0) - s_k alpha_k =
    lam [k = 0] and block 1 the same with + s_k alpha_k, s_0 = 1 and
    s_k = 1/sqrt(2) otherwise: lam -+ sum_k alpha_k phi_k as the cosine
    polynomial of a Gram matrix."""
    n = alpha.size
    s = np.where(np.arange(n) == 0, 1.0, 1.0 / SQRT2)
    rhs = np.where(np.arange(n) == 0, lam, 0.0)
    return np.concatenate([subdiagonal_sums(X0) - s * alpha - rhs,
                           subdiagonal_sums(X1) + s * alpha - rhs])


def program_rows(prob, X0, X1, alpha):
    """The same residuals from the problem's own data, A(X) + F alpha - h."""
    blk = sdp._ToeplitzBlock(alpha.size)
    return np.concatenate([blk.apply(X0), blk.apply(X1)]) + prob.F @ alpha - prob.h


class TestAssembleDualSdp:
    def test_dimensions(self):
        obs = noiseless_obs(DiscreteMeasure([0.0], [1.0]), 8)
        prob = assemble_dual_sdp(obs, 0.5)
        assert [X.shape for X in prob.start_psd] == [(9, 9), (9, 9)]
        assert prob.start_free.shape == prob.y.shape == (9,)
        assert prob.start_nu.shape == prob.h.shape == (18,)
        assert prob.F.shape == (18, 9) and prob.Q.shape == (9, 9)

    def test_rows_match_dense_statement(self):
        rng = np.random.default_rng(4)
        for m, d in [(0, -1), (1, 0), (6, 2), (17, -1)]:
            n = m + 1
            obs = Observation(rng.standard_normal(n), d, m, 0.0)
            prob = assemble_dual_sdp(obs, 0.7)
            X0, X1 = (S + S.T for S in rng.standard_normal((2, n, n)))
            alpha = rng.standard_normal(n)
            np.testing.assert_allclose(program_rows(prob, X0, X1, alpha),
                                       dense_rows(X0, X1, alpha, 0.7), atol=1e-13)
            # the objective <alpha, y> + half the squared noisy-order tail
            assert 0.5 * alpha @ prob.Q @ alpha + prob.y @ alpha == pytest.approx(
                alpha @ obs.y + 0.5 * alpha[d + 1:] @ alpha[d + 1:], abs=1e-13)

    def test_identity_gram_is_feasible_at_zero(self):
        # alpha = 0 with X_b = (lam/(m+1)) I satisfies every constraint row,
        # and it is the start
        m, lam = 8, 0.7
        obs = Observation(np.zeros(m + 1), -1, m, 0.0)
        prob = assemble_dual_sdp(obs, lam)
        G = lam / (m + 1) * np.eye(m + 1)
        for X in prob.start_psd:
            np.testing.assert_array_equal(X, G)
        np.testing.assert_array_equal(prob.start_free, 0.0)
        np.testing.assert_allclose(dense_rows(G, G, prob.start_free, lam), 0.0,
                                   atol=1e-14)
        np.testing.assert_allclose(program_rows(prob, G, G, prob.start_free), 0.0,
                                   atol=1e-14)

    def test_quadratic_skips_exact_orders(self):
        obs = Observation(np.zeros(7), 2, 6, 0.0)
        prob = assemble_dual_sdp(obs, 1.0)
        np.testing.assert_array_equal(prob.Q, np.diag([0, 0, 0, 1, 1, 1, 1]))

    def test_rejects_nonpositive_lam(self):
        obs = Observation(np.zeros(7), -1, 6, 0.0)
        with pytest.raises(ValueError):
            assemble_dual_sdp(obs, 0.0)

    def test_constant_polynomial_is_boundary_feasible(self):
        # alpha = lam * e_0 has sup norm exactly lam; the Gram pair
        # X_0 = (2 lam / (m+1)) I, X_1 = 0 certifies it
        m, lam = 6, 0.9
        obs = Observation(np.zeros(m + 1), -1, m, 0.0)
        prob = assemble_dual_sdp(obs, lam)
        alpha = np.zeros(m + 1)
        alpha[0] = lam
        X0, X1 = 2 * lam / (m + 1) * np.eye(m + 1), np.zeros((m + 1, m + 1))
        np.testing.assert_allclose(dense_rows(X0, X1, alpha, lam), 0.0, atol=1e-12)
        np.testing.assert_allclose(program_rows(prob, X0, X1, alpha), 0.0,
                                   atol=1e-12)


class TestSolveBlasso:
    def test_zero_observation_gives_empty(self):
        obs = Observation(np.zeros(9), -1, 8, 0.0)
        sol = solve_blasso(obs, 0.5)
        assert sol.measure.is_empty
        assert sol.kkt_residuals["tv_identity_gap"] == 0.0

    def test_solver_options_that_cannot_mean_what_they_say(self):
        obs = noiseless_obs(DiscreteMeasure([0.0], [2.0]), 16)
        for tol in (np.inf, np.nan, 0.0):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                solve_blasso(obs, 0.3, BlassoOptions(sdp_tol=tol))
        for max_iter in (0, -3):
            with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
                solve_blasso(obs, 0.3, BlassoOptions(sdp_max_iter=max_iter))

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

    @pytest.mark.parametrize("m", [8, 16, 32])
    @pytest.mark.parametrize("d", [-1, 0, 2])
    def test_constant_dual_path_is_optimal(self, d, m):
        # y = c*e0: the dual polynomial is the constant -lam, and every
        # positive measure with the optimal moments c* is a minimizer
        lam = 0.5
        y = np.zeros(m + 1)
        y[0] = 2.0
        obs = Observation(y, d, m, 0.0)
        sol = solve_blasso(obs, lam)
        assert sol.degenerate
        kkt = sol.kkt_residuals
        assert sol.duality_gap_rel <= 1e-6
        assert kkt["tv_identity_gap"] <= 1e-6 * lam
        assert kkt["feasibility_gap"] <= 1e-6 * lam
        assert kkt["equality_gap"] <= 1e-7
        c_star = obs.y.copy()
        c_star[d + 1:] += sol.dual.alpha[d + 1:]
        np.testing.assert_allclose(moments(sol.measure, m), c_star,
                                   atol=1e-9, rtol=0)
        assert 1 <= len(sol.measure) <= m + 1
        assert np.all(sol.measure.weights > 0)

    @pytest.mark.parametrize("m, d", [(8, -1), (16, 0), (32, 2)])
    def test_constant_dual_path_keeps_interior_support(self, m, d):
        y = np.zeros(m + 1)
        y[0] = 2.0
        obs = Observation(y, d, m, 0.0)
        sol = solve_blasso(obs, 0.5, BlassoOptions(interior_support=True))
        assert sol.degenerate
        assert np.abs(sol.measure.support).max() <= np.cos(0.5 / m)
        c_star = obs.y.copy()
        c_star[d + 1:] += sol.dual.alpha[d + 1:]
        np.testing.assert_allclose(moments(sol.measure, m), c_star,
                                   atol=1e-9, rtol=0)

    def test_keeps_the_sdp_iteration_log(self):
        x = DiscreteMeasure([-0.5, 0.3], [-0.8, 1.5])
        sol = solve_blasso(noiseless_obs(x, 32), 1e-6)
        assert len(sol.sdp_log) == sol.sdp_iterations
        assert [row["iter"] for row in sol.sdp_log] == list(range(sol.sdp_iterations))
        last = sol.sdp_log[-1]
        assert max(last["rp"], last["rd"], last["rc"], abs(last["gap"])) == sol.sdp_gap
        # the log is not part of the byte-reproducible artifact
        assert "sdp_log" not in solution_to_dict(sol)

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

    def test_near_miss_is_a_failure(self):
        # sdp.solve is deterministic: cut its iterations so that the
        # returned iterate's measure lands in (tol, 10 tol].  Only a solved
        # dual is accepted, however close the miss.
        x = DiscreteMeasure([-0.5, 0.3], [-0.8, 1.5])
        obs, lam, tol = noiseless_obs(x, 32), 1e-4, 1e-9
        log = sdp.solve(assemble_dual_sdp(obs, lam), tol=1e-13,
                        max_iter=200).iteration_log
        worst = np.array([max(r["rp"], r["rd"], r["rc"], abs(r["gap"]))
                          for r in log])
        k = int(np.argmax(worst <= 10.0 * tol))
        assert k >= 1 and tol < worst[k]
        # max_iter = k takes k steps and returns the k-th iterate, log row k
        ssol = sdp.solve(assemble_dual_sdp(obs, lam), tol=tol, max_iter=k)
        assert ssol.status == sdp.SdpStatus.MAX_ITER and ssol.gap == worst[k]
        with pytest.raises(BlassoError, match="dual conic solve failed"):
            solve_blasso(obs, lam, BlassoOptions(sdp_tol=tol, sdp_max_iter=k))
        # one more step solves it
        sol = solve_blasso(obs, lam, BlassoOptions(sdp_tol=tol,
                                                   sdp_max_iter=k + 1))
        assert sol.sdp_gap <= tol


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

    def test_sign_drops_come_before_floor_drops(self):
        # the first solve puts the atom at -0.06 against its sign and the
        # one at 0.0 under the floor; with -0.06 gone the latter refits
        # above the floor, so a pass that dropped both at once would lose it
        x = DiscreteMeasure([-0.5, 0.0, 0.4], [-1.0, 0.151, 1.2])
        obs = noiseless_obs(x, 12)
        t = np.array([-0.5, -0.06, 0.0, 0.4])
        s = np.array([-1.0, -1.0, 1.0, 1.0])
        P = phi_matrix(t, 12)
        a0 = np.linalg.solve(P.T @ P, P.T @ obs.y - 1e-3 * s)
        assert s[1] * a0[1] < 0.0
        assert 0.0 < a0[2] < 0.15
        w, _, keep = fit_weights(t, obs, 1e-3, s, floor=0.15)
        np.testing.assert_array_equal(t[keep], [-0.5, 0.0, 0.4])
        assert w[2] >= 0.15

    def test_floor_equals_refitting_above_it(self):
        # the one loop makes the same fits, in the same order, as refitting
        # the sign-consistent fit without its atoms under the floor until
        # none is, so every weight and multiplier is the same bit for bit
        def refit_above(t, obs, lam, s, floor):
            idx = np.arange(t.size)
            while True:
                a, mult, keep = fit_weights(t[idx], obs, lam, s[idx])
                idx, a = idx[keep], a[keep]
                big = np.abs(a) >= floor
                if big.all() or not big.any():
                    return idx[big], a[big], mult
                idx = idx[big]

        rng = np.random.default_rng(5)
        for _ in range(60):
            m, d = int(rng.integers(8, 17)), int(rng.integers(-1, 2))
            x = DiscreteMeasure(np.sort(rng.uniform(-0.9, 0.9, 3)),
                                rng.uniform(0.05, 1.5, 3) * rng.choice([-1, 1], 3))
            obs = simulate(x, m, d, 1e-3, seed=int(rng.integers(1000)))
            t = np.sort(rng.uniform(-0.95, 0.95, int(rng.integers(3, 7))))
            s = rng.choice([-1.0, 1.0], t.size)
            lam, floor = 10.0 ** rng.uniform(-4, -2), rng.uniform(0.0, 0.5)
            idx, a, mult = refit_above(t, obs, lam, s, floor)
            w, nu, keep = fit_weights(t, obs, lam, s, floor)
            np.testing.assert_array_equal(np.nonzero(keep)[0], idx)
            np.testing.assert_array_equal(w[keep], a)
            if idx.size:
                np.testing.assert_array_equal(nu, mult)

    def test_one_phi_build_per_pass(self, monkeypatch):
        # each pass builds Phi once and hands it to both of its
        # `_lagrangian_newton` calls; the results are bit for bit those of
        # the path where each call builds its own
        from chebspike import blasso
        real_newton, real_phi = blasso._lagrangian_newton, blasso.phi_matrix
        builds, calls = [], []

        def counting_phi(t, m):
            builds.append(None)
            return real_phi(t, m)

        def counting_newton(*args, **kw):
            calls.append(None)
            return real_newton(*args, **kw)

        def own_phi(*args, Phi=None, **kw):
            return real_newton(*args, **kw)

        rng = np.random.default_rng(7)
        for _ in range(30):
            m, d = int(rng.integers(8, 17)), int(rng.integers(-1, 2))
            x = DiscreteMeasure(np.sort(rng.uniform(-0.9, 0.9, 3)),
                                rng.uniform(0.05, 1.5, 3) * rng.choice([-1, 1], 3))
            obs = simulate(x, m, d, 1e-3, seed=int(rng.integers(1000)))
            t = np.sort(rng.uniform(-0.95, 0.95, int(rng.integers(3, 7))))
            s = rng.choice([-1.0, 1.0], t.size)
            lam, floor = 10.0 ** rng.uniform(-4, -2), rng.uniform(0.0, 0.5)
            builds.clear()
            calls.clear()
            with monkeypatch.context() as mp:
                mp.setattr(blasso, "phi_matrix", counting_phi)
                mp.setattr(blasso, "_lagrangian_newton", counting_newton)
                w, nu, keep = fit_weights(t, obs, lam, s, floor)
                assert 2 * len(builds) == len(calls) >= 2
                mp.setattr(blasso, "_lagrangian_newton", own_phi)
                want = fit_weights(t, obs, lam, s, floor)
            np.testing.assert_array_equal(keep, want[2])
            np.testing.assert_array_equal(w, want[0])
            np.testing.assert_array_equal(nu, want[1])


class TestRefineSupport:
    @pytest.mark.parametrize("d, lam", [(-1, 0.0), (-1, 1e-3), (0, 1e-3), (4, 1e-3)])
    def test_converges_from_offset_positions(self, d, lam):
        # noiseless data: at lam = 0, and with more exact orders than the two
        # atoms have unknowns (d = 4), the optimum is the true measure
        x = DiscreteMeasure([-0.5, 0.3], [-0.8, 1.5])
        obs = noiseless_obs(x, 32, d)
        signs = np.sign(x.weights)
        ref, _ = _refine_support(x.support, obs, lam, signs, 1e-8)
        if lam == 0.0 or d + 1 > 2 * len(x):
            np.testing.assert_allclose(ref, x.support, atol=1e-10, rtol=0)
        for off in ([1e-3, 1e-3], [-1e-3, 1e-3]):
            t, a = _refine_support(x.support + off, obs, lam, signs, 1e-8)
            np.testing.assert_allclose(t, ref, atol=1e-10, rtol=0)
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
        t, a = _refine_support(x.support, obs, 1e-6, signs, 1e-3)
        assert t.size == 2 and np.all(np.abs(a) >= 1e-3)
        np.testing.assert_allclose(t, x.support[[0, 2]], atol=1e-2)
        np.testing.assert_array_equal(a, fit_weights(t, obs, 1e-6, signs[[0, 2]])[0])

    @pytest.mark.parametrize("d", [-1, 2])
    def test_all_pruned_gives_empty(self, d):
        x = DiscreteMeasure([-0.5, 0.3], [-0.8, 1.5])
        obs = noiseless_obs(x, 32, d)
        signs = np.sign(x.weights)
        # a floor above every fitted weight
        t, a = _refine_support(x.support, obs, 1e-6, signs, 10.0)
        assert t.size == 0 and a.size == 0
        # signs the sign-consistent fit rejects entirely
        if d < 0:
            t, a = _refine_support(x.support, obs, 1e-6, -signs, 1e-8)
            assert t.size == 0 and a.size == 0

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


def exchange_case(seed):
    """A noisy 3-spike observation at m = 24 with exact orders 0..2, solved
    at lam 0.05 in interior mode.  At seed 26 the exchange inserts atoms,
    and without it the measure's duality gap was 3.9e-5."""
    rng = np.random.default_rng(seed)
    x = DiscreteMeasure(np.sort(rng.uniform(-0.9, 0.9, 3)),
                        rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3))
    return simulate(x, 24, 2, 1e-2, seed=seed), 0.05


class TestExchange:
    def test_inserted_atoms_close_the_gap(self):
        obs, lam = exchange_case(26)
        sol = solve_blasso(obs, lam, BlassoOptions(interior_support=True))
        assert sol.exchange_rounds >= 1
        assert sol.duality_gap_rel <= 1e-6
        cap = np.cos(0.5 / 24)
        assert sol.cap == cap
        assert np.abs(sol.measure.support).max() <= cap
        out = solution_to_dict(sol)
        assert out["exchange_rounds"] == sol.exchange_rounds
        assert out["certificate_gap_rel"] == sol.certificate_gap_rel

    def test_no_round_when_the_measure_is_feasible(self):
        x = DiscreteMeasure([-0.5, 0.3], [-0.8, 1.5])
        sol = solve_blasso(noiseless_obs(x, 32), 1e-6)
        assert sol.exchange_rounds == 0
        assert sol.kkt_residuals["feasibility_gap"] <= EXCHANGE_TOL * 1e-6

    def test_round_that_raises_the_objective_is_undone(self, monkeypatch):
        # every refinement after the first keeps only the inserted atom,
        # with a tenth of its fitted weight: the primal objective rises, so
        # the exchange returns the measure of the first refinement
        from chebspike import blasso
        obs, lam = exchange_case(26)
        opts = BlassoOptions(interior_support=True)
        first = []

        def worse(support, *args):
            t, a = _refine_support(support, *args)
            if first:
                return support[-1:], 0.1 * a[-1:] if a.size else np.ones(1)
            first.append((t, a))
            return t, a

        monkeypatch.setattr(blasso, "_refine_support", worse)
        sol = solve_blasso(obs, lam, opts)
        assert len(first) == 1
        assert sol.exchange_rounds == 0
        want = DiscreteMeasure(*first[0])
        np.testing.assert_array_equal(sol.measure.support, want.support)
        np.testing.assert_array_equal(sol.measure.weights, want.weights)

    def test_rounds_stop_at_the_cap(self, monkeypatch):
        from chebspike import blasso
        monkeypatch.setattr(blasso, "EXCHANGE_ROUNDS", 1)
        obs, lam = exchange_case(26)
        sol = solve_blasso(obs, lam, BlassoOptions(interior_support=True))
        assert sol.exchange_rounds == 1


class TestCertificate:
    @pytest.mark.parametrize("interior", [False, True])
    def test_scaled_subgradient_is_dual_feasible(self, interior):
        obs, lam = exchange_case(20)
        sol = solve_blasso(obs, lam, BlassoOptions(interior_support=interior))
        p = _stationarity_poly(sol.measure, obs, sol.multipliers)
        sup, _ = abs_sup(p, sol.cap)
        # verify_first_order takes its sup on [-cap, cap] from abs_sup
        assert sol.kkt_residuals["feasibility_gap"] == max(0.0, sup - lam)
        cert = -p.coeffs * lam / max(lam, sup)
        assert abs_sup(ChebPoly(cert), sol.cap)[0] <= lam * (1.0 + 1e-14)
        pobj, d = sol.primal_objective(), obs.d
        gap = abs(pobj + cert @ obs.y + 0.5 * cert[d + 1:] @ cert[d + 1:])
        assert sol.certificate_gap_rel == pytest.approx(gap / (1.0 + abs(pobj)),
                                                        rel=1e-6, abs=1e-15)
        ipm = abs(pobj + sol.dual.objective) / (1.0 + abs(pobj))
        assert sol.duality_gap_rel == min(sol.certificate_gap_rel, ipm)

    def test_a_wrong_measure_fails_both_gaps(self):
        # doubling a weight leaves the IPM dual as it was and moves the
        # measure far from optimal, which the certificate cannot hide
        x = DiscreteMeasure([-0.5, 0.3], [-0.8, 1.5])
        lam = 1e-4
        sol = solve_blasso(noiseless_obs(x, 32), lam)
        bad = dataclasses.replace(sol, measure=DiscreteMeasure(
            sol.measure.support, sol.measure.weights * np.array([1.0, 2.0])))
        p = _stationarity_poly(bad.measure, bad.observation, bad.multipliers)
        sup, _ = abs_sup(p, bad.cap)
        cert = -p.coeffs * lam / max(lam, sup)
        pobj = bad.primal_objective()
        assert abs(pobj + cert @ bad.observation.y
                   + 0.5 * cert @ cert) / (1.0 + abs(pobj)) > 1e-3
        assert abs(pobj + sol.dual.objective) / (1.0 + abs(pobj)) > 1e-3
