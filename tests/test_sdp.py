"""Tests for the dense conic interior-point solver."""

import numpy as np
import pytest

from chebspike import sdp


def scalar_quadratic():
    return sdp.SdpProblem(psd_block_dims=(), free_dim=1, rhs=np.zeros(0),
                          block_entries=[], quad=np.array([[2.0]]))


def pinned_psd_scalar():
    ent = (np.array([0]), np.array([0]), np.array([0]), np.array([1.0]))
    return sdp.SdpProblem(psd_block_dims=(1,), free_dim=0,
                          rhs=np.array([3.0]), block_entries=[ent])


def trig_cone_problem(r1):
    """2x2 Gram block with diagonal sum 1 and subdiagonal sum r1; feasible
    exactly when the cosine polynomial 1 + 2 r1 cos is nonnegative."""
    rows = np.array([0, 0, 1])
    ii = np.array([0, 1, 1])
    jj = np.array([0, 1, 0])
    vals = np.array([1.0, 1.0, 1.0])
    return sdp.SdpProblem(psd_block_dims=(2,), free_dim=0,
                          rhs=np.array([1.0, r1]),
                          block_entries=[(rows, ii, jj, vals)])


class TestBasicSolves:
    def test_free_quadratic_minimum(self):
        sol = sdp.solve(scalar_quadratic())
        assert sol.status == sdp.SdpStatus.SOLVED
        assert sol.free_vector[0] == pytest.approx(0.0, abs=1e-12)
        assert sol.objective_value == pytest.approx(0.0, abs=1e-12)

    def test_pinned_psd_scalar(self):
        sol = sdp.solve(pinned_psd_scalar())
        assert sol.status == sdp.SdpStatus.SOLVED
        assert sol.psd_blocks[0][0, 0] == pytest.approx(3.0, abs=1e-7)

    def test_feasible_trig_cone(self):
        sol = sdp.solve(trig_cone_problem(0.4))
        assert sol.status == sdp.SdpStatus.SOLVED
        X = sol.psd_blocks[0]
        assert np.trace(X) == pytest.approx(1.0, abs=1e-7)
        assert X[1, 0] + X[0, 1] == pytest.approx(2 * 0.4, abs=1e-7)

    def test_infeasible_trig_cone(self):
        sol = sdp.solve(trig_cone_problem(0.6), max_iter=80)
        assert sol.status == sdp.SdpStatus.INFEASIBLE


class TestSolutionInvariants:
    def test_psd_floor_and_residual(self):
        sol = sdp.solve(trig_cone_problem(0.45), tol=1e-9)
        for X in sol.psd_blocks:
            w = np.linalg.eigvalsh(X)
            assert w.min() >= -1e-8 * (1.0 + np.trace(X))
        # equality residual
        X = sol.psd_blocks[0]
        res = np.array([np.trace(X) - 1.0, X[1, 0] + X[0, 1] - 2 * 0.45])
        assert np.abs(res).max() <= 1e-9 * (1.0 + 1.0) * 10

    def test_deterministic(self):
        a = sdp.solve(trig_cone_problem(0.3))
        b = sdp.solve(trig_cone_problem(0.3))
        np.testing.assert_array_equal(a.free_vector, b.free_vector)
        np.testing.assert_array_equal(a.psd_blocks[0], b.psd_blocks[0])
        assert a.iterations == b.iterations

    def test_merit_decreases_with_safeguard(self):
        sol = sdp.solve(trig_cone_problem(0.45), tol=1e-9)
        merits = [row["gap"] + row["rp"] + row["rd"] for row in sol.iteration_log]
        assert merits[-1] <= 1e-6 * merits[0]
        for prev, cur in zip(merits, merits[1:]):
            assert cur <= 10.0 * prev + 1e-15


class TestValidation:
    def test_empty_constraint_row_rejected(self):
        ent = (np.array([0]), np.array([0]), np.array([0]), np.array([1.0]))
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(psd_block_dims=(1,), free_dim=0,
                           rhs=np.array([1.0, 2.0]), block_entries=[ent])

    def test_shape_checks(self):
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(psd_block_dims=(2,), free_dim=1,
                           rhs=np.array([1.0]),
                           block_entries=[(np.array([0]), np.array([5]),
                                           np.array([0]), np.array([1.0]))])

    def test_quadratic_objective_with_constraint(self):
        # minimize x^2 with PSD scalar X and constraint X + x = 2
        ent = (np.array([0]), np.array([0]), np.array([0]), np.array([1.0]))
        prob = sdp.SdpProblem(psd_block_dims=(1,), free_dim=1,
                              rhs=np.array([2.0]), block_entries=[ent],
                              free_coeffs=np.array([[1.0]]),
                              quad=np.array([[2.0]]))
        sol = sdp.solve(prob)
        assert sol.status == sdp.SdpStatus.SOLVED
        # optimum is x = 0, X = 2
        assert sol.free_vector[0] == pytest.approx(0.0, abs=1e-6)
        assert sol.psd_blocks[0][0, 0] == pytest.approx(2.0, abs=1e-6)


class TestAgainstExternalSolver:
    def test_recovery_dual_matches_external_solution(self):
        cvxpy = pytest.importorskip("cvxpy")
        from chebspike.blasso import assemble_dual_sdp
        from chebspike.measures import DiscreteMeasure
        from chebspike.observation import simulate

        x = DiscreteMeasure([-0.4, 0.5], [1.0, -0.7])
        obs = simulate(x, 10, -1, 0.02, seed=2)
        lam = 0.05
        mine = sdp.solve(assemble_dual_sdp(obs, lam), tol=1e-10)
        assert mine.status == sdp.SdpStatus.SOLVED

        n = 11
        alpha = cvxpy.Variable(n)
        q1 = cvxpy.Variable((n, n), symmetric=True)
        q2 = cvxpy.Variable((n, n), symmetric=True)
        cons = [q1 >> 0, q2 >> 0]
        scale = np.ones(n)
        scale[1:] = 1.0 / np.sqrt(2.0)
        for k in range(n):
            s1 = cvxpy.sum(cvxpy.diag(q1, -k)) if k else cvxpy.trace(q1)
            s2 = cvxpy.sum(cvxpy.diag(q2, -k)) if k else cvxpy.trace(q2)
            rhs = lam if k == 0 else 0.0
            cons += [s1 - scale[k] * alpha[k] == rhs,
                     s2 + scale[k] * alpha[k] == rhs]
        obj = cvxpy.Minimize(obs.y @ alpha + 0.5 * cvxpy.sum_squares(alpha))
        ext = cvxpy.Problem(obj, cons)
        ext.solve(solver="CLARABEL")
        assert mine.objective_value == pytest.approx(ext.value, abs=1e-7)
        # coefficient agreement is limited by the external solver's default
        # tolerance, not ours
        np.testing.assert_allclose(mine.free_vector, alpha.value, atol=2e-5)


class TestProblemDump:
    def test_text_dump_lists_structure(self):
        ent = (np.array([0]), np.array([0]), np.array([0]), np.array([1.0]))
        prob = sdp.SdpProblem(psd_block_dims=(1,), free_dim=1,
                              rhs=np.array([2.0]), block_entries=[ent],
                              free_coeffs=np.array([[1.0]]),
                              quad=np.array([[2.0]]))
        text = sdp.problem_to_text(prob)
        assert "psd_block_dims [1]" in text
        assert "free_dim 1" in text
        assert "block0 0 0 0 1.0" in text
        assert "free 0 0 1.0" in text


def toeplitz_trig_cone_problem(r1):
    """trig_cone_problem(r1) with its block declared in Toeplitz form."""
    return sdp.SdpProblem(psd_block_dims=(2,), free_dim=0,
                          rhs=np.array([1.0, r1]),
                          block_entries=[sdp.ToeplitzEntries([0, 1], [1.0, 1.0])])


def psd_matrix(rng, n, eigenvalues):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    W = (Q * eigenvalues) @ Q.T
    return 0.5 * (W + W.T)


def max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestToeplitzAgainstSparse:
    """The FFT Toeplitz operator against the sparse block built from the
    same constraint triplets."""

    @pytest.mark.parametrize("n", [2, 3, 33, 129])
    @pytest.mark.parametrize("conditioning", ["random", "ill"])
    def test_operators_agree(self, n, conditioning):
        rng = np.random.default_rng(n)
        p = 2 * n + 1
        ent = sdp.ToeplitzEntries(rng.permutation(p)[:n],
                                  rng.uniform(0.2, 5.0, n))
        fast = sdp._ToeplitzBlock(n, ent.rows, ent.coeffs, p)
        ref = sdp._Block(n, *ent, p)
        eig = (rng.uniform(0.1, 3.0, n) if conditioning == "random"
               else np.logspace(-10, 4, n))
        W = psd_matrix(rng, n, eig)
        assert max_rel(fast.apply(W), ref.apply(W)) <= 1e-13
        nu = rng.standard_normal(p)
        assert max_rel(fast.adjoint(nu), ref.adjoint(nu)) <= 1e-13
        H = []
        for blk in (fast, ref):
            act, Hb = blk.schur(W)
            full = np.zeros((p, p))
            full[np.ix_(act, act)] = Hb
            H.append(full)
        assert max_rel(H[0], H[1]) <= 1e-13

    def test_dual_solve_matches_triplet_twin(self):
        from chebspike.blasso import assemble_dual_sdp
        from chebspike.measures import DiscreteMeasure
        from chebspike.observation import lambda_rice, simulate

        m, sigma = 32, 1e-3
        x = DiscreteMeasure([-0.5, 0.1, 0.6], [1.0, -1.4, 0.8])
        obs = simulate(x, m, -1, sigma, seed=3)
        prob = assemble_dual_sdp(obs, lambda_rice(sigma, m, -1, 1.0))
        assert all(isinstance(e, sdp.ToeplitzEntries) for e in prob.block_entries)
        twin = sdp.SdpProblem(psd_block_dims=prob.psd_block_dims,
                              free_dim=prob.free_dim, rhs=prob.rhs,
                              block_entries=[tuple(e) for e in prob.block_entries],
                              free_coeffs=prob.free_coeffs, quad=prob.quad,
                              lin=prob.lin)
        assert sdp.problem_to_text(prob) == sdp.problem_to_text(twin)
        a, b = sdp.solve(prob), sdp.solve(twin)
        assert a.status == b.status == sdp.SdpStatus.SOLVED
        assert a.iterations == b.iterations
        np.testing.assert_allclose(a.free_vector, b.free_vector, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("r1,status", [(0.4, sdp.SdpStatus.SOLVED),
                                           (0.6, sdp.SdpStatus.INFEASIBLE)])
    def test_trig_cone_status(self, r1, status):
        assert sdp.solve(toeplitz_trig_cone_problem(r1), max_iter=80).status == status

    def test_entries_validated(self):
        with pytest.raises(sdp.SdpError):
            sdp.ToeplitzEntries([0, 0], [1.0, 1.0])
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(psd_block_dims=(3,), free_dim=0, rhs=np.ones(2),
                           block_entries=[sdp.ToeplitzEntries([0, 1], [1.0, 1.0])])
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(psd_block_dims=(2,), free_dim=0, rhs=np.ones(2),
                           block_entries=[sdp.ToeplitzEntries([0, 2], [1.0, 1.0])])


class TestNumericalFloor:
    def test_non_finite_direction_ends_with_status(self, monkeypatch):
        # poison the KKT solve from the third iteration's predictor on, as
        # roundoff does on a diverging infeasible trajectory
        real = sdp._kkt_solve
        calls = []

        def poisoned(lu, K, rhs):
            calls.append(None)
            sol = real(lu, K, rhs)
            return sol if len(calls) < 5 else np.full_like(sol, np.nan)

        monkeypatch.setattr(sdp, "_kkt_solve", poisoned)
        sol = sdp.solve(trig_cone_problem(0.6), max_iter=80)
        assert sol.status == sdp.SdpStatus.INFEASIBLE
        assert sol.iterations == 3
        assert sol.iteration_log[-1]["stop"] == "non-finite direction"
        assert all("stop" not in row for row in sol.iteration_log[:-1])
