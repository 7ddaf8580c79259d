"""Tests for the dense conic interior-point solver."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebspike import sdp


# for problems that are rejected before their start is checked
NO_START = {"start_psd": [], "start_free": np.zeros(0), "start_nu": np.zeros(0)}


def pinned_psd_scalar():
    return sdp.SdpProblem(free_dim=0, rhs=np.array([3.0]),
                          block_entries=[sdp.ToeplitzEntries([0], [1.0])],
                          start_psd=[np.array([[3.0]])], start_free=np.zeros(0),
                          start_nu=np.array([-1.0]))


def trig_cone_start(r1):
    """X with diagonal sum 1 and subdiagonal sum r1, positive definite for
    |r1| < 1/2, and nu = -e_0, so Z = I."""
    return {"start_psd": [np.array([[0.5, r1], [r1, 0.5]])],
            "start_free": np.zeros(0), "start_nu": np.array([-1.0, 0.0])}


def trig_cone_problem(r1, **start):
    """2x2 Gram block with diagonal sum 1 and subdiagonal sum r1; feasible
    exactly when the cosine polynomial 1 + 2 r1 cos is nonnegative, strictly
    for |r1| < 1/2, where the default start is strictly feasible."""
    return sdp.SdpProblem(free_dim=0, rhs=np.array([1.0, r1]),
                          block_entries=[sdp.ToeplitzEntries([0, 1], [1.0, 1.0])],
                          **{**trig_cone_start(r1), **start})


def quadratic_problem(**data):
    """minimize x^2 over PSD scalar X and free x with X + x = 2, from X = 3,
    x = -1 and nu = -2: r_d = nu - 2 x = 0 and Z = -nu = 2."""
    base = {"free_dim": 1, "rhs": np.array([2.0]),
            "block_entries": [sdp.ToeplitzEntries([0], [1.0])],
            "start_psd": [np.array([[3.0]])], "start_free": np.array([-1.0]),
            "start_nu": np.array([-2.0]), "free_coeffs": np.array([[1.0]]),
            "quad": np.array([[2.0]]), "lin": np.array([0.0])}
    return sdp.SdpProblem(**{**base, **data})


class TestBasicSolves:
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
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(free_dim=0, rhs=np.array([1.0, 2.0]),
                           block_entries=[sdp.ToeplitzEntries([0], [1.0])],
                           **NO_START)
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(free_dim=0, rhs=np.array([1.0, 2.0]),
                           block_entries=[sdp.ToeplitzEntries([0, 1], [1.0, 0.0])],
                           **NO_START)

    def test_shape_checks(self):
        ent = [sdp.ToeplitzEntries([0, 1], [1.0, 1.0])]
        for bad in ({"free_coeffs": np.ones((1, 1))}, {"quad": np.ones((2, 2))},
                    {"lin": np.ones(2)}):
            with pytest.raises(sdp.SdpError):
                sdp.SdpProblem(free_dim=1, rhs=np.ones(2), block_entries=ent,
                               **NO_START, **bad)
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(free_dim=0, rhs=np.ones(4), block_entries=ent, **NO_START)

    def test_block_dims_follow_entries(self):
        # X_b = I is a strictly feasible start: trace rows 3 and 2, the
        # subdiagonal rows 0
        prob = sdp.SdpProblem(free_dim=0, rhs=np.array([3.0, 0.0, 0.0, 2.0, 0.0]),
                              block_entries=[sdp.ToeplitzEntries([0, 1, 2], np.ones(3)),
                                             sdp.ToeplitzEntries([3, 4], np.ones(2))],
                              start_psd=[np.eye(3), np.eye(2)], start_free=np.zeros(0),
                              start_nu=np.array([-1.0, 0.0, 0.0, -1.0, 0.0]))
        assert prob.psd_block_dims == (3, 2)
        with pytest.raises(AttributeError):
            prob.psd_block_dims = (2, 2)

    def test_only_toeplitz_blocks_accepted(self):
        triplet = (np.array([0]), np.array([0]), np.array([0]), np.array([1.0]))
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(free_dim=0, rhs=np.ones(1), block_entries=[triplet],
                           **NO_START)
        # a problem without a PSD block is not a conic program here
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(free_dim=1, rhs=np.zeros(0), block_entries=[],
                           quad=np.array([[2.0]]), **NO_START)

    @pytest.mark.parametrize("key", ["rhs", "free_coeffs", "quad", "lin",
                                     "start_psd", "start_free", "start_nu"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, key, bad):
        value = ([np.array([[bad]])] if key == "start_psd"
                 else np.full_like(getattr(quadratic_problem(), key), bad))
        with pytest.raises(sdp.SdpError, match=f"{key} has non-finite"):
            quadratic_problem(**{key: value})

    def test_quadratic_objective_with_constraint(self):
        sol = sdp.solve(quadratic_problem())
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


def psd_matrix(rng, n, eigenvalues):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    W = (Q * eigenvalues) @ Q.T
    return 0.5 * (W + W.T)


def max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def dense_reference(ent, W, nu):
    """apply, adjoint and Schur part of a Toeplitz block from its constraint
    matrices A_k = v_k (E_k + E_-k) / 2, formed explicitly (E_d has ones
    where row - column = d)."""
    n = ent.rows.size
    A = np.array([0.5 * v * (np.eye(n, k=-k) + np.eye(n, k=k))
                  for k, v in enumerate(ent.coeffs)])
    AW = A @ W
    return (np.tensordot(A, W), np.tensordot(nu[ent.rows], A, axes=1),
            np.tensordot(AW, AW, axes=([1, 2], [2, 1])))


class TestToeplitzAgainstSparse:
    """The FFT Toeplitz operators against the sparse constraint matrices
    they stand for, formed as dense arrays."""

    @pytest.mark.parametrize("n", [2, 3, 33, 129])
    @pytest.mark.parametrize("conditioning", ["random", "ill"])
    def test_operators_agree(self, n, conditioning):
        rng = np.random.default_rng(n)
        p = 2 * n + 1
        ent = sdp.ToeplitzEntries(rng.permutation(p)[:n],
                                  rng.uniform(0.2, 5.0, n))
        fast = sdp._ToeplitzBlock(ent.rows, ent.coeffs, p)
        eig = (rng.uniform(0.1, 3.0, n) if conditioning == "random"
               else np.logspace(-10, 4, n))
        W = psd_matrix(rng, n, eig)
        nu = rng.standard_normal(p)
        apply_ref, adjoint_ref, schur_ref = dense_reference(ent, W, nu)
        assert max_rel(fast.apply(W)[ent.rows], apply_ref) <= 1e-13
        assert np.all(np.delete(fast.apply(W), ent.rows) == 0.0)
        assert max_rel(fast.adjoint(nu), adjoint_ref) <= 1e-13
        act, H = fast.schur(W)
        np.testing.assert_array_equal(act, ent.rows)
        assert max_rel(H, schur_ref) <= 1e-13

    @pytest.mark.parametrize("r1,status", [(0.4, sdp.SdpStatus.SOLVED)])
    def test_trig_cone_status(self, r1, status):
        assert sdp.solve(trig_cone_problem(r1), max_iter=80).status == status

    def test_entries_validated(self):
        with pytest.raises(sdp.SdpError):
            sdp.ToeplitzEntries([0, 0], [1.0, 1.0])
        with pytest.raises(sdp.SdpError):
            sdp.ToeplitzEntries([0, 1], [1.0])
        with pytest.raises(sdp.SdpError):
            sdp.ToeplitzEntries([], [])
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(free_dim=0, rhs=np.ones(2),
                           block_entries=[sdp.ToeplitzEntries([0, 2], [1.0, 1.0])],
                           **NO_START)


def assembled(m, d, scale):
    """The dual program of a noisy 3-spike observation scaled by `scale`,
    lam a tenth of the largest |y|: with scale 1e4, the size of the moment
    vectors of the spline runs."""
    from chebspike.blasso import assemble_dual_sdp
    from chebspike.measures import DiscreteMeasure
    from chebspike.observation import simulate

    x = DiscreteMeasure([-0.7, 0.1, 0.6], [scale, -0.6 * scale, 0.8 * scale])
    obs = simulate(x, m, d, 0.01 * scale, seed=m)
    return assemble_dual_sdp(obs, 0.1 * np.abs(obs.y).max())


ASSEMBLED = [(m, d, scale) for m in (1, 8, 32, 128) for d in (-1, 0, 2)
             for scale in (1.0, 1e4) if m > d]


class TestFeasibleStart:
    """Every assembled dual program carries a strictly feasible start, and
    the equality residual stays at roundoff from there on."""

    @pytest.mark.parametrize("m,d,scale", ASSEMBLED)
    def test_assembled_start_is_strictly_feasible(self, m, d, scale):
        prob = assembled(m, d, scale)
        nu, x = prob.start_nu, prob.start_free
        r_p = prob.rhs - prob.free_coeffs @ x
        for ent, X in zip(prob.block_entries, prob.start_psd):
            # A_b(X) and Z_b = -A_b*(nu) formed from the subdiagonals
            r_p[ent.rows] -= ent.coeffs * [np.trace(X, offset=-k)
                                           for k in range(ent.rows.size)]
            t = 0.5 * ent.coeffs * nu[ent.rows]
            t[0] *= 2.0
            for M in (X, -sla.toeplitz(t)):
                np.linalg.cholesky(M)
                np.testing.assert_array_equal(M, M[::-1, ::-1])
        r_d = prob.free_coeffs.T @ nu - prob.quad @ x - prob.lin
        assert np.abs(r_p).max() <= 1e-13 * np.abs(prob.rhs).max()
        assert np.abs(r_d).max() <= 1e-13 * np.abs(prob.lin).max()

    @pytest.mark.parametrize("m,d,scale", ASSEMBLED)
    def test_equality_residual_stays_at_roundoff(self, m, d, scale):
        sol = sdp.solve(assembled(m, d, scale), tol=1e-9, max_iter=200)
        assert sol.status == sdp.SdpStatus.SOLVED
        assert max(row["rp"] for row in sol.iteration_log) <= 1e-10

    def test_log_records_each_step(self):
        log = sdp.solve(assembled(32, 0, 1e4), tol=1e-9).iteration_log
        for row in log[:-1]:
            assert 0.0 < row["ap"] <= 1.0 and 0.0 < row["ad"] <= 1.0
            assert row["halvings"] in range(4)
        # no step is taken from the last iterate
        assert (log[-1]["ap"], log[-1]["ad"], log[-1]["halvings"]) == (0.0, 0.0, 0)

    @pytest.mark.parametrize("start", [
        # r_p = 0.1 on the trace row
        trig_cone_start(0.3) | {"start_psd": [np.array([[0.55, 0.3], [0.3, 0.55]])]},
        # X has eigenvalue 0.5 - 0.6 < 0 with r_p = 0: r1 = 0.6 is infeasible
        trig_cone_start(0.6),
        # Z = -A*(nu) = -I
        trig_cone_start(0.3) | {"start_nu": np.array([1.0, 0.0])},
        # Z singular
        trig_cone_start(0.3) | {"start_nu": np.array([-1.0, 2.0])},
        # shape
        trig_cone_start(0.3) | {"start_nu": np.array([-1.0])},
    ])
    def test_bad_start_rejected(self, start):
        r1 = start["start_psd"][0][0, 1]
        with pytest.raises(sdp.SdpError):
            trig_cone_problem(r1, **start)

    def test_start_must_be_centrosymmetric(self):
        ent = [sdp.ToeplitzEntries([0, 1, 2], np.ones(3))]
        start = {"start_free": np.zeros(0), "start_nu": np.array([-1.0, 0.0, 0.0])}
        sdp.SdpProblem(free_dim=0, rhs=np.array([1.0, 0.0, 0.0]), block_entries=ent,
                       start_psd=[np.eye(3) / 3], **start)
        with pytest.raises(sdp.SdpError, match="centrosymmetric"):
            sdp.SdpProblem(free_dim=0, rhs=np.array([1.0, 0.0, 0.0]),
                           block_entries=ent, start_psd=[np.diag([0.2, 0.3, 0.5])],
                           **start)

    def test_dual_residual_checked(self):
        # minimize x^2 s.t. X + x = 2: X = 3, x = -1 needs nu = 2 x = -2
        def prob(nu):
            return sdp.SdpProblem(free_dim=1, rhs=np.array([2.0]),
                                  block_entries=[sdp.ToeplitzEntries([0], [1.0])],
                                  start_psd=[np.array([[3.0]])],
                                  start_free=np.array([-1.0]), start_nu=np.array([nu]),
                                  free_coeffs=np.array([[1.0]]), quad=np.array([[2.0]]))
        prob(-2.0)
        with pytest.raises(sdp.SdpError, match="r_d"):
            prob(-1.0)


class TestNumericalFloor:
    def test_non_finite_direction_ends_with_status(self, monkeypatch):
        # poison the KKT solve from the third iteration's predictor on, as
        # roundoff does on a diverging trajectory
        real = sdp._kkt_solve
        calls = []

        def poisoned(lu, K, rhs):
            calls.append(None)
            sol = real(lu, K, rhs)
            return sol if len(calls) < 5 else np.full_like(sol, np.nan)

        monkeypatch.setattr(sdp, "_kkt_solve", poisoned)
        sol = sdp.solve(trig_cone_problem(0.45), tol=1e-9)
        assert sol.iterations == 3
        assert sol.iteration_log[-1]["stop"] == "non-finite direction"
        assert all("stop" not in row for row in sol.iteration_log[:-1])
        # the best iterate is the last one: feasible, its gap above tol
        assert sol.status == sdp.SdpStatus.MAX_ITER
        assert sol.gap == sol.iteration_log[-1]["gap"] > 1e-9

    def test_non_finite_schur_complement_ends_with_status(self, monkeypatch):
        # poison the Schur complement from the fifth iteration on, as
        # overflow does on a diverging trajectory
        real = sdp._ToeplitzBlock.schur
        calls = []

        def poisoned(self, W):
            calls.append(None)
            act, H = real(self, W)
            return act, (H if len(calls) < 5 else np.full_like(H, np.inf))

        monkeypatch.setattr(sdp._ToeplitzBlock, "schur", poisoned)
        sol = sdp.solve(trig_cone_problem(0.45), tol=1e-9)
        assert sol.iterations == 5
        assert sol.iteration_log[-1]["stop"] == "non-finite Schur complement"
        assert all("stop" not in row for row in sol.iteration_log[:-1])
        # the best iterate is the last one: feasible, its gap above tol
        assert sol.status == sdp.SdpStatus.MAX_ITER
        assert sol.gap == sol.iteration_log[-1]["gap"] > 1e-9

    def test_zero_pivot_ends_with_status(self, monkeypatch):
        # a zero Schur complement from the third iteration on makes the KKT
        # matrix exactly singular: the factorization must not raise, and
        # the non-finite direction ends the solve
        real = sdp._ToeplitzBlock.schur
        calls = []

        def zeroed(self, W):
            calls.append(None)
            act, H = real(self, W)
            return act, (H if len(calls) < 3 else np.zeros_like(H))

        monkeypatch.setattr(sdp._ToeplitzBlock, "schur", zeroed)
        sol = sdp.solve(trig_cone_problem(0.45), tol=1e-9)
        assert sol.iterations == 3
        assert sol.iteration_log[-1]["stop"] == "non-finite direction"
        assert all("stop" not in row for row in sol.iteration_log[:-1])
        assert sol.status == sdp.SdpStatus.MAX_ITER
        assert sol.gap == sol.iteration_log[-1]["gap"] > 1e-9

    def test_mu_floor_marks_the_last_row(self):
        # a tolerance below roundoff: the solve ends at the numerical floor
        sol = sdp.solve(trig_cone_problem(0.45), tol=1e-20)
        assert sol.iteration_log[-1]["stop"] == "numerical floor"
        assert all("stop" not in row for row in sol.iteration_log[:-1])


class TestCholeskyJitter:
    def test_singular_psd_factors_with_jitter(self):
        M = np.ones((3, 3))
        L = sdp._chol(M)
        assert np.abs(L @ L.T - M).max() <= 1e-13

    def test_indefinite_raises(self):
        with pytest.raises(sdp.SdpError):
            sdp._chol(np.diag([1.0, -1.0]))


SPECTRA = {"random": lambda rng, n: rng.uniform(0.1, 3.0, n),
           "ill": lambda rng, n: np.logspace(-6, 2, n),
           "very ill": lambda rng, n: np.logspace(-10, 4, n)}


def central_pair(rng, n, spectrum, mu=0.5):
    """X with the given spectrum and Z = mu P X^-1 P, P within 0.1 of the
    identity: a pair near the central path, as the IPM's iterates are."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = rng.permutation(SPECTRA[spectrum](rng, n))
    S = rng.standard_normal((n, n))
    S = S + S.T
    P = np.eye(n) + 0.1 * S / np.linalg.norm(S, 2)
    X = (Q * eig) @ Q.T
    Z = mu * P @ ((Q / eig) @ Q.T) @ P
    return 0.5 * (X + X.T), 0.5 * (Z + Z.T)


def cholesky_max_step(L, D):
    """The step length by Cholesky factor and triangular solves: sup alpha
    with L L' + alpha D psd."""
    S = sla.solve_triangular(L, D, lower=True)
    S = sla.solve_triangular(L, S.T, lower=True)
    lam = np.linalg.eigvalsh(0.5 * (S + S.T))[0]
    return np.inf if lam >= 0.0 else -1.0 / lam


class TestNtScaling:
    @pytest.mark.parametrize("n", [2, 3, 33, 129])
    @pytest.mark.parametrize("spectrum", sorted(SPECTRA))
    def test_scaling_identities(self, n, spectrum):
        rng = np.random.default_rng(n)
        X, Z = central_pair(rng, n, spectrum)
        R, Rinv, W, sv = sdp._nt_scaling(X, Z)
        assert max_rel((R * sv) @ R.T, X) <= 1e-13
        assert max_rel((Rinv.T * sv) @ Rinv, Z) <= 1e-13
        assert max_rel(W @ Z @ W, X) <= 1e-7
        assert np.abs(R @ Rinv - np.eye(n)).max() <= 1e-8


class TestMaxStep:
    """The step length in the NT-scaled space against the Cholesky path it
    replaced, on directions of the size an IPM step has."""

    @pytest.mark.parametrize("n", [2, 3, 33, 129])
    @pytest.mark.parametrize("spectrum,bound", [("random", 1e-12), ("ill", 1e-6)])
    def test_matches_cholesky_path(self, n, spectrum, bound):
        rng = np.random.default_rng(n + 1)
        X, Z = central_pair(rng, n, spectrum)
        R, Rinv, W, sv = sdp._nt_scaling(X, Z)
        for _ in range(3):
            E = rng.standard_normal((n, n))
            E = E + E.T
            E *= rng.uniform(0.5, 2.0) / np.linalg.norm(E, 2)
            Et = np.sqrt(np.outer(sv, sv)) * E
            dX = R @ Et @ R.T
            dZ = Rinv.T @ Et @ Rinv
            want = cholesky_max_step(np.linalg.cholesky(X), dX)
            got = sdp._max_step(sv, Rinv @ dX @ Rinv.T)
            assert abs(got - want) <= bound * want
            want = cholesky_max_step(np.linalg.cholesky(Z), dZ)
            got = sdp._max_step(sv, R.T @ dZ @ R)
            assert abs(got - want) <= bound * want

    def test_psd_direction_is_unbounded(self):
        assert sdp._max_step(np.array([1.0, 2.0]), np.diag([0.5, 0.0])) == np.inf

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_step_reaches_the_boundary(self, n, seed):
        rng = np.random.default_rng(seed)
        X, Z = central_pair(rng, n, "random")
        R, Rinv, W, sv = sdp._nt_scaling(X, Z)
        D = rng.standard_normal((n, n))
        D = D + D.T
        alpha = sdp._max_step(sv, Rinv @ D @ Rinv.T)
        if np.isinf(alpha):
            np.linalg.cholesky(X + 1e3 * D)
            return
        np.linalg.cholesky(X + 0.99 * alpha * D)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(X + 1.01 * alpha * D)


def centrosymmetric(rng, n):
    """A random symmetric M with J M J = M, J the exchange matrix."""
    S = rng.standard_normal((n, n))
    S = S + S.T
    return S + S[::-1, ::-1]


def centrosymmetric_pair(rng, n, spectrum):
    """Full X, Z joined from central pairs of the half sizes."""
    pairs = [central_pair(rng, k, spectrum) for k in (n - n // 2, n // 2) if k]
    return (sdp._join([X for X, Z in pairs]), sdp._join([Z for X, Z in pairs]),
            pairs)


class TestCentrosymmetricHalves:
    """The even/odd reduction is exact: the halves hold the whole matrix,
    its spectrum, and the NT scaling and step lengths of the full block."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=1, seed=0)
    @example(n=2, seed=0)
    def test_split_join_round_trip(self, n, seed):
        M = centrosymmetric(np.random.default_rng(seed), n)
        halves = sdp._split(M)
        sizes = [k for k in (n - n // 2, n // 2) if k]
        assert [Mh.shape for Mh in halves] == [(k, k) for k in sizes]
        J = sdp._join(halves)
        np.testing.assert_array_equal(J, J[::-1, ::-1])
        assert max_rel(J, M) <= 1e-15
        for a, b in zip(sdp._split(J), halves):
            assert max_rel(a, b) <= 1e-15
        w = np.sort(np.concatenate([np.linalg.eigvalsh(Mh) for Mh in halves]))
        assert max_rel(w, np.linalg.eigvalsh(M)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 33, 129, 130])
    def test_adjoint_is_centrosymmetric(self, n):
        rng = np.random.default_rng(n)
        p = 2 * n + 1
        blk = sdp._ToeplitzBlock(rng.permutation(p)[:n], rng.uniform(0.2, 5.0, n), p)
        A = blk.adjoint(rng.standard_normal(p))
        np.testing.assert_array_equal(A, A[::-1, ::-1])

    @pytest.mark.parametrize("n", [2, 3, 33, 129])
    @pytest.mark.parametrize("spectrum,bound", [("random", 1e-12), ("ill", 1e-8)])
    def test_nt_scaling_of_halves(self, n, spectrum, bound):
        # at the ill spectrum both paths are off the 60-digit W by about
        # 1e-9, so that is the agreement roundoff allows
        X, Z, pairs = centrosymmetric_pair(np.random.default_rng(n), n, spectrum)
        W = sdp._nt_scaling(X, Z)[2]
        Wh = sdp._join([sdp._nt_scaling(Xh, Zh)[2] for Xh, Zh in pairs])
        assert max_rel(Wh, W) <= bound

    @pytest.mark.parametrize("n", [2, 3, 33, 129])
    @pytest.mark.parametrize("spectrum,bound", [("random", 1e-12), ("ill", 1e-6)])
    def test_max_step_is_the_minimum_over_halves(self, n, spectrum, bound):
        rng = np.random.default_rng(n + 2)
        X, Z, pairs = centrosymmetric_pair(rng, n, spectrum)
        R, Rinv, W, sv = sdp._nt_scaling(X, Z)
        scal = [sdp._nt_scaling(Xh, Zh) for Xh, Zh in pairs]
        for _ in range(3):
            D = centrosymmetric(rng, n)
            D *= rng.uniform(0.5, 2.0) * np.abs(np.linalg.eigvalsh(X)).max() \
                / np.linalg.norm(D, 2)
            want = sdp._max_step(sv, Rinv @ D @ Rinv.T)
            got = min(sdp._max_step(svh, Rinvh @ Dh @ Rinvh.T)
                      for (Rh, Rinvh, Wh, svh), Dh in zip(scal, sdp._split(D)))
            assert abs(got - want) <= bound * want
            want = sdp._max_step(sv, R.T @ D @ R)
            got = min(sdp._max_step(svh, Rh.T @ Dh @ Rh)
                      for (Rh, Rinvh, Wh, svh), Dh in zip(scal, sdp._split(D)))
            assert abs(got - want) <= bound * want

    def test_non_finite_step_direction_raises(self):
        with pytest.raises(sdp.SdpError):
            sdp._max_step(np.ones(2), np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_solve_returns_centrosymmetric_blocks(self):
        from chebspike.blasso import assemble_dual_sdp
        from chebspike.measures import DiscreteMeasure
        from chebspike.observation import simulate

        obs = simulate(DiscreteMeasure([-0.4, 0.5], [1.0, -0.7]), 10, -1, 0.02,
                       seed=2)
        for prob in (assemble_dual_sdp(obs, 0.05), trig_cone_problem(0.45),
                     pinned_psd_scalar()):
            sol = sdp.solve(prob, tol=1e-9)
            assert sol.status == sdp.SdpStatus.SOLVED
            for X in sol.psd_blocks:
                np.testing.assert_array_equal(X, X[::-1, ::-1])
