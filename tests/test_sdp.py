"""Tests for the dense conic interior-point solver."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import brentq

from chebspike import sdp
from chebspike.blasso import assemble_dual_sdp, solve_blasso
from chebspike.chebyshev import ChebPoly, eval_poly
from chebspike.measures import DiscreteMeasure
from chebspike.observation import Observation, simulate

SQRT2 = np.sqrt(2.0)


def program(y, lam, d=-1):
    """The dual program of the moments y (m = y.size - 1) at lam."""
    y = np.asarray(y, dtype=float)
    return assemble_dual_sdp(Observation(y, d, y.size - 1, 0.0), lam)


def assembled(m, d, scale):
    """The dual program of a noisy 3-spike observation scaled by `scale`,
    lam a tenth of the largest |y|: with scale 1e4, the size of the moment
    vectors of the spline runs."""
    x = DiscreteMeasure([-0.7, 0.1, 0.6], [scale, -0.6 * scale, 0.8 * scale])
    obs = simulate(x, m, d, 0.01 * scale, seed=m)
    return assemble_dual_sdp(obs, 0.1 * np.abs(obs.y).max())


ASSEMBLED = [(m, d, scale) for m in (1, 8, 32, 128) for d in (-1, 0, 2)
             for scale in (1.0, 1e4) if m > d]


def weighted_projection(v, w, r):
    """argmin ||a - v|| subject to sum_k w_k |a_k| <= r: a soft threshold
    a = sign(v) max(|v| - t w, 0) with t >= 0 chosen to meet the bound."""
    def excess(t):
        return (w * np.maximum(np.abs(v) - t * w, 0.0)).sum() - r
    if excess(0.0) <= 0.0:
        return v
    t = brentq(excess, 0.0, np.max(np.abs(v) / w), xtol=1e-15, rtol=1e-15)
    return np.sign(v) * np.maximum(np.abs(v) - t * w, 0.0)


class TestBasicSolves:
    """Programs with closed-form optima.  At m = 0 each block is a 1 x 1 PSD
    scalar pinned by its trace row to lam -+ alpha_0; at m = 1 the blocks
    are 2 x 2 and |alpha_0 + sqrt(2) alpha_1 t| <= lam on [-1, 1] reads
    |alpha_0| + sqrt(2) |alpha_1| <= lam."""

    def test_pinned_psd_scalar(self):
        # minimize alpha_0 y_0 + alpha_0^2 / 2 over |alpha_0| <= lam
        for y0, lam in [(0.3, 1.0), (-0.3, 1.0), (2.5, 1.0), (-2.5, 0.5),
                        (1e4, 1e3), (0.0, 1.0)]:
            sol = sdp.solve(program([y0], lam), tol=1e-10)
            assert sol.status == sdp.SdpStatus.SOLVED
            assert sol.free_vector[0] == pytest.approx(np.clip(-y0, -lam, lam),
                                                       abs=1e-8 * lam)

    def test_feasible_trig_cone(self):
        # d = -1: alpha* is the projection of -y onto the weighted l1 ball
        for y, lam in [((0.3, -0.2), 1.0), ((0.9, 0.6), 1.0), ((-0.2, 2.0), 0.5),
                       ((3.0, 0.1), 1.0), ((1e4, -5e3), 2e3)]:
            y = np.array(y)
            want = weighted_projection(-y, np.array([1.0, SQRT2]), lam)
            sol = sdp.solve(program(y, lam), tol=1e-10)
            assert sol.status == sdp.SdpStatus.SOLVED
            np.testing.assert_allclose(sol.free_vector, want, atol=1e-8 * lam)


class TestSolutionInvariants:
    def test_psd_floor_and_residual(self):
        # X_0, X_1 psd is lam -+ p >= 0 for p = sum_k alpha_k phi_k: the
        # returned alpha keeps |p| <= lam up to the tolerance, and the last
        # iterate's residuals are below it
        prob = assembled(32, 0, 1.0)
        sol = sdp.solve(prob, tol=1e-9)
        assert sol.status == sdp.SdpStatus.SOLVED
        p = eval_poly(ChebPoly(sol.free_vector), np.cos(np.linspace(0, np.pi, 20001)))
        assert np.abs(p).max() <= prob.lam * (1.0 + 1e-8)
        last = sol.iteration_log[-1]
        assert max(last["rp"], last["rd"], last["rc"], abs(last["gap"])) <= 1e-9

    def test_deterministic(self):
        a = sdp.solve(assembled(32, 0, 1e4))
        b = sdp.solve(assembled(32, 0, 1e4))
        np.testing.assert_array_equal(a.free_vector, b.free_vector)
        assert a.iteration_log == b.iteration_log
        assert a.iterations == b.iterations

    def test_merit_decreases_with_safeguard(self):
        sol = sdp.solve(assembled(8, 0, 1.0), tol=1e-9)
        merits = [row["gap"] + row["rp"] + row["rd"] for row in sol.iteration_log]
        assert merits[-1] <= 1e-6 * merits[0]
        for prev, cur in zip(merits, merits[1:]):
            assert cur <= 10.0 * prev + 1e-15


class TestValidation:
    def test_shape_checks(self):
        base = program([0.3, -0.2, 0.1], 1.0)
        for bad in ({"y": base.y[None, :]}, {"d": 2}, {"d": -2}, {"d": 0.5}):
            with pytest.raises(sdp.SdpError):
                dataclasses.replace(base, **bad)
        with pytest.raises(ValueError, match="lam must be positive"):
            dataclasses.replace(base, lam=-1.0)

    @pytest.mark.parametrize("key", ["lam", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, key, bad):
        base = program([0.3], 1.0)
        value = bad if key == "lam" else np.full_like(base.y, bad)
        with pytest.raises(sdp.SdpError, match=f"{key} has non-finite"):
            dataclasses.replace(base, **{key: value})

    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1e-9])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            sdp.solve(program([0.3, -0.5], 0.4), tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -3, 1.5, True, "5"])
    def test_max_iter_must_be_a_positive_integer(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            sdp.solve(program([0.3, -0.5], 0.4), max_iter=max_iter)

    def test_numpy_integer_max_iter_accepted(self):
        prob = program([0.3, -0.5], 0.4)
        want = sdp.solve(prob, max_iter=80)
        got = sdp.solve(prob, max_iter=np.int64(80))
        np.testing.assert_array_equal(got.free_vector, want.free_vector)
        assert got.status == sdp.SdpStatus.SOLVED

    def test_overflowing_start_rejected(self):
        # finite moments whose Gershgorin bound U of T(y) overflows: the
        # start cannot be formed
        for y in ([1e308, 1e308], [1.0, 1.3e308]):
            with pytest.raises(sdp.SdpError, match="Gershgorin bound"):
                program(y, 1.0)

    def test_quadratic_objective_with_constraint(self):
        # m = 1, d = 0: minimize alpha_0 y_0 + alpha_1 y_1 + alpha_1^2 / 2.
        # The bound is active, |alpha_0| = lam - sqrt(2) b with b = |alpha_1|,
        # and -|y_0| (lam - sqrt(2) b) - |y_1| b + b^2 / 2 is least at
        # b = |y_1| - sqrt(2) |y_0|, clipped to [0, lam / sqrt(2)]
        for y0, y1, lam in [(0.2, 0.8, 1.0), (-0.5, 2.0, 1.0), (1.0, -0.2, 1.0),
                            (-3e3, 1e4, 2e3)]:
            b = np.clip(abs(y1) - SQRT2 * abs(y0), 0.0, lam / SQRT2)
            want = [-np.sign(y0) * (lam - SQRT2 * b), -np.sign(y1) * b]
            sol = sdp.solve(program([y0, y1], lam, d=0), tol=1e-10)
            assert sol.status == sdp.SdpStatus.SOLVED
            np.testing.assert_allclose(sol.free_vector, want, atol=1e-8 * lam)


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
        a = mine.free_vector
        assert obs.y @ a + 0.5 * a @ a == pytest.approx(ext.value, abs=1e-7)
        # coefficient agreement is limited by the external solver's default
        # tolerance, not ours
        np.testing.assert_allclose(mine.free_vector, alpha.value, atol=2e-5)


def psd_matrix(rng, n, eigenvalues):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    W = (Q * eigenvalues) @ Q.T
    return 0.5 * (W + W.T)


def max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def dense_reference(W, v):
    """apply, adjoint and Schur part of an n x n block from its constraint
    matrices A_k = (E_k + E_-k) / 2, formed explicitly (E_d has ones where
    row - column = d)."""
    n = W.shape[0]
    A = np.array([0.5 * (np.eye(n, k=-k) + np.eye(n, k=k)) for k in range(n)])
    AW = A @ W
    return (np.tensordot(A, W), np.tensordot(v, A, axes=1),
            np.tensordot(AW, AW, axes=([1, 2], [2, 1])))


class TestToeplitzAgainstSparse:
    """The FFT Toeplitz operators against the sparse constraint matrices
    they stand for, formed as dense arrays."""

    @pytest.mark.parametrize("n", [1, 2, 3, 33, 129])
    @pytest.mark.parametrize("conditioning", ["random", "ill"])
    def test_operators_agree(self, n, conditioning):
        rng = np.random.default_rng(n)
        fast = sdp._ToeplitzBlock(n)
        eig = (rng.uniform(0.1, 3.0, n) if conditioning == "random"
               else np.logspace(-10, 4, n))
        W = psd_matrix(rng, n, eig)
        v = rng.standard_normal(n)
        apply_ref, adjoint_ref, schur_ref = dense_reference(W, v)
        assert max_rel(fast.apply(W), apply_ref) <= 1e-13
        assert max_rel(fast.adjoint(v), adjoint_ref) <= 1e-13
        assert max_rel(fast.schur(W), schur_ref) <= 1e-13

    @pytest.mark.parametrize("lam,status", [(0.4, sdp.SdpStatus.SOLVED)])
    def test_trig_cone_status(self, lam, status):
        # m = 1: two 2 x 2 Gram blocks, the smallest trigonometric cone
        assert sdp.solve(program([0.3, -0.5], lam), max_iter=80).status == status


class TestFeasibleStart:
    """Every assembled dual program carries a strictly feasible start, and
    the equality residual stays at roundoff from there on."""

    # the start is the closed form of `SdpProblem`; this is its check, so it
    # runs at y scales beyond the solves' as well
    @pytest.mark.parametrize("m,d,scale", ASSEMBLED + [
        (m, d, scale) for m, d, _ in ASSEMBLED[::2] for scale in (1e-4, 1e8)])
    def test_assembled_start_is_strictly_feasible(self, m, d, scale):
        prob = assembled(m, d, scale)
        n = m + 1
        nu, x = prob.start_nu, prob.start_free
        r_p = prob.h - prob.F @ x
        for b, X in enumerate(prob.start_psd):
            rows = slice(b * n, (b + 1) * n)
            # A(X_b) and Z_b = -A*(nu_b) formed from the subdiagonals
            r_p[rows] -= [np.trace(X, offset=-k) for k in range(n)]
            t = 0.5 * nu[rows]
            t[0] *= 2.0
            for M in (X, -sla.toeplitz(t)):
                np.linalg.cholesky(M)
                np.testing.assert_array_equal(M, M[::-1, ::-1])
        r_d = prob.F.T @ nu - prob.Q @ x - prob.y
        assert np.abs(r_p).max() <= 1e-13 * prob.lam
        # each entry of r_d against the magnitudes of its terms: the trace
        # row cancels U >= 1, which exceeds |y| at small scales
        mag_d = np.abs(prob.F.T) @ np.abs(nu) + np.abs(prob.y)
        assert np.all(np.abs(r_d) <= 1e-13 * mag_d)

    @pytest.mark.parametrize("m,d,scale", ASSEMBLED)
    def test_equality_residual_stays_at_roundoff(self, m, d, scale):
        sol = sdp.solve(assembled(m, d, scale), tol=1e-9, max_iter=200)
        assert sol.status == sdp.SdpStatus.SOLVED
        assert max(row["rp"] for row in sol.iteration_log) <= 1e-10

    @pytest.mark.parametrize("m,d,scale", ASSEMBLED[::3])
    def test_dual_residual_stays_at_roundoff(self, m, d, scale):
        # one step length for every variable scales r_d, linear in the
        # iterate, by 1 - step, as it does r_p; with unequal lengths r_d
        # regrew to about 1e-9 at every step
        log = sdp.solve(assembled(m, d, scale), tol=1e-9, max_iter=200).iteration_log
        assert all(row["ap"] == row["ad"] for row in log)
        assert max(row["rd"] for row in log) <= 1e-12

    def test_log_records_each_step(self):
        log = sdp.solve(assembled(32, 0, 1e4), tol=1e-9).iteration_log
        for row in log[:-1]:
            assert 0.0 < row["ap"] <= 1.0 and 0.0 < row["ad"] <= 1.0
            assert row["halvings"] in range(4)
        # no step is taken from the last iterate
        assert (log[-1]["ap"], log[-1]["ad"], log[-1]["halvings"]) == (0.0, 0.0, 0)


class TestCapMatrix:
    """The substitution t = c u of the interior mode: B maps the
    coefficients of p to those of u -> p(c u)."""

    @pytest.mark.parametrize("n", [1, 2, 9, 33, 129])
    @pytest.mark.parametrize("c", [np.cos(0.5 / 32), np.cos(0.5)])
    def test_maps_coefficients(self, n, c):
        B = sdp.cap_matrix(n, c)
        alpha = np.random.default_rng(n).standard_normal(n)
        u = np.linspace(-1.0, 1.0, 101)
        np.testing.assert_allclose(eval_poly(ChebPoly(B @ alpha), u),
                                   eval_poly(ChebPoly(alpha), c * u),
                                   rtol=0, atol=1e-13 * np.abs(alpha).sum())
        # phi_k(c u) has degree k in u: interpolation leaves roundoff below
        # the diagonal
        assert np.abs(np.tril(B, -1)).max(initial=0.0) <= 1e-15 * n

    def test_none_at_one(self):
        assert sdp.cap_matrix(9, 1.0) is None
        prob = program([0.3, -0.2, 0.1], 1.0)
        assert prob.c == 1.0 and prob.B is None
        np.testing.assert_array_equal(prob.F, np.vstack([np.diag(-sdp.trace_scale(3)),
                                                         np.diag(sdp.trace_scale(3))]))

    @pytest.mark.parametrize("c", [0.0, -0.5, 1.5])
    def test_bound_outside_the_interval_rejected(self, c):
        with pytest.raises(ValueError, match="c must lie in"):
            dataclasses.replace(program([0.3, -0.2, 0.1], 1.0), c=c)
        with pytest.raises(sdp.SdpError, match="c has non-finite"):
            dataclasses.replace(program([0.3, -0.2, 0.1], 1.0), c=np.nan)

    @pytest.mark.parametrize("m,d,scale", [(8, 0, 1.0), (32, 2, 1e4), (128, -1, 1.0)])
    def test_capped_start_is_strictly_feasible(self, m, d, scale):
        c = np.cos(0.5 / m)
        prob = dataclasses.replace(assembled(m, d, scale), c=c)
        n = m + 1
        nu, x = prob.start_nu, prob.start_free
        r_p = prob.h - prob.F @ x
        for b, X in enumerate(prob.start_psd):
            rows = slice(b * n, (b + 1) * n)
            r_p[rows] -= [np.trace(X, offset=-k) for k in range(n)]
            t = 0.5 * nu[rows]
            t[0] *= 2.0
            np.linalg.cholesky(-sla.toeplitz(t))
        r_d = prob.F.T @ nu - prob.Q @ x - prob.y
        assert np.abs(r_p).max() <= 1e-13 * prob.lam
        mag_d = np.abs(prob.F.T) @ np.abs(nu) + np.abs(prob.y)
        assert np.all(np.abs(r_d) <= 1e-13 * mag_d)

    @pytest.mark.parametrize("m,d", [(8, 0), (32, 2)])
    def test_solution_is_bounded_on_the_capped_interval(self, m, d):
        from chebspike.chebyshev import abs_sup
        c = np.cos(0.5 / m)
        prob = dataclasses.replace(assembled(m, d, 1.0), c=c)
        sol = sdp.solve(prob, tol=1e-9)
        assert sol.status == sdp.SdpStatus.SOLVED
        sup, _ = abs_sup(ChebPoly(sol.free_vector), c)
        assert sup <= prob.lam * (1.0 + 1e-7)
        # the bound holds on [-c, c] only: the uncapped program's optimum
        # is a different point
        free = sdp.solve(assembled(m, d, 1.0), tol=1e-9).free_vector
        assert np.abs(free - sol.free_vector).max() > 1e-6 * np.abs(free).max()


class TestNumericalFloor:
    """Each solve of the m = 8 program below makes two KKT solves and two
    Schur blocks per iteration."""

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
        sol = sdp.solve(assembled(8, 0, 1.0), tol=1e-9)
        assert sol.iterations == 3
        assert sol.iteration_log[-1]["stop"] == "non-finite direction"
        assert all("stop" not in row for row in sol.iteration_log[:-1])
        # the last iterate is returned: feasible, its gap above tol
        assert sol.status == sdp.SdpStatus.MAX_ITER
        assert sol.gap == sol.iteration_log[-1]["gap"] > 1e-9

    def test_non_finite_schur_complement_ends_with_status(self, monkeypatch):
        # poison the Schur complement from the fifth iteration's first
        # block on, as overflow does on a diverging trajectory
        real = sdp._ToeplitzBlock.schur
        calls = []

        def poisoned(self, W):
            calls.append(None)
            H = real(self, W)
            return H if len(calls) < 9 else np.full_like(H, np.inf)

        monkeypatch.setattr(sdp._ToeplitzBlock, "schur", poisoned)
        sol = sdp.solve(assembled(8, 0, 1.0), tol=1e-9)
        assert sol.iterations == 5
        assert sol.iteration_log[-1]["stop"] == "non-finite Schur complement"
        assert all("stop" not in row for row in sol.iteration_log[:-1])
        # the last iterate is returned: feasible, its gap above tol
        assert sol.status == sdp.SdpStatus.MAX_ITER
        assert sol.gap == sol.iteration_log[-1]["gap"] > 1e-9

    def test_zero_pivot_ends_with_status(self, monkeypatch):
        # zero Schur blocks from the third iteration on make the KKT matrix
        # exactly singular: the factorization must not raise, and the
        # non-finite direction ends the solve
        real = sdp._ToeplitzBlock.schur
        calls = []

        def zeroed(self, W):
            calls.append(None)
            H = real(self, W)
            return H if len(calls) < 5 else np.zeros_like(H)

        monkeypatch.setattr(sdp._ToeplitzBlock, "schur", zeroed)
        sol = sdp.solve(assembled(8, 0, 1.0), tol=1e-9)
        assert sol.iterations == 3
        assert sol.iteration_log[-1]["stop"] == "non-finite direction"
        assert all("stop" not in row for row in sol.iteration_log[:-1])
        assert sol.status == sdp.SdpStatus.MAX_ITER
        assert sol.gap == sol.iteration_log[-1]["gap"] > 1e-9

    def test_mu_floor_marks_the_last_row(self):
        # a tolerance below roundoff: the solve ends at the numerical floor
        sol = sdp.solve(program([0.3, -0.5], 0.4), tol=1e-20)
        assert sol.iteration_log[-1]["stop"] == "numerical floor"
        assert all("stop" not in row for row in sol.iteration_log[:-1])


class TestCholeskyJitter:
    def test_singular_psd_factors_with_jitter(self):
        M = np.ones((3, 3))
        L, jittered = sdp._chol(M)
        assert jittered
        assert np.abs(L @ L.T - M).max() <= 1e-13
        L, jittered = sdp._chol(np.eye(3))
        assert not jittered
        np.testing.assert_array_equal(L, np.eye(3))

    def test_indefinite_raises(self):
        with pytest.raises(sdp.SdpError):
            sdp._chol(np.diag([1.0, -1.0]))

    def test_log_counts_jitter(self, monkeypatch):
        # the third iteration's NT scalings make four stacked Cholesky calls
        # at m = 8 (X and Z of each parity, both blocks at once).  Its third
        # call fails, and so does the unshifted retry of the stack's first
        # slice: that slice is factored with jitter, and only that row
        # counts it
        real = np.linalg.cholesky
        shapes = []

        def failing(M):
            shapes.append(M.shape)
            if len(shapes) in (2 * 4 + 3, 2 * 4 + 4):
                raise np.linalg.LinAlgError("made to fail")
            return real(M)

        prob = assembled(8, 0, 1.0)
        monkeypatch.setattr(sdp.np.linalg, "cholesky", failing)
        log = sdp.solve(prob, tol=1e-9).iteration_log
        assert [row["jitter"] for row in log[:4]] == [0, 0, 1, 0]
        assert sum(row["jitter"] for row in log) == 1
        # the failed stack, the slice's two tries, the other slice
        assert shapes[2 * 4 + 2:2 * 4 + 6] == [(2, 4, 4), (4, 4), (4, 4), (4, 4)]
        assert shapes[:2 * 4 + 2] == [(2, 5, 5), (2, 5, 5), (2, 4, 4), (2, 4, 4)] * 2 \
            + [(2, 5, 5)] * 2

    def test_nt_scaling_counts_each_shifted_factor(self):
        # X and Z both singular: two shifted factors, counted as an int
        _, jitter = sdp._nt_scaling(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        assert jitter == 2 and type(jitter) is int
        X = np.stack([np.eye(2), np.diag([1.0, 0.0])])
        _, jitter = sdp._nt_scaling(X, X[::-1].copy())
        assert jitter == 2 and type(jitter) is int

    @pytest.mark.parametrize("n", [1, 2, 33])
    def test_unshifted_factor_is_numpys(self, n):
        # no shift is added, not even 0 * I, when the first try factors
        X, _ = stacked_pairs(np.random.default_rng(n), n)
        for M in (X, X[0]):
            L, jitter = sdp._chol(M)
            assert jitter == 0
            np.testing.assert_array_equal(L, np.linalg.cholesky(M))


# moments y = 0.3 g with y_0 = 1, g standard normal from the seed, at lam 0.5
# and d = -1: under unequal primal and dual step lengths, after 33 to 72
# steps an accepted step once left an X half with an eigenvalue near
# -5e-14, and the next factorization raised
INDEFINITE_STEP = [(9, 19), (17, 21), (17, 40), (17, 43)]


def indefinite_step_moments(n, seed):
    y = np.random.default_rng(seed).standard_normal(n) * 0.3
    y[0] = 1.0
    return y


class TestPositiveDefiniteGuard:
    @pytest.mark.parametrize("n,seed", INDEFINITE_STEP)
    def test_trial_that_cannot_factor_is_halved(self, n, seed, monkeypatch):
        # under one step length these programs no longer reach a trial that
        # does not factor, so one is made: the start's and the first step's
        # factorizations are 2 * 4 stacked Cholesky calls, and calls 9 to 13
        # fail, which are the second step's first trial (its stacked X of
        # the even parity, then that stack's first slice and its three
        # jittered retries)
        real = np.linalg.cholesky
        calls = []

        def failing(M):
            calls.append(None)
            if 2 * 4 < len(calls) <= 2 * 4 + 5:
                raise np.linalg.LinAlgError("made to fail")
            return real(M)

        monkeypatch.setattr(sdp.np.linalg, "cholesky", failing)
        sol = sdp.solve(program(indefinite_step_moments(n, seed), 0.5), tol=1e-9)
        assert sol.iteration_log[1]["indefinite"] == 1
        assert sol.status == sdp.SdpStatus.SOLVED
        rows = [row for row in sol.iteration_log if row["indefinite"]]
        assert rows
        # each rejected trial is one halving
        assert all(row["halvings"] >= row["indefinite"] for row in rows)
        assert all("stop" not in row for row in sol.iteration_log)

    @pytest.mark.parametrize("n,seed", INDEFINITE_STEP)
    def test_solve_blasso_certifies_these_programs(self, n, seed):
        y = indefinite_step_moments(n, seed)
        sol = solve_blasso(Observation(y, -1, n - 1, 0.0), 0.5)
        assert sol.duality_gap_rel <= 1e-12
        assert max(sol.kkt_residuals.values()) <= 1e-15

    def test_last_trial_that_cannot_factor_ends_the_solve(self, monkeypatch):
        # at m = 8 each factorization of an iterate starts with 4 stacked
        # Cholesky calls (X and Z of each parity): the start's, then the
        # first step's.  Every call after those fails, so no trial of the
        # second step factors
        real = np.linalg.cholesky
        calls = []

        def failing(M):
            calls.append(None)
            if len(calls) > 2 * 4:
                raise np.linalg.LinAlgError("made to fail")
            return real(M)

        prob = assembled(8, 0, 1.0)
        one_step = sdp.solve(prob, tol=1e-9, max_iter=1)
        monkeypatch.setattr(sdp.np.linalg, "cholesky", failing)
        sol = sdp.solve(prob, tol=1e-9)
        last = sol.iteration_log[-1]
        assert sol.iterations == 2
        assert last["stop"] == "lost positive definiteness"
        assert last["indefinite"] == 4
        assert (last["ap"], last["ad"], last["halvings"]) == (0.0, 0.0, 0)
        # the iterate the first step reached is returned, with its own gap
        assert sol.status == sdp.SdpStatus.MAX_ITER
        np.testing.assert_array_equal(sol.free_vector, one_step.free_vector)
        assert sol.gap == one_step.gap > 1e-9


def kkt_matrix(rng, n, d):
    """[[H, F], [F', -Q]] as `solve` builds it, with random positive
    definite Schur blocks H_0, H_1."""
    prob = program(rng.standard_normal(n), 0.5, d)
    p = 2 * n
    K = np.zeros((p + n, p + n))
    for b in range(2):
        G = rng.standard_normal((n, n))
        K[b * n:(b + 1) * n, b * n:(b + 1) * n] = G @ G.T + np.eye(n)
    K[:p, p:], K[p:, :p], K[p:, p:] = prob.F, prob.F.T, -prob.Q
    return K


class TestKktSolve:
    """`_kkt_solve` on `dgetrf`'s factors, bit for bit against
    scipy.linalg's wrappers of the same LAPACK calls."""

    @pytest.mark.parametrize("n,d", [(1, -1), (9, -1), (9, 2), (33, 2), (129, -1)])
    def test_matches_lu_factor_and_lu_solve(self, n, d):
        rng = np.random.default_rng(n + d)
        K = kkt_matrix(rng, n, d)
        rhs = rng.standard_normal(3 * n)
        lu = sdp.dgetrf(K)[:2]
        want = sla.lu_factor(K, check_finite=False)
        np.testing.assert_array_equal(lu[0], want[0])
        np.testing.assert_array_equal(lu[1], want[1])
        sol = sla.lu_solve(want, rhs, check_finite=False)
        for _ in range(2):
            sol += sla.lu_solve(want, rhs - K @ sol, check_finite=False)
        np.testing.assert_array_equal(sdp._kkt_solve(lu, K, rhs), sol)

    def test_singular_matrix_passes_non_finite_values(self):
        # zero Schur blocks: rank at most 2n of 3n, an exactly zero pivot;
        # nothing raises or warns
        rng = np.random.default_rng(3)
        K = kkt_matrix(rng, 9, -1)
        K[:18, :18] = 0.0
        lu, piv, info = sdp.dgetrf(K)
        assert info > 0
        sol = sdp._kkt_solve((lu, piv), K, rng.standard_normal(27))
        assert not np.all(np.isfinite(sol))


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
        (R, Rinv, W, sv), _ = sdp._nt_scaling(X, Z)
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
        (R, Rinv, W, sv), _ = sdp._nt_scaling(X, Z)
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
        (R, Rinv, W, sv), _ = sdp._nt_scaling(X, Z)
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
        A = sdp._ToeplitzBlock(n).adjoint(np.random.default_rng(n).standard_normal(n))
        np.testing.assert_array_equal(A, A[::-1, ::-1])

    @pytest.mark.parametrize("n", [2, 3, 33, 129])
    @pytest.mark.parametrize("spectrum,bound", [("random", 1e-12), ("ill", 1e-8)])
    def test_nt_scaling_of_halves(self, n, spectrum, bound):
        # at the ill spectrum both paths are off the 60-digit W by about
        # 1e-9, so that is the agreement roundoff allows
        X, Z, pairs = centrosymmetric_pair(np.random.default_rng(n), n, spectrum)
        W = sdp._nt_scaling(X, Z)[0][2]
        Wh = sdp._join([sdp._nt_scaling(Xh, Zh)[0][2] for Xh, Zh in pairs])
        assert max_rel(Wh, W) <= bound

    @pytest.mark.parametrize("n", [2, 3, 33, 129])
    @pytest.mark.parametrize("spectrum,bound", [("random", 1e-12), ("ill", 1e-6)])
    def test_max_step_is_the_minimum_over_halves(self, n, spectrum, bound):
        rng = np.random.default_rng(n + 2)
        X, Z, pairs = centrosymmetric_pair(rng, n, spectrum)
        (R, Rinv, W, sv), _ = sdp._nt_scaling(X, Z)
        scal = [sdp._nt_scaling(Xh, Zh)[0] for Xh, Zh in pairs]
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


STACK_SIZES = [1, 2, 3, 33, 129]


def stacked_pairs(rng, k, spectrum="random"):
    """Stacks X, Z of two central pairs of size k, as `solve` carries one
    parity's halves of both blocks."""
    pairs = [central_pair(rng, k, spectrum) for _ in range(2)]
    return np.stack([X for X, Z in pairs]), np.stack([Z for X, Z in pairs])


class TestStackedHalves:
    """Each helper run on a stack of two returns exactly what it returns on
    each slice alone, so that stacking both blocks of a parity leaves every
    iterate's bits as they are."""

    @pytest.mark.parametrize("n", STACK_SIZES)
    def test_split_and_join(self, n):
        rng = np.random.default_rng(n)
        M = np.stack([centrosymmetric(rng, n) for _ in range(2)])
        halves = sdp._split(M)
        assert len(halves) == min(n, 2)
        for b in range(2):
            for got, want in zip(halves, sdp._split(M[b]), strict=True):
                np.testing.assert_array_equal(got[b], want)
            np.testing.assert_array_equal(sdp._join(halves)[b],
                                          sdp._join([h[b] for h in halves]))

    @pytest.mark.parametrize("n", STACK_SIZES)
    def test_apply_and_adjoint(self, n):
        rng = np.random.default_rng(n)
        blk = sdp._ToeplitzBlock(n)
        X = rng.standard_normal((2, n, n))
        v = rng.standard_normal((2, n))
        idx = np.arange(n)
        offset = (idx[:, None] - idx[None, :] + n - 1).ravel()
        for b in range(2):
            np.testing.assert_array_equal(blk.apply(X)[b], blk.apply(X[b]))
            np.testing.assert_array_equal(blk.adjoint(v)[b], blk.adjoint(v[b]))
            # against the one-block paths the stacked ones replaced: one
            # bincount per block, and scipy's Toeplitz constructor
            s = np.bincount(offset, weights=X[b].ravel(), minlength=2 * n - 1)
            np.testing.assert_array_equal(blk.apply(X[b]),
                                          0.5 * (s[n - 1:] + s[n - 1::-1]))
            t = 0.5 * v[b]
            t[0] *= 2.0
            np.testing.assert_array_equal(blk.adjoint(v[b]), sla.toeplitz(t))

    @pytest.mark.parametrize("n", [1, 2, 33, 129])
    def test_adjoint_matches_window_view(self, n):
        # the lag-table gather against the construction it replaced
        def window_view(v):
            t = 0.5 * v
            t[..., 0] *= 2.0
            c = np.concatenate([t[..., :0:-1], t], axis=-1)
            return sliding_window_view(c, n, axis=-1)[..., ::-1, :].copy()

        blk = sdp._ToeplitzBlock(n)
        v = np.random.default_rng(n).standard_normal((2, n))
        for w in (v, v[0], v[1]):
            np.testing.assert_array_equal(blk.adjoint(w), window_view(w))

    @pytest.mark.parametrize("n", STACK_SIZES)
    def test_chol(self, n):
        X, _ = stacked_pairs(np.random.default_rng(n), n)
        L, jitter = sdp._chol(X)
        assert jitter == 0
        for b in range(2):
            np.testing.assert_array_equal(L[b], sdp._chol(X[b])[0])
        if n == 1:
            return   # the only singular 1 x 1 matrix is 0, which no shift fixes
        # a singular slice takes the per-matrix retry; only it is shifted
        X[1] = np.ones((n, n))
        L, jitter = sdp._chol(X)
        assert jitter == 1 and type(jitter) is int
        for b in range(2):
            np.testing.assert_array_equal(L[b], sdp._chol(X[b])[0])

    @pytest.mark.parametrize("n", STACK_SIZES)
    @pytest.mark.parametrize("spectrum", ["random", "ill"])
    def test_nt_scaling_and_max_step(self, n, spectrum):
        rng = np.random.default_rng(n + 3)
        X, Z = stacked_pairs(rng, n, spectrum)
        scal, jitter = sdp._nt_scaling(X, Z)
        assert jitter == 0
        per_slice = [sdp._nt_scaling(X[b], Z[b])[0] for b in range(2)]
        for b, want in enumerate(per_slice):
            for got, w in zip(scal, want, strict=True):
                np.testing.assert_array_equal(got[b], w)
        R, Rinv, W, sv = scal
        for _ in range(3):
            D = rng.standard_normal((2, n, n))
            D = D + D.swapaxes(-1, -2)
            for Dt in (Rinv @ D @ Rinv.swapaxes(-1, -2), R.swapaxes(-1, -2) @ D @ R):
                assert sdp._max_step(sv, Dt) == min(
                    sdp._max_step(sv[b], Dt[b]) for b in range(2))
