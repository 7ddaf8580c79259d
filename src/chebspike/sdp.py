"""Dense conic solver for the dual program of the TV-regularized fit
(`blasso`): two PSD Gram blocks in trace form, a free coefficient vector
and a convex quadratic objective.

Problem form, with n = m + 1 moments y, orders 0..d exact, lam > 0 and
0 < c <= 1::

    minimize    y' x + (1/2) sum_{k>d} x_k^2
    subject to  A(X_0) - S B x = lam e_0
                A(X_1) + S B x = lam e_0
                X_0, X_1  n x n positive semidefinite

A(X)_k is the sum of the k-th subdiagonal of X (k = 0 .. n-1, the trace for
k = 0), that is <A_k, X> with A_k = (E_k + E_-k) / 2 and E_d the matrix of
ones where row - column = d, and S = diag(1, 1/sqrt(2), ..., 1/sqrt(2)).
B = `cap_matrix(n, c)` maps the coefficients of p = sum_k x_k phi_k to
those of u -> p(c u), and is the identity for c = 1.  Block b states that
lam -+ p(c u) is a nonnegative cosine polynomial in u with Gram matrix X_b
(the trace parameterization), so together |p| <= lam on [-c, c].  Stacked,
the 2n equality rows read A(X) + F x = h with h = lam (e_0 + e_n) and
F = [-S B; S B], and the objective is (1/2) x' Q x + q' x with q = y and Q
the 0/1 diagonal of the noisy orders.  `SdpProblem` holds lam, y, d and c,
and derives h, F, Q and the start once.

The solver is a Nesterov-Todd scaled primal-dual path-following method with
a Mehrotra predictor-corrector step.  Each Newton system is reduced to a
dense Schur complement over the constraint multipliers; each block forms its
part from one FFT autocorrelation of the scaling matrix, O(n^2 log n) for an
n x n block, with the row transforms run over the n nonzero rows only.  Step
lengths are taken in the NT-scaled space: with X = R S R', Z = R^-T S R^-1
(S = diag(sv)), the step to the boundary of X is -1/lambda_min of
S^-1/2 (R^-1 dX R^-T) S^-1/2, and of Z the same with R' dZ R, so each needs
one smallest eigenvalue and no factorization.  Intended for block
dimensions up to a few hundred.

The solve starts from the strictly feasible point that `SdpProblem`
derives in closed form from lam, y and c: X_b and Z_b = -A*(nu_b) positive
definite (nu_b the multipliers of block b's rows), r_p and r_d zero up to
roundoff.  X, x, Z and nu all move with one step length, the smaller of
the primal and the dual step to the boundary.  r_p = h - A(X) - F x and
r_d = F' nu - Q x - q are linear in the iterate, so each step scales both
by the same factor (1 - step) and a full step leaves them at roundoff: the
solver needs no infeasibility status or phase-one work (Vandenberghe &
Boyd, SIAM Review 1996, sections 6-7).  A quadratic objective couples x to
nu in r_d, so the step is common, as in CVXOPT's coneqp (Vandenberghe,
2010): with unequal lengths each step would put part of the Newton
correction back into r_d.

Every iterate is centrosymmetric (J X_b J = X_b, J Z_b J = Z_b, J the
exchange matrix), so each block is carried as its halves on the even vectors
(e_i + e_{n-1-i})/sqrt(2), plus e_mid for odd n, and on the odd vectors
(e_i - e_{n-1-i})/sqrt(2): sizes ceil(n/2) and floor(n/2).  This symmetry
reduction (Gatermann & Parrilo, J. Pure Appl. Algebra 2004) is exact here:
every A_k is symmetric Toeplitz and commutes with J, the start's X_b are
multiples of I and its Z_b symmetric Toeplitz, and the NT scaling, Z^-1,
W r_c W and the corrector term are equivariant under M -> J M J.  Both
blocks' halves of one parity have the same size, so each parity is one
(2, k, k) stack, block 0 first (X[0] the even halves, X[1] the odd): the NT
scalings and updates make one batched call per parity, at a quarter of a
full block's dense work.  Batching is exact, as numpy runs a
batched `cholesky`, `svd` or `matmul` as the same LAPACK or BLAS call per
slice.  Apply, adjoint and the Schur FFT stay on the full blocks, reached
by O(n^2) slicing (`_split`, `_join`); the step-length `dsyevr` and the
inner products run per half.  Identical inputs give identical iterates.

Dual pair used internally (Z_b are the multipliers of the PSD constraints,
nu of the equalities)::

    r_p   = h - A(X) - F x
    r_d   = F' nu - Q x - q
    r_c,b = -A*(nu_b) - Z_b
    mu    = (<X_0, Z_0> + <X_1, Z_1>) / 2n

and the NT-scaled Newton step eliminates (dX, dZ) through

    dZ_b = r_c,b - A*(dnu_b)
    dX_b + W_b dZ_b W_b = sigma mu Z_b^{-1} - X_b  (- corrector term),

leaving the symmetric quasi-definite system

    [ H   F ] [dnu]   [ r_p - A(D) ]        H = diag(H_0, H_1),
    [ F'  -Q ] [dx ] = [ -r_d      ],       H_b[k, l] = tr(A_k W_b A_l W_b),

with D_b the right-hand side of the dX relation above.  Each step writes
H_0 and H_1 into the matrix on the left, whose F and -Q parts are set once
per solve, and factors it by one unregularized LU; an exactly zero pivot
makes the direction non-finite, which ends the solve as below.

A step that would raise the merit (relative gap plus relative residuals)
more than tenfold is halved up to three times before it is taken.  A step
is also halved when the blocks it reaches do not factor (`_chol`, which
retries with jitter): near the optimum the blocks' smallest eigenvalues
sit at roundoff, and a step can leave one slightly negative.  The accepted
step's factors serve the next NT scaling, so no block is factored twice;
an iterate at which the solve ends is not factored.  Each iteration-log
row records the step length under both `ap` and `ad`, its `halvings`, under
`indefinite` how many of those halvings were for a block that did not
factor, and under `jitter` how many of its NT-scaling Cholesky factors
needed a diagonal shift.  A vanishing gap, a non-finite Schur complement
or a non-finite Newton direction ends the solve at the numerical floor,
and a step whose last halving still does not factor ends it at the
current iterate; each is named under `stop` in the last log row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.fft as sfft
from scipy.linalg.lapack import dgetrf, dgetrs, dsyevr


class SdpStatus(Enum):
    SOLVED = "Solved"
    MAX_ITER = "MaxIter"


class SdpError(Exception):
    """Malformed program data, a start that overflows, or a failed solve."""


def trace_scale(n: int) -> np.ndarray:
    """The diagonal of S: 1, then 1/sqrt(2) for orders 1 .. n-1."""
    s = np.full(n, 1.0 / np.sqrt(2.0))
    s[0] = 1.0
    return s


def cap_matrix(n: int, c: float):
    """B with phi_k(c u) = sum_j B[j, k] phi_j(u) for k < n, phi_0 = 1 and
    phi_k = sqrt(2) T_k: the substitution t = c u that maps [-1, 1] onto
    [-c, c].  None for c = 1.  B is found by interpolation at the n
    Chebyshev points of the first kind u_i, where the columns of
    phi_j(u_i) / sqrt(n) are orthonormal, so the interpolation is one
    product and exact for degree n - 1.  B is triangular with diagonal
    c^k (up to the basis scaling), so it is well conditioned for the c near
    1 of the interior mode: cos(0.5/m)^m > 0.88."""
    if c == 1.0:
        return None
    u = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    w = 1.0 / trace_scale(n)
    V = np.polynomial.chebyshev.chebvander(u, n - 1) * w
    Vc = np.polynomial.chebyshev.chebvander(c * u, n - 1) * w
    return V.T @ Vc / n


@dataclass
class SdpProblem:
    """The dual program of the module docstring: lam > 0, the moments y
    (length n = m + 1), the last exact order d, -1 <= d < m, and the bound
    c of the constraint's interval [-c, c], 0 < c <= 1.

    h, F, Q, the substitution B = `cap_matrix(n, c)` (None for c = 1) and
    the strictly feasible start are derived from lam, y, d and c.  The
    start is (start_psd, start_free, start_nu): the Gram blocks
    X_b = (lam/n) I, the free vector x = 0, and the 2n equality
    multipliers nu: nu_0 = -U e_0 on block 0 and nu_1 = S^-1 yt - U e_0
    on block 1, yt = B^-T y (yt = y for c = 1), so that F' nu = y.  So
    Z_0 = U I and Z_1 = U I - T(yt), T(yt) the symmetric Toeplitz matrix
    with first column (yt_0, yt_k / sqrt(2)), and U is 1 plus a Gershgorin
    bound of T(yt), so Z_1 - I is positive semidefinite.
    """

    lam: float
    y: np.ndarray
    d: int
    c: float = 1.0
    h: np.ndarray = field(init=False, repr=False)
    F: np.ndarray = field(init=False, repr=False)
    Q: np.ndarray = field(init=False, repr=False)
    B: np.ndarray | None = field(init=False, repr=False)
    start_psd: list = field(init=False, repr=False)
    start_free: np.ndarray = field(init=False, repr=False)
    start_nu: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        lam, c = float(self.lam), float(self.c)
        for name, val in (("lam", lam), ("y", y), ("c", c)):
            if not np.all(np.isfinite(val)):
                raise SdpError(f"{name} has non-finite entries")
        if lam <= 0:
            raise ValueError("lam must be positive")
        if not 0.0 < c <= 1.0:
            raise ValueError("c must lie in (0, 1]")
        n = y.size
        if y.ndim != 1 or not (isinstance(self.d, (int, np.integer))
                               and -1 <= self.d < n - 1):
            raise SdpError("need a moment vector y and an exact order "
                           "-1 <= d < y.size - 1")
        B = cap_matrix(n, c)
        yt = y if B is None else np.linalg.solve(B.T, y)
        # each row of |T(yt)| holds |yt_0| once and each |yt_k| / sqrt(2)
        # at most twice: the Gershgorin bound
        with np.errstate(over="ignore"):
            U = 1.0 + abs(yt[0]) + np.sqrt(2.0) * np.abs(yt[1:]).sum()
        if not np.isfinite(U):
            raise SdpError("the start's Gershgorin bound of T(y) overflows")
        self.lam, self.y, self.c, self.B = lam, y, c, B
        self.h = np.zeros(2 * n)
        self.h[0] = self.h[n] = lam
        s = trace_scale(n)
        SB = np.diag(s) if B is None else s[:, None] * B
        self.F = np.vstack([-SB, SB])
        self.Q = np.diag((np.arange(n) > self.d).astype(float))
        self.start_psd = [np.eye(n) * (lam / n)] * 2
        self.start_free = np.zeros(n)
        self.start_nu = np.zeros(2 * n)
        self.start_nu[0] = -U
        self.start_nu[n:] = yt / s
        self.start_nu[n] -= U


@dataclass
class SdpSolution:
    free_vector: np.ndarray
    gap: float
    iterations: int
    status: SdpStatus
    iteration_log: list = field(default_factory=list)


class _ToeplitzBlock:
    """The trace map of an n x n block: apply(X)_k = <A_k, X>, the k-th
    subdiagonal sum, with A_k = (E_k + E_-k) / 2 and E_d the ones where
    row - column = d; adjoint(v) = sum_k v_k A_k; schur(W)[k, l] =
    tr(A_k W A_l W).  One instance serves both blocks, and apply and
    adjoint also take the stack of both (X of shape (2, n, n), v (2, n))."""

    def __init__(self, n: int):
        self.n = n
        idx = np.arange(n)
        # X.ravel()[a] lies on the diagonal row - column = offset[a] - (n-1);
        # row b sends block b of a stack to its own 2n-1 bins
        offset = (idx[:, None] - idx[None, :] + n - 1).ravel()
        self.offset = offset + (2 * n - 1) * np.arange(2)[:, None]
        # lags run over -(n-1) .. n-1, so any FFT size >= 2n-1 is exact
        self.fft_len = sfft.next_fast_len(2 * n - 1, real=True)
        self.neg = -idx % self.fft_len

    def apply(self, X: np.ndarray) -> np.ndarray:
        n, nb = self.n, X.size // self.n ** 2
        s = np.bincount(self.offset[:nb].ravel(), X.ravel()).reshape(X.shape[:-2] + (-1,))
        return 0.5 * (s[..., n - 1:] + s[..., n - 1::-1])

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """The symmetric Toeplitz matrix (or stack) with entry (i, j) equal
        to t[|i - j|], t = (v_0, v_1 / 2, ..., v_{n-1} / 2).  The extension
        c = (t_{n-1}, ..., t_1, t) holds t[|k|] at n - 1 + k, which is where
        `offset` sends entry (i, j), k = i - j, and its row b points into
        block b's 2n - 1 entries: so one `np.take` through the table that
        `apply` scatters by gathers the whole stack, with no second index
        table kept (a table of |i - j| cost n^2 more indices per solve)."""
        n = self.n
        t = 0.5 * v
        t[..., 0] *= 2.0
        c = np.concatenate([t[..., :0:-1], t], axis=-1)
        return np.take(c, self.offset[:v.size // n]).reshape(v.shape[:-1] + (n, n))

    def schur(self, W: np.ndarray) -> np.ndarray:
        """tr(E_d W E_e W) = c[d, -e] with c the 2-D autocorrelation of W;
        c[-d, -e] = c[d, e] folds the four terms of each A_k, A_l pair."""
        n, L = self.n, self.fft_len
        # W has n nonzero rows and only lags d = 0 .. n-1 are read, so the
        # row transforms run over those n rows only
        F = sfft.fft(sfft.rfft(W, n=L, axis=1), n=L, axis=0)
        c = sfft.irfft(sfft.ifft(F.real ** 2 + F.imag ** 2, axis=0)[:n], n=L, axis=1)
        return 0.5 * (c[:, :n] + c[:, self.neg])


def _nt_scaling(X: np.ndarray, Z: np.ndarray, factors=None):
    """NT scaling point of each pair in the stacks X, Z: ((R, Rinv, W, sv),
    jitter) with W Z W = X, X = R diag(sv) R' and Z = Rinv' diag(sv) Rinv,
    and jitter the number of Cholesky factors that needed a shift (`_chol`).
    `factors` are the `_chol` results of X and Z, when the caller already
    has them."""
    (Lx, jx), (Lz, jz) = factors or (_chol(X), _chol(Z))
    U, sv, Vt = np.linalg.svd(Lz.swapaxes(-1, -2) @ Lx)
    sq = np.sqrt(sv)[..., None, :]
    R = Lx @ (Vt.swapaxes(-1, -2) / sq)
    Rinv = (U / sq).swapaxes(-1, -2) @ Lz.swapaxes(-1, -2)
    W = R @ R.swapaxes(-1, -2)
    return (R, Rinv, 0.5 * (W + W.swapaxes(-1, -2)), sv), jx + jz


def _chol(M: np.ndarray):
    """(L, jitter): the Cholesky factor of each matrix of the stack M, and
    how many of them needed a shift.  The stack is factored in one call; if
    that fails, each matrix is factored alone, retried on M + s I with s
    1e-14, 1e-13, then 1e-12 times its mean diagonal until one factors."""
    jitter = 0.0
    for _ in range(4):
        try:
            shifted = M + jitter * np.eye(M.shape[-1]) if jitter else M
            return np.linalg.cholesky(shifted), int(jitter > 0.0)
        except np.linalg.LinAlgError:
            if M.ndim > 2:
                L, jitters = zip(*map(_chol, M))
                return np.stack(L), sum(jitters)
            jitter = max(1e-14 * (np.trace(M) / M.shape[0]), 10.0 * jitter)
    raise SdpError("block lost positive definiteness")


def _kkt_solve(lu, K: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve K sol = rhs from the LU factors (lu, piv) of K that `dgetrf`
    returns, with two steps of iterative refinement.  Non-finite values are
    passed through, not raised, for the caller to treat as the numerical
    floor.  LAPACK's `dgetrf` (in `solve`) and `dgetrs` are called
    directly: they are the calls that scipy.linalg.lu_factor and lu_solve
    make, and at n = 33 the wrappers cost more than the solve (21 against
    6 us for the 99 x 99 K)."""
    sol = dgetrs(*lu, rhs)[0]
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(2):
            sol += dgetrs(*lu, rhs - K @ sol)[0]
    return sol


def _max_step(sv: np.ndarray, Dt: np.ndarray) -> float:
    """sup alpha with diag(sv) + alpha Dt psd, for sv > 0, and for every
    pair of a stack: the step to the boundary of the blocks in the NT-scaled
    space (Dt = Rinv dX Rinv' for X, R' dZ R for Z)."""
    s = 1.0 / np.sqrt(sv)
    S = s[..., :, None] * Dt * s[..., None, :]
    S = 0.5 * (S + S.swapaxes(-1, -2))
    w_min = np.inf
    # LAPACK directly: at half sizes near 16 the scipy.linalg.eigh wrapper
    # costs more than the eigenvalue (36 against 16 us at n = 17)
    for Sb in S.reshape((-1,) + S.shape[-2:]):
        w, _, _, _, info = dsyevr(Sb, compute_v=0, range="I", il=1, iu=1, overwrite_a=1)
        if info != 0:
            raise SdpError(f"step-length eigenvalue failed (LAPACK info {info})")
        w_min = min(w_min, w[0])
    return np.inf if w_min >= 0.0 else -1.0 / w_min


def _split(M: np.ndarray) -> list:
    """Halves of a centrosymmetric M (J M J = M, J the exchange matrix), or
    of each in a stack, in the orthonormal basis (e_i +- e_{n-1-i}) / sqrt(2)
    plus e_mid for odd n: [even (ceil(n/2) square), odd (floor(n/2) square)],
    or [M] for n = 1.  Only the first ceil(n/2) rows of M are read."""
    n = M.shape[-1]
    h = n // 2
    A, B = M[..., :h, :h], M[..., :h, :n - h - 1:-1]
    Me = np.empty(M.shape[:-2] + (n - h, n - h))
    Me[..., :h, :h] = A + B
    if n % 2:
        Me[..., :h, h] = np.sqrt(2.0) * M[..., :h, h]
        Me[..., h, :h] = np.sqrt(2.0) * M[..., h, :h]
        Me[..., h, h] = M[..., h, h]
    return [Me, A - B] if h else [Me]


def _join(halves: list) -> np.ndarray:
    """The centrosymmetric n x n matrix (or stack) with the `_split` halves."""
    Me = halves[0]
    Mo = halves[1] if len(halves) > 1 else np.empty(Me.shape[:-2] + (0, 0))
    h = Mo.shape[-1]
    n = Me.shape[-1] + h
    A, B = 0.5 * (Me[..., :h, :h] + Mo), 0.5 * (Me[..., :h, :h] - Mo)
    M = np.empty(Me.shape[:-2] + (n, n))
    M[..., :h, :h], M[..., :h, n - h:] = A, B[..., ::-1]
    M[..., n - h:, :h], M[..., n - h:, n - h:] = B[..., ::-1, :], A[..., ::-1, ::-1]
    if n % 2:
        M[..., :h, h] = M[..., :n - h - 1:-1, h] = Me[..., :h, h] / np.sqrt(2.0)
        M[..., h, :h] = M[..., h, :n - h - 1:-1] = Me[..., h, :h] / np.sqrt(2.0)
        M[..., h, h] = Me[..., h, h]
    return M


def solve(prob: SdpProblem, tol: float = 1e-8, max_iter: int = 100) -> SdpSolution:
    """Solve the program to relative accuracy `tol`.

    The solve starts from the problem's strictly feasible point, mapped to
    the scaled coordinates.  It stops at the first iterate whose relative
    equality residual, dual residual, complementarity residual and gap all
    fall below tol, and returns it as SOLVED.  Otherwise it returns the last
    iterate as MAX_ITER: the iteration limit was reached, the solve
    stopped at the numerical floor, or no halving of a step kept the blocks
    positive definite.  `gap` is the largest of those four relative
    measures at the returned iterate.  tol must be finite and positive,
    max_iter an integer >= 1.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if type(max_iter) is bool or not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")

    n = prob.y.size
    p = 2 * n
    blk = _ToeplitzBlock(n)

    # --- scaling: a variable scale so that the scaled right-hand side is
    # O(1), then an objective scale.  s_obj >= lam > 0, as order m is noisy.
    s_var = prob.lam
    h = prob.h / s_var
    F = prob.F
    s_obj = max(float(np.abs(prob.y).max()), s_var)
    Q = prob.Q * (s_var / s_obj)
    q = prob.y / s_obj

    def inner(X, Z):  # the sum of <X_b, Z_b>, half by half, block 0 first
        return sum(float(np.dot(Xp[b].ravel(), Zp[b].ravel()))
                   for b in range(2) for Xp, Zp in zip(X, Z))

    # X, Z and every per-half array are lists over parity of both blocks'
    # stacked halves, full blocks and rows are stacks of both blocks.  The
    # start in the scaled coordinates: X, x over s_var, and nu over s_obj,
    # which makes Z_b = -A*(nu_b) the original Z_b / s_obj
    X = _split(np.stack(prob.start_psd) / s_var)
    x = prob.start_free / s_var
    nu = prob.start_nu / s_obj
    Z = _split(-blk.adjoint(nu.reshape(2, n)))

    def measures(X, Z, x, nu):
        """Residuals, complementarity and relative measures of an iterate;
        r_c is returned as halves, its measure taken on the full blocks."""
        r_p = h - F @ x - blk.apply(_join(X)).ravel()
        r_d = F.T @ nu - Q @ x - q
        Zf = _join(Z)
        r_c = -blk.adjoint(nu.reshape(2, n)) - Zf
        gap = inner(X, Z)
        xQx = 0.5 * x @ Q @ x
        pobj = xQx + q @ x
        dobj = h @ nu - xQx
        rel = {"pobj": pobj, "dobj": dobj,
               "gap": gap / (1.0 + abs(pobj) + abs(dobj)),
               "rp": np.abs(r_p).max() / (1.0 + np.abs(h).max()),
               "rd": np.abs(r_d).max() / (1.0 + np.abs(q).max()),
               "rc": (np.abs(r_c).max(axis=(1, 2))
                      / (1.0 + np.abs(Zf).max(axis=(1, 2)))).max()}
        rel["all"] = max(rel["rp"], rel["rd"], rel["rc"], abs(rel["gap"]))
        # the step safeguard's merit
        rel["merit"] = rel["gap"] + rel["rp"] + rel["rd"]
        return r_p, r_d, _split(r_c), gap, rel

    # the KKT matrix [[H, F], [F', -Q]]; each step rewrites only the
    # diagonal blocks H_0, H_1 of H
    K = np.zeros((p + n, p + n))
    K[:p, p:], K[p:, :p], K[p:, p:] = F, F.T, -Q

    def ends(meas):
        """Whether the solve stops at this iterate: it is solved, or at
        the numerical floor."""
        gap, rel = meas[3], meas[4]
        return (rel["all"] <= tol or gap <= 0.0
                or gap / p < 1e-17 * (1.0 + abs(rel["pobj"])))

    def factor(X, Z):
        """The `_chol` results of X and Z, parity by parity."""
        return [(_chol(Xp), _chol(Zp)) for Xp, Zp in zip(X, Z)]

    log = []
    it = 0
    gamma = 0.99
    meas = measures(X, Z, x, nu)
    factors = None

    for it in range(1, max_iter + 1):
        r_p, r_d, r_c, gap, rel = meas
        mu = gap / p
        log.append({"iter": it - 1, "pobj": s_obj * s_var * rel["pobj"],
                    "dobj": s_obj * s_var * rel["dobj"], "gap": rel["gap"],
                    "rp": rel["rp"], "rd": rel["rd"], "rc": rel["rc"],
                    "ap": 0.0, "ad": 0.0, "halvings": 0, "jitter": 0,
                    "indefinite": 0})
        if ends(meas):
            if rel["all"] > tol:
                log[-1]["stop"] = "numerical floor"
            break

        # NT scalings per parity, from the factors of the step that reached
        # this iterate; Schur complement per full block
        scal, jitter = zip(*[_nt_scaling(Xp, Zp, fp) for Xp, Zp, fp
                             in zip(X, Z, factors or factor(X, Z))])
        # the factors would raise the step's peak memory
        factors = None
        log[-1]["jitter"] = sum(jitter)
        for b, W in enumerate(_join([sc[2] for sc in scal])):
            Hb = blk.schur(W)
            K[b * n:(b + 1) * n, b * n:(b + 1) * n] = 0.5 * (Hb + Hb.T)
        if not np.all(np.isfinite(K[:p, :p])):
            # overflow on a diverging run
            log[-1]["stop"] = "non-finite Schur complement"
            break
        # the data are finite (SdpProblem) and so is H; a zero pivot
        # (info > 0) is caught below as a non-finite direction
        lu = dgetrf(K)[:2]

        # the parts of the dX relation that do not depend on sigma
        Zinv = [(R / sv[..., None, :]) @ R.swapaxes(-1, -2) for R, Rinv, W, sv in scal]
        WrW = [W @ rc @ W for (R, Rinv, W, sv), rc in zip(scal, r_c)]

        def newton(sigma_mu, corr):
            """Direction for target sigma*mu, optional corrector matrices;
            None when roundoff made it non-finite."""
            D = [sigma_mu * Zi - Xh - wrw for Zi, Xh, wrw in zip(Zinv, X, WrW)]
            if corr is not None:
                D = [Dh - ch for Dh, ch in zip(D, corr)]
            rhs = np.concatenate([r_p - blk.apply(_join(D)).ravel(), -r_d])
            sol = _kkt_solve(lu, K, rhs)
            if not np.all(np.isfinite(sol)):
                return None
            dnu, dx = sol[:p], sol[p:]
            Adnu = _split(blk.adjoint(dnu.reshape(2, n)))
            dZ = [rc - a for rc, a in zip(r_c, Adnu)]
            dX = [Dh + W @ a @ W for Dh, a, (R, Rinv, W, sv) in zip(D, Adnu, scal)]
            dX = [0.5 * (M + M.swapaxes(-1, -2)) for M in dX]
            # the direction in the NT-scaled space, where step lengths are taken
            dXt = [Ri @ dxh @ Ri.swapaxes(-1, -2) for (R, Ri, W, sv), dxh in zip(scal, dX)]
            dZt = [R.swapaxes(-1, -2) @ dzh @ R for (R, Ri, W, sv), dzh in zip(scal, dZ)]
            ap = min(_max_step(sc[3], Dt) for sc, Dt in zip(scal, dXt))
            ad = min(_max_step(sc[3], Dt) for sc, Dt in zip(scal, dZt))
            return dX, dZ, dx, dnu, dXt, dZt, ap, ad

        # predictor
        step = newton(0.0, None)
        if step is None:
            log[-1]["stop"] = "non-finite direction"
            break
        dXa, dZa, _, _, dXt, dZt, ap, ad = step
        ap, ad = min(1.0, ap), min(1.0, ad)
        gap_aff = inner([Xh + ap * dxh for Xh, dxh in zip(X, dXa)],
                        [Zh + ad * dzh for Zh, dzh in zip(Z, dZa)])
        sigma = min(0.999, max(1e-8, (max(gap_aff, 0.0) / gap) ** 3))

        # corrector with second-order term in the scaled space
        corr = [R @ (0.5 * (xt @ zt + zt @ xt)) @ R.swapaxes(-1, -2)
                for (R, Rinv, W, sv), xt, zt in zip(scal, dXt, dZt)]
        # the predictor's arrays would raise the corrector's peak memory
        del dXa, dZa, dXt, dZt, step
        step = newton(sigma * mu, corr)
        if step is None:
            log[-1]["stop"] = "non-finite direction"
            break
        dX, dZ, dx, dnu, _, _, ap, ad = step
        del step, _, corr
        # one length for the primal and the dual step, so that r_d, which
        # couples x and nu, falls by the same factor as r_p
        a = min(1.0, gamma * ap, gamma * ad)

        # a trial is accepted when its merit passes, its step is short, or
        # no halving is left; it is taken only if its blocks factor, unless
        # the solve ends at it
        for halvings in range(4):
            sa = a * 0.5 ** halvings
            Xn = [Xh + sa * dxh for Xh, dxh in zip(X, dX)]
            Zn = [Zh + sa * dzh for Zh, dzh in zip(Z, dZ)]
            xn = x + sa * dx
            nun = nu + sa * dnu
            meas = measures(Xn, Zn, xn, nun)
            # the trial gap is normalised by the current point's objectives,
            # as in the current point's own merit
            merit_n = (meas[3] / (1.0 + abs(rel["pobj"]) + abs(rel["dobj"]))
                       + meas[-1]["rp"] + meas[-1]["rd"])
            if merit_n > 10.0 * rel["merit"] and sa >= 1e-3 and halvings < 3:
                continue
            if it == max_iter or ends(meas):
                break
            try:
                factors = factor(Xn, Zn)
                break
            except SdpError:
                log[-1]["indefinite"] += 1
        else:
            log[-1]["stop"] = "lost positive definiteness"
            meas = measures(X, Z, x, nu)
            break
        log[-1].update(ap=sa, ad=sa, halvings=halvings)
        X, Z, x, nu = Xn, Zn, xn, nun

    final_gap = meas[-1]["all"]
    status = SdpStatus.SOLVED if final_gap <= tol else SdpStatus.MAX_ITER
    return SdpSolution(s_var * x, float(final_gap), it, status, log)
