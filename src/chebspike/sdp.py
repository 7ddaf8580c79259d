"""Dense conic solver for the trace-parameterized dual programs of this
package: PSD Toeplitz-constrained blocks, a free vector block, linear
equality constraints, and a convex quadratic objective.

Problem form::

    minimize    (1/2) x' Q x + q' x
    subject to  sum_b <A_rb, X_b> + (F x)_r = h_r,    r = 0 .. p-1
                X_b positive semidefinite

Every PSD block is given as `ToeplitzEntries` (rows, v): constraint rows[k]
reads v[k] times the k-th subdiagonal sum of X_b, the trace parameterization
of a nonnegative cosine polynomial.  So A_rb = v[k] (E_k + E_-k) / 2 for
r = rows[k], with E_d the matrix of ones where row - column = d, and A_rb = 0
on the rows the block does not touch.  This is the only block form.

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

The solve starts from a strictly feasible primal-dual point that comes with
the problem (`SdpProblem.start_psd`, `start_free`, `start_nu`): X_b and
Z_b = -A_b*(nu) positive definite, r_p and r_d zero up to roundoff.  The
trace-parameterized programs of this package always have one in closed form
(`blasso.assemble_dual_sdp`).  X and x move with the same primal step
length, so r_p stays at roundoff on every iterate and the solver needs no
infeasibility status or phase-one work (Vandenberghe & Boyd, SIAM Review
1996, sections 6-7).  r_d does not stay there: x moves with the primal step
length and nu with the dual one, so a step with unequal lengths puts part of
the Newton correction back into r_d.

Every iterate is centrosymmetric (J X_b J = X_b, J Z_b J = Z_b, J the
exchange matrix), so each block is carried as its halves on the even vectors
(e_i + e_{n-1-i})/sqrt(2), plus e_mid for odd n, and on the odd vectors
(e_i - e_{n-1-i})/sqrt(2): sizes ceil(n/2) and floor(n/2).  This symmetry
reduction (Gatermann & Parrilo, J. Pure Appl. Algebra 2004) is exact here:
every A_rb is symmetric Toeplitz and commutes with J, the start is checked to
be centrosymmetric, and the NT scaling, Z^-1, W r_c W and the corrector term
are equivariant under M -> J M J.  The NT scalings, step lengths and updates
run per half, about a quarter of the dense work of a full block; apply,
adjoint and the Schur complement stay on the full blocks, reached by O(n^2)
slicing (`_split`, `_join`).  The method is deterministic: identical inputs
produce identical iterates.

Dual pair used internally (Z_b are the multipliers of the PSD constraints,
nu of the equalities)::

    r_p   = h - A(X) - F x
    r_d   = F' nu - Q x - q
    r_c,b = -A_b*(nu) - Z_b
    mu    = sum_b <X_b, Z_b> / sum_b n_b

and the NT-scaled Newton step eliminates (dX, dZ) through

    dZ_b = r_c,b - A_b*(dnu)
    dX_b + W_b dZ_b W_b = sigma mu Z_b^{-1} - X_b  (- corrector term),

leaving the symmetric quasi-definite system

    [ H   F ] [dnu]   [ r_p - A(D) ]        H[r,l] = sum_b tr(A_rb W_b A_lb W_b)
    [ F'  -Q ] [dx ] = [ -r_d      ],       D_b = rhs of the dX relation above.

Each step writes H into the matrix on the left, whose F and -Q parts are
set once per solve, and factors it by one unregularized LU; an exactly zero
pivot makes the direction non-finite, which ends the solve as below.

While the complementarity gap and residuals generally decrease monotonically,
a step that would increase the combined merit (relative gap plus relative
residuals) more than tenfold is halved up to three times before being
accepted; this is the safeguard referred to in the iteration log, which
records each step's lengths `ap`, `ad` and its number of `halvings`.  A
vanishing gap, a non-finite Schur complement or a non-finite Newton
direction ends the solve at the numerical floor, named under `stop` in the
last log row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.fft as sfft
import scipy.linalg as sla
from scipy.linalg.lapack import dsyevr


class SdpStatus(Enum):
    SOLVED = "Solved"
    MAX_ITER = "MaxIter"


class SdpError(Exception):
    """Structural problem with the conic program or a failed solve."""


class ToeplitzEntries:
    """Constraint data of an n x n PSD block in trace form, n = len(rows):
    row rows[k] gains coeffs[k] times the sum of the k-th subdiagonal of
    X_b, k = 0 .. n-1."""

    def __init__(self, rows, coeffs):
        self.rows = np.atleast_1d(np.asarray(rows)).astype(int)
        self.coeffs = np.atleast_1d(np.asarray(coeffs)).astype(float)
        if self.rows.shape != self.coeffs.shape or self.rows.ndim != 1:
            raise SdpError("Toeplitz rows and coeffs must be equal-length vectors")
        if self.rows.size == 0:
            raise SdpError("a Toeplitz block needs at least one row")
        if np.unique(self.rows).size != self.rows.size:
            raise SdpError("Toeplitz constraint rows must be distinct")


@dataclass
class SdpProblem:
    """Conic program data.

    block_entries is a nonempty list of ToeplitzEntries, one per PSD block;
    the block sizes follow from them (`psd_block_dims`).  free_coeffs is the
    dense (p, free_dim) matrix F, quad the PSD quadratic form on the free
    block and lin its linear term.

    The solve starts from (start_psd, start_free, start_nu): the PSD blocks
    X_b, the free vector x and the equality multipliers nu of a strictly
    feasible primal-dual point.  Each X_b and Z_b = -A_b*(nu) must be
    positive definite and centrosymmetric, and r_p = h - A(X) - F x and
    r_d = F' nu - Q x - q must vanish up to roundoff; otherwise SdpError.
    """

    free_dim: int
    rhs: np.ndarray
    block_entries: list
    start_psd: list
    start_free: np.ndarray
    start_nu: np.ndarray
    free_coeffs: np.ndarray | None = None
    quad: np.ndarray | None = None
    lin: np.ndarray | None = None

    def __post_init__(self):
        h = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        p = h.size
        entries = list(self.block_entries)
        if not entries:
            raise SdpError("at least one PSD block is needed")
        for ent in entries:
            if not isinstance(ent, ToeplitzEntries):
                raise SdpError("PSD blocks must be given as ToeplitzEntries")
            if ent.rows.min() < 0 or ent.rows.max() >= p:
                raise SdpError("constraint row index out of range")
        self.block_entries = entries
        f = int(self.free_dim)
        if f < 0:
            raise SdpError("free dimension must be nonnegative")
        F = self.free_coeffs
        F = np.zeros((p, f)) if F is None else np.asarray(F, dtype=float)
        if F.shape != (p, f):
            raise SdpError(f"free_coeffs must have shape ({p}, {f})")
        Q = self.quad
        Q = np.zeros((f, f)) if Q is None else np.asarray(Q, dtype=float)
        if Q.shape != (f, f):
            raise SdpError(f"quad must have shape ({f}, {f})")
        q = self.lin
        q = np.zeros(f) if q is None else np.atleast_1d(np.asarray(q, dtype=float))
        if q.shape != (f,):
            raise SdpError(f"lin must have shape ({f},)")
        for name, val in (("rhs", h), ("free_coeffs", F), ("quad", Q), ("lin", q)):
            if not np.all(np.isfinite(val)):
                raise SdpError(f"{name} has non-finite entries")
        if p > sum(n * (n + 1) // 2 for n in self.psd_block_dims) + f:
            raise SdpError("more constraint rows than variable dimensions")
        object.__setattr__(self, "free_dim", f)
        object.__setattr__(self, "rhs", h)
        object.__setattr__(self, "free_coeffs", F)
        object.__setattr__(self, "quad", Q)
        object.__setattr__(self, "lin", q)
        # no constraint row may be entirely empty
        touched = np.zeros(p, dtype=bool)
        for ent in entries:
            touched[ent.rows[ent.coeffs != 0.0]] = True
        if f:
            touched |= np.any(F != 0.0, axis=1)
        if not touched.all():
            bad = np.nonzero(~touched)[0]
            raise SdpError(f"constraint rows {bad.tolist()} have no coefficients")
        self._check_start()

    def _check_start(self):
        X = [np.asarray(Xb, dtype=float) for Xb in self.start_psd]
        x = np.atleast_1d(np.asarray(self.start_free, dtype=float))
        nu = np.atleast_1d(np.asarray(self.start_nu, dtype=float))
        dims, p, F, Q, q = (self.psd_block_dims, self.n_constraints,
                            self.free_coeffs, self.quad, self.lin)
        if ([Xb.shape for Xb in X] != [(n, n) for n in dims]
                or x.shape != (self.free_dim,) or nu.shape != (p,)):
            raise SdpError("start shapes do not match the problem")
        for name, vals in (("start_psd", X), ("start_free", [x]), ("start_nu", [nu])):
            if not all(np.isfinite(v).all() for v in vals):
                raise SdpError(f"{name} has non-finite entries")
        blocks = [_ToeplitzBlock(ent.rows, ent.coeffs, p) for ent in self.block_entries]
        for M in X + [-blk.adjoint(nu) for blk in blocks]:
            if not (np.array_equal(M, M.T) and np.array_equal(M, M[::-1, ::-1])):
                raise SdpError("start blocks must be symmetric and centrosymmetric")
            try:
                np.linalg.cholesky(M)
            except np.linalg.LinAlgError:
                raise SdpError("start is not strictly feasible: a block of X "
                               "or Z is not positive definite") from None
        # each residual entry against the sum of the magnitudes of its terms
        r_p = self.rhs - F @ x - sum(blk.apply(Xb) for blk, Xb in zip(blocks, X))
        mag_p = (np.abs(self.rhs) + np.abs(F) @ np.abs(x)
                 + sum(np.abs(blk.apply(np.abs(Xb))) for blk, Xb in zip(blocks, X)))
        r_d = F.T @ nu - Q @ x - q
        mag_d = np.abs(F.T) @ np.abs(nu) + np.abs(Q) @ np.abs(x) + np.abs(q)
        if np.any(np.abs(r_p) > 1e-12 * mag_p) or np.any(np.abs(r_d) > 1e-12 * mag_d):
            raise SdpError("start is not feasible: r_p or r_d above roundoff")
        object.__setattr__(self, "start_psd", X)
        object.__setattr__(self, "start_free", x)
        object.__setattr__(self, "start_nu", nu)

    @property
    def psd_block_dims(self) -> tuple:
        return tuple(ent.rows.size for ent in self.block_entries)

    @property
    def n_constraints(self) -> int:
        return self.rhs.size


@dataclass
class SdpSolution:
    psd_blocks: list
    free_vector: np.ndarray
    objective_value: float
    gap: float
    iterations: int
    status: SdpStatus
    iteration_log: list = field(default_factory=list)


class _ToeplitzBlock:
    """Compiled ToeplitzEntries: A_k = v_k (E_k + E_-k) / 2, where E_d has
    ones where row - column = d, so <A_k, X> = v_k * (k-th subdiagonal sum)."""

    def __init__(self, rows, coeffs, p: int):
        n = rows.size
        self.n, self.p = n, p
        self.active = rows
        self.v = coeffs
        idx = np.arange(n)
        # X.ravel()[a] lies on the diagonal row - column = offset[a] - (n-1)
        self.offset = (idx[:, None] - idx[None, :] + n - 1).ravel()
        # lags run over -(n-1) .. n-1, so any FFT size >= 2n-1 is exact
        self.fft_len = sfft.next_fast_len(2 * n - 1, real=True)
        self.neg = -idx % self.fft_len

    def apply(self, X: np.ndarray) -> np.ndarray:
        n = self.n
        s = np.bincount(self.offset, weights=X.ravel(), minlength=2 * n - 1)
        out = np.zeros(self.p)
        out[self.active] = self.v * 0.5 * (s[n - 1:] + s[n - 1::-1])
        return out

    def adjoint(self, nu: np.ndarray) -> np.ndarray:
        t = 0.5 * self.v * nu[self.active]
        t[0] *= 2.0
        return sla.toeplitz(t)

    def schur(self, W: np.ndarray) -> tuple:
        """tr(E_d W E_e W) = c[d, -e] with c the 2-D autocorrelation of W;
        c[-d, -e] = c[d, e] folds the four terms of each A_k, A_l pair."""
        n, L = self.n, self.fft_len
        # W has n nonzero rows and only lags d = 0 .. n-1 are read, so the
        # row transforms run over those n rows only
        F = sfft.fft(sfft.rfft(W, n=L, axis=1), n=L, axis=0)
        c = sfft.irfft(sfft.ifft(F.real ** 2 + F.imag ** 2, axis=0)[:n], n=L, axis=1)
        H = 0.5 * (c[:, :n] + c[:, self.neg])
        return self.active, self.v[:, None] * H * self.v[None, :]


def _nt_scaling(X: np.ndarray, Z: np.ndarray):
    """NT scaling point: returns (R, Rinv, W, sv) with W Z W = X,
    X = R diag(sv) R' and Z = Rinv' diag(sv) Rinv."""
    Lx, Lz = _chol(X), _chol(Z)
    U, sv, Vt = np.linalg.svd(Lz.T @ Lx)
    sq = np.sqrt(sv)
    R = Lx @ (Vt.T / sq[None, :])
    Rinv = (U / sq[None, :]).T @ Lz.T
    W = R @ R.T
    return R, Rinv, 0.5 * (W + W.T), sv


def _chol(M: np.ndarray) -> np.ndarray:
    jitter = 0.0
    base = np.trace(M) / M.shape[0]
    for _ in range(4):
        try:
            return np.linalg.cholesky(M + jitter * np.eye(M.shape[0]))
        except np.linalg.LinAlgError:
            jitter = max(1e-14 * base, 10.0 * jitter)
    raise SdpError("block lost positive definiteness")


def _kkt_solve(lu, K: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve K sol = rhs from the LU factors of K with two steps of
    iterative refinement.  Non-finite values are passed through, not
    raised, for the caller to treat as the numerical floor."""
    sol = sla.lu_solve(lu, rhs, check_finite=False)
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(2):
            sol += sla.lu_solve(lu, rhs - K @ sol, check_finite=False)
    return sol


def _max_step(sv: np.ndarray, Dt: np.ndarray) -> float:
    """sup alpha with diag(sv) + alpha Dt psd, for sv > 0: the step to the
    boundary of a block in the NT-scaled space (Dt = Rinv dX Rinv' for X,
    R' dZ R for Z)."""
    s = 1.0 / np.sqrt(sv)
    S = s[:, None] * Dt * s[None, :]
    # LAPACK directly: at half sizes near 16 the scipy.linalg.eigh wrapper
    # costs more than the eigenvalue (36 against 16 us at n = 17)
    w, _, _, _, info = dsyevr(0.5 * (S + S.T), compute_v=0, range="I", il=1, iu=1,
                              overwrite_a=1)
    if info != 0:
        raise SdpError(f"step-length eigenvalue failed (LAPACK info {info})")
    return np.inf if w[0] >= 0.0 else -1.0 / w[0]


def _split(M: np.ndarray) -> list:
    """Halves of a centrosymmetric M (J M J = M, J the exchange matrix) in
    the orthonormal basis (e_i +- e_{n-1-i}) / sqrt(2), plus e_mid for odd n:
    [even (ceil(n/2) square), odd (floor(n/2) square)], or [M] for n = 1.
    Only the first ceil(n/2) rows of M are read."""
    n = M.shape[0]
    h = n // 2
    A, B = M[:h, :h], M[:h, :n - h - 1:-1]
    Me = np.empty((n - h, n - h))
    Me[:h, :h] = A + B
    if n % 2:
        Me[:h, h] = np.sqrt(2.0) * M[:h, h]
        Me[h, :h] = np.sqrt(2.0) * M[h, :h]
        Me[h, h] = M[h, h]
    return [Me, A - B] if h else [Me]


def _join(halves: list) -> np.ndarray:
    """The centrosymmetric n x n matrix with the given `_split` halves."""
    Me, Mo = halves[0], halves[1] if len(halves) > 1 else np.empty((0, 0))
    h = Mo.shape[0]
    n = Me.shape[0] + h
    A, B = 0.5 * (Me[:h, :h] + Mo), 0.5 * (Me[:h, :h] - Mo)
    M = np.empty((n, n))
    M[:h, :h], M[:h, n - h:] = A, B[:, ::-1]
    M[n - h:, :h], M[n - h:, n - h:] = B[::-1], A[::-1, ::-1]
    if n % 2:
        M[:h, h] = M[:n - h - 1:-1, h] = Me[:h, h] / np.sqrt(2.0)
        M[h, :h] = M[h, :n - h - 1:-1] = Me[h, :h] / np.sqrt(2.0)
        M[h, h] = Me[h, h]
    return M


def solve(prob: SdpProblem, tol: float = 1e-8, max_iter: int = 100) -> SdpSolution:
    """Solve the conic program to relative accuracy `tol`.

    The solve starts from the problem's strictly feasible point, mapped to
    the scaled coordinates.  Returns SOLVED when the relative equality
    residual, dual residual, complementarity residual and gap all fall below
    tol, and MAX_ITER otherwise (the iteration limit or a stop at the
    numerical floor).  The returned point is the best iterate, and `gap` is
    the largest of those four relative measures there.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    dims = prob.psd_block_dims
    p, f = prob.n_constraints, prob.free_dim
    N = sum(dims)

    # --- scaling: per-row equilibration, then a global variable scale so the
    # scaled right-hand side is O(1), then an objective scale.
    row_scale = np.zeros(p)
    for ent in prob.block_entries:
        np.maximum.at(row_scale, ent.rows, np.abs(ent.coeffs))
    if f:
        row_scale = np.maximum(row_scale, np.abs(prob.free_coeffs).max(axis=1,
                                                                       initial=0.0))
    row_scale[row_scale == 0.0] = 1.0
    h = prob.rhs / row_scale
    s_var = float(np.abs(h).max())
    s_var = s_var if s_var > 0 else 1.0
    h = h / s_var
    F = prob.free_coeffs / row_scale[:, None] if f else prob.free_coeffs
    s_obj = max(float(np.abs(prob.lin).max(initial=0.0)),
                s_var * float(np.abs(prob.quad).max(initial=0.0)), 1e-30)
    if s_obj == 1e-30:
        s_obj = 1.0
    Q = prob.quad * (s_var / s_obj)
    q = prob.lin / s_obj

    blocks = [_ToeplitzBlock(ent.rows, ent.coeffs / row_scale[ent.rows], p)
              for ent in prob.block_entries]

    # every iterate is centrosymmetric (see the module docstring), so each
    # block is carried as its `_split` halves: X, Z are flat lists of all
    # blocks' halves, and block b's halves are X[spans[b]]
    ends = np.cumsum([min(n, 2) for n in dims])
    spans = [slice(e - min(n, 2), e) for e, n in zip(ends, dims)]

    def split(full):
        return [Mh for M in full for Mh in _split(M)]

    def join(halves):
        return [_join(halves[s]) for s in spans]

    # the start in the scaled coordinates: X, x over s_var, and nu times
    # row_scale / s_obj, which makes Z_b = -A_b*(nu) the original Z_b / s_obj
    X = split([Xb / s_var for Xb in prob.start_psd])
    x = prob.start_free / s_var
    nu = prob.start_nu * row_scale / s_obj
    Z = split([-blk.adjoint(nu) for blk in blocks])

    def measures(X, Z, x, nu):
        """Residuals, complementarity and relative measures of an iterate;
        r_c is returned as halves, its measure taken on the full blocks."""
        r_p = h - F @ x if f else h.copy()
        for blk, Xb in zip(blocks, join(X)):
            r_p -= blk.apply(Xb)
        r_d = (F.T @ nu - Q @ x - q) if f else np.zeros(0)
        Zf = join(Z)
        r_c = [-blk.adjoint(nu) - Zb for blk, Zb in zip(blocks, Zf)]
        gap = sum(float(np.tensordot(Xh, Zh)) for Xh, Zh in zip(X, Z))
        xQx = 0.5 * x @ Q @ x if f else 0.0
        pobj = xQx + q @ x if f else 0.0
        dobj = h @ nu - xQx
        rel = {"pobj": pobj, "dobj": dobj,
               "gap": gap / (1.0 + abs(pobj) + abs(dobj)),
               "rp": np.abs(r_p).max() / (1.0 + np.abs(h).max()),
               "rd": np.abs(r_d).max() / (1.0 + np.abs(q).max()) if f else 0.0,
               "rc": max(np.abs(rc).max() / (1.0 + np.abs(Zb).max())
                         for rc, Zb in zip(r_c, Zf))}
        rel["all"] = max(rel["rp"], rel["rd"], rel["rc"], abs(rel["gap"]))
        # the step safeguard's merit
        rel["merit"] = rel["gap"] + rel["rp"] + rel["rd"]
        return r_p, r_d, split(r_c), gap, rel

    # the KKT matrix [[H, F], [F', -Q]]; each step rewrites only H
    K = np.zeros((p + f, p + f))
    K[:p, p:], K[p:, :p], K[p:, p:] = F, F.T, -Q

    log = []
    it = 0
    best_rel = {"all": np.inf}
    best_point = None
    gamma = 0.99
    meas = measures(X, Z, x, nu)

    for it in range(1, max_iter + 1):
        r_p, r_d, r_c, gap, rel = meas
        mu = gap / N
        log.append({"iter": it - 1, "pobj": s_obj * s_var * rel["pobj"],
                    "dobj": s_obj * s_var * rel["dobj"], "gap": rel["gap"],
                    "rp": rel["rp"], "rd": rel["rd"], "rc": rel["rc"],
                    "ap": 0.0, "ad": 0.0, "halvings": 0})
        if rel["all"] < best_rel["all"]:
            best_rel = rel
            best_point = ([Xh.copy() for Xh in X], [Zh.copy() for Zh in Z],
                          x.copy(), nu.copy())
        if rel["all"] <= tol:
            break
        if gap <= 0.0 or mu < 1e-17 * (1.0 + abs(rel["pobj"])):
            # numerical floor; classify from the best iterate below
            log[-1]["stop"] = "numerical floor"
            break

        # NT scalings per half, Schur complement per full block
        scal = [_nt_scaling(Xh, Zh) for Xh, Zh in zip(X, Z)]
        H = np.zeros((p, p))
        for blk, W in zip(blocks, join([sc[2] for sc in scal])):
            act, Hb = blk.schur(W)
            H[np.ix_(act, act)] += Hb
        if not np.all(np.isfinite(H)):
            # overflow on a diverging run; classify from the best iterate
            log[-1]["stop"] = "non-finite Schur complement"
            break
        K[:p, :p] = 0.5 * (H + H.T)
        # the data are finite (SdpProblem) and so is H; a zero pivot is
        # caught below as a non-finite direction
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu = sla.lu_factor(K, check_finite=False)

        # the parts of the dX relation that do not depend on sigma
        Zinv = [(R / sv[None, :]) @ R.T for R, Rinv, W, sv in scal]
        WrW = [W @ rc @ W for (R, Rinv, W, sv), rc in zip(scal, r_c)]

        def newton(sigma_mu, corr):
            """Direction for target sigma*mu, optional corrector matrices;
            None when roundoff made it non-finite."""
            D = [sigma_mu * Zi - Xh - wrw for Zi, Xh, wrw in zip(Zinv, X, WrW)]
            if corr is not None:
                D = [Dh - ch for Dh, ch in zip(D, corr)]
            g1 = r_p.copy()
            for blk, Db in zip(blocks, join(D)):
                g1 -= blk.apply(Db)
            rhs = np.concatenate([g1, -r_d]) if f else g1
            sol = _kkt_solve(lu, K, rhs)
            if not np.all(np.isfinite(sol)):
                return None
            dnu, dx = sol[:p], sol[p:]
            Adnu = split([blk.adjoint(dnu) for blk in blocks])
            dZ = [rc - a for rc, a in zip(r_c, Adnu)]
            dX = []
            for Dh, a, (R, Rinv, W, sv) in zip(D, Adnu, scal):
                M = Dh + W @ a @ W
                dX.append(0.5 * (M + M.T))
            # the direction in the NT-scaled space, where step lengths are taken
            dXt = [Rinv @ dxh @ Rinv.T for (R, Rinv, W, sv), dxh in zip(scal, dX)]
            dZt = [R.T @ dzh @ R for (R, Rinv, W, sv), dzh in zip(scal, dZ)]
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
        gap_aff = sum(float(np.tensordot(Xh + ap * dxh, Zh + ad * dzh))
                      for Xh, dxh, Zh, dzh in zip(X, dXa, Z, dZa))
        sigma = min(0.999, max(1e-8, (max(gap_aff, 0.0) / gap) ** 3))

        # corrector with second-order term in the scaled space
        corr = [R @ (0.5 * (xt @ zt + zt @ xt)) @ R.T
                for (R, Rinv, W, sv), xt, zt in zip(scal, dXt, dZt)]
        # the predictor's arrays would raise the corrector's peak memory
        del dXa, dZa, dXt, dZt, step
        step = newton(sigma * mu, corr)
        if step is None:
            log[-1]["stop"] = "non-finite direction"
            break
        dX, dZ, dx, dnu, _, _, ap, ad = step
        del step, _, corr
        ap, ad = min(1.0, gamma * ap), min(1.0, gamma * ad)

        for halvings in range(4):
            sp, sd = ap * 0.5 ** halvings, ad * 0.5 ** halvings
            Xn = [Xh + sp * dxh for Xh, dxh in zip(X, dX)]
            Zn = [Zh + sd * dzh for Zh, dzh in zip(Z, dZ)]
            xn = x + sp * dx
            nun = nu + sd * dnu
            meas = measures(Xn, Zn, xn, nun)
            # the trial gap is normalised by the current point's objectives,
            # as in the current point's own merit
            merit_n = (meas[3] / (1.0 + abs(rel["pobj"]) + abs(rel["dobj"]))
                       + meas[-1]["rp"] + meas[-1]["rd"])
            if merit_n <= 10.0 * rel["merit"] or sp < 1e-3:
                break
        log[-1].update(ap=sp, ad=sd, halvings=halvings)
        X, Z, x, nu = Xn, Zn, xn, nun

    # fall back to the best iterate seen if the last one is not the best
    rel = meas[-1]
    if rel["all"] > best_rel["all"]:
        X, Z, x, nu = best_point
        rel = best_rel
    final_gap = rel["all"]
    status = SdpStatus.SOLVED if final_gap <= tol else SdpStatus.MAX_ITER

    # undo the scaling and clip roundoff negatives, per half so that the
    # returned blocks stay exactly centrosymmetric
    out_halves = []
    for Xh in X:
        M = s_var * 0.5 * (Xh + Xh.T)
        w, V = np.linalg.eigh(M)
        if w[0] < 0.0:
            M = (V * np.maximum(w, 0.0)) @ V.T
        out_halves.append(M)
    out_blocks = join(out_halves)
    x_out = s_var * x
    obj = 0.5 * x_out @ prob.quad @ x_out + prob.lin @ x_out
    return SdpSolution(out_blocks, x_out, float(obj), float(final_gap), it,
                       status, log)
