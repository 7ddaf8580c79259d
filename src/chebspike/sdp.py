"""Dense conic solver for small problems with PSD matrix blocks, a free
vector block, linear equality constraints, and a convex quadratic objective.

Problem form::

    minimize    (1/2) x' Q x + q' x
    subject to  sum_b <A_rb, X_b> + (F x)_r = h_r,    r = 0 .. p-1
                X_b positive semidefinite

The solver is a Nesterov-Todd scaled primal-dual path-following method with
a Mehrotra predictor-corrector step.  Each Newton system is reduced to a
dense Schur complement over the constraint multipliers, so the per-iteration
cost is a handful of dense factorizations and level-3 BLAS products on
matrices of the block dimensions; intended for dimensions up to a few
hundred.  A block declared as `ToeplitzEntries` (constraint k reads the k-th
subdiagonal sum, the trace parameterization of a nonnegative cosine
polynomial) forms its Schur contribution from one FFT autocorrelation of the
scaling matrix, O(n^2 log n) for an n x n block; a block given as sparse
triplets costs one O(n^3) product per constraint it touches.  The method
is deterministic: identical inputs produce identical iterates.

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

While the complementarity gap and residuals generally decrease monotonically,
a step that would increase the combined merit (relative gap plus relative
residuals) more than tenfold is halved up to three times before being
accepted; this is the safeguard referred to in the iteration log.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.fft as sfft
import scipy.linalg as sla
import scipy.sparse as sp


class SdpStatus(Enum):
    SOLVED = "Solved"
    MAX_ITER = "MaxIter"
    INFEASIBLE = "Infeasible"


class SdpError(Exception):
    """Structural problem with the conic program or a failed solve."""


class ToeplitzEntries:
    """Constraint data of an n x n block in trace form: row rows[k] gains
    coeffs[k] times the sum of the k-th subdiagonal of X_b, k = 0 .. n-1.

    Unpacking it gives the equivalent (row, i, j, val) triplets, so it can
    be read wherever a triplet tuple is expected.
    """

    def __init__(self, rows, coeffs):
        self.rows = np.atleast_1d(np.asarray(rows)).astype(int)
        self.coeffs = np.atleast_1d(np.asarray(coeffs)).astype(float)
        if self.rows.shape != self.coeffs.shape or self.rows.ndim != 1:
            raise SdpError("Toeplitz rows and coeffs must be equal-length vectors")
        if np.unique(self.rows).size != self.rows.size:
            raise SdpError("Toeplitz constraint rows must be distinct")

    def __iter__(self):
        n = self.rows.size
        k = np.concatenate([np.full(n - d, d) for d in range(n)])
        i = np.concatenate([np.arange(d, n) for d in range(n)])
        return iter((self.rows[k], i, i - k, self.coeffs[k]))


@dataclass
class SdpProblem:
    """Conic program data.

    block_entries[b] is either a tuple of four equal-length integer/float
    arrays (row, i, j, val), where constraint `row` gains the term
    val * X_b[i, j] (specifying one triangle is enough, the blocks are
    symmetric), or a ToeplitzEntries of length n_b.
    free_coeffs is the dense (p, free_dim) matrix F, quad the PSD quadratic
    form on the free block and lin its linear term.
    """

    psd_block_dims: tuple
    free_dim: int
    rhs: np.ndarray
    block_entries: list
    free_coeffs: np.ndarray | None = None
    quad: np.ndarray | None = None
    lin: np.ndarray | None = None

    def __post_init__(self):
        dims = tuple(int(n) for n in self.psd_block_dims)
        if any(n < 1 for n in dims):
            raise SdpError("PSD block dimensions must be positive")
        object.__setattr__(self, "psd_block_dims", dims)
        h = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        p = h.size
        if len(self.block_entries) != len(dims):
            raise SdpError("one entry tuple needed per PSD block")
        entries = []
        for n, ent in zip(dims, self.block_entries):
            if isinstance(ent, ToeplitzEntries):
                if ent.rows.size != n:
                    raise SdpError(f"Toeplitz block of size {n} needs {n} rows")
                if ent.rows.min() < 0 or ent.rows.max() >= p:
                    raise SdpError("constraint row index out of range")
                entries.append(ent)
                continue
            row, i, j, val = (np.atleast_1d(np.asarray(a)) for a in ent)
            if not (row.size == i.size == j.size == val.size):
                raise SdpError("block entry arrays must have equal length")
            if row.size and (row.min() < 0 or row.max() >= p):
                raise SdpError("constraint row index out of range")
            if i.size and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n):
                raise SdpError("block matrix index out of range")
            entries.append((row.astype(int), i.astype(int), j.astype(int),
                            val.astype(float)))
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
        if p > sum(n * (n + 1) // 2 for n in dims) + f:
            raise SdpError("more constraint rows than variable dimensions")
        object.__setattr__(self, "free_dim", f)
        object.__setattr__(self, "rhs", h)
        object.__setattr__(self, "free_coeffs", F)
        object.__setattr__(self, "quad", Q)
        object.__setattr__(self, "lin", q)
        # no constraint row may be entirely empty
        touched = np.zeros(p, dtype=bool)
        for row, _, _, val in entries:
            touched[row[val != 0.0]] = True
        if f:
            touched |= np.any(F != 0.0, axis=1)
        if not touched.all():
            bad = np.nonzero(~touched)[0]
            raise SdpError(f"constraint rows {bad.tolist()} have no coefficients")

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


class _Block:
    """Per-block compiled constraint data."""

    def __init__(self, n: int, row, i, j, val, p: int):
        self.n = n
        # symmetrize: val*X[i,j] with X symmetric == <sym matrix, X>
        off = i != j
        ri = np.concatenate([row, row[off]])
        ii = np.concatenate([i, j[off]])
        jj = np.concatenate([j, i[off]])
        vv = np.concatenate([np.where(off, 0.5 * val, val), 0.5 * val[off]])
        self.E = sp.csr_matrix((vv, (ri, ii * n + jj)), shape=(p, n * n))
        self.E.sum_duplicates()
        self.ET = self.E.T.tocsr()
        self.active = np.unique(ri)
        # per-active-constraint symmetrized entries, for Schur columns
        order = np.argsort(ri, kind="stable")
        ri, ii, jj, vv = ri[order], ii[order], jj[order], vv[order]
        bounds = np.searchsorted(ri, self.active, side="left")
        bounds = np.append(bounds, ri.size)
        self.seg_i = [ii[bounds[k]:bounds[k + 1]] for k in range(self.active.size)]
        self.seg_j = [jj[bounds[k]:bounds[k + 1]] for k in range(self.active.size)]
        self.seg_v = [vv[bounds[k]:bounds[k + 1]] for k in range(self.active.size)]

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self.E @ X.ravel()

    def adjoint(self, nu: np.ndarray) -> np.ndarray:
        M = (self.ET @ nu).reshape(self.n, self.n)
        return 0.5 * (M + M.T)

    def schur(self, W: np.ndarray) -> tuple:
        """(active rows, tr(A_r W A_l W) over active r, l)."""
        n = self.n
        Mstack = np.empty((self.active.size, n * n))
        for k in range(self.active.size):
            B = W[:, self.seg_i[k]] @ (self.seg_v[k][:, None] * W[self.seg_j[k], :])
            Mstack[k] = B.ravel()
        cols = self.E @ Mstack.T
        return self.active, np.asarray(cols)[self.active]


class _ToeplitzBlock:
    """Compiled ToeplitzEntries: A_k = v_k (E_k + E_-k) / 2, where E_d has
    ones where row - column = d, so <A_k, X> = v_k * (k-th subdiagonal sum)."""

    def __init__(self, n: int, rows, coeffs, p: int):
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
        n, s = self.n, (self.fft_len, self.fft_len)
        F = np.fft.rfft2(W, s=s)
        c = np.fft.irfft2(F.real ** 2 + F.imag ** 2, s=s)
        H = 0.5 * (c[:n, :n] + c[:n, self.neg])
        return self.active, self.v[:, None] * H * self.v[None, :]


def problem_to_text(prob: SdpProblem) -> str:
    """Plain-text dump of a conic program for debugging: block dimensions,
    objective, right-hand side, and one `block row i j value` line per
    constraint coefficient.  Meant for eyeballing, not round-tripping."""
    lines = [f"psd_block_dims {list(prob.psd_block_dims)}",
             f"free_dim {prob.free_dim}",
             f"rhs {prob.rhs.tolist()}"]
    if prob.free_dim:
        lines.append(f"objective_linear {prob.lin.tolist()}")
        lines.append(f"objective_quad_diag {np.diag(prob.quad).tolist()}")
        nz = np.argwhere(prob.free_coeffs != 0.0)
        for r, c in nz:
            lines.append(f"free {r} {c} {float(prob.free_coeffs[r, c])!r}")
    for b, (row, i, j, val) in enumerate(prob.block_entries):
        for r, a, bb, v in zip(row, i, j, val):
            lines.append(f"block{b} {r} {a} {bb} {float(v)!r}")
    return "\n".join(lines) + "\n"


def _nt_scaling(X: np.ndarray, Z: np.ndarray):
    """NT scaling point: returns (R, Rinv, W, sv, Lx, Lz) with W Z W = X,
    X = R diag(sv) R', Z = Rinv' diag(sv) Rinv, and Lx, Lz the Cholesky
    factors of X and Z."""
    Lx = _chol(X)
    Lz = _chol(Z)
    U, sv, Vt = np.linalg.svd(Lz.T @ Lx)
    sq = np.sqrt(sv)
    R = Lx @ (Vt.T / sq[None, :])
    Rinv = (U / sq[None, :]).T @ Lz.T
    W = R @ R.T
    return R, Rinv, 0.5 * (W + W.T), sv, Lx, Lz


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
    """Solve K sol = rhs from the LU factors of K (or of K regularized) with
    two steps of iterative refinement.  Non-finite values are passed
    through, not raised, for the caller to treat as the numerical floor."""
    sol = sla.lu_solve(lu, rhs, check_finite=False)
    for _ in range(2):
        sol += sla.lu_solve(lu, rhs - K @ sol, check_finite=False)
    return sol


def _max_step(L: np.ndarray, D: np.ndarray) -> float:
    """sup alpha with L L' + alpha D psd."""
    S = sla.solve_triangular(L, D, lower=True)
    S = sla.solve_triangular(L, S.T, lower=True)
    w = np.linalg.eigvalsh(0.5 * (S + S.T))
    lam = w[0]
    return np.inf if lam >= 0.0 else -1.0 / lam


def _solve_free_only(prob: SdpProblem, tol: float) -> SdpSolution:
    """No PSD blocks: an equality-constrained QP solved in one shot."""
    p, f = prob.n_constraints, prob.free_dim
    K = np.zeros((p + f, p + f))
    K[:p, p:] = prob.free_coeffs
    K[p:, :p] = prob.free_coeffs.T
    K[p:, p:] = -prob.quad
    rhs = np.concatenate([prob.rhs, -prob.lin])
    try:
        sol = np.linalg.solve(K, rhs) if p + f else np.zeros(0)
    except np.linalg.LinAlgError as exc:
        raise SdpError(f"degenerate free-variable problem: {exc}") from exc
    x = sol[p:]
    res = prob.free_coeffs @ x - prob.rhs if p else np.zeros(0)
    rel = np.abs(res).max() / (1.0 + np.abs(prob.rhs).max()) if p else 0.0
    obj = 0.5 * x @ prob.quad @ x + prob.lin @ x
    status = SdpStatus.SOLVED if rel <= tol else SdpStatus.INFEASIBLE
    return SdpSolution([], x, float(obj), float(rel), 0, status)


def solve(prob: SdpProblem, tol: float = 1e-8, max_iter: int = 100) -> SdpSolution:
    """Solve the conic program to relative accuracy `tol`.

    Returns SOLVED when the relative equality residual, dual residual,
    complementarity residual and gap all fall below tol; INFEASIBLE when the
    equality residual stalls above tolerance; MAX_ITER otherwise.  The
    returned point is the best iterate, and `gap` is the largest of those
    four relative measures there.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not prob.psd_block_dims:
        return _solve_free_only(prob, tol)

    dims = prob.psd_block_dims
    p, f = prob.n_constraints, prob.free_dim
    N = sum(dims)

    # --- scaling: per-row equilibration, then a global variable scale so the
    # scaled right-hand side is O(1), then an objective scale.
    row_scale = np.zeros(p)
    for (row, _, _, val) in prob.block_entries:
        np.maximum.at(row_scale, row, np.abs(val))
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

    blocks = []
    for n, ent in zip(dims, prob.block_entries):
        if isinstance(ent, ToeplitzEntries):
            blocks.append(_ToeplitzBlock(n, ent.rows, ent.coeffs / row_scale[ent.rows], p))
        else:
            row, i, j, val = ent
            blocks.append(_Block(n, row, i, j, val / row_scale[row], p))

    X = [np.eye(n) for n in dims]
    Z = [np.eye(n) for n in dims]
    x = np.zeros(f)
    nu = np.zeros(p)

    def measures(X, Z, x, nu):
        """Residuals, complementarity and relative measures of an iterate."""
        r_p = h - F @ x if f else h.copy()
        for blk, Xb in zip(blocks, X):
            r_p -= blk.apply(Xb)
        r_d = (F.T @ nu - Q @ x - q) if f else np.zeros(0)
        r_c = [-blk.adjoint(nu) - Zb for blk, Zb in zip(blocks, Z)]
        gap = sum(float(np.tensordot(Xb, Zb)) for Xb, Zb in zip(X, Z))
        xQx = 0.5 * x @ Q @ x if f else 0.0
        pobj = xQx + q @ x if f else 0.0
        dobj = h @ nu - xQx
        rel = {"pobj": pobj, "dobj": dobj,
               "gap": gap / (1.0 + abs(pobj) + abs(dobj)),
               "rp": np.abs(r_p).max() / (1.0 + np.abs(h).max()),
               "rd": np.abs(r_d).max() / (1.0 + np.abs(q).max()) if f else 0.0,
               "rc": max(np.abs(rc).max() / (1.0 + np.abs(Zb).max())
                         for rc, Zb in zip(r_c, Z))}
        rel["all"] = max(rel["rp"], rel["rd"], rel["rc"], abs(rel["gap"]))
        # the step safeguard's merit
        rel["merit"] = rel["gap"] + rel["rp"] + rel["rd"]
        return r_p, r_d, r_c, gap, rel

    log = []
    status = SdpStatus.MAX_ITER
    it = 0
    best_rp = np.inf
    best_rel = {"all": np.inf}
    best_point = None
    stall = 0
    gamma = 0.99
    meas = measures(X, Z, x, nu)

    for it in range(1, max_iter + 1):
        r_p, r_d, r_c, gap, rel = meas
        mu = gap / N
        log.append({"iter": it - 1, "pobj": s_obj * s_var * rel["pobj"],
                    "dobj": s_obj * s_var * rel["dobj"], "gap": rel["gap"],
                    "rp": rel["rp"], "rd": rel["rd"], "rc": rel["rc"]})
        if rel["all"] < best_rel["all"]:
            best_rel = rel
            best_point = ([Xb.copy() for Xb in X], [Zb.copy() for Zb in Z],
                          x.copy(), nu.copy())
        if rel["all"] <= tol:
            status = SdpStatus.SOLVED
            break
        if gap <= 0.0 or mu < 1e-17 * (1.0 + abs(rel["pobj"])):
            # numerical floor; classify from the best iterate below
            log[-1]["stop"] = "numerical floor"
            break
        if rel["rp"] < 0.9 * best_rp:
            best_rp = rel["rp"]
            stall = 0
        else:
            stall += 1
        if stall >= 25 and rel["rp"] > 100.0 * tol:
            status = SdpStatus.INFEASIBLE
            break

        # NT scalings and Schur complement
        scal = [_nt_scaling(Xb, Zb) for Xb, Zb in zip(X, Z)]
        H = np.zeros((p, p))
        for blk, (R, Rinv, W, sv, _, _) in zip(blocks, scal):
            act, Hb = blk.schur(W)
            H[np.ix_(act, act)] += Hb
        H = 0.5 * (H + H.T)
        K0 = np.zeros((p + f, p + f))
        K0[:p, :p] = H
        if f:
            K0[:p, p:] = F
            K0[p:, :p] = F.T
            K0[p:, p:] = -Q
        lu = None
        reg = 0.0
        for attempt in range(4):
            K = K0.copy()
            if reg:
                K[:p, :p] += reg * np.eye(p)
                if f:
                    K[p:, p:] -= reg * np.eye(f)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", sla.LinAlgWarning)
                    cand = sla.lu_factor(K)
            except ValueError as exc:
                raise SdpError(f"KKT factorization failed: {exc}") from exc
            probe = sla.lu_solve(cand, np.ones(p + f))
            if np.all(np.isfinite(probe)):
                lu = cand
                break
            reg = max(1e-12 * (1.0 + np.abs(np.diag(H)).max()), 10.0 * reg)
        if lu is None:
            raise SdpError("KKT system is numerically singular")

        def newton(sigma_mu, corr):
            """Direction for target sigma*mu, optional corrector matrices;
            None when roundoff made it non-finite."""
            D = []
            g1 = r_p.copy()
            for b, (blk, (R, Rinv, W, sv, _, _)) in enumerate(zip(blocks, scal)):
                Zinv = (R / sv[None, :]) @ R.T
                Db = sigma_mu * Zinv - X[b] - W @ r_c[b] @ W
                if corr is not None:
                    Db -= corr[b]
                D.append(Db)
                g1 -= blk.apply(Db)
            rhs = np.concatenate([g1, -r_d]) if f else g1
            sol = _kkt_solve(lu, K0, rhs)
            if not np.all(np.isfinite(sol)):
                return None
            dnu, dx = sol[:p], sol[p:]
            dZ = [rc - blk.adjoint(dnu) for rc, blk in zip(r_c, blocks)]
            dX = []
            for b, (blk, (R, Rinv, W, sv, _, _)) in enumerate(zip(blocks, scal)):
                M = D[b] + W @ blk.adjoint(dnu) @ W
                dX.append(0.5 * (M + M.T))
            return dX, dZ, dx, dnu

        Lx = [sc[4] for sc in scal]
        Lz = [sc[5] for sc in scal]

        # predictor
        step = newton(0.0, None)
        if step is None:
            log[-1]["stop"] = "non-finite direction"
            break
        dXa, dZa, dxa, dnua = step
        ap = min([1.0] + [_max_step(L, D) for L, D in zip(Lx, dXa)])
        ad = min([1.0] + [_max_step(L, D) for L, D in zip(Lz, dZa)])
        gap_aff = sum(float(np.tensordot(Xb + ap * dxb, Zb + ad * dzb))
                      for Xb, dxb, Zb, dzb in zip(X, dXa, Z, dZa))
        sigma = min(0.999, max(1e-8, (max(gap_aff, 0.0) / gap) ** 3))

        # corrector with second-order term in the scaled space
        corr = []
        for (R, Rinv, W, sv, _, _), dxb, dzb in zip(scal, dXa, dZa):
            dXt = Rinv @ dxb @ Rinv.T
            dZt = R.T @ dzb @ R
            C = 0.5 * (dXt @ dZt + dZt @ dXt)
            corr.append(R @ C @ R.T)
        step = newton(sigma * mu, corr)
        if step is None:
            log[-1]["stop"] = "non-finite direction"
            break
        dX, dZ, dx, dnu = step
        ap = min(1.0, gamma * min([np.inf] + [_max_step(L, D) for L, D in zip(Lx, dX)]))
        ad = min(1.0, gamma * min([np.inf] + [_max_step(L, D) for L, D in zip(Lz, dZ)]))

        for _ in range(4):
            Xn = [Xb + ap * dxb for Xb, dxb in zip(X, dX)]
            Zn = [Zb + ad * dzb for Zb, dzb in zip(Z, dZ)]
            xn = x + ap * dx
            nun = nu + ad * dnu
            meas = measures(Xn, Zn, xn, nun)
            # the trial gap is normalised by the current point's objectives,
            # as in the current point's own merit
            merit_n = (meas[3] / (1.0 + abs(rel["pobj"]) + abs(rel["dobj"]))
                       + meas[-1]["rp"] + meas[-1]["rd"])
            if merit_n <= 10.0 * rel["merit"] or ap < 1e-3:
                break
            ap *= 0.5
            ad *= 0.5
        X, Z, x, nu = Xn, Zn, xn, nun

    # fall back to the best iterate seen if the last one is not the best
    rel = meas[-1]
    if rel["all"] > best_rel["all"]:
        X, Z, x, nu = best_point
        rel = best_rel
    final_gap = rel["all"]
    if status != SdpStatus.INFEASIBLE and final_gap <= tol:
        status = SdpStatus.SOLVED
    if status == SdpStatus.MAX_ITER and rel["rp"] > 100.0 * tol:
        status = SdpStatus.INFEASIBLE

    # undo the scaling and clip roundoff negatives in the returned blocks
    out_blocks = []
    for Xb in X:
        M = s_var * 0.5 * (Xb + Xb.T)
        w, V = np.linalg.eigh(M)
        if w[0] < 0.0:
            M = (V * np.maximum(w, 0.0)) @ V.T
        out_blocks.append(M)
    x_out = s_var * x
    obj = 0.5 * x_out @ prob.quad @ x_out + prob.lin @ x_out
    return SdpSolution(out_blocks, x_out, float(obj), float(final_gap), it,
                       status, log)
