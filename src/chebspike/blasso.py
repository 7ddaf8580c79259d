"""Total-variation regularized spike recovery from moment observations.

The estimator minimizes 0.5 * ||c(mu) - y||^2 + lam * ||mu||_TV over signed
measures whose first d+1 moments match the observation exactly.  It is
computed through its conic dual

    minimize <alpha, y> + 0.5 * sum_{k>d} alpha_k^2
    subject to  |sum_k alpha_k phi_k| <= lam on [-1, 1],

where the sup-norm constraint is expressed with two PSD Gram blocks via the
trace parameterization of nonnegative cosine polynomials.  The support of
the recovered measure is read off the level set |dual polynomial| = lam.
One refinement stage follows: a sign-consistent weight fit with the exact
low-order moments as constraints, damped Newton steps on weights, positions
and multipliers jointly with the analytic Hessian of the fixed-sign
Lagrangian (the joint amplitude-position update of the sliding Frank-Wolfe
step), and a last weight fit at the refined positions.  First-order
optimality is verified a posteriori.

Sign convention: at the optimum the dual polynomial equals -lam times the
weight sign at every atom, so the subgradient polynomial appearing in the
optimality identities is the negative of the dual polynomial.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .chebyshev import (ChebPoly, ConstantDualError, cheb_grid, eval_poly,
                        merge_close, unit_level_roots)
from .measures import DiscreteMeasure, moments, phi_matrix, tv_norm
from .observation import Observation
from . import sdp


class BlassoError(Exception):
    """Solver failure or structural defect in a recovery run."""


@dataclass(frozen=True)
class DualSolution:
    """Optimal dual coefficients.  dual_poly holds the alpha_k; scaled by
    -1/lam it interpolates the weight signs on the recovered support."""

    alpha: np.ndarray
    dual_poly: ChebPoly
    objective: float


@dataclass(frozen=True)
class PrimalSolution:
    measure: DiscreteMeasure
    dual: DualSolution
    kkt_residuals: dict
    degenerate: bool
    observation: Observation
    lam: float
    multipliers: np.ndarray       # equality-constraint multipliers (orders <= d)
    duality_gap_rel: float
    sdp_gap: float
    sdp_iterations: int
    solve_seconds: float

    def primal_objective(self) -> float:
        resid = moments(self.measure, self.observation.m) - self.observation.y
        d = self.observation.d
        return float(0.5 * resid[d + 1:] @ resid[d + 1:] + self.lam * tv_norm(self.measure))


@dataclass(frozen=True)
class BlassoOptions:
    sdp_tol: float = 1e-9
    sdp_max_iter: int = 200
    level_tol: float = 1e-4
    sign_threshold: float = 0.9
    amplitude_floor: float | None = None     # default max(1e-8, 1e-6 * lam)
    degenerate_grid: int = 512
    # keep the support strictly inside (-1, 1): atoms the dual places at an
    # endpoint are moved to arccos distance 0.5/m from the edge and refitted,
    # so the measure stays a valid spline derivative and the exact-moment
    # constraints (hence both boundary conditions) hold exactly
    interior_support: bool = False


def assemble_dual_sdp(obs: Observation, lam: float) -> sdp.SdpProblem:
    """Conic form of the dual program.

    Free block: alpha in R^(m+1) with objective <alpha, y> plus half the
    squared norm of the noisy-order coefficients.  Two PSD blocks of size
    (m+1) enforce lam +- sum alpha_k phi_k >= 0: writing the cosine
    coefficients r0 = lam +- alpha_0, r_k = +- alpha_k / sqrt(2), each r_k
    must equal the k-th subdiagonal sum of a PSD Gram matrix.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    m, d = obs.m, obs.d
    n = m + 1
    block1 = sdp.ToeplitzEntries(np.arange(n), np.ones(n))
    block2 = sdp.ToeplitzEntries(np.arange(n, 2 * n), np.ones(n))

    scale = np.full(n, 1.0 / np.sqrt(2.0))
    scale[0] = 1.0
    F = np.zeros((2 * n, n))
    F[np.arange(n), np.arange(n)] = -scale
    F[np.arange(n, 2 * n), np.arange(n)] = scale

    h = np.zeros(2 * n)
    h[0] = lam
    h[n] = lam

    quad = np.zeros((n, n))
    quad[np.arange(d + 1, n), np.arange(d + 1, n)] = 1.0
    return sdp.SdpProblem(free_dim=n, rhs=h, block_entries=[block1, block2],
                          free_coeffs=F, quad=quad, lin=obs.y.copy())


def fit_weights(support, obs: Observation, lam: float, signs):
    """Weights for fixed support: minimize the noisy-order residual plus
    lam * sum s_i a_i subject to exact low-order moments, dropping atoms
    whose fitted weight disagrees with its sign until consistent.

    Returns (weights, multipliers, kept_mask); multipliers are the
    equality-constraint duals for orders 0..d (empty when d = -1).
    """
    support = np.atleast_1d(np.asarray(support, dtype=float))
    signs = np.atleast_1d(np.asarray(signs, dtype=float))
    if support.size == 0:
        raise ValueError("support must be nonempty")
    m, d = obs.m, obs.d
    n_eq = d + 1
    keep = np.ones(support.size, dtype=bool)
    for _ in range(support.size):
        pts = support[keep]
        s = signs[keep]
        Phi = phi_matrix(pts, m)
        Phi_lo, Phi_hi = Phi[:n_eq], Phi[n_eq:]
        y_lo, y_hi = obs.y[:n_eq], obs.y[n_eq:]
        if n_eq and pts.size >= n_eq:
            rank = np.linalg.matrix_rank(Phi_lo)
            if rank < n_eq:
                raise BlassoError(
                    f"equality moment rows 0..{d} are rank deficient "
                    f"(rank {rank}) on the candidate support")
        G = Phi_hi.T @ Phi_hi
        K = np.zeros((pts.size + n_eq, pts.size + n_eq))
        K[:pts.size, :pts.size] = G
        K[:pts.size, pts.size:] = Phi_lo.T
        K[pts.size:, :pts.size] = Phi_lo
        rhs = np.concatenate([Phi_hi.T @ y_hi - lam * s, y_lo])
        # minimum-norm least squares: exact in the well-posed case, and it
        # keeps the multipliers finite when the constraints outnumber the
        # atoms (the system is then singular but consistent at the optimum)
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
        # one step of iterative refinement against the residual form of the
        # stationarity rows, which the first-order checks evaluate
        a, mult = sol[:pts.size], sol[pts.size:]
        res = np.concatenate([Phi_hi.T @ (y_hi - Phi_hi @ a) - lam * s
                              - Phi_lo.T @ mult, y_lo - Phi_lo @ a])
        sol = sol + np.linalg.lstsq(K, res, rcond=None)[0]
        if not np.all(np.isfinite(sol)):
            raise BlassoError(
                f"weight-fit system on orders 0..{d} produced non-finite "
                f"values on the candidate support")
        a = sol[:pts.size]
        mult = sol[pts.size:]
        bad = s * a <= 0.0
        if not bad.any():
            out = np.zeros(support.size)
            out[keep] = a
            return out, mult, keep
        idx = np.nonzero(keep)[0][bad]
        keep[idx] = False
        if not keep.any():
            return np.zeros(support.size), np.zeros(n_eq), keep
    raise BlassoError("sign-consistent weight fit did not terminate")


def _phi_deriv_matrices(points, m: int):
    """First and second derivative analogues of phi_matrix at interior
    points (rows k = 0..m, columns over the points)."""
    t = np.atleast_1d(np.asarray(points, dtype=float))
    theta = np.arccos(t)
    s = np.sin(theta)
    k = np.arange(m + 1)[:, None]
    kt = k * theta[None, :]
    d1 = np.sqrt(2.0) * k * np.sin(kt) / s[None, :]
    d2 = np.sqrt(2.0) * (-k ** 2 * np.cos(kt) / s[None, :] ** 2
                         + k * np.sin(kt) * np.cos(theta)[None, :] / s[None, :] ** 3)
    d1[0, :] = 0.0
    d2[0, :] = 0.0
    return d1, d2


def _fit_above_floor(support, obs: Observation, lam: float, signs,
                     floor: float):
    """Sign-consistent weight fit, refitted without the atoms whose weight
    falls below the amplitude floor until none does.  Returns (support,
    weights, multipliers, signs) of the last fit; the support is empty, and
    the multipliers zero, when no atom survives."""
    t = np.atleast_1d(np.asarray(support, dtype=float))
    s = np.atleast_1d(np.asarray(signs, dtype=float))
    while True:
        a, mult, keep = fit_weights(t, obs, lam, s)
        t, a, s = t[keep], a[keep], s[keep]
        big = np.abs(a) >= floor
        if big.all():
            return t, a, mult, s
        if not big.any():
            return t[big], a[big], np.zeros_like(mult), s[big]
        t, s = t[big], s[big]


def _lagrangian_newton(t, a, nu, s, free, obs: Observation, lam: float,
                       hessian: bool = True):
    """Gradient and Hessian of the fixed-sign Lagrangian
    L(a, t, nu) = 0.5 |Phi_hi(t) a - y_hi|^2 + lam s.a + nu.(Phi_lo(t) a - y_lo)
    in the variables (a, t[free], nu).  With hessian=False only the gradient
    is returned."""
    m, n_eq = obs.m, obs.d + 1
    n, k, af = t.size, int(free.sum()), a[free]
    Phi = phi_matrix(t, m)
    P_lo, P_hi = Phi[:n_eq], Phi[n_eq:]
    d1, d2 = _phi_deriv_matrices(t[free], m)
    D_lo, D_hi = d1[:n_eq], d1[n_eq:]
    r = P_hi @ a - obs.y[n_eq:]
    q = D_hi.T @ r + D_lo.T @ nu               # dL/dt divided by the weight
    g = np.concatenate([P_hi.T @ r + lam * s + P_lo.T @ nu, af * q,
                        P_lo @ a - obs.y[:n_eq]])
    if not hessian:
        return g
    sel = np.zeros((n, k))
    sel[free, np.arange(k)] = 1.0
    H = np.zeros((n + k + n_eq, n + k + n_eq))
    H[:n, :n] = P_hi.T @ P_hi
    H[:n, n:n + k] = (P_hi.T @ D_hi) * af + sel * q
    H[:n, n + k:] = P_lo.T
    H[n:n + k, n:n + k] = (np.outer(af, af) * (D_hi.T @ D_hi)
                           + np.diag(af * (d2[n_eq:].T @ r + d2[:n_eq].T @ nu)))
    H[n:n + k, n + k:] = af[:, None] * D_lo.T
    H[n:, :n] = H[:n, n:].T
    H[n + k:, n:n + k] = H[n:n + k, n + k:].T
    return g, H


def _refine_support(support, obs: Observation, lam: float, signs,
                    floor: float, theta_cap: float = 0.0):
    """Joint refinement of weights, positions and exact-order multipliers.

    Damped Newton steps on the gradient of the fixed-sign Lagrangian (see
    `_lagrangian_newton`), solved by least squares so that more exact orders
    than atoms (a singular but consistent system) still gives a step, and
    halved until the equilibrated gradient norm decreases (the stage stops
    when three halvings do not).  Position steps
    are capped at 0.25/m; atoms at an endpoint or at the interior cap keep
    their position.  The stage starts and ends with the sign-consistent
    weight fit above the amplitude floor, so the exact moments hold to fit
    accuracy and no atom is dropped after the last fit.  Returns (support,
    weights, multipliers); the support is empty, and the multipliers zero,
    when a fit keeps no atom.
    """
    t, a, nu, s = _fit_above_floor(support, obs, lam, signs, floor)
    if t.size == 0:
        return t, a, nu
    max_move = 0.25 / max(obs.m, 1)
    # strictly inside [-1, 1], where the position derivatives are finite
    lim = np.cos(theta_cap) * (1.0 - 1e-12)
    for _ in range(20):
        free = np.abs(t) < lim
        if not free.any():
            break
        n, k = t.size, int(free.sum())
        g, H = _lagrangian_newton(t, a, nu, s, free, obs, lam)
        # symmetric equilibration: weights, positions and multipliers live on
        # very different scales, and lstsq truncates relative to the largest
        sc = np.linalg.norm(H, axis=1)
        sc = 1.0 / np.sqrt(np.where(sc > 0.0, sc, 1.0))
        step = sc * np.linalg.lstsq(H * np.outer(sc, sc), -sc * g, rcond=None)[0]
        dt = np.clip(step[n:n + k], -max_move, max_move)
        merit = np.linalg.norm(sc * g)
        for damp in (1.0, 0.5, 0.25, 0.125):
            t_new = t.copy()
            t_new[free] = np.clip(t[free] + damp * dt, -lim, lim)
            a_new = a + damp * step[:n]
            nu_new = nu + damp * step[n + k:]
            g_new = _lagrangian_newton(t_new, a_new, nu_new, s, free, obs, lam,
                                       hessian=False)
            if np.linalg.norm(sc * g_new) < (1.0 - 1e-4 * damp) * merit:
                break
        else:
            break
        t, a, nu = t_new, a_new, nu_new
        # convergence is quadratic: after a step this small the next one
        # would be at the roundoff floor
        if np.abs(dt).max() <= 1e-9:
            break
    t, a, nu, _ = _fit_above_floor(t, obs, lam, s, floor)
    return t, a, nu


def _anchored_multipliers(measure: DiscreteMeasure, obs: Observation,
                          lam: float, alpha_lo: np.ndarray) -> np.ndarray:
    """Exact-order multipliers closest to the dual solution's low-order
    coefficients among those that interpolate the subgradient values at the
    atoms.  When the atoms outnumber the exact orders the interpolation pins
    the multipliers uniquely; otherwise the leftover freedom is resolved
    toward the dual coefficients, whose polynomial is feasible, keeping the
    sup-norm overshoot of the subgradient polynomial at solver accuracy."""
    d = obs.d
    if d < 0 or measure.is_empty:
        return np.zeros(d + 1)
    Phi = phi_matrix(measure.support, obs.m)
    r = Phi[d + 1:] @ measure.weights - obs.y[d + 1:]
    s = np.sign(measure.weights)
    b = -(lam * s + r @ Phi[d + 1:])
    A = Phi[:d + 1].T                      # (n_atoms, d+1)
    corr, *_ = np.linalg.lstsq(A, b - A @ alpha_lo, rcond=None)
    return alpha_lo + corr


def _stationarity_poly(measure: DiscreteMeasure, obs: Observation,
                       multipliers: np.ndarray) -> ChebPoly:
    """Subgradient polynomial of the optimality identities: multiplier part
    on the exact orders plus the data residual on the noisy ones."""
    d = obs.d
    c = moments(measure, obs.m)
    beta = np.empty(obs.m + 1)
    beta[:d + 1] = -np.asarray(multipliers, dtype=float)
    beta[d + 1:] = obs.y[d + 1:] - c[d + 1:]
    return ChebPoly(beta)


def verify_first_order(sol: PrimalSolution, lam: float | None = None) -> dict:
    """Residuals of the first-order conditions: the total-variation identity
    |lam*TV - sum a_i * p(t_i)|, the sup-norm overshoot max(0, sup|p| - lam)
    of the subgradient polynomial on a dense grid, and the residual of the
    exact-order moment constraints."""
    lam = sol.lam if lam is None else lam
    obs = sol.observation
    p = _stationarity_poly(sol.measure, obs, sol.multipliers)
    grid = cheb_grid(4 * max(obs.m, 1))
    sup = float(np.abs(eval_poly(p, grid)).max())
    if sol.measure.is_empty:
        tv_gap = 0.0
    else:
        tv_gap = abs(lam * tv_norm(sol.measure)
                     - float(sol.measure.weights @ eval_poly(p, sol.measure.support)))
    if obs.d >= 0:
        eq_gap = float(np.abs(moments(sol.measure, obs.d)
                              - obs.y[:obs.d + 1]).max())
    else:
        eq_gap = 0.0
    return {"tv_identity_gap": tv_gap, "feasibility_gap": max(0.0, sup - lam),
            "equality_gap": eq_gap}


def _nonneg_lasso(B: np.ndarray, y: np.ndarray, lam: float,
                  max_sweeps: int = 2000, tol: float = 1e-12) -> np.ndarray:
    """Coordinate descent for min 0.5||B u - y||^2 + lam * sum(u), u >= 0."""
    n = B.shape[1]
    u = np.zeros(n)
    col_sq = (B * B).sum(axis=0)
    r = y.copy()
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(n):
            if col_sq[j] == 0.0:
                continue
            uj = u[j]
            grad = B[:, j] @ r + col_sq[j] * uj
            new = max(0.0, (grad - lam) / col_sq[j])
            if new != uj:
                r += B[:, j] * (uj - new)
                delta = max(delta, abs(new - uj))
                u[j] = new
        if delta < tol * (1.0 + np.abs(u).max(initial=0.0)):
            break
    return u


def _degenerate_solution(obs: Observation, lam: float, sign: float,
                         opts: BlassoOptions) -> DiscreteMeasure:
    """Constant-dual fallback: all weights share one sign, so fit a
    sign-constrained least squares on a fixed grid.  Exact low-order moment
    rows are enforced through a heavy quadratic penalty.  The grid solution
    is then condensed to a basic feasible measure with the same moments
    (at most m+2 atoms) by a small linear program."""
    import scipy.optimize

    m, d = obs.m, obs.d
    grid = cheb_grid(opts.degenerate_grid)
    Phi = phi_matrix(grid, m)
    row_weight = np.ones(m + 1)
    row_weight[:d + 1] = 1e4
    B = sign * (Phi * row_weight[:, None])
    yw = obs.y * row_weight
    u = _nonneg_lasso(B, yw, lam)
    floor = opts.amplitude_floor
    floor = max(1e-8, 1e-6 * lam) if floor is None else floor
    keep = u > floor
    pts, w = grid[keep], u[keep]
    if pts.size > m + 2:
        c_hat = phi_matrix(pts, m) @ w
        res = scipy.optimize.linprog(
            np.ones(pts.size), A_eq=phi_matrix(pts, m), b_eq=c_hat,
            bounds=(0, None), method="highs")
        if res.status == 0:
            cond = res.x > floor
            pts, w = pts[cond], res.x[cond]
    return DiscreteMeasure(pts, sign * w)


def solve_blasso(obs: Observation, lam: float,
                 opts: BlassoOptions | None = None) -> PrimalSolution:
    """Run the full dual pipeline and return the recovered measure.

    Steps: assemble the dual conic program, solve it, locate the support on
    the level set of the dual polynomial, refine weights and positions in
    one stage (`_refine_support`) with the exact low-order moments as
    constraints and atoms below the amplitude floor pruned, and package
    optimality diagnostics.
    """
    opts = opts or BlassoOptions()
    t0 = time.perf_counter()
    prob = assemble_dual_sdp(obs, lam)
    ssol = sdp.solve(prob, tol=opts.sdp_tol, max_iter=opts.sdp_max_iter)
    # a near miss against the numerical floor: the solve returns its best
    # iterate, and one within 10x the tolerance is accepted as it is
    if ssol.status != sdp.SdpStatus.SOLVED and ssol.gap > 10.0 * opts.sdp_tol:
        raise BlassoError(
            f"dual conic solve failed: status={ssol.status.value}, "
            f"gap={ssol.gap:.3e}, iterations={ssol.iterations}")
    alpha = ssol.free_vector
    dual_poly = ChebPoly(alpha)
    d = obs.d
    dual_obj = float(alpha @ obs.y + 0.5 * alpha[d + 1:] @ alpha[d + 1:])
    dual = DualSolution(alpha=alpha, dual_poly=dual_poly, objective=dual_obj)

    floor = opts.amplitude_floor
    floor = max(1e-8, 1e-6 * lam) if floor is None else floor

    degenerate = False
    multipliers = np.zeros(d + 1)
    try:
        support = unit_level_roots(dual_poly, lam, opts.level_tol)
    except ConstantDualError:
        degenerate = True
        sign = -float(np.sign(eval_poly(dual_poly, 0.0)))
        sign = sign if sign else 1.0
        measure = _degenerate_solution(obs, lam, sign, opts)
    else:
        if support.size == 0:
            measure = DiscreteMeasure.empty()
        else:
            vals = eval_poly(dual_poly, support)
            ok = np.abs(vals) >= opts.sign_threshold * lam
            support, vals = support[ok], np.atleast_1d(vals)[ok]
            if support.size == 0:
                measure = DiscreteMeasure.empty()
            else:
                signs = -np.sign(vals)
                theta_cap = 0.5 / max(obs.m, 1) if opts.interior_support else 0.0
                if theta_cap > 0:
                    # clipping can bring an endpoint atom within the
                    # locator's merge radius of its interior neighbour
                    t_cap = np.cos(theta_cap)
                    support = np.clip(support, -t_cap, t_cap)
                    keep = merge_close(support, np.abs(vals), theta_cap)
                    support, signs = support[keep], signs[keep]
                support, weights, multipliers = _refine_support(
                    support, obs, lam, signs, floor, theta_cap)
                measure = DiscreteMeasure(support, weights)

    if d >= 0 and not degenerate and not measure.is_empty:
        multipliers = _anchored_multipliers(measure, obs, lam, alpha[:d + 1])
    elapsed = time.perf_counter() - t0
    sol = PrimalSolution(
        measure=measure, dual=dual, kkt_residuals={}, degenerate=degenerate,
        observation=obs, lam=lam, multipliers=multipliers,
        duality_gap_rel=0.0, sdp_gap=ssol.gap, sdp_iterations=ssol.iterations,
        solve_seconds=elapsed)
    kkt = verify_first_order(sol)
    pobj = sol.primal_objective()
    gap_rel = abs(pobj + dual_obj) / (1.0 + abs(pobj))
    object.__setattr__(sol, "kkt_residuals", kkt)
    object.__setattr__(sol, "duality_gap_rel", float(gap_rel))
    return sol


def solution_to_dict(sol: PrimalSolution, include_timing: bool = True) -> dict:
    from .measures import measure_to_dict
    out = {
        "measure": measure_to_dict(sol.measure),
        "alpha": sol.dual.alpha.tolist(),
        "dual_objective": sol.dual.objective,
        "kkt_residuals": sol.kkt_residuals,
        "degenerate": sol.degenerate,
        "lam": sol.lam,
        "duality_gap_rel": sol.duality_gap_rel,
        "sdp_gap": sol.sdp_gap,
        "sdp_iterations": sol.sdp_iterations,
    }
    if include_timing:
        out["solve_seconds"] = sol.solve_seconds
    return out
