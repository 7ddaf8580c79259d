"""Total-variation regularized spike recovery from moment observations.

The estimator minimizes 0.5 * ||c(mu) - y||^2 + lam * ||mu||_TV over signed
measures on [-cap, cap] whose first d+1 moments match the observation
exactly.  It is computed through its conic dual

    minimize <alpha, y> + 0.5 * sum_{k>d} alpha_k^2
    subject to  |sum_k alpha_k phi_k| <= lam on [-cap, cap],

where the sup-norm constraint is expressed with two PSD Gram blocks via the
trace parameterization of nonnegative cosine polynomials.  cap is 1, or
cos(0.5/m) when the support must stay inside (-1, 1) (interior mode): the
substitution t = cap u (`sdp.cap_matrix`) states the constraint on
[-1, 1] in u, so the dual solved is the one whose measure is sought.  The
support is read off the level set |dual polynomial in u| = lam and scaled
by cap.  One refinement stage follows: a weight fit with the exact
low-order moments as constraints (`fit_weights`: it drops the
sign-inconsistent atoms or, only when none is left, those below the
amplitude floor, and refits), damped Newton steps on weights, positions
and multipliers jointly with the analytic Hessian of the fixed-sign
Lagrangian (the joint amplitude-position update of the sliding Frank-Wolfe
step; `_lagrangian_newton` builds every fixed-sign KKT system), and a last
weight fit at the refined positions.

The exchange (`_exchange`) then closes the recovery: while the subgradient
polynomial p of the measure exceeds lam on [-cap, cap], it inserts the
point of sup |p| (`chebyshev.abs_sup`, exact up to roundoff) and refines
again, as long as each round lowers the primal objective.  First-order
optimality is verified a posteriori with the same exact sup.  Scaling -p by
lam / max(lam, sup |p|) gives a dual-feasible point whatever the IPM
reached; its relative duality gap is `certificate_gap_rel`, and
`duality_gap_rel` is the smaller of it and the IPM dual's gap.

When the dual polynomial is the constant +-lam the level set is the whole
interval and the optimal measure need not be unique: any one-sign measure
whose moments equal c* = y + (0, alpha_hi) is optimal.  One nonnegative
least-squares solve on a fixed grid picks such a measure with at most m+1
atoms (`_degenerate_solution`).

Sign convention: at the optimum the dual polynomial equals -lam times the
weight sign at every atom, so the subgradient polynomial appearing in the
optimality identities is the negative of the dual polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .chebyshev import (ChebPoly, ConstantDualError, abs_sup, cheb_grid,
                        eval_poly, unit_level_roots)
from .measures import DiscreteMeasure, moments, phi_matrix, tv_norm
from .observation import Observation
from . import sdp


# a level-set point must reach (1 - LEVEL_TOL) * lam to seed an atom
LEVEL_TOL = 1e-4
# grid of the constant-dual path's nonnegative least-squares fit
DEGENERATE_GRID = 512
# the exchange inserts an atom while sup |p| > lam (1 + EXCHANGE_TOL), for
# at most EXCHANGE_ROUNDS rounds
EXCHANGE_TOL = 1e-7
EXCHANGE_ROUNDS = 20


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
    cap: float                    # the support and the dual bound lie in [-cap, cap]
    multipliers: np.ndarray       # equality-constraint multipliers (orders <= d)
    duality_gap_rel: float        # the smaller of the certificate's and the IPM's
    certificate_gap_rel: float
    exchange_rounds: int
    sdp_gap: float
    sdp_iterations: int
    sdp_log: list                 # the IPM's iteration log (`SdpSolution`)

    def primal_objective(self) -> float:
        resid = moments(self.measure, self.observation.m) - self.observation.y
        d = self.observation.d
        return float(0.5 * resid[d + 1:] @ resid[d + 1:] + self.lam * tv_norm(self.measure))


@dataclass(frozen=True)
class BlassoOptions:
    sdp_tol: float = 1e-9
    sdp_max_iter: int = 200
    amplitude_floor: float | None = None     # default max(1e-8, 1e-6 * lam)
    # keep the support strictly inside (-1, 1): the dual is solved, and the
    # support sought, on [-cap, cap] with cap = cos(0.5/m), arccos distance
    # 0.5/m from the edges (the constant-dual grid stops there too), so the
    # measure stays a valid spline derivative and the exact-moment
    # constraints (hence both boundary conditions) hold exactly
    interior_support: bool = False


def assemble_dual_sdp(obs: Observation, lam: float,
                      cap: float = 1.0) -> sdp.SdpProblem:
    """The dual program (`sdp.SdpProblem`) of the observation at lam, with
    its constraint on [-cap, cap]; the problem derives its strictly
    feasible start from lam, y and cap."""
    return sdp.SdpProblem(lam=lam, y=obs.y.copy(), d=obs.d, c=cap)


def fit_weights(support, obs: Observation, lam: float, signs,
                floor: float = 0.0):
    """Weights for fixed support: minimize the noisy-order residual plus
    lam * sum s_i a_i subject to exact low-order moments.  Each pass solves
    the fixed-sign KKT system (`_lagrangian_newton` with no free position)
    and drops every atom whose weight disagrees with its sign or, only when
    none does, every atom whose weight is below the floor; it stops when a
    pass drops nothing.  The order matters: an atom under the floor may
    rise above it once a sign-inconsistent neighbour is gone.

    Returns (weights, multipliers, kept_mask); multipliers are the
    equality-constraint duals for orders 0..d (empty when d = -1).
    """
    support = np.atleast_1d(np.asarray(support, dtype=float))
    signs = np.atleast_1d(np.asarray(signs, dtype=float))
    if support.size == 0:
        raise ValueError("support must be nonempty")
    d, n_eq = obs.d, obs.d + 1
    keep = np.ones(support.size, dtype=bool)
    # each pass returns or drops at least one atom
    while True:
        pts, s = support[keep], signs[keep]
        n, fixed = pts.size, np.zeros(pts.size, dtype=bool)
        Phi = phi_matrix(pts, obs.m)
        g, K = _lagrangian_newton(pts, np.zeros(n), np.zeros(n_eq), s, fixed,
                                  obs, lam, Phi=Phi)
        if n_eq and n >= n_eq:
            rank = np.linalg.matrix_rank(K[n:, :n])
            if rank < n_eq:
                raise BlassoError(
                    f"equality moment rows 0..{d} are rank deficient "
                    f"(rank {rank}) on the candidate support")
        # minimum-norm least squares: exact in the well-posed case, and it
        # keeps the multipliers finite when the constraints outnumber the
        # atoms (the system is then singular but consistent at the optimum)
        sol, *_ = np.linalg.lstsq(K, -g, rcond=None)
        # one step of iterative refinement against the residual form of the
        # stationarity rows, which the first-order checks evaluate
        g = _lagrangian_newton(pts, sol[:n], sol[n:], s, fixed, obs, lam,
                               hessian=False, Phi=Phi)
        sol = sol + np.linalg.lstsq(K, -g, rcond=None)[0]
        if not np.all(np.isfinite(sol)):
            raise BlassoError(
                f"weight-fit system on orders 0..{d} produced non-finite "
                f"values on the candidate support")
        a, mult = sol[:n], sol[n:]
        drop = s * a <= 0.0
        if not drop.any():
            drop = np.abs(a) < floor
        if not drop.any():
            out = np.zeros(support.size)
            out[keep] = a
            return out, mult, keep
        keep[np.nonzero(keep)[0][drop]] = False
        if not keep.any():
            return np.zeros(support.size), np.zeros(n_eq), keep


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


def _lagrangian_newton(t, a, nu, s, free, obs: Observation, lam: float,
                       hessian: bool = True, Phi=None):
    """Gradient and Hessian of the fixed-sign Lagrangian
    L(a, t, nu) = 0.5 |Phi_hi(t) a - y_hi|^2 + lam s.a + nu.(Phi_lo(t) a - y_lo)
    in the variables (a, t[free], nu).  With hessian=False only the gradient
    is returned.  Phi is `phi_matrix(t, m)`, when the caller has it."""
    m, n_eq = obs.m, obs.d + 1
    n, k, af = t.size, int(free.sum()), a[free]
    Phi = phi_matrix(t, m) if Phi is None else Phi
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
    when three halvings do not).  Position steps are capped at 0.25/m; atoms
    at an endpoint or at the interior cap keep their position.  The stage
    starts and ends with the weight fit above the amplitude floor
    (`fit_weights`), so the exact moments hold to fit accuracy and no atom
    is dropped after the last fit.  Returns (support, weights); both are
    empty when a fit keeps no atom.
    """
    a, nu, keep = fit_weights(support, obs, lam, signs, floor)
    t, a, s = support[keep], a[keep], signs[keep]
    if t.size == 0:
        return t, a
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
    a, _, keep = fit_weights(t, obs, lam, s, floor)
    return t[keep], a[keep]


def _anchored_multipliers(measure: DiscreteMeasure, obs: Observation,
                          lam: float, alpha_lo: np.ndarray) -> np.ndarray:
    """Exact-order multipliers (d >= 0, nonempty measure) closest to the
    dual solution's low-order coefficients among those that interpolate the
    subgradient values at the atoms.  When the atoms outnumber the exact
    orders the interpolation pins the multipliers uniquely; otherwise the
    leftover freedom is resolved toward the dual coefficients, whose
    polynomial is feasible, keeping the sup-norm overshoot of the
    subgradient polynomial at solver accuracy."""
    w, n = measure.weights, len(measure)
    # the gradient's weight rows at nu = alpha_lo, and H[:n, n:] = Phi_lo^T
    g, H = _lagrangian_newton(measure.support, w, alpha_lo, np.sign(w),
                              np.zeros(n, dtype=bool), obs, lam)
    corr, *_ = np.linalg.lstsq(H[:n, n:], -g[:n], rcond=None)
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


def verify_first_order(sol: PrimalSolution) -> dict:
    """Residuals of the first-order conditions: the total-variation identity
    |lam*TV - sum a_i * p(t_i)|, the sup-norm overshoot max(0, sup|p| - lam)
    of the subgradient polynomial on [-cap, cap] (`abs_sup`, exact up to
    roundoff), and the residual of the exact-order moment constraints."""
    lam = sol.lam
    obs = sol.observation
    p = _stationarity_poly(sol.measure, obs, sol.multipliers)
    sup, _ = abs_sup(p, sol.cap)
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


def _degenerate_solution(obs: Observation, alpha: np.ndarray, sign: float,
                         floor: float, theta_cap: float) -> DiscreteMeasure:
    """Constant-dual path.  Every point is on the level set, and every
    measure of the given sign whose moments equal the optimal vector
    c* = y + (0, alpha_hi) is a minimizer.  One nonnegative least-squares
    solve (Lawson & Hanson 1974) on a fixed grid, within the interior cap,
    picks one with at most m+1 atoms; the exact low-order rows are weighted
    1e4.  Atoms at or below the amplitude floor are dropped."""
    import scipy.optimize

    m, d = obs.m, obs.d
    grid = cheb_grid(DEGENERATE_GRID)
    grid = grid[np.abs(grid) <= np.cos(theta_cap)]
    c_star = obs.y.copy()
    c_star[d + 1:] += alpha[d + 1:]
    row_weight = np.ones(m + 1)
    row_weight[:d + 1] = 1e4
    u, _ = scipy.optimize.nnls(phi_matrix(grid, m) * row_weight[:, None],
                               sign * c_star * row_weight)
    keep = u > floor
    return DiscreteMeasure(grid[keep], sign * u[keep])


def solve_blasso(obs: Observation, lam: float,
                 opts: BlassoOptions | None = None) -> PrimalSolution:
    """Run the full dual pipeline and return the recovered measure.

    Steps: assemble the dual conic program on [-cap, cap], solve it, locate
    the support on the level set of the dual polynomial, refine weights and
    positions in one stage (`_refine_support`) with the exact low-order
    moments as constraints and atoms below the amplitude floor pruned, run
    the exchange (`_exchange`), and package the optimality diagnostics and
    the certificate's duality gap.  A constant dual polynomial takes the
    constant-dual path (`_degenerate_solution`) in place of the level-set
    read-out, the refinement and the exchange.
    """
    opts = opts or BlassoOptions()
    theta_cap = 0.5 / max(obs.m, 1) if opts.interior_support else 0.0
    cap = float(np.cos(theta_cap))
    prob = assemble_dual_sdp(obs, lam, cap)
    ssol = sdp.solve(prob, tol=opts.sdp_tol, max_iter=opts.sdp_max_iter)
    if ssol.status != sdp.SdpStatus.SOLVED:
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
    # the dual polynomial in u = t / cap, bounded by lam on [-1, 1]
    unit_poly = dual_poly if prob.B is None else ChebPoly(prob.B @ alpha)
    base = PrimalSolution(
        measure=DiscreteMeasure.empty(), dual=dual, kkt_residuals={},
        degenerate=False, observation=obs, lam=lam, cap=cap,
        multipliers=np.zeros(d + 1), duality_gap_rel=0.0,
        certificate_gap_rel=0.0, exchange_rounds=0, sdp_gap=ssol.gap,
        sdp_iterations=ssol.iterations, sdp_log=ssol.iteration_log)

    try:
        u = unit_level_roots(unit_poly, lam, LEVEL_TOL)
    except ConstantDualError:
        # |p| is constant at lam on the locator's 4m-point grid, so p has
        # one sign and p(0) is not 0; the subgradient polynomial is then
        # -dual_poly itself
        sign = -float(np.sign(eval_poly(dual_poly, 0.0)))
        sol = replace(base, degenerate=True, multipliers=alpha[:d + 1],
                      measure=_degenerate_solution(obs, alpha, sign, floor,
                                                   theta_cap))
        kkt = verify_first_order(sol)
    else:
        # every located point has |p| >= lam (1 - LEVEL_TOL), so its sign
        # is the weight's
        support, signs = cap * u, -np.sign(eval_poly(unit_poly, u))
        weights = np.zeros(0)
        if support.size:
            support, weights = _refine_support(
                support, obs, lam, signs, floor, theta_cap)
        sol, kkt = _exchange(base, support, weights, floor, theta_cap,
                             opts.sdp_tol)

    pobj = sol.primal_objective()
    # -p scaled into the constraint is dual feasible, so its gap bounds the
    # primal's suboptimality whatever the IPM reached
    p = _stationarity_poly(sol.measure, obs, sol.multipliers)
    cert = -p.coeffs * (lam / (lam + kkt["feasibility_gap"]))
    cert_obj = float(cert @ obs.y + 0.5 * cert[d + 1:] @ cert[d + 1:])
    cert_gap = abs(pobj + cert_obj) / (1.0 + abs(pobj))
    ipm_gap = abs(pobj + dual_obj) / (1.0 + abs(pobj))
    return replace(sol, kkt_residuals=kkt, certificate_gap_rel=float(cert_gap),
                   duality_gap_rel=float(min(cert_gap, ipm_gap)))


def _exchange(base: PrimalSolution, support, weights, floor: float,
              theta_cap: float, tol: float):
    """The exchange step that closes a recovery (the outer loop of sliding
    Frank-Wolfe, Denoyelle, Duval, Peyre & Soubies, Inverse Problems 2020):
    while the subgradient polynomial p of the refined measure has
    sup |p| > lam (1 + EXCHANGE_TOL) on [-cap, cap] (`abs_sup`), insert
    its argmax with the sign of p there and refine again
    (`_refine_support`), for at most EXCHANGE_ROUNDS rounds.

    Each round must lower the primal objective P, as a descent step does:
    a round that raises it ends the loop at the measure before it, and one
    that lowers it by at most tol (1 + |P|), below what the solve's
    relative tolerance can tell apart, ends it at the new measure.  The
    refinement cannot always descend, so without this rule the loop can
    wander for all its rounds and stop at a measure worse than an earlier
    one.  Returns the solution (`base` with the measure, its anchored
    multipliers and the rounds kept) and its `verify_first_order`
    residuals."""
    obs, lam, d = base.observation, base.lam, base.observation.d
    alpha_lo = base.dual.alpha[:d + 1]
    prev = prev_pobj = None
    for rounds in range(EXCHANGE_ROUNDS + 1):
        measure = DiscreteMeasure(support, weights)
        multipliers = base.multipliers
        if d >= 0 and not measure.is_empty:
            multipliers = _anchored_multipliers(measure, obs, lam, alpha_lo)
        sol = replace(base, measure=measure, multipliers=multipliers,
                      exchange_rounds=rounds)
        pobj = sol.primal_objective()
        if prev_pobj is not None and pobj >= prev_pobj:
            return prev
        kkt = verify_first_order(sol)
        if (kkt["feasibility_gap"] <= EXCHANGE_TOL * lam
                or rounds == EXCHANGE_ROUNDS
                or prev_pobj is not None
                and prev_pobj - pobj <= tol * (1.0 + abs(prev_pobj))):
            return sol, kkt
        prev, prev_pobj = (sol, kkt), pobj
        p = _stationarity_poly(measure, obs, multipliers)
        _, t = abs_sup(p, base.cap)
        support, weights = _refine_support(
            np.append(measure.support, t), obs, lam,
            np.append(np.sign(measure.weights), np.sign(eval_poly(p, t))),
            floor, theta_cap)


def solution_to_dict(sol: PrimalSolution) -> dict:
    from .measures import measure_to_dict
    return {
        "measure": measure_to_dict(sol.measure),
        "alpha": sol.dual.alpha.tolist(),
        "dual_objective": sol.dual.objective,
        "kkt_residuals": sol.kkt_residuals,
        "degenerate": sol.degenerate,
        "lam": sol.lam,
        "duality_gap_rel": sol.duality_gap_rel,
        "certificate_gap_rel": sol.certificate_gap_rel,
        "exchange_rounds": sol.exchange_rounds,
        "sdp_gap": sol.sdp_gap,
        "sdp_iterations": sol.sdp_iterations,
    }
