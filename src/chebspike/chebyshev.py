"""Chebyshev basis utilities.

The orthonormal system used throughout the package is phi_0 = 1 and
phi_k = sqrt(2) * T_k for k >= 1, where T_k(t) = cos(k arccos t) is the
Chebyshev polynomial of the first kind.  All metric computations on [-1, 1]
use the arccos distance d(u, v) = |arccos u - arccos v|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import chebyshev as npcheb

SQRT2 = float(np.sqrt(2.0))
# level-set candidates: the largest imaginary part of a root kept as real,
# and the Newton steps of the polish to a maximizer of |p|
ROOT_IMAG_TOL = 1e-3
POLISH_STEPS = 40


class ConstantDualError(Exception):
    """A polynomial handed to the level-set locator is numerically constant
    at the level height, so the level set is the whole interval."""


def _check_domain(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < -1.0) or np.any(t > 1.0):
        raise ValueError("point outside [-1, 1]")
    return t


@dataclass(frozen=True)
class ChebPoly:
    """Polynomial stored by its coefficients in the orthonormal basis.

    ``coeffs[k]`` multiplies phi_k, so the value at t is
    ``coeffs[0] + sqrt(2) * sum_k coeffs[k] * cos(k arccos t)``.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d array")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree_bound(self) -> int:
        return self.coeffs.size - 1

    def to_chebyshev_t(self) -> np.ndarray:
        """Coefficients in the plain T_k basis (for numpy.polynomial use)."""
        c = self.coeffs.copy()
        c[1:] *= SQRT2
        return c

    @classmethod
    def from_chebyshev_t(cls, tcoeffs) -> "ChebPoly":
        c = np.array(tcoeffs, dtype=float, copy=True)
        if c.size == 0:
            c = np.zeros(1)
        c[1:] /= SQRT2
        return cls(c)

    def __call__(self, t):
        return eval_poly(self, t)


def eval_phi(k: int, t):
    """Evaluate the k-th orthonormal basis element at t (scalar or array)."""
    if k < 0:
        raise ValueError("basis order must be nonnegative")
    t = _check_domain(t)
    if k == 0:
        return np.ones_like(t) if t.ndim else 1.0
    val = SQRT2 * np.cos(k * np.arccos(t))
    return val if t.ndim else float(val)


def eval_poly(p: ChebPoly, t):
    """Evaluate p at t with the Clenshaw backward recurrence."""
    t = _check_domain(t)
    val = npcheb.chebval(t, p.to_chebyshev_t())
    return val if t.ndim else float(val)


def arccos_distance(u, v):
    """The metric |arccos u - arccos v| on [-1, 1]."""
    u = _check_domain(u)
    v = _check_domain(v)
    val = np.abs(np.arccos(u) - np.arccos(v))
    return val if (np.ndim(u) or np.ndim(v)) else float(val)


def cheb_grid(n: int) -> np.ndarray:
    """n-point Chebyshev extrema grid cos(pi*j/(n-1)), ascending, with +-1."""
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    return np.cos(np.pi * np.arange(n - 1, -1, -1) / (n - 1))


def endpoint_weight(k: int, l: int) -> float:
    """l-th derivative of T_k at the right endpoint.

    Zero when k < l, otherwise the product of (k^2 - j^2)/(2j + 1) over
    j < l, evaluated in exact rational arithmetic.  The left endpoint values
    follow from T_k^{(l)}(-1) = (-1)^{k+l} * endpoint_weight(k, l).
    """
    if k < 0 or l < 0:
        raise ValueError("orders must be nonnegative")
    if k < l:
        return 0.0
    acc = Fraction(1)
    for j in range(l):
        acc *= Fraction(k * k - j * j, 2 * j + 1)
    return float(acc)


def _polish_abs_maximum(tcoeffs, dc1, dc2, t0: float) -> float:
    """Newton iteration on (p^2)' to move t0 to a nearby critical point of p^2,
    clamped to [-1, 1].  Returns the refined point (falls back to t0)."""
    t = float(t0)
    for _ in range(POLISH_STEPS):
        p = npcheb.chebval(t, tcoeffs)
        p1 = npcheb.chebval(t, dc1)
        p2 = npcheb.chebval(t, dc2)
        g = p * p1
        gp = p1 * p1 + p * p2
        if gp == 0.0:
            break
        step = g / gp
        t_new = t - step
        if not (-1.0 <= t_new <= 1.0):
            t_new = min(1.0, max(-1.0, t_new))
        if abs(t_new - t) < 1e-15:
            t = t_new
            break
        t = t_new
    # keep the polished point only if it did not decrease |p|
    if abs(npcheb.chebval(t, tcoeffs)) >= abs(npcheb.chebval(t0, tcoeffs)):
        return t
    return float(t0)


def unit_level_roots(p: ChebPoly, level: float, tol: float) -> np.ndarray:
    """Locate the points of [-1, 1] where |p| reaches the given level.

    Candidates are the real roots of level - p and of level + p, the
    eigenvalues of two m x m colleague matrices (Boyd, SIAM J. Numer. Anal.
    2002), polished to local maximizers of |p| by a Newton iteration on
    (p^2)'.  Near-duplicates within 0.5/m in arccos distance are merged,
    keeping the representative with the largest |p|.  A point is returned
    only if |p| >= level * (1 - tol) there.

    Tangential level-set points are double roots of level -+ p and the
    eigenvalue solver splits them into close pairs, either real or complex
    with imaginary parts on the order of the square root of the coefficient
    error (machine eps plus whatever inexactness p carries); ROOT_IMAG_TOL
    is sized generously so such pairs survive this filter, because the
    value filter above is what finally discards stray candidates.

    Raises ConstantDualError when |p| is numerically constant at the level.
    """
    if level <= 0:
        raise ValueError("level must be positive")
    if not 0 < tol < 1:
        raise ValueError("tol must be in (0, 1)")
    m = max(p.degree_bound, 1)
    grid = cheb_grid(4 * m)
    vals = np.abs(eval_poly(p, grid))
    if vals.max() - vals.min() < 1e-9 * level:
        if vals.max() >= level * (1.0 - tol):
            raise ConstantDualError(
                "polynomial is numerically constant at the level height")
        return np.array([])

    tc = p.to_chebyshev_t()
    roots = [np.zeros(0)]
    for sign in (1.0, -1.0):
        q = -sign * tc
        q[0] += level
        q = npcheb.chebtrim(q, tol=1e-14 * np.abs(q).max())
        if q.size >= 2:
            roots.append(npcheb.chebroots(q))
    roots = np.concatenate(roots)
    real = roots[np.abs(roots.imag) <= ROOT_IMAG_TOL].real
    real = real[(real >= -1.0 - 1e-9) & (real <= 1.0 + 1e-9)]
    # the endpoints can carry one-sided maxima that are not double roots
    candidates = np.concatenate([np.clip(real, -1.0, 1.0), [-1.0, 1.0]])

    dc1 = npcheb.chebder(tc)
    dc2 = npcheb.chebder(dc1)
    polished = []
    for t0 in candidates:
        if abs(t0) >= 1.0:
            polished.append(float(t0))
        else:
            polished.append(_polish_abs_maximum(tc, dc1, dc2, t0))
    polished = np.array(polished)
    keep = np.abs(npcheb.chebval(polished, tc)) >= level * (1.0 - tol)
    pts = np.sort(polished[keep])
    if pts.size == 0:
        return pts

    return pts[merge_close(pts, np.abs(npcheb.chebval(pts, tc)), 0.5 / m)]


def abs_sup(p: ChebPoly, c: float = 1.0) -> tuple[float, float]:
    """(sup |p| on [-c, c], a point where it is reached), 0 < c <= 1.

    The candidates are the real roots of p' in [-c, c], the eigenvalues of
    one colleague matrix (Boyd, SIAM J. Numer. Anal. 2002), and +-c.  The
    real part of every eigenvalue in [-c, c] is taken: a real critical
    point that roundoff moved off the real axis is then kept, and any other
    candidate is still a point of [-c, c], which cannot raise the sup.
    """
    tc = p.to_chebyshev_t()
    dc = npcheb.chebder(tc)
    dc = npcheb.chebtrim(dc, tol=1e-14 * np.abs(dc).max())
    crit = npcheb.chebroots(dc).real
    t = np.concatenate([crit[np.abs(crit) <= c], [-c, c]])
    vals = np.abs(npcheb.chebval(t, tc))
    i = int(np.argmax(vals))
    return float(vals[i]), float(t[i])


def merge_close(t: np.ndarray, score: np.ndarray, radius: float) -> np.ndarray:
    """Indices of the points kept when the ascending points t are merged in
    chains of neighbours at most `radius` apart in arccos distance, keeping
    the point with the largest score in each chain (the rightmost on ties)."""
    order = np.arange(t.size)[::-1]  # ascending in theta
    theta = np.arccos(np.clip(t[order], -1.0, 1.0))
    cuts = np.flatnonzero(np.diff(theta) > radius) + 1
    return np.sort([g[np.argmax(score[g])] for g in np.split(order, cuts)])
