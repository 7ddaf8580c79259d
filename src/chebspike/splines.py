"""Non-uniform splines on [-1, 1].

A degree-d spline is stored as s+1 polynomial pieces (monomial coefficients,
low order first) over strictly increasing interior knots.  Its (d+1)-th
distributional derivative is the atomic measure carrying the d-th derivative
jumps at the knots; the moment-transfer matrices below express the moments of
that measure through the spline's projection coefficients and its boundary
data, and `integrate_from_spikes` inverts the map given left boundary data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from .chebyshev import SQRT2, endpoint_weight
from .measures import DiscreteMeasure

SMOOTHNESS_TOL = 1e-9


@dataclass(frozen=True)
class NonUniformSpline:
    """Piecewise degree-d polynomial with C^{d-1} smoothness at the knots.

    pieces[i] holds the monomial coefficients (length degree+1) of the
    polynomial active on [knot_i, knot_{i+1}) with knot_0 = -1, knot_{s+1} = 1.
    """

    degree: int
    knots: np.ndarray
    pieces: np.ndarray

    def __post_init__(self):
        d = int(self.degree)
        if d < 0:
            raise ValueError("degree must be nonnegative")
        k = np.atleast_1d(np.asarray(self.knots, dtype=float))
        if k.size and (np.any(np.diff(k) <= 0)):
            raise ValueError("knots must be strictly increasing")
        if k.size and (k[0] <= -1.0 or k[-1] >= 1.0):
            raise ValueError("knots must lie strictly inside (-1, 1)")
        pc = np.atleast_2d(np.asarray(self.pieces, dtype=float))
        if pc.shape != (k.size + 1, d + 1):
            raise ValueError(
                f"pieces must have shape (n_knots+1, degree+1) = "
                f"({k.size + 1}, {d + 1}), got {pc.shape}")
        if not (np.isfinite(k).all() and np.isfinite(pc).all()):
            raise ValueError("knots and pieces must be finite")
        object.__setattr__(self, "degree", d)
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "pieces", pc)
        scale = 1.0 + np.abs(pc).max(initial=0.0)
        for i, t in enumerate(k):
            for l in range(d):
                left = nppoly.polyval(t, nppoly.polyder(pc[i], l) if l else pc[i])
                right = nppoly.polyval(t, nppoly.polyder(pc[i + 1], l) if l else pc[i + 1])
                if abs(left - right) > SMOOTHNESS_TOL * scale:
                    raise ValueError(
                        f"pieces are not C^{d - 1} at knot {t}: order-{l} "
                        f"derivative jumps by {right - left}")

    def piece_index(self, t):
        return np.searchsorted(self.knots, np.asarray(t, dtype=float), side="right")

    def value(self, t, deriv: int = 0):
        """Evaluate the spline (or one of its classical derivatives) at t."""
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = self.piece_index(t)
        out = np.empty_like(t)
        for i in np.unique(idx):
            coeffs = self.pieces[i]
            if deriv:
                coeffs = nppoly.polyder(coeffs, deriv) if deriv <= self.degree else np.zeros(1)
            out[idx == i] = nppoly.polyval(t[idx == i], coeffs)
        return float(out[0]) if scalar else out

    def __call__(self, t):
        return self.value(t)


def boundary_vector(f: NonUniformSpline) -> np.ndarray:
    """Endpoint data (first piece derivatives 0..d at -1, last piece at +1),
    length 2(d+1)."""
    d = f.degree
    left = [nppoly.polyval(-1.0, nppoly.polyder(f.pieces[0], l) if l else f.pieces[0])
            for l in range(d + 1)]
    right = [nppoly.polyval(1.0, nppoly.polyder(f.pieces[-1], l) if l else f.pieces[-1])
             for l in range(d + 1)]
    return np.array(left + right, dtype=float)


def distributional_derivative(f: NonUniformSpline) -> DiscreteMeasure:
    """The (d+1)-th distributional derivative: one atom per knot whose d-th
    derivative jumps, weighted by the jump."""
    d = f.degree
    lead = f.pieces[:, d] * math.factorial(d)
    jumps = np.diff(lead)
    keep = jumps != 0.0
    return DiscreteMeasure(f.knots[keep], jumps[keep])


def transfer_matrices(m: int, d: int):
    """Boundary-to-moment matrices (W1, W2).

    W1 has d+1 rows (moment orders 0..d), W2 has m-d rows (orders d+1..m);
    both have 2(d+1) columns ordered like the boundary vector.  Row k >= 1
    puts sqrt(2)*(-1)^l * w(k,l) on the right-endpoint derivative of order
    d-l and (-1)^(k+1)*sqrt(2)*w(k,l) on the left one; the order-0 row is
    the plain difference of the d-th derivatives.
    """
    if not (m > d >= 0):
        raise ValueError("need m > d >= 0")
    width = 2 * (d + 1)

    def row(k: int) -> np.ndarray:
        r = np.zeros(width)
        if k == 0:
            r[d] = -1.0
            r[2 * d + 1] = 1.0
            return r
        for l in range(min(k, d) + 1):
            w = endpoint_weight(k, l)
            r[(d + 1) + (d - l)] += SQRT2 * (-1.0) ** l * w
            r[d - l] += (-1.0) ** (k + 1) * SQRT2 * w
        return r

    w1 = np.array([row(k) for k in range(d + 1)])
    w2 = np.array([row(k) for k in range(d + 1, m + 1)])
    return w1, w2


def _phi_deriv_cheb(k: int, order: int) -> np.ndarray:
    """T-basis coefficients of the order-th derivative of phi_k."""
    c = np.zeros(k + 1)
    c[k] = 1.0 if k == 0 else SQRT2
    return npcheb.chebder(c, order) if order else c


def _phi_deriv_family(m: int, d: int) -> np.ndarray:
    """T-basis coefficients of the (d+1)-th derivatives of phi_{d+1}, ...,
    phi_m, one column each (column j has degree j): one `chebder` over the
    stacked columns.  Each column equals `_phi_deriv_cheb` bit for bit, as
    the zero coefficients above its degree add exact zeros."""
    k = np.arange(d + 1, m + 1)
    c = np.zeros((m + 1, k.size))
    c[k, k - d - 1] = np.where(k == 0, 1.0, SQRT2)
    return npcheb.chebder(c, d + 1, axis=0)


def projection_vector(f: NonUniformSpline, m: int) -> np.ndarray:
    """Lebesgue inner products of f against the (d+1)-th derivatives of
    phi_k for k = d+1..m, computed exactly piecewise: each piece times the
    derivative is multiplied and antidifferentiated in the T basis.

    The products are formed one (order, piece) pair at a time, as `chebmul`
    sums each through `np.convolve`, whose summation order a batched
    product would change.  They are stacked, zero padded to length m, and
    antidifferentiated and evaluated at each piece's two edges in one call
    each.  The padding is exact: a zero coefficient adds exact zeros in
    `chebint` and leaves Clenshaw's recurrence unchanged, so each entry is
    bit for bit the per-pair result.  The pieces are summed left to right.
    """
    d = f.degree
    if m <= d:
        raise ValueError("need m > degree")
    edges = np.concatenate([[-1.0], f.knots, [1.0]])
    pieces = [npcheb.poly2cheb(piece) for piece in f.pieces]
    # a piece has at most d+1 coefficients and dphi_k at most m-d
    prod = np.zeros((m, m - d, len(pieces)))
    for j, dphi in enumerate(_phi_deriv_family(m, d).T):
        for i, pc in enumerate(pieces):
            c = npcheb.chebmul(pc, dphi)
            prod[:c.size, j, i] = c
    anti = npcheb.chebint(prod, axis=0)
    inc = (npcheb.chebval(edges[1:], anti, tensor=False)
           - npcheb.chebval(edges[:-1], anti, tensor=False))
    out = np.zeros(m - d)
    for col in inc.T:
        out += col
    return out


def moments_via_transfer(proj: np.ndarray, b: np.ndarray, m: int, d: int) -> np.ndarray:
    """Moment vector of the derivative measure from the block identity:
    the first d+1 moments come from the boundary data alone, the rest add
    (-1)^(d+1) times the projection coefficients."""
    proj = np.asarray(proj, dtype=float)
    b = np.asarray(b, dtype=float)
    if proj.shape != (m - d,):
        raise ValueError(f"projection vector must have length m-d = {m - d}")
    if b.shape != (2 * (d + 1),):
        raise ValueError(f"boundary vector must have length 2(d+1) = {2 * (d + 1)}")
    w1, w2 = transfer_matrices(m, d)
    out = np.empty(m + 1)
    out[:d + 1] = w1 @ b
    out[d + 1:] = (-1.0) ** (d + 1) * proj + w2 @ b
    return out


def integrate_from_spikes(mu: DiscreteMeasure, b: np.ndarray, d: int) -> NonUniformSpline:
    """The unique spline whose (d+1)-th distributional derivative is mu and
    whose left-endpoint derivatives match the first d+1 entries of b.

    Built left to right: the first piece is the Taylor polynomial of the
    left boundary data, and each atom (t0, a) adds a/d! * (t - t0)^d from
    its location onward.  An atom at exactly -1 folds into the first piece;
    an atom at exactly +1 has no effect on [-1, 1] and is ignored.  Right
    boundary agreement with b is a diagnostic, see `boundary_residual`.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (2 * (d + 1),):
        raise ValueError(f"boundary vector must have length 2(d+1) = {2 * (d + 1)}")
    p0 = np.zeros(d + 1)
    p0[0] = b[0]
    for j in range(1, d + 1):
        base = np.asarray(nppoly.polypow([1.0, 1.0], j), dtype=float)
        p0[:base.size] += b[j] / math.factorial(j) * base
    knots, pieces = [], [p0]
    for t0, a in zip(mu.support, mu.weights):
        bump = a / math.factorial(d) * np.asarray(
            nppoly.polypow([-t0, 1.0], d) if d else [1.0], dtype=float)
        bump = np.pad(bump, (0, d + 1 - bump.size))
        if t0 <= -1.0:
            pieces = [p + bump for p in pieces]
        elif t0 >= 1.0:
            continue
        else:
            knots.append(t0)
            pieces.append(pieces[-1] + bump)
    return NonUniformSpline(d, np.array(knots), np.array(pieces))


def boundary_residual(f: NonUniformSpline, b: np.ndarray) -> float:
    """Largest absolute mismatch between the spline's endpoint data and b."""
    return float(np.abs(boundary_vector(f) - np.asarray(b, dtype=float)).max())


def spline_to_dict(f: NonUniformSpline) -> dict:
    return {"degree": f.degree, "knots": f.knots.tolist(),
            "pieces": f.pieces.tolist()}


def spline_from_dict(obj: dict) -> NonUniformSpline:
    for key in ("degree", "knots", "pieces"):
        if key not in obj:
            raise ValueError(f"spline object missing '{key}'")
    degree = obj["degree"]
    # exactly int or an integral float: int() would truncate 2.5 and
    # raise TypeError on null
    if not (type(degree) is int or isinstance(degree, float) and degree.is_integer()):
        raise ValueError(f"spline degree must be an integer, got {degree!r}")
    return NonUniformSpline(int(degree),
                            np.asarray(obj["knots"], dtype=float),
                            np.asarray(obj["pieces"], dtype=float))
