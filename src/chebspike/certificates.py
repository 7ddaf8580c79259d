"""Constructive dual certificates for separated supports.

The construction symmetrizes the support onto the unit circle, interpolates
target values with the squared Fejer kernel and its derivative as the basis,
and maps the resulting even trigonometric polynomial back to an algebraic
polynomial in the orthonormal Chebyshev system.  Two kinds are produced:

* a sign interpolant anchored at one support point (value 1 there, 0 at the
  others, pinched quadratically in between), and
* a quadratic isolation certificate interpolating arbitrary unit targets
  with a uniform quadratic pinch away from the support.

Certified constants: pinch radius CERT_C0/m with curvature bounds CERT_C1
(lower) and CERT_C2 (upper) for the sign interpolant, and 2*CERT_C1 for the
isolation kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .chebyshev import ChebPoly
from .measures import separation_ok

CERT_C0 = 2.0 * np.pi * 0.1649
CERT_C1 = 0.00424
CERT_C2 = 0.25
# a certificate passes when it interpolates its targets to EQ_TOL and every
# certified inequality holds to MARGIN_TOL
EQ_TOL = 1e-8
MARGIN_TOL = -1e-9

SIGN_INTERPOLANT = "sign_interpolant"
QIC = "qic"


@dataclass(frozen=True)
class SymmetrizedSupport:
    """Circle images (arccos(T) and its negation, scaled to [0, 1] and
    centered) of a support set; symmetric about 1/2 modulo 1."""

    points: np.ndarray
    source_index: np.ndarray   # index into the original support per image

    def __len__(self):
        return self.points.size


@dataclass(frozen=True)
class Certificate:
    poly: ChebPoly
    cos_coeffs: np.ndarray     # trigonometric form: sum_k cos_coeffs[k] cos(k theta)
    kind: str
    support: np.ndarray
    targets: np.ndarray        # value aimed at each support point
    anchor: int | None
    condition_number: float
    circle_points: np.ndarray  # raw interpolation data on the circle
    circle_alpha: np.ndarray
    circle_beta: np.ndarray


def symmetrize_support(support) -> SymmetrizedSupport:
    """Map support points to (1/2pi)(arccos(T) and -arccos(T)) + 1/2,
    merging coincident images (the endpoints each produce a single image;
    -1 maps to the pair {0, 1} which is one point of the torus and is kept
    as 0)."""
    t = np.atleast_1d(np.asarray(support, dtype=float))
    theta = np.arccos(t) / (2.0 * np.pi)
    pts, src = [], []
    for j in range(t.size):
        for img in (0.5 + theta[j], 0.5 - theta[j]):
            img = img % 1.0
            if all(abs(img - q) > 1e-12 and abs(abs(img - q) - 1.0) > 1e-12
                   for q in pts):
                pts.append(img)
                src.append(j)
    order = np.argsort(pts)
    return SymmetrizedSupport(np.asarray(pts)[order], np.asarray(src)[order])


class SquaredFejerKernel:
    """The squared Fejer kernel [sin(n pi t) / (n sin(pi t))]^4 with
    n = m/2 + 1, held as an exact cosine series of degree m so that the
    kernel and its first two derivatives evaluate without removable
    singularities."""

    def __init__(self, m: int):
        if m % 2 != 0 or m < 2:
            raise ValueError("kernel degree must be even and at least 2")
        n = m // 2 + 1
        tri = (1.0 - np.abs(np.arange(-n + 1, n)) / n) / n
        full = np.convolve(tri, tri)          # lags -(m) .. m, length 2m+1
        self.m = m
        self.coeffs = full[2 * (n - 1):]      # lags 0 .. m

    def _series(self, t, weight):
        t = np.asarray(t, dtype=float)
        k = np.arange(self.m + 1)
        ang = 2.0 * np.pi * np.multiply.outer(t, k)
        scale = np.ones(self.m + 1)
        scale[1:] = 2.0
        return (np.cos(ang) if weight == 0 else
                -np.sin(ang) if weight == 1 else -np.cos(ang)) @ \
            (self.coeffs * scale * (2.0 * np.pi * k) ** weight)

    def value(self, t):
        return self._series(t, 0)

    def d1(self, t):
        return self._series(t, 1)

    def d2(self, t):
        return self._series(t, 2)


def _cosine_coeffs_from_samples(fun, m: int) -> np.ndarray:
    """Cosine coefficients a_k of a degree-m cosine polynomial from its
    values on the 2m+1 point extrema grid (type-I DCT, exact)."""
    N = 2 * m
    theta = np.pi * np.arange(N + 1) / N
    g = fun(theta)
    X = scipy.fft.dct(g, type=1)
    a = X / N
    a[0] *= 0.5
    a[-1] *= 0.5
    return a[:m + 1]


def build_certificate(support, m: int, kind: str, anchor: int | None = None,
                      targets=None) -> Certificate:
    """Solve the kernel interpolation system and package the certificate.

    For the sign interpolant the circle targets are +1 at both images of the
    anchored point and -1 elsewhere, and the output polynomial is the
    affine map (p + 1)/2 of the interpolant so it takes value 1 at the
    anchor and 0 at the rest.  For the isolation kind the given unit targets
    are interpolated directly.
    """
    support = np.atleast_1d(np.asarray(support, dtype=float))
    if m % 2 != 0:
        raise ValueError("certificate construction needs even m")
    if not separation_ok(support, m):
        raise ValueError("support does not satisfy the separation condition")
    sym = symmetrize_support(support)
    if kind == SIGN_INTERPOLANT:
        if anchor is None or not 0 <= anchor < support.size:
            raise ValueError("sign interpolant needs a valid anchor index")
        circle_targets = np.where(sym.source_index == anchor, 1.0, -1.0)
        point_targets = np.where(np.arange(support.size) == anchor, 1.0, 0.0)
    elif kind == QIC:
        targets = np.atleast_1d(np.asarray(targets, dtype=float))
        if targets.shape != support.shape or np.any(np.abs(np.abs(targets) - 1.0) > 1e-12):
            raise ValueError("isolation certificate needs one unit target per point")
        circle_targets = targets[sym.source_index]
        point_targets = targets
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")

    ker = SquaredFejerKernel(m)
    X = sym.points
    nx = X.size
    diff = X[:, None] - X[None, :]
    A = np.zeros((2 * nx, 2 * nx))
    A[:nx, :nx] = ker.value(diff)
    A[:nx, nx:] = ker.d1(diff)
    A[nx:, :nx] = ker.d1(diff)
    A[nx:, nx:] = ker.d2(diff)
    rhs = np.concatenate([circle_targets, np.zeros(nx)])
    cond = float(np.linalg.cond(A))
    try:
        coef = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular interpolation system (cond={cond:.3e}): "
                         f"{exc}") from exc
    al, be = coef[:nx], coef[nx:]

    def on_circle(u):
        du = np.subtract.outer(u, X)
        return ker.value(du) @ al + ker.d1(du) @ be

    def cosine_form(theta):
        return on_circle(theta / (2.0 * np.pi) + 0.5)

    a = _cosine_coeffs_from_samples(cosine_form, m)
    if kind == SIGN_INTERPOLANT:
        a = 0.5 * a
        a[0] += 0.5
    poly = ChebPoly.from_chebyshev_t(a)
    return Certificate(poly=poly, cos_coeffs=a, kind=kind, support=support,
                       targets=point_targets, anchor=anchor,
                       condition_number=cond, circle_points=X,
                       circle_alpha=al, circle_beta=be)


@dataclass(frozen=True)
class CertificateReport:
    kind: str
    grid_size: int
    interpolation_residual: float
    margins: dict
    worst_margin: float

    def passes(self) -> bool:
        return (self.interpolation_residual <= EQ_TOL
                and self.worst_margin >= MARGIN_TOL)


def verify_certificate(cert: Certificate, support, m: int,
                       grid_size: int) -> CertificateReport:
    """Evaluate the certified inequalities on an arccos-uniform grid.

    Sign interpolant: value 1 at the anchor and 0 at the other points;
    within radius CERT_C0/m of the anchor, 1 - C2 m^2 d^2 <= q <= 1 - C1 m^2 d^2;
    within that radius of another point, C1 m^2 d^2 <= q <= C2 m^2 d^2 in the
    distance to that point; elsewhere c0^2 C1 <= q <= 1 - c0^2 C1.
    Isolation kind: unit values at the support and 1 - |q| >= 2 C1 m^2 d^2
    near it, 1 - |q| >= 2 c0^2 C1 far from it.
    """
    support = np.atleast_1d(np.asarray(support, dtype=float))
    if grid_size < 10 * m:
        raise ValueError("grid must have at least 10*m points")
    theta = np.linspace(0.0, np.pi, grid_size)
    t = np.cos(theta)
    q = cert.poly(t)
    dist = np.abs(theta[:, None] - np.arccos(support)[None, :])
    radius = CERT_C0 / m

    margins = {}
    if cert.kind == SIGN_INTERPOLANT:
        j = cert.anchor
        qs = cert.poly(support)
        interp = float(np.abs(qs - cert.targets).max())
        near_anchor = dist[:, j] <= radius
        other = np.delete(np.arange(support.size), j)
        if other.size:
            dother = dist[:, other].min(axis=1)
            nearest = other[np.argmin(dist[:, other], axis=1)]
            near_other = (dother <= radius)
        else:
            dother = np.full(grid_size, np.inf)
            near_other = np.zeros(grid_size, dtype=bool)
        far = ~(near_anchor | near_other)

        da = dist[:, j]
        margins["near_anchor_upper"] = float(
            ((1.0 - CERT_C1 * m ** 2 * da ** 2) - q)[near_anchor].min(initial=np.inf))
        margins["near_anchor_lower"] = float(
            (q - (1.0 - CERT_C2 * m ** 2 * da ** 2))[near_anchor].min(initial=np.inf))
        margins["near_other_upper"] = float(
            (CERT_C2 * m ** 2 * dother ** 2 - q)[near_other].min(initial=np.inf))
        margins["near_other_lower"] = float(
            (q - CERT_C1 * m ** 2 * dother ** 2)[near_other].min(initial=np.inf))
        margins["far_upper"] = float(
            ((1.0 - CERT_C0 ** 2 * CERT_C1) - q)[far].min(initial=np.inf))
        margins["far_lower"] = float(
            (q - CERT_C0 ** 2 * CERT_C1)[far].min(initial=np.inf))
    elif cert.kind == QIC:
        qs = cert.poly(support)
        interp = float(np.abs(qs - cert.targets).max())
        dmin = dist.min(axis=1)
        near = dmin <= radius
        far = ~near
        margins["near_pinch"] = float(
            ((1.0 - np.abs(q)) - 2.0 * CERT_C1 * m ** 2 * dmin ** 2)[near].min(initial=np.inf))
        margins["far_pinch"] = float(
            ((1.0 - np.abs(q)) - 2.0 * CERT_C0 ** 2 * CERT_C1)[far].min(initial=np.inf))
    else:
        raise ValueError(f"unknown certificate kind {cert.kind!r}")

    finite = [v for v in margins.values() if np.isfinite(v)]
    worst = float(min(finite)) if finite else np.inf
    return CertificateReport(
        kind=cert.kind, grid_size=grid_size, interpolation_residual=interp,
        margins=margins, worst_margin=worst)


def trig_second_derivative_sup(cert: Certificate, grid_size: int = 4096) -> float:
    """Grid estimate of sup |p''| for the certificate's trigonometric form
    p(theta) = sum a_k cos(k theta) (Bernstein consistency check)."""
    theta = np.linspace(0.0, np.pi, grid_size)
    k = np.arange(cert.cos_coeffs.size)
    vals = -np.cos(np.outer(theta, k)) @ (cert.cos_coeffs * k ** 2)
    return float(np.abs(vals).max())


def _raw_circle_values(cert: Certificate, u: np.ndarray) -> np.ndarray:
    """Kernel-form values of the interpolant before cosine extraction."""
    ker = SquaredFejerKernel(cert.cos_coeffs.size - 1)
    du = np.subtract.outer(u, cert.circle_points)
    return ker.value(du) @ cert.circle_alpha + ker.d1(du) @ cert.circle_beta


def odd_part_residual(cert: Certificate, grid_size: int = 2048) -> float:
    """Maximum asymmetry of the raw circle interpolant about 1/2; the
    symmetry of the kernel basis and of the image set makes the unique
    interpolant even, so this vanishes up to roundoff."""
    v = np.linspace(0.0, 0.5, grid_size)
    return float(np.abs(_raw_circle_values(cert, 0.5 + v)
                        - _raw_circle_values(cert, 0.5 - v)).max())


def extraction_residual(cert: Certificate, grid_size: int = 2048) -> float:
    """Agreement between the extracted algebraic polynomial and the raw
    kernel interpolant mapped to [-1, 1] (exactness of the DCT step)."""
    theta = np.linspace(0.0, np.pi, grid_size)
    raw = _raw_circle_values(cert, theta / (2.0 * np.pi) + 0.5)
    if cert.kind == SIGN_INTERPOLANT:
        raw = 0.5 * raw + 0.5
    return float(np.abs(cert.poly(np.cos(theta)) - raw).max())
