"""Moment observations: a noiseless prefix of orders 0..d plus a Gaussian
noisy tail of orders d+1..m, together with the level-crossing calibration
of the regularization parameter."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import legendre as nplegendre

from .chebyshev import ChebPoly
from .measures import DiscreteMeasure, moments
from .splines import _phi_deriv_cheb, _phi_deriv_family, moments_via_transfer


@dataclass(frozen=True)
class Observation:
    """Moment data vector of length m+1.  Orders 0..d are exact, orders
    d+1..m carry i.i.d. N(0, sigma^2) perturbations; d = -1 means every
    order is noisy."""

    y: np.ndarray
    d: int
    m: int
    sigma: float

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if not (self.m > self.d >= -1):
            raise ValueError("need m > d >= -1")
        if y.shape != (self.m + 1,):
            raise ValueError(f"y must have length m+1 = {self.m + 1}")
        if not np.all(np.isfinite(y)):
            raise ValueError("y must be finite")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and nonnegative")
        object.__setattr__(self, "y", y)


def simulate(x: DiscreteMeasure, m: int, d: int, sigma: float,
             seed) -> Observation:
    """Observe the moments of x with seeded Gaussian noise on the tail.

    The generator is numpy's default PCG64 stream seeded with `seed`, so
    results are reproducible bit for bit across runs.
    """
    if not (m > d >= -1):
        raise ValueError("need m > d >= -1")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    y = moments(x, m)
    if sigma > 0:
        rng = np.random.default_rng(seed)
        y[d + 1:] += rng.normal(0.0, sigma, m - d)
    return Observation(y, d, m, sigma)


def assemble_y_from_projection(theta: np.ndarray, b: np.ndarray, m: int, d: int,
                               sigma: float = 0.0) -> Observation:
    """Observation assembled from projection coefficients plus boundary data.

    Identical block product to `moments_via_transfer` with theta in place of
    the exact projection; when theta equals the exact projection of a spline
    the result is the moment vector of its derivative measure, and a
    perturbation n on theta shows up as (-1)^(d+1) * (0, n) on the moments.
    """
    y = moments_via_transfer(np.asarray(theta, dtype=float), b, m, d)
    return Observation(y, d, m, sigma)


def theta_of_polynomial(p: ChebPoly, m: int, d: int) -> np.ndarray:
    """Lebesgue inner products of p against the (d+1)-th derivatives of
    phi_k, k = d+1..m.  p must have degree at most m-d-1."""
    if not (m > d >= 0):
        raise ValueError("need m > d >= 0")
    if p.degree_bound > m - d - 1:
        trailing = p.coeffs[m - d:]
        if np.any(trailing != 0.0):
            raise ValueError(f"polynomial degree exceeds m-d-1 = {m - d - 1}")
    pc = p.to_chebyshev_t()
    out = np.zeros(m - d)
    for j, k in enumerate(range(d + 1, m + 1)):
        prod = npcheb.chebmul(pc, _phi_deriv_cheb(k, d + 1))
        anti = npcheb.chebint(prod)
        out[j] = npcheb.chebval(1.0, anti) - npcheb.chebval(-1.0, anti)
    return out


def polynomial_from_theta(theta: np.ndarray, m: int, d: int) -> ChebPoly:
    """The unique polynomial of degree <= m-d-1 whose inner products with the
    derivative family equal theta (inverse of `theta_of_polynomial`).

    The family fam_j, the (d+1)-th derivatives of phi_{d+1}..phi_m, has
    degrees 0..n-1 with n = m-d, so every product p * fam_j has degree at
    most 2n-2 and the n-point Gauss-Legendre rule (nodes x, weights w;
    Golub & Welsch, Math. Comp. 1969) integrates it exactly:
    theta = V^T (w * p(x)) with V_ij = fam_j(x_i).  Two square solves give
    p(x) = solve(V^T, theta) / w and then its T coefficients,
    solve(chebvander(x, n-1), p(x)).  Working with V instead of the Gram
    matrix V^T diag(w) V needs only the square root of its condition number.
    """
    theta = np.asarray(theta, dtype=float)
    n = m - d
    if theta.shape != (n,):
        raise ValueError(f"theta must have length m-d = {n}")
    x, w = nplegendre.leggauss(n)
    fam = _phi_deriv_family(m, d)
    px = np.linalg.solve(npcheb.chebval(x, fam), theta) / w
    return ChebPoly.from_chebyshev_t(
        np.linalg.solve(npcheb.chebvander(x, n - 1), px))


def lambda_rice(sigma: float, m: int, d: int, eta: float) -> float:
    """Noise calibration threshold 2*sigma*sqrt(2(1+eta)(m-d)log(5(m+d+1)));
    the sup norm of the noise polynomial exceeds it with probability at most
    (5(m+d+1))^(-eta)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not m > d:
        raise ValueError("need m > d")
    if eta <= 0:
        raise ValueError("eta must be positive")
    return 2.0 * sigma * math.sqrt(2.0 * (1.0 + eta) * (m - d) * math.log(5.0 * (m + d + 1)))


def lambda_algorithm(sigma: float, m: int, d: int, alpha: float) -> float:
    """Regularization weight used by the spline recovery driver: twice the
    calibration threshold at tuning parameter alpha."""
    if sigma == 0:
        return 0.0
    return 2.0 * lambda_rice(sigma, m, d, alpha)


def scaled_sigma(sigma0: float, m: int, d: int) -> float:
    """Noise level sigma0 * m! / (m-d-1)!, evaluated as an iterative product
    so it stays finite for m up to a few hundred."""
    if not (m > d >= 0):
        raise ValueError("need m > d >= 0")
    acc = float(sigma0)
    for j in range(m - d, m + 1):
        acc *= j
    return acc


def rice_tail_bound(u: float, sigma: float, m: int, d: int) -> float:
    """Upper bound on P(sup-norm of the noise polynomial > u): the
    level-crossing estimate min(1, exp(-(u^2 - lr^2) / (8 sigma^2 (m-d))))
    with lr = sigma * sqrt(8 (m-d) log(5(m+d+1)))."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not m > d:
        raise ValueError("need m > d")
    if u <= sigma * math.sqrt(2.0 * (m - d)):
        raise ValueError("u must exceed sigma*sqrt(2(m-d))")
    lr2 = 8.0 * sigma ** 2 * (m - d) * math.log(5.0 * (m + d + 1))
    return min(1.0, math.exp(-(u * u - lr2) / (8.0 * sigma ** 2 * (m - d))))


def observation_to_dict(obs: Observation) -> dict:
    return {"y": obs.y.tolist(), "d": obs.d, "m": obs.m, "sigma": obs.sigma}


def observation_from_dict(obj: dict) -> Observation:
    for key in ("y", "d", "m", "sigma"):
        if key not in obj:
            raise ValueError(f"observation object missing '{key}'")
    return Observation(np.asarray(obj["y"], dtype=float), int(obj["d"]),
                       int(obj["m"]), float(obj["sigma"]))
