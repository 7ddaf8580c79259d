"""Finite signed atomic measures on [-1, 1]: moments, total variation,
and the separation geometry used by the recovery guarantees."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import SQRT2, _check_domain


@dataclass(frozen=True)
class DiscreteMeasure:
    """Signed atomic measure: sorted distinct support points with nonzero
    weights.  Coincident points supplied to the constructor are merged by
    summing their weights; exact zero weights are dropped."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.support, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if s.shape != w.shape or s.ndim != 1:
            raise ValueError("support and weights must be 1-d of equal length")
        if not (np.isfinite(s).all() and np.isfinite(w).all()):
            raise ValueError("support and weights must be finite")
        _check_domain(s)
        if s.size:
            uniq, inverse = np.unique(s, return_inverse=True)
            merged = np.zeros_like(uniq)
            np.add.at(merged, inverse, w)
            keep = merged != 0.0
            s, w = uniq[keep], merged[keep]
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "weights", w)

    @classmethod
    def empty(cls) -> "DiscreteMeasure":
        return cls(np.array([]), np.array([]))

    def __len__(self) -> int:
        return self.support.size

    @property
    def is_empty(self) -> bool:
        return self.support.size == 0


def phi_matrix(points, m: int) -> np.ndarray:
    """Matrix with entry (k, j) = phi_k(points[j]), k = 0..m."""
    t = np.atleast_1d(np.asarray(points, dtype=float))
    _check_domain(t)
    theta = np.arccos(t)
    M = SQRT2 * np.cos(np.arange(m + 1)[:, None] * theta[None, :])
    M[0, :] = 1.0
    return M


def moments(mu: DiscreteMeasure, m: int) -> np.ndarray:
    """Generalized moment vector (integral of phi_k d mu) for k = 0..m."""
    if m < 0:
        raise ValueError("max order must be nonnegative")
    if mu.is_empty:
        return np.zeros(m + 1)
    return phi_matrix(mu.support, m) @ mu.weights


def tv_norm(mu: DiscreteMeasure) -> float:
    """Total variation of an atomic measure: the sum of |weights|."""
    return float(np.abs(mu.weights).sum())


def min_separation(points) -> float:
    """Smallest circular gap between arccos images of the points, counting
    the pi-reflection; +inf when fewer than two points."""
    t = np.unique(np.atleast_1d(np.asarray(points, dtype=float)))
    _check_domain(t)
    if t.size <= 1:
        return np.inf
    theta = np.arccos(t)
    diff = np.abs(theta[:, None] - theta[None, :])
    iu = np.triu_indices(t.size, k=1)
    gaps = diff[iu]
    return float(np.minimum(gaps, np.pi - gaps).min())


def edge_distance(points) -> float:
    """arccos distance from the points (excluding exact +-1) to the edges;
    +inf when no interior point exists."""
    t = np.unique(np.atleast_1d(np.asarray(points, dtype=float)))
    _check_domain(t)
    t = t[(t != 1.0) & (t != -1.0)]
    if t.size == 0:
        return np.inf
    theta = np.arccos(t)
    return float(np.minimum(theta, np.pi - theta).min())


def separation_ok(points, m: int) -> bool:
    """Separation condition for degree-m recovery: the smaller of the
    minimum separation and twice the edge distance is at least 5*pi/m."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return min(min_separation(points), 2.0 * edge_distance(points)) >= 5.0 * np.pi / m


def hausdorff_arccos(points_a, points_b) -> float:
    """Hausdorff distance between two point sets in the arccos metric.
    +inf if exactly one set is empty, 0 if both are."""
    a = np.atleast_1d(np.asarray(points_a, dtype=float))
    b = np.atleast_1d(np.asarray(points_b, dtype=float))
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return np.inf
    d = np.abs(np.arccos(a)[:, None] - np.arccos(b)[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def measure_to_dict(mu: DiscreteMeasure) -> dict:
    return {"support": mu.support.tolist(), "weights": mu.weights.tolist()}


def measure_from_dict(obj: dict) -> DiscreteMeasure:
    if not isinstance(obj, dict) or "support" not in obj or "weights" not in obj:
        raise ValueError("measure object needs 'support' and 'weights'")
    return DiscreteMeasure(np.asarray(obj["support"], dtype=float),
                           np.asarray(obj["weights"], dtype=float))
