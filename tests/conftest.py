"""Shared test helpers."""

import os

# one BLAS thread: the suite's matrices are small, and on a 2-core host the
# default threading made the suite four times slower.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from chebspike.measures import DiscreteMeasure
from chebspike.splines import integrate_from_spikes


def random_spline(rng, degree, n_knots, min_gap=0.05, jump_scale=1.0):
    """C^{degree-1} spline built by integrating random jumps from random
    left-boundary data (construction guarantees the smoothness invariant)."""
    while True:
        knots = np.sort(rng.uniform(-0.9, 0.9, n_knots))
        if n_knots < 2 or np.diff(knots).min() > min_gap:
            break
    jumps = jump_scale * rng.uniform(0.5, 2.0, n_knots) * rng.choice([-1, 1], n_knots)
    b = np.concatenate([rng.standard_normal(degree + 1), np.zeros(degree + 1)])
    return integrate_from_spikes(DiscreteMeasure(knots, jumps), b, degree)


def random_separated_measure(rng, n_spikes, m, margin=1.15,
                             amp_range=(0.5, 2.0)):
    """Measure with separation-compliant support and random signed weights."""
    from chebspike.cli import random_separated_support
    support = random_separated_support(rng, n_spikes, m, margin=margin)
    amps = rng.uniform(*amp_range, n_spikes) * rng.choice([-1.0, 1.0], n_spikes)
    return DiscreteMeasure(support, amps)
