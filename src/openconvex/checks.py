"""Seeded empirical checks of the two-point bounds on the spline.

These sample random point pairs in the spline's open half-plane domain and
measure how well the analytical inequalities hold on its float-converted
values and gradients.
"""

from __future__ import annotations

import math

import numpy as np

from . import spline
from .bounds import PointData, cocoercivity_gap, global_bound_interval

X0_RANGE = (-2.0, 3.0)
X1_RANGE = (spline.DOMAIN_BOUND_F + 1e-6, 2.0)


def _sample_points(rng: np.random.Generator, n: int) -> np.ndarray:
    x0 = rng.uniform(*X0_RANGE, size=n)
    x1 = rng.uniform(*X1_RANGE, size=n)
    return np.column_stack([x0, x1])


def _point_data(X: np.ndarray) -> PointData:
    """The stacked PointData at the rows of X, from one classification pass."""
    f, g = spline.float_data(X)
    return PointData(x=X, f=f, g=g)


def global_bound_max_excursion(n_pairs: int, seed: int = 0) -> float:
    """Worst distance of f(y) from its admissible interval over n random pairs.

    Nonpositive (up to float noise) iff the strengthened two-sided bound
    holds on every sampled pair.  Coincident pairs are left out.
    """
    rng = np.random.default_rng(seed)
    X = _sample_points(rng, n_pairs)
    Y = _sample_points(rng, n_pairs)
    distinct = np.any(X != Y, axis=1)
    py = _point_data(Y[distinct])
    iv = global_bound_interval(1.0, _point_data(X[distinct]), py)
    excursion = np.maximum(iv.lo - py.f, py.f - iv.hi)
    return float(np.max(excursion, initial=-math.inf))


def local_cocoercivity_min_gap(n_pairs: int, seed: int = 0) -> float:
    """Smallest co-coercivity gap over pairs satisfying the locality condition.

    y is sampled in the domain, x uniformly in the open ball around y of
    radius dist(y, complement), which the half-plane geometry gives exactly
    as y_1 + 23/240.
    """
    rng = np.random.default_rng(seed)
    Y = _sample_points(rng, n_pairs)
    # one (angle, radius) draw per pair, in the order of a per-pair loop
    draws = rng.uniform(0.0, (2.0 * math.pi, 1.0), size=(n_pairs, 2))
    theta = draws[:, 0]
    dist_y = Y[:, 1] - spline.DOMAIN_BOUND_F
    radius = dist_y * np.sqrt(draws[:, 1]) * (1.0 - 1e-6)
    X = np.column_stack([Y[:, 0] + radius * np.cos(theta),
                         Y[:, 1] + radius * np.sin(theta)])
    gap = cocoercivity_gap(1.0, _point_data(X), _point_data(Y))
    return float(np.min(gap, initial=math.inf))
