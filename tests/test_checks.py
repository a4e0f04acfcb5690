"""The seeded empirical checks against a per-pair reference loop."""

import math

import numpy as np
import pytest

from openconvex import checks, spline
from openconvex.bounds import PointData, cocoercivity_gap, global_bound_interval


def _point(x0, x1):
    return PointData(x=np.array([x0, x1]), f=spline.eval_F_float(x0, x1),
                     g=np.array(spline.grad_F_float(x0, x1)))


def _reference_excursion(n_pairs, seed):
    rng = np.random.default_rng(seed)
    xs = checks._sample_points(rng, n_pairs)
    ys = checks._sample_points(rng, n_pairs)
    worst = -math.inf
    for (a0, a1), (b0, b1) in zip(xs, ys):
        if a0 == b0 and a1 == b1:
            continue
        px, py = _point(a0, a1), _point(b0, b1)
        iv = global_bound_interval(1.0, px, py)
        worst = max(worst, iv.lo - py.f, py.f - iv.hi)
    return worst


def _reference_gap(n_pairs, seed):
    rng = np.random.default_rng(seed)
    ys = checks._sample_points(rng, n_pairs)
    worst = math.inf
    for b0, b1 in ys:
        dist_y = b1 - spline.DOMAIN_BOUND_F
        theta = rng.uniform(0.0, 2.0 * math.pi)
        radius = dist_y * math.sqrt(rng.uniform(0.0, 1.0)) * (1.0 - 1e-6)
        px = _point(b0 + radius * math.cos(theta), b1 + radius * math.sin(theta))
        worst = min(worst, cocoercivity_gap(1.0, px, _point(b0, b1)))
    return worst


@pytest.mark.parametrize("seed", [0, 3])
def test_excursion_matches_reference(seed):
    assert checks.global_bound_max_excursion(300, seed=seed) == _reference_excursion(300, seed)


@pytest.mark.parametrize("seed", [0, 3])
def test_gap_matches_reference(seed):
    assert checks.local_cocoercivity_min_gap(300, seed=seed) == _reference_gap(300, seed)
