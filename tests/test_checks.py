"""The seeded empirical checks against a per-pair reference loop.

The references evaluate the spline one point at a time and write the
two-point formulas out with scalar dot products, so they share no code with
the stacked `bounds` functions behind the checks.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from openconvex import checks, spline


def _point(model, x0, x1):
    p = model.eval_float([[x0, x1]])[0]
    return float(p.f[0]), p.g[0]


def _reference_excursion(n_pairs, seed, model=spline.SPLINE):
    rng = np.random.default_rng(seed)
    xs = checks._sample_points(rng, n_pairs)
    ys = checks._sample_points(rng, n_pairs)
    worst = -math.inf
    for x, y in zip(xs, ys):
        if np.array_equal(x, y):
            continue
        (fx, gx), (fy, gy) = _point(model, *x), _point(model, *y)
        d = y - x
        cross = float((gy - gx) @ d)
        quad = cross * cross / (2.0 * float(d @ d))
        lo = fx + float(gx @ d) + quad
        hi = fx + float(gy @ d) - quad
        worst = max(worst, lo - fy, fy - hi)
    return worst


def _reference_gap(n_pairs, seed, model=spline.SPLINE):
    rng = np.random.default_rng(seed)
    ys = checks._sample_points(rng, n_pairs)
    worst = math.inf
    for y in ys:
        dist_y = y[1] - spline.DOMAIN_BOUND_F
        theta = rng.uniform(0.0, 2.0 * math.pi)
        radius = dist_y * math.sqrt(rng.uniform(0.0, 1.0)) * (1.0 - 1e-6)
        x = np.array([y[0] + radius * math.cos(theta), y[1] + radius * math.sin(theta)])
        (fx, gx), (fy, gy) = _point(model, *x), _point(model, *y)
        d = y - x
        dg = gx - gy
        worst = min(worst, fy - fx - float(gx @ d) - float(dg @ dg) / 2.0)
    return worst


# (2000, 1) is the CLI's sample size at a seed where a row-wise product sum in
# place of the scalar dot product already moves the excursion in its last bits
SAMPLES = pytest.mark.parametrize("n_pairs, seed", [(300, 0), (300, 3), (2000, 1)],
                                  ids=["0", "3", "2000-1"])


@SAMPLES
def test_excursion_matches_reference(n_pairs, seed):
    assert (checks.global_bound_max_excursion(n_pairs, seed=seed)
            == _reference_excursion(n_pairs, seed))


@SAMPLES
def test_gap_matches_reference(n_pairs, seed):
    assert checks.local_cocoercivity_min_gap(n_pairs, seed=seed) == _reference_gap(n_pairs, seed)


# the spline with the constant of piece k raised by 1/1000, whose jumps at the
# seams move both figures for k = 2 and 4
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_checks_sample_the_given_spline(k):
    model = spline.build_spline({k: Fraction(1, 1000)})
    excursion = checks.global_bound_max_excursion(300, seed=0, model=model)
    gap = checks.local_cocoercivity_min_gap(300, seed=0, model=model)
    assert excursion == _reference_excursion(300, 0, model)
    assert gap == _reference_gap(300, 0, model)
