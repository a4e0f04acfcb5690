"""Test-only companions of ``openconvex.interpolation``.

``two_point_feasible`` is the two-point predicate written from
``bounds.cocoercivity_gap`` alone, and ``combine`` mixes two segment
interpolants pointwise: a convex combination of L-smooth convex functions is
L-smooth and convex, and a mixture is evaluated as the weighted sum of
``eval_interpolant`` calls.  The package itself needs neither.
"""

from dataclasses import dataclass

import numpy as np

from openconvex.bounds import PointData, cocoercivity_gap
from openconvex.errors import RangeError
from openconvex.interpolation import SegmentInterpolant, eval_interpolant


class MismatchError(ValueError):
    """Two interpolants do not share compatible knots."""


def two_point_feasible(L: float, p0: PointData, p1: PointData) -> bool:
    """Co-coercivity from p0 to p1 and from p1 to p0, within 1e-9 L ||p1.x - p0.x||^2.

    The first bounds p1.f from below, the second from above.  The slack is
    relative to each pair's own L ||p1.x - p0.x||^2, so the verdict does not
    depend on units.  On stacks it is True iff every pair passes.
    """
    dx = p1.x - p0.x
    gaps = np.minimum(cocoercivity_gap(L, p0, p1), cocoercivity_gap(L, p1, p0))
    return bool(np.all(gaps >= -1e-9 * L * np.vecdot(dx, dx)))


@dataclass(frozen=True)
class Mixture:
    """The pointwise sum of weights[k] times components[k]."""

    weights: tuple[float, ...]
    components: tuple[SegmentInterpolant, ...]


def combine(Fu: SegmentInterpolant, Fb: SegmentInterpolant, lam: float) -> Mixture:
    """Pointwise lam*Fu + (1-lam)*Fb; stays L-smooth and convex.

    The two must share their canonical knot count and their frames' L, and
    the frames must share x and y within 1e-12 rho, f_x within 1e-9 L rho^2
    and g_x and g_y within 1e-9 L rho, with rho = ||y - x||: tolerances
    relative to the data, so that the verdict does not depend on units.
    Canonical knot 0 is (F, G) = (0, 0) and knot N has G_N = (a, b), so the
    frames carry each interpolant's endpoint data.
    """
    if not 0.0 <= lam <= 1.0:
        raise RangeError(f"lambda = {lam} outside [0, 1]")
    su, sb = Fu.problem.spec, Fb.problem.spec
    if Fu.knots.f.shape != Fb.knots.f.shape or abs(su.L - sb.L) > 0.0:
        raise MismatchError("interpolants differ in knot count or smoothness")
    rho = float(np.linalg.norm(su.y - su.x))
    g_tol = 1e-9 * su.L * rho

    def close(a, b, tol) -> bool:
        return bool(np.all(np.abs(a - b) <= tol))

    if not (close(su.x, sb.x, 1e-12 * rho) and close(su.y, sb.y, 1e-12 * rho)):
        raise MismatchError("knot locations differ")
    if not (close(su.f_x, sb.f_x, g_tol * rho) and close(su.g_x, sb.g_x, g_tol)):
        raise MismatchError("endpoint data at x differs")
    if not close(su.g_y, sb.g_y, g_tol):
        raise MismatchError("endpoint gradient at y differs")
    return Mixture((lam, 1.0 - lam), (Fu, Fb))


def eval_mixture(mix: Mixture, t):
    """(value, directional derivative along y-x) of the mixture at t; see eval_interpolant."""
    value = deriv = 0.0
    for w, interp in zip(mix.weights, mix.components):
        v, d = eval_interpolant(interp, t)
        value, deriv = value + w * v, deriv + w * d
    return value, deriv
