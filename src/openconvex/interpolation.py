"""Segment interpolants realizing chain solutions.

A feasible pair of (value, gradient) triples can be interpolated by the
convex envelope of two equal-curvature quadratic surrogates; gluing the
per-segment envelopes along the chain yields a function that is L-smooth
and convex on the segment [x, y] and matches every knot's data.  The
two-point conditions do not change under a tilt, a rotation or a rescale by
L ||y - x||^2, so the interpolant is built on a solver result's canonical
knots, x_i = (i/N) e_1 at L = 1, and only its samples are mapped back to the
spec's units.  The knots are one stacked ``PointData`` of N+1 rows, and
every function here works on whole stacks: no loop over segments, knots or
sample points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import PointData, check_unit_interval
from .chain import BoundResult, ChainProblem, _constraint_values
from .errors import InfeasibleData


def envelope_eval(p0: PointData, p1: PointData, z) -> tuple[float | np.ndarray, np.ndarray]:
    """Value and gradient at z of the convex envelope of min(q0, q1).

    q_k(z) = p_k.f + <p_k.g, z - p_k.x> + 1/2 ||z - p_k.x||^2 are the
    curvature-1 surrogates of the pair: the knots are canonical, at L = 1.
    The partial infimum over the split points is in closed form and leaves a
    convex quadratic in the combination weight lam, minimized by clamping its
    stationary point to [0, 1]; when that quadratic is flat, relative to
    ||p1.x - p0.x||^2, it is linear in lam and lam is 0 or 1.  On stacks of
    pairs, with z broadcast against their rows, it works row by row.
    """
    z = np.asarray(z, dtype=float)
    gg0, gg1 = np.vecdot(p0.g, p0.g), np.vecdot(p1.g, p1.g)
    dx = p1.x - p0.x
    c = z - p1.x + p1.g
    w = dx + p0.g - p1.g
    ww, cw = np.vecdot(w, w), np.vecdot(c, w)
    flat = ww <= 1e-14 * np.vecdot(dx, dx)
    rhs = p1.f - p0.f + 0.5 * (gg0 - gg1)
    lam = np.clip((rhs - cw) / np.where(flat, 1.0, ww), 0.0, 1.0)
    slope = p0.f - p1.f + (gg1 - gg0) / 2.0 + cw
    lam = np.where(flat, np.where(slope >= 0.0, 0.0, 1.0), lam)
    xbar = lam[..., None] * p0.x + (1.0 - lam)[..., None] * p1.x
    gbar = lam[..., None] * p0.g + (1.0 - lam)[..., None] * p1.g
    p = z - xbar + gbar
    value = (
        lam * p0.f
        + (1.0 - lam) * p1.f
        + (np.vecdot(p, p) - lam * gg0 - (1.0 - lam) * gg1) / 2.0
    )
    return value, p


@dataclass(frozen=True)
class SegmentInterpolant:
    """The envelope chain through canonical ``knots`` in the frame ``problem``."""

    knots: PointData                # N+1 canonical knots x_i = (i/N) e_1, F_i, G_i
    problem: ChainProblem           # their frame: spec, basis and scale L ||y - x||^2


def build_segment_interpolant(result: BoundResult) -> SegmentInterpolant:
    """The envelope chain through a solver result's canonical knots, as they are.

    Every segment must meet the solver's h1_i, h2_i <= 0 (co-coercivity at
    L = 1 both ways) within 1e-9 canonical units, that is 1e-9 L ||y - x||^2
    in the spec's units, so that the verdict depends neither on units nor on
    f_x; the error names the first pair that does not.
    """
    K = result.knots
    if len(K.f) < 2:
        raise InfeasibleData("a chain needs at least two knots")
    failing = np.flatnonzero(np.max(_constraint_values(K), axis=1) > 1e-9)
    if failing.size:
        k = int(failing[0])
        raise InfeasibleData(f"pair ({k}, {k + 1}) violates the two-point conditions")
    return SegmentInterpolant(K, result.problem)


def eval_interpolant(interp: SegmentInterpolant, t):
    """(value, directional derivative along y-x) at x + t(y-x), t in [0,1].

    The canonical envelope V at t e_1 and its derivative V'(t) map back to
    the spec's units by the problem's value and derivative maps.  t is a
    float, giving floats, or an array, giving arrays of its shape.
    """
    t = np.asarray(t, dtype=float)
    check_unit_interval(t)
    knots, problem = interp.knots, interp.problem
    seg = np.minimum((t * problem.N).astype(int), problem.N - 1)
    V, p = envelope_eval(knots[seg], knots[seg + 1], t[..., None] * knots.x[-1])
    value, deriv = problem.value(t, V), problem.derivative(p[..., 0])
    if t.ndim == 0:
        return float(value), float(deriv)
    return value, deriv
