"""Segment interpolants realizing chain solutions.

A feasible pair of (value, gradient) triples can be interpolated by the
convex envelope of two equal-curvature quadratic surrogates; gluing the
per-segment envelopes along the chain yields a function that is L-smooth
and convex on the segment [x, y] and matches every knot's data.  A chain
is one stacked ``PointData`` of N+1 knots, and every function here works
on whole stacks: no loop over segments, knots or sample points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import PointData, cocoercivity_gap
from .errors import InfeasibleData, RangeError


def _pair_gaps(L: float, p0: PointData, p1: PointData) -> float | np.ndarray:
    """The smaller co-coercivity gap of each pair, from p0 to p1 and back."""
    return np.minimum(cocoercivity_gap(L, p0, p1), cocoercivity_gap(L, p1, p0))


def envelope_eval(L: float, p0: PointData, p1: PointData,
                  z) -> tuple[float | np.ndarray, np.ndarray]:
    """Value and gradient at z of the convex envelope of min(q0, q1).

    q_k(z) = p_k.f + <p_k.g, z - p_k.x> + (L/2) ||z - p_k.x||^2 are the
    equal-curvature surrogates of the pair.  The partial infimum over the
    split points is in closed form and leaves a convex quadratic in the
    combination weight lam, minimized by clamping its stationary point to
    [0, 1]; when that quadratic is flat, relative to L^2 ||p1.x - p0.x||^2,
    it is linear in lam and lam is 0 or 1.  On stacks of pairs, with z
    broadcast against their rows, it works row by row.
    """
    z = np.asarray(z, dtype=float)
    gg0, gg1 = np.vecdot(p0.g, p0.g), np.vecdot(p1.g, p1.g)
    dx = p1.x - p0.x
    c = L * (z - p1.x) + p1.g
    w = L * dx + p0.g - p1.g
    ww, cw = np.vecdot(w, w), np.vecdot(c, w)
    flat = ww <= 1e-14 * L * L * np.vecdot(dx, dx)
    rhs = L * (p1.f - p0.f) + 0.5 * (gg0 - gg1)
    lam = np.clip((rhs - cw) / np.where(flat, 1.0, ww), 0.0, 1.0)
    slope = p0.f - p1.f + (gg1 - gg0) / (2.0 * L) + cw / L
    lam = np.where(flat, np.where(slope >= 0.0, 0.0, 1.0), lam)
    xbar = lam[..., None] * p0.x + (1.0 - lam)[..., None] * p1.x
    gbar = lam[..., None] * p0.g + (1.0 - lam)[..., None] * p1.g
    p = L * (z - xbar) + gbar
    value = (
        lam * p0.f
        + (1.0 - lam) * p1.f
        + (np.vecdot(p, p) - lam * gg0 - (1.0 - lam) * gg1) / (2.0 * L)
    )
    return value, p


@dataclass(frozen=True)
class SegmentInterpolant:
    """The envelope chain through ``knots``, a stack of N+1 knots."""

    knots: PointData
    L: float

    @property
    def x(self) -> np.ndarray:
        return self.knots.x[0]

    @property
    def y(self) -> np.ndarray:
        return self.knots.x[-1]

    @property
    def N(self) -> int:
        return self.knots.x.shape[0] - 1


def build_segment_interpolant(L: float, chain: PointData) -> SegmentInterpolant:
    """The envelope chain through a feasible stack of knots.

    Every adjacent pair must pass the two-point conditions within
    1e-9 L ||y - x||^2, relative to the spec units of one canonical unit of
    f, so that the verdict does not depend on units; the error names the
    first pair that does not.
    """
    if chain.x.ndim != 2 or chain.x.shape[0] < 2:
        raise InfeasibleData("a chain needs at least two knots")
    span = chain.x[-1] - chain.x[0]
    slack = 1e-9 * L * float(span @ span)
    failing = np.flatnonzero(_pair_gaps(L, chain[:-1], chain[1:]) < -slack)
    if failing.size:
        k = int(failing[0])
        raise InfeasibleData(f"pair ({k}, {k + 1}) violates the two-point conditions")
    return SegmentInterpolant(chain, L)


def eval_interpolant(interp: SegmentInterpolant, t):
    """(value, directional derivative along y-x) at x + t(y-x), t in [0,1].

    t is a float, giving floats, or an array, giving arrays of its shape.
    """
    t = np.asarray(t, dtype=float)
    inside = (0.0 <= t) & (t <= 1.0)
    if not np.all(inside):
        raise RangeError(f"t = {t[~inside].flat[0]} outside [0, 1]")
    direction = interp.y - interp.x
    z = interp.x + t[..., None] * direction
    seg = np.minimum((t * interp.N).astype(int), interp.N - 1)
    value, g = envelope_eval(interp.L, interp.knots[seg], interp.knots[seg + 1], z)
    deriv = np.vecdot(g, direction)
    if t.ndim == 0:
        return float(value), float(deriv)
    return value, deriv

