"""Segment interpolants realizing chain solutions.

A feasible pair of (value, gradient) triples can be interpolated by the
convex envelope of two equal-curvature quadratic surrogates; gluing the
per-segment envelopes along the chain yields a function that is L-smooth
and convex on the segment [x, y] and matches every knot's data.  Convex
combinations of such interpolants are represented as weighted mixtures.
A chain is one stacked ``PointData`` of N+1 knots, and every function here
works on whole stacks: no loop over segments, knots or sample points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import PointData, cocoercivity_gap
from .errors import InfeasibleData, MismatchError, RangeError


def _pair_gaps(L: float, p0: PointData, p1: PointData) -> float | np.ndarray:
    """The smaller co-coercivity gap of each pair, from p0 to p1 and back."""
    return np.minimum(cocoercivity_gap(L, p0, p1), cocoercivity_gap(L, p1, p0))


def two_point_feasible(L: float, p0: PointData, p1: PointData) -> bool:
    """Co-coercivity from p0 to p1 and from p1 to p0, within 1e-9 L ||p1.x - p0.x||^2.

    The first bounds p1.f from below, the second from above.  The slack is
    relative to each pair's own L ||p1.x - p0.x||^2, so the verdict does not
    depend on units.  On stacks it is True iff every pair passes.
    """
    dx = p1.x - p0.x
    return bool(np.all(_pair_gaps(L, p0, p1) >= -1e-9 * L * np.vecdot(dx, dx)))


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
    """Weighted mixture of envelope chains sharing one knot layout.

    ``knots`` is the mixture's stack of N+1 knots.  Component k has weight
    ``weights[k]`` and its own knot stack ``components[k]``, so
    ``components`` has x and g of shape (C, N+1, d) and f of shape (C, N+1).
    """

    knots: PointData
    weights: np.ndarray
    components: PointData
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
    return SegmentInterpolant(chain, np.ones(1), chain[None], L)


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
    mix = interp.components
    v, g = envelope_eval(interp.L, mix[:, seg], mix[:, seg + 1], z)
    value = interp.weights @ v
    deriv = interp.weights @ np.vecdot(g, direction)
    if t.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def combine(Fu: SegmentInterpolant, Fb: SegmentInterpolant,
            lam: float) -> SegmentInterpolant:
    """Pointwise lam*Fu + (1-lam)*Fb; stays L-smooth and convex.

    The two must share knot locations within 1e-12 rho, end values at x
    within 1e-9 L rho^2 and end gradients within 1e-9 L rho, with
    rho = ||y - x||: tolerances relative to the data, so that the verdict
    does not depend on units.
    """
    if not 0.0 <= lam <= 1.0:
        raise RangeError(f"lambda = {lam} outside [0, 1]")
    ku, kb = Fu.knots, Fb.knots
    if ku.x.shape != kb.x.shape or abs(Fu.L - Fb.L) > 0.0:
        raise MismatchError("interpolants differ in knot count or smoothness")
    rho = float(np.linalg.norm(Fu.y - Fu.x))
    g_tol = 1e-9 * Fu.L * rho

    def close(a, b, tol) -> bool:
        return bool(np.all(np.abs(a - b) <= tol))

    if not close(ku.x, kb.x, 1e-12 * rho):
        raise MismatchError("knot locations differ")
    if not (close(ku.f[0], kb.f[0], g_tol * rho) and close(ku.g[0], kb.g[0], g_tol)):
        raise MismatchError("endpoint data at x differs")
    if not close(ku.g[-1], kb.g[-1], g_tol):
        raise MismatchError("endpoint gradient at y differs")

    knots = PointData(ku.x, lam * ku.f + (1.0 - lam) * kb.f, lam * ku.g + (1.0 - lam) * kb.g)
    weights = np.concatenate([lam * Fu.weights, (1.0 - lam) * Fb.weights])
    mu, mb = Fu.components, Fb.components
    mix = PointData(np.concatenate([mu.x, mb.x]), np.concatenate([mu.f, mb.f]),
                    np.concatenate([mu.g, mb.g]))
    keep = weights > 0.0
    return SegmentInterpolant(knots, weights[keep], mix[keep], Fu.L)
