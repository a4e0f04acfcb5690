"""Segment interpolants realizing chain solutions.

A feasible pair of (value, gradient) triples can be interpolated by the
convex envelope of two equal-curvature quadratic surrogates; gluing the
per-segment envelopes along the chain yields a function that is L-smooth
and convex on the segment [x, y] and matches every knot's data.  Convex
combinations of such interpolants are represented as weighted mixtures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import PointData, cocoercivity_gap
from .errors import InfeasibleData, MismatchError, RangeError

FEAS_SLACK = 1e-12


@dataclass(frozen=True)
class QuadraticSurrogate:
    """q(z) = value + <slope, z - center> + (L/2) ||z - center||^2."""

    center: np.ndarray
    value: float
    slope: np.ndarray
    L: float

    def __call__(self, z: np.ndarray) -> float:
        dz = np.asarray(z, dtype=float) - self.center
        return self.value + float(self.slope @ dz) + 0.5 * self.L * float(dz @ dz)

    def gradient(self, z: np.ndarray) -> np.ndarray:
        return self.slope + self.L * (np.asarray(z, dtype=float) - self.center)


def two_point_feasible(L: float, p0: PointData, p1: PointData,
                       slack: float = FEAS_SLACK) -> bool:
    """Co-coercivity from p0 to p1 and from p1 to p0, within a small slack.

    The first bounds p1.f from below, the second from above.  On stacks it
    is True iff every pair passes.
    """
    gaps = np.minimum(cocoercivity_gap(L, p0, p1), cocoercivity_gap(L, p1, p0))
    return bool(np.all(gaps >= -slack))


@dataclass(frozen=True)
class TwoPointEnvelope:
    """Convex envelope of min(q0, q1) for equal-curvature surrogates.

    t_lo/t_hi are the chord parameters where the envelope leaves q0 and
    reaches q1 (the common-tangent window along the segment p0.x -> p1.x).
    """

    p0: PointData
    p1: PointData
    L: float
    t_lo: float
    t_hi: float

    @property
    def q0(self) -> QuadraticSurrogate:
        return QuadraticSurrogate(self.p0.x, self.p0.f, self.p0.g, self.L)

    @property
    def q1(self) -> QuadraticSurrogate:
        return QuadraticSurrogate(self.p1.x, self.p1.f, self.p1.g, self.L)


def _envelope_lambda(env: TwoPointEnvelope, z: np.ndarray) -> float:
    """Minimizer over [0,1] of the envelope's scalar objective at z.

    The partial infimum over the split points is available in closed form
    and leaves a convex quadratic in the combination weight, minimized by
    clamping its stationary point to [0, 1].
    """
    p0, p1, L = env.p0, env.p1, env.L
    c = L * (z - p1.x) + p1.g
    w = L * (p1.x - p0.x) + p0.g - p1.g
    ww = float(w @ w)
    rhs = L * (p1.f - p0.f) + 0.5 * (float(p0.g @ p0.g) - float(p1.g @ p1.g))
    if ww <= 1e-14 * (1.0 + L * L):
        slope = p0.f - p1.f + (float(p1.g @ p1.g) - float(p0.g @ p0.g)) / (2.0 * L) \
            + float(c @ w) / L
        return 0.0 if slope >= 0.0 else 1.0
    lam = (rhs - float(c @ w)) / ww
    return min(1.0, max(0.0, lam))


def make_envelope(L: float, p0: PointData, p1: PointData) -> TwoPointEnvelope:
    """Validate the pair and locate the tangency window along the chord."""
    if not two_point_feasible(L, p0, p1):
        raise InfeasibleData("pair violates the two-point interpolation conditions")
    return make_envelope_unchecked(L, p0, p1)


def envelope_eval(env: TwoPointEnvelope, z) -> tuple[float, np.ndarray]:
    """Value and gradient of the envelope at z."""
    z = np.asarray(z, dtype=float)
    p0, p1, L = env.p0, env.p1, env.L
    lam = _envelope_lambda(env, z)
    xbar = lam * p0.x + (1.0 - lam) * p1.x
    gbar = lam * p0.g + (1.0 - lam) * p1.g
    p = L * (z - xbar) + gbar
    value = (
        lam * p0.f
        + (1.0 - lam) * p1.f
        + (float(p @ p) - lam * float(p0.g @ p0.g)
           - (1.0 - lam) * float(p1.g @ p1.g)) / (2.0 * L)
    )
    return value, p


@dataclass(frozen=True)
class SegmentInterpolant:
    """Weighted mixture of envelope chains sharing one knot layout."""

    knots: tuple[PointData, ...]
    components: tuple[tuple[float, tuple[TwoPointEnvelope, ...]], ...]
    L: float

    @property
    def x(self) -> np.ndarray:
        return self.knots[0].x

    @property
    def y(self) -> np.ndarray:
        return self.knots[-1].x

    @property
    def N(self) -> int:
        return len(self.knots) - 1


def build_segment_interpolant(L: float, chain: list[PointData]) -> SegmentInterpolant:
    """Assemble per-segment envelopes over a feasible chain of knots."""
    if len(chain) < 2:
        raise InfeasibleData("a chain needs at least two knots")
    envelopes = []
    for k in range(len(chain) - 1):
        if not two_point_feasible(L, chain[k], chain[k + 1], slack=1e-9):
            raise InfeasibleData(
                f"pair ({k}, {k + 1}) violates the two-point conditions"
            )
        envelopes.append(make_envelope_unchecked(L, chain[k], chain[k + 1]))
    return SegmentInterpolant(
        knots=tuple(chain),
        components=((1.0, tuple(envelopes)),),
        L=L,
    )


def make_envelope_unchecked(L: float, p0: PointData, p1: PointData) -> TwoPointEnvelope:
    """Envelope construction that skips the feasibility re-check.

    The envelope's combination weight is affine along the chord; its
    crossings of 1 and 0 give the tangency window (t_lo, t_hi).
    """
    d = p1.x - p0.x
    w = L * d + p0.g - p1.g
    ww = float(w @ w)
    env = TwoPointEnvelope(p0, p1, L, 0.0, 1.0)
    if ww <= 1e-14 * (1.0 + L * L):
        return env
    rhs = L * (p1.f - p0.f) + 0.5 * (float(p0.g @ p0.g) - float(p1.g @ p1.g))
    c0 = float((L * (p0.x - p1.x) + p1.g) @ w)
    cd = L * float(d @ w)
    if abs(cd) > 0.0:
        t0 = (rhs - c0) / cd          # where the weight hits 0
        t1 = (rhs - c0 - ww) / cd     # where the weight hits 1
        t_lo, t_hi = sorted((t0, t1))
        env = TwoPointEnvelope(p0, p1, L,
                               min(1.0, max(0.0, t_lo)),
                               min(1.0, max(0.0, t_hi)))
    return env


def eval_interpolant(interp: SegmentInterpolant, t: float) -> tuple[float, float]:
    """(value, directional derivative along y-x) at x + t(y-x), t in [0,1]."""
    if not 0.0 <= t <= 1.0:
        raise RangeError(f"t = {t} outside [0, 1]")
    direction = interp.y - interp.x
    z = interp.x + t * direction
    N = interp.N
    seg = min(int(t * N), N - 1)
    value = 0.0
    deriv = 0.0
    for weight, envelopes in interp.components:
        v, g = envelope_eval(envelopes[seg], z)
        value += weight * v
        deriv += weight * float(g @ direction)
    return value, deriv


def combine(Fu: SegmentInterpolant, Fb: SegmentInterpolant,
            lam: float) -> SegmentInterpolant:
    """Pointwise lam*Fu + (1-lam)*Fb; stays L-smooth and convex."""
    if not 0.0 <= lam <= 1.0:
        raise RangeError(f"lambda = {lam} outside [0, 1]")
    if Fu.N != Fb.N or abs(Fu.L - Fb.L) > 0.0:
        raise MismatchError("interpolants differ in knot count or smoothness")
    for ku, kb in zip(Fu.knots, Fb.knots):
        if not np.allclose(ku.x, kb.x, rtol=0.0, atol=1e-12):
            raise MismatchError("knot locations differ")
    for u, b in ((Fu.knots[0], Fb.knots[0]),):
        if abs(u.f - b.f) > 1e-9 or not np.allclose(u.g, b.g, atol=1e-9):
            raise MismatchError("endpoint data at x differs")
    if not np.allclose(Fu.knots[-1].g, Fb.knots[-1].g, atol=1e-9):
        raise MismatchError("endpoint gradient at y differs")

    knots = tuple(
        PointData(
            x=ku.x,
            f=lam * ku.f + (1.0 - lam) * kb.f,
            g=lam * ku.g + (1.0 - lam) * kb.g,
        )
        for ku, kb in zip(Fu.knots, Fb.knots)
    )
    components = tuple(
        (lam * w, envs) for w, envs in Fu.components if lam * w > 0.0
    ) + tuple(
        ((1.0 - lam) * w, envs) for w, envs in Fb.components if (1.0 - lam) * w > 0.0
    )
    if not components:
        components = Fu.components
    return SegmentInterpolant(knots=knots, components=components, L=Fu.L)
