"""Exact piecewise-quadratic convex spline on an open half-plane.

The function is assembled from four quadratic pieces glued C^1 along three
straight seams on the open half-plane x1 > -23/240.  Seam k separates
pieces k and k+1, and a point belongs to the first piece whose seam it is
not above, or to the last piece; no two seams cross inside the domain
(seams 2|3 and 3|4 meet on its boundary, at (199/240, -23/240)).  It is
convex and 1-smooth on its domain, yet the pair x=(0,0), y=(2,0) violates
the co-coercivity inequality, so no 1-smooth convex function on the whole
plane matches its values and gradients at those two points.  SPLINE is
that function, and build_spline makes it or a copy with perturbed
constants.

Every verification below takes the spline it checks (SPLINE by default) and
is exact, with zero floating-point tolerance: in rational arithmetic
(fractions.Fraction), or on the lattice in integers after scaling by common
denominators.  The lattice is built in int64 when an a-priori bound on its
intermediates is below 2^62, and in Python integers otherwise.  The float
paths serve sampling and plotting only: the method eval_float (the points,
values, gradients and pieces of an n x 2 array, from one classification of
its rows), and the one-point eval_F_float and grad_F_float on SPLINE.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .bounds import PointData
from .errors import DimensionMismatch, DomainError, RangeError

Q = Fraction


@dataclass(frozen=True)
class ExactPoint:
    x0: Q
    x1: Q

    @staticmethod
    def of(x0, x1) -> "ExactPoint":
        return ExactPoint(Q(x0), Q(x1))


@dataclass(frozen=True)
class HalfPlane:
    """The set {z : <normal, z> <= offset}."""

    normal: tuple[Q, Q]
    offset: Q

    def __post_init__(self):
        if self.normal[0] == 0 and self.normal[1] == 0:
            raise ValueError("half-plane normal must be nonzero")

    def contains(self, p: ExactPoint) -> bool:
        return self.normal[0] * p.x0 + self.normal[1] * p.x1 <= self.offset


@dataclass(frozen=True)
class QuadraticPiece:
    """q(z) = 1/2 z'Az + b'z + c with a symmetric 2x2 rational A."""

    a00: Q
    a01: Q
    a11: Q
    b0: Q
    b1: Q
    c: Q

    @property
    def coefficients(self) -> tuple[Q, Q, Q, Q, Q, Q]:
        """(a00, a01, a11, b0, b1, c), the order _value and _gradient read."""
        return (self.a00, self.a01, self.a11, self.b0, self.b1, self.c)

    def value(self, p: ExactPoint) -> Q:
        return _value(self.coefficients, p.x0, p.x1)

    def gradient(self, p: ExactPoint) -> tuple[Q, Q]:
        return _gradient(self.coefficients, p.x0, p.x1)

    def trace(self) -> Q:
        return self.a00 + self.a11

    def det(self) -> Q:
        return self.a00 * self.a11 - self.a01 * self.a01

    def is_psd(self) -> bool:
        return self.trace() >= 0 and self.det() >= 0

    def eig_at_most_one(self) -> bool:
        # both eigenvalues <= 1 iff I - A is positive semidefinite
        return QuadraticPiece(1 - self.a00, -self.a01, 1 - self.a11, Q(0), Q(0), Q(0)).is_psd()


def _value(c, x0, x1):
    """1/2 z'Az + b'z + c at z = (x0, x1), with c = (a00, a01, a11, b0, b1, c).

    One expression for Fractions and float arrays: a00*x0*x0/2 has the bits
    of 0.5*a00*x0*x0, since halving is exact short of underflow.
    """
    a00, a01, a11, b0, b1, c0 = c
    return a00 * x0 * x0 / 2 + a01 * x0 * x1 + a11 * x1 * x1 / 2 + b0 * x0 + b1 * x1 + c0


def _gradient(c, x0, x1):
    """Az + b at z = (x0, x1) as (d/dx0, d/dx1); see _value."""
    a00, a01, a11, b0, b1, _ = c
    return a00 * x0 + a01 * x1 + b0, a01 * x0 + a11 * x1 + b1


def _square_expansion(base: QuadraticPiece, coef: Q, line: HalfPlane) -> QuadraticPiece:
    """base + coef * (<a, z> - beta)^2 in A/b/c form, for line <a, z> = beta."""
    a, beta = line.normal, line.offset
    square = (2 * a[0] * a[0], 2 * a[0] * a[1], 2 * a[1] * a[1],
              -2 * beta * a[0], -2 * beta * a[1], beta * beta)
    return QuadraticPiece(*(u + coef * v for u, v in zip(base.coefficients, square)))


@dataclass(frozen=True)
class PiecewiseQuadratic:
    """Quadratic pieces in order on x1 > DOMAIN_BOUND, with seams[k] the line
    between pieces k and k+1: piece k lies on the <= side of seams[k] and the
    >= side of seams[k-1], so a point belongs to the first piece whose seam
    holds it, or to the last piece."""

    pieces: tuple[QuadraticPiece, ...]
    seams: tuple[HalfPlane, ...]

    def in_domain(self, p: ExactPoint) -> bool:
        return p.x1 > DOMAIN_BOUND

    def classify_region(self, p: ExactPoint) -> int:
        """1-based index of the active piece; lowest index on seams."""
        if not self.in_domain(p):
            raise DomainError(f"point ({p.x0}, {p.x1}) outside the open domain")
        return next((k for k, h in enumerate(self.seams, start=1) if h.contains(p)),
                    len(self.pieces))

    def value(self, p: ExactPoint) -> Q:
        return self.pieces[self.classify_region(p) - 1].value(p)

    def gradient(self, p: ExactPoint) -> tuple[Q, Q]:
        return self.pieces[self.classify_region(p) - 1].gradient(p)

    def eval_float(self, X) -> tuple[PointData, np.ndarray]:
        """The spline at the rows of X (n x 2) in floats: a stacked PointData
        of the points, their values and their gradients, and the 1-based
        piece index of each row, from one classification pass.

        The piece is the first whose seam holds the point by float
        comparisons, or the last piece when none does.  Raises
        DimensionMismatch unless X is n x 2, and DomainError if any point is
        not finite or has x1 <= -23/240.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != 2:
            raise DimensionMismatch(f"points of shape {X.shape}, expected n x 2")
        x0, x1 = X[:, 0], X[:, 1]
        outside = ~(np.isfinite(X).all(axis=1) & (x1 > DOMAIN_BOUND_F))
        if outside.any():
            p0, p1 = X[outside][0]
            raise DomainError(f"point ({p0}, {p1}) outside the open domain")
        # the first seam that holds a row picks its piece, else the last piece
        below = [float(h.normal[0]) * x0 + float(h.normal[1]) * x1 <= float(h.offset)
                 for h in self.seams]
        k = np.select(below, range(len(below)), len(below))
        c = self._float_coefficients[k].T
        return PointData(X, _value(c, x0, x1), np.column_stack(_gradient(c, x0, x1))), k + 1

    @cached_property
    def _float_coefficients(self) -> np.ndarray:
        """Each piece's coefficients as floats, one row each."""
        return np.array([q.coefficients for q in self.pieces], dtype=float)


# --- the concrete counterexample spline -----------------------------------

DOMAIN_BOUND = Q(-23, 240)
DOMAIN_BOUND_F = float(DOMAIN_BOUND)

VIOLATION_X = ExactPoint.of(0, 0)
VIOLATION_Y = ExactPoint.of(2, 0)


def build_spline(piece_offsets: dict[int, Q] | None = None) -> PiecewiseQuadratic:
    """Construct the four-piece spline.

    piece_offsets is a test hook: {1-based piece index: rational delta}
    added to the piece's constant term, used to exercise failure paths of
    the seam verification.  An index outside 1..4 raises RangeError.
    """
    seams = (HalfPlane((Q(3), Q(-1)), Q(1, 12)),     # 3 x0 - x1 = 1/12
             HalfPlane((Q(3), Q(-1)), Q(31, 12)),    # 3 x0 - x1 = 31/12
             HalfPlane((Q(1), Q(-2)), Q(49, 48)))    # x0 - 2 x1 = 49/48
    p1 = QuadraticPiece(Q(1), Q(0), Q(1), Q(0), Q(0), Q(0))
    p2 = _square_expansion(p1, Q(-1, 20), seams[0])
    p3 = QuadraticPiece(Q(1), Q(0), Q(1), Q(-3, 4), Q(1, 4), Q(1, 3))
    p4 = _square_expansion(p3, Q(-1, 10), seams[2])

    offsets = piece_offsets or {}
    if not set(offsets) <= {1, 2, 3, 4}:
        raise RangeError(f"piece indices are 1..4, got {list(offsets)}")
    pieces = tuple(replace(q, c=q.c + Q(offsets.get(k, 0)))
                   for k, q in enumerate((p1, p2, p3, p4), start=1))
    return PiecewiseQuadratic(pieces, seams)


SPLINE = build_spline()


def eval_F_float(x0: float, x1: float) -> float:
    return float(SPLINE.eval_float([[x0, x1]])[0].f[0])


def grad_F_float(x0: float, x1: float) -> tuple[float, float]:
    return tuple(SPLINE.eval_float([[x0, x1]])[0].g[0].tolist())


def domain_distance(p: ExactPoint) -> Q:
    """Exact distance from p to the complement of the open half-plane."""
    return p.x1 - DOMAIN_BOUND


# --- verification ----------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def merge(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            detail = f"  [{c.detail}]" if c.detail else ""
            lines.append(f"{status}  {c.name}{detail}")
        lines.append(f"{'OK' if self.passed else 'FAILED'}: "
                     f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "passed": self.passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in self.checks
                ],
            },
            indent=2,
        )


def verify_c1_seams(spline: PiecewiseQuadratic = SPLINE) -> VerificationReport:
    """Check value and gradient agreement of adjacent pieces on each seam.

    The difference polynomial restricted to the seam line must vanish
    identically together with its gradient: with d a direction along the
    line and z0 a point on it, this reduces to dA*d = 0, dA*z0 + db = 0 and
    dq(z0) = 0, all checked exactly.
    """
    report = VerificationReport()
    for k, line in enumerate(spline.seams):
        dq = QuadraticPiece(*(v - u for u, v in zip(spline.pieces[k].coefficients,
                                                   spline.pieces[k + 1].coefficients)))
        n0, n1 = line.normal
        # a point on the line and a direction along it
        if n0 != 0:
            z0 = ExactPoint(line.offset / n0, Q(0))
        else:
            z0 = ExactPoint(Q(0), line.offset / n1)
        # dA d, the Hessian of dq along the line: the gradient of dq without its b
        grad_dir0, grad_dir1 = _gradient((dq.a00, dq.a01, dq.a11, 0, 0, 0), -n1, n0)
        grad0, grad1 = dq.gradient(z0)
        dq_z0 = dq.value(z0)
        ok = all(r == 0 for r in (grad_dir0, grad_dir1, grad0, grad1, dq_z0))
        report.add(
            f"seam {k + 1}|{k + 2} on <({n0},{n1}),z> = {line.offset}",
            ok,
            "value and gradient agree identically" if ok else
            f"residuals grad_dir=({grad_dir0},{grad_dir1}) grad=({grad0},{grad1}) value={dq_z0}",
        )
    return report


def verify_smooth_convex_pieces(spline: PiecewiseQuadratic = SPLINE) -> VerificationReport:
    """Exact convexity (A PSD) and 1-smoothness (eigenvalues <= 1) per piece."""
    report = VerificationReport()
    for k, q in enumerate(spline.pieces, start=1):
        report.add(
            f"piece {k} convex (trace={q.trace()}, det={q.det()})",
            q.is_psd(),
        )
        report.add(
            f"piece {k} 1-smooth (eigenvalues within [0,1])",
            q.eig_at_most_one(),
        )
    return report


def cocoercivity_sides(spline: PiecewiseQuadratic = SPLINE) -> tuple[Q, Q]:
    """Exact (LHS, RHS) of the co-coercivity inequality at the violating pair."""
    gx = spline.gradient(VIOLATION_X)
    gy = spline.gradient(VIOLATION_Y)
    dx0 = VIOLATION_Y.x0 - VIOLATION_X.x0
    dx1 = VIOLATION_Y.x1 - VIOLATION_X.x1
    lhs = ((gy[0] - gx[0]) ** 2 + (gy[1] - gx[1]) ** 2) / 2
    rhs = spline.value(VIOLATION_Y) - spline.value(VIOLATION_X) - (gx[0] * dx0 + gx[1] * dx1)
    return lhs, rhs


def verify_violation(spline: PiecewiseQuadratic = SPLINE) -> VerificationReport:
    """Assert the strict co-coercivity violation at x=(0,0), y=(2,0)."""
    report = VerificationReport()
    lhs, rhs = cocoercivity_sides(spline)
    report.add(
        "co-coercivity violated at (0,0),(2,0)",
        lhs > rhs,
        f"lhs = {lhs}, rhs = {rhs}, violation = {lhs - rhs}",
    )
    return report


DEFAULT_GRID_SPACING = Q(1, 16)
# A lattice of spacing 1/16 from origin (ox, oy) has points on seams 1|2 and
# 2|3 (3 x0 - x1 = 1/12 and 31/12) iff oy = 3 ox - 1/12 (mod 1/16), and then
# on seam 3|4 (x0 - 2 x1 = 49/48) iff ox = -41/240 (mod 1/80).  The default
# origin is the first such point with ox >= -2 and oy inside the domain, so
# the seam agreement check of the default lattice has points to check.
DEFAULT_X_RANGE = (Q(-479, 240), Q(721, 240))
DEFAULT_Y_RANGE = (Q(-17, 240), Q(478, 240))

# The lattice is built and checked in int64 when an a-priori bound on every
# intermediate is below this, and in Python integers (dtype=object) otherwise.
_INT64_SAFE = 2 ** 62
# sampled pairs per block of the lattice pair checks (see verify_grid_properties)
_PAIR_CHUNK = 1 << 13
# the lattice pair checks sample every PAIR_STRIDE-th pair
PAIR_STRIDE = 37


def _den_lcm(values) -> int:
    """Least common multiple of the denominators of rational values."""
    return math.lcm(*(Q(v).denominator for v in values))


def lattice_shape(spacing: Q, x_range: tuple[Q, Q] = DEFAULT_X_RANGE,
                  y_range: tuple[Q, Q] = DEFAULT_Y_RANGE) -> tuple[int, int]:
    """Lattice steps (nx, ny) along x0 and x1: nx + 1 by ny + 1 points."""
    return tuple(int((hi - lo) / spacing) for lo, hi in (x_range, y_range))


def _integer_line(h: HalfPlane) -> tuple[int, int, int]:
    """h's (normal0, normal1, offset) times their common denominator."""
    H = _den_lcm((*h.normal, h.offset))
    return tuple(int(v * H) for v in (*h.normal, h.offset))


def _lattice_dtype(spline: PiecewiseQuadratic, D: int, M: int, ints, step: int,
                   corners) -> type:
    """np.int64 if no lattice intermediate can reach _INT64_SAFE, else object.

    x >= 1 bounds D, the step and |X0|, |X1| at every lattice point, which
    the corners bound.  With ints the coefficients times M, the sums of
    absolute terms g = (|a00| + |a01| + |b0|) x (or its x1 twin) and
    fv = (|a00| + 2|a01| + |a11| + 2|b0| + 2|b1| + 2|c0|) x^2 bound every
    partial sum and product of M*D*grad f and 2*M*D^2*f, as
    (|n0| + |n1| + |offset|) x does for a seam test over its common
    denominator and (|numerator| + denominator) x for the domain test.
    With |d| <= 2x and |e| <= 2g, the pair checks stay below
    max(8 g^2, 8 M^2 x^2, 2 fv + 8 g x).
    """
    x = max(D, step, *map(abs, corners))
    g = x * max(max(abs(a00) + abs(a01) + abs(b0), abs(a01) + abs(a11) + abs(b1))
                for a00, a01, a11, b0, b1, _ in ints)
    fv = x * x * max(abs(a00) + 2 * abs(a01) + abs(a11) + 2 * (abs(b0) + abs(b1) + abs(c0))
                     for a00, a01, a11, b0, b1, c0 in ints)
    half = x * max(abs(DOMAIN_BOUND.numerator) + DOMAIN_BOUND.denominator,
                   *(sum(map(abs, _integer_line(h))) for h in spline.seams))
    bound = max(8 * g * g, 8 * M * M * x * x, 2 * fv + 8 * g * x, half)
    return np.int64 if bound < _INT64_SAFE else object


def _sampled_pair_checks(X0, X1, f, g0, g1, M: int, pair_stride: int):
    """(sampled pairs, monotone, 1-smooth, descent) over every sampled pair.

    Points are X/D with values f/(2*M*D^2) and gradients g/(M*D); each test
    below is the rational one multiplied through by a positive scale.  Row a
    holds the pairs k in (before[a], end[a]], with b = a + k - before[a].
    """
    rows = np.arange(len(X0))
    row_len = rows[::-1]
    end = np.cumsum(row_len)
    before = end - row_len
    count = end // pair_stride - before // pair_stride
    start = np.concatenate(([0], np.cumsum(count)))   # sampled pairs above each row
    offset = rows - before
    # a block is the rows whose first sampled pair falls in one _PAIR_CHUNK window
    edges = [0, *(np.flatnonzero(np.diff(start[:-1] // _PAIR_CHUNK)) + 1).tolist(), len(rows)]
    mono_ok = smooth_ok = descent_ok = True
    for r0, r1 in zip(edges, edges[1:]):
        j0, j1 = int(start[r0]), int(start[r1])
        # each row's values at a, repeated once per sampled pair of the row
        xa0, xa1, fa, ga0, ga1, b = (np.repeat(v[r0:r1], count[r0:r1])
                                     for v in (X0, X1, f, g0, g1, offset))
        b += np.arange(pair_stride * (j0 + 1), pair_stride * j1 + 1, pair_stride)
        d0, d1 = X0[b] - xa0, X1[b] - xa1
        e0, e1 = g0[b] - ga0, g1[b] - ga1
        dd = d0 * d0 + d1 * d1
        lower = f[b] - fa - 2 * (ga0 * d0 + ga1 * d1)
        mono_ok = mono_ok and not (e0 * d0 + e1 * d1 < 0).any()
        smooth_ok = smooth_ok and not (e0 * e0 + e1 * e1 > M * M * dd).any()
        descent_ok = descent_ok and not ((lower < 0) | (lower > M * dd)).any()
    return int(start[-1]), mono_ok, smooth_ok, descent_ok


def verify_grid_properties(
    spacing: Q = DEFAULT_GRID_SPACING,
    x_range: tuple[Q, Q] = DEFAULT_X_RANGE,
    y_range: tuple[Q, Q] = DEFAULT_Y_RANGE,
    pair_stride: int = PAIR_STRIDE,
    spline: PiecewiseQuadratic = SPLINE,
) -> VerificationReport:
    """Sampled exact invariants on a rational lattice.

    Checks at the lattice points in the open domain that the seams' <= sides
    are nested, so that the seam order gives the pieces the domain in turn,
    and that both pieces agree at each point on a seam.  Checks gradient
    monotonicity, 1-smoothness and the two-sided descent inequality on a
    deterministic subset of point pairs:
    the k-th pair (a < b, counted row by row from k = 1) for every k that
    pair_stride divides.  Each of the three pair lines is one verdict over
    the whole sample, n(n-1)/2 // pair_stride pairs for n lattice points.

    The sampled pairs of row a, the pairs (a, b > a), form an arithmetic
    run in k whose length is a difference of two integer quotients, so the
    pairs come from np.repeat over the rows, with no per-pair search.  They
    are checked in blocks of whole rows of about _PAIR_CHUNK = 8,192 pairs:
    each int64 temporary then takes 64 KB, stays in cache and is reused
    from block to block, where temporaries above malloc's mmap threshold
    (128 KB by default) are fresh mappings that fault in new pages.

    The lattice points are X/D with D the common denominator of the spacing
    and the range origins, and the piece coefficients are integers over a
    common denominator M.  Then 2*M*D^2*f and M*D*grad f are integers at
    every lattice point, and each check is an integer comparison with the
    same sign as the rational one.  The integers are int64 when the
    a-priori bound of _lattice_dtype, from the lattice corners and the
    coefficients, is below 2^62, and Python integers otherwise.
    """
    report = VerificationReport()

    D = _den_lcm((spacing, x_range[0], y_range[0]))
    nx, ny = lattice_shape(spacing, x_range, y_range)
    step, x_org, y_org = int(spacing * D), int(x_range[0] * D), int(y_range[0] * D)
    coefs = [q.coefficients for q in spline.pieces]
    M = _den_lcm(v for c in coefs for v in c)
    ints = [tuple(int(v * M) for v in c) for c in coefs]
    dtype = _lattice_dtype(spline, D, M, ints, step,
                           (x_org, x_org + step * nx, y_org, y_org + step * ny))

    # Lattice points in row-major (x0, then x1) order, open domain only.
    X0 = np.repeat(x_org + step * np.arange(nx + 1, dtype=dtype), ny + 1)
    X1 = np.tile(y_org + step * np.arange(ny + 1, dtype=dtype), nx + 1)
    inside = X1 * DOMAIN_BOUND.denominator > DOMAIN_BOUND.numerator * D
    X0, X1 = X0[inside], X1[inside]

    # Piece k claims the points on its sides of seams k-1 and k; the active
    # piece is the lowest-index claim.  Coverage: the seams' <= sides are
    # nested, a point on the <= side of seam k is on that of seam k+1.
    claims = np.ones((len(ints), len(X0)), dtype=bool)
    below = np.empty((len(spline.seams), len(X0)), dtype=bool)
    for k, h in enumerate(spline.seams):
        n0, n1, o = _integer_line(h)
        v, o = n0 * X0 + n1 * X1, o * D
        below[k] = v <= o
        claims[k] &= below[k]
        claims[k + 1] &= v >= o
    F, G0, G1 = (np.empty(claims.shape, dtype=dtype) for _ in range(3))
    for k, (a00, a01, a11, b0, b1, c0) in enumerate(ints):
        F[k] = (a00 * X0 * X0 + 2 * a01 * X0 * X1 + a11 * X1 * X1
                + 2 * D * (b0 * X0 + b1 * X1) + 2 * c0 * D * D)
        G0[k], G1[k] = _gradient((a00, a01, a11, b0 * D, b1 * D, c0), X0, X1)

    first = claims.argmax(axis=0)
    cols = np.arange(len(X0))
    f, g0, g1 = F[first, cols], G0[first, cols], G1[first, cols]
    mismatch = (claims & ((F != f) | (G0 != g0) | (G1 != g1))).any(axis=0)
    nested = not (below[:-1] & ~below[1:]).any()
    report.add(f"region coverage on {len(X0)}-point lattice", nested)
    shared = int((claims.sum(axis=0) > 1).sum())
    report.add(f"seam agreement at {shared} multiply-claimed lattice points", not mismatch.any())

    npairs, mono_ok, smooth_ok, descent_ok = _sampled_pair_checks(
        X0, X1, f, g0, g1, M, pair_stride)
    report.add(f"gradient monotonicity on {npairs} lattice pairs", mono_ok)
    report.add("1-smoothness (squared norms) on lattice pairs", smooth_ok)
    report.add("two-sided descent inequality on lattice pairs", descent_ok)
    return report


def verify_all(spline: PiecewiseQuadratic = SPLINE) -> VerificationReport:
    """Full exact verification: seams, piece spectra, violation, default lattice."""
    report = VerificationReport()
    report.merge(verify_c1_seams(spline))
    report.merge(verify_smooth_convex_pieces(spline))
    report.merge(verify_violation(spline))
    report.merge(verify_grid_properties(spline=spline))
    return report
