"""Two-point inequalities for smooth convex functions on open sets.

Implements the descent gaps, the co-coercivity gap, the locality predicate,
chain discretization, the weight family behind the global bound, its sum
identity, and the admissible-value intervals used for region comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DimensionMismatch, RangeError


@dataclass(frozen=True)
class PointData:
    """A (location, value, gradient) triple, or a stack of them.

    One point has x and g of shape (d,) and a float f; a stack has x and g
    of shape (..., d) and f of shape (...), for example (n, d) and (n,).
    The two-point functions of this module take either, and work row by
    row on stacks.  Indexing a stack indexes its leading axes.
    """

    x: np.ndarray
    f: float | np.ndarray
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))
        f = np.asarray(self.f, dtype=float)
        if (self.x.shape != self.g.shape or self.x.ndim < 1
                or self.x.shape[-1] < 1 or f.shape != self.x.shape[:-1]):
            raise DimensionMismatch(
                f"location shape {self.x.shape}, value shape {f.shape}, "
                f"gradient shape {self.g.shape}"
            )
        object.__setattr__(self, "f", float(f) if f.ndim == 0 else f)

    def __getitem__(self, index) -> PointData:
        return PointData(self.x[index], self.f[index], self.g[index])


@dataclass(frozen=True)
class AlphaWeights:
    N: int
    xi: float
    alpha: np.ndarray
    N1: int


@dataclass(frozen=True)
class Interval:
    lo: float | np.ndarray
    hi: float | np.ndarray


def _check_pair(px: PointData, py: PointData) -> None:
    if px.x.shape != py.x.shape:
        raise DimensionMismatch("point dimensions differ")


def descent_gap(L: float, px: PointData,
                py: PointData) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Slack of both sides of the descent inequality for the data pair.

    lower_gap >= 0 iff the convexity inequality holds, upper_gap >= 0 iff
    the quadratic upper bound holds.  On stacks both are arrays.
    """
    _check_pair(px, py)
    d = py.x - px.x
    lower = py.f - px.f - np.vecdot(px.g, d)
    upper = 0.5 * L * np.vecdot(d, d) - lower
    return lower, upper


def cocoercivity_gap(L: float, px: PointData, py: PointData) -> float | np.ndarray:
    """RHS minus LHS of the co-coercivity inequality; >= 0 iff it holds."""
    _check_pair(px, py)
    d = py.x - px.x
    dg = px.g - py.g
    return py.f - px.f - np.vecdot(px.g, d) - np.vecdot(dg, dg) / (2.0 * L)


def global_bound_interval(L: float, px: PointData, py: PointData) -> Interval:
    """Admissible interval for f(y) from the strengthened two-sided bound.

    Applies the directional-gradient inequality in both directions
    (lower from x, upper with the roles of x and y switched).
    """
    _check_pair(px, py)
    d = py.x - px.x
    dd = np.vecdot(d, d)
    if np.any(dd == 0.0):
        raise DegenerateError("global bound requires distinct points")
    cross = np.vecdot(py.g - px.g, d)
    quad = cross * cross / (2.0 * L * dd)
    lo = px.f + np.vecdot(px.g, d) + quad
    hi = px.f + np.vecdot(py.g, d) - quad
    return Interval(lo, hi)


def local_condition(x, y, dist_y: float) -> bool:
    """True iff ||x-y|| < dist_y, the locality guarantee for co-coercivity."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.linalg.norm(x - y)) < dist_y


def min_chain_length(x, y, dist_x: float, dist_y: float) -> int:
    """Smallest N with N > ||y-x|| / min(dist_x, dist_y); RangeError unless
    both distances are positive and finite."""
    if not (0.0 < dist_x < np.inf and 0.0 < dist_y < np.inf):
        raise RangeError(f"distances {dist_x}, {dist_y} must be positive and finite")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ratio = float(np.linalg.norm(y - x)) / min(dist_x, dist_y)
    return int(np.floor(ratio)) + 1


def make_chain(x, y, N: int) -> list[np.ndarray]:
    """Equally spaced points x_i = x + (i/N)(y - x), i = 0..N."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatch("x and y dimensions differ")
    if np.array_equal(x, y):
        raise DegenerateError("chain endpoints coincide")
    if N < 1:
        raise RangeError("N must be a positive integer")
    return [x + (i / N) * (y - x) for i in range(N + 1)]


def alpha_weights(N: int, xi: float) -> AlphaWeights:
    """alpha_i = max(0, xi - i - 1, i - xi) for i = 0..N-1."""
    if N < 1:
        raise RangeError("N must be a positive integer")
    if not 0.0 <= xi <= N:
        raise RangeError(f"xi = {xi} outside [0, {N}]")
    i = np.arange(N, dtype=float)
    alpha = np.maximum(0.0, np.maximum(xi - i - 1.0, i - xi))
    N1 = int(np.flatnonzero(alpha == 0.0)[0])
    return AlphaWeights(N=N, xi=xi, alpha=alpha, N1=N1)


def sum_identity(N: int, xi: float) -> tuple[float, float]:
    """Direct weighted sum versus its closed form (xi - N)^2."""
    w = alpha_weights(N, xi)
    i = np.arange(N, dtype=float)
    num = (w.alpha - xi + i + 1.0) ** 2
    direct = float(np.sum(num / (2.0 * w.alpha + 1.0)))
    closed = (xi - N) ** 2
    return direct, closed


def check_unit_interval(t) -> None:
    """Raise RangeError naming the first entry of t (a float or an array) outside [0, 1]."""
    ts = np.ravel(t)
    bad = ts[~((0.0 <= ts) & (ts <= 1.0))]
    if bad.size:
        raise RangeError(f"t = {bad[0]} outside [0, 1]")


def analytical_region(t: float | np.ndarray) -> tuple[Interval, Interval]:
    """Admissible f(y)-f(x) region versus the plain descent region.

    Normalization: L = 1, zero gradient at x, unit squared distance;
    t is the directional derivative <f'(y), y-x>, a float or an array, and
    (inner, outer), with ends of t's shape, has inner a subset of outer for
    every t in [0, 1].  RangeError names the first t outside [0, 1].
    """
    check_unit_interval(t)
    inner = Interval(0.5 * t * t, t - 0.5 * t * t)
    outer = Interval(np.maximum(0.0, t - 0.5), np.minimum(0.5, t))
    return inner, outer
