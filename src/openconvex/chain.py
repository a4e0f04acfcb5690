"""Chain bound programs in canonical form and a self-contained log-barrier solver.

Given endpoint data (x, f_x, g_x, y, g_y) for an L-smooth convex function,
the value f(y) is bracketed by the optima of two convex quadratically
constrained programs over the values f_i and gradients g_i at the chain
points x_i = x + (i/N)(y-x): each adjacent pair must satisfy the two-point
co-coercivity inequalities.  The upper program maximizes f_N, the lower one
minimizes it.

Those inequalities are unchanged by adding a linear function to f (a tilt),
by a rotation, and by rescaling f by L rho^2 and g by L rho, rho = ||y - x||.
So every spec is the canonical program in (a, b) and N: knots (i/N) e_1,
F_i, G_i with F_0 = 0, G_0 = 0, G_N = (a, b), placed by bounds.make_chain,

    h1_i = 1/2 ||G_i - G_i+1||^2 - F_i + F_i+1 - G_i+1 . e_1/N <= 0
    h2_i = 1/2 ||G_i - G_i+1||^2 + F_i - F_i+1 + G_i . e_1/N   <= 0,

each minus bounds.cocoercivity_gap at L = 1, from knot i+1 to i and back,
where a and b are the parts of (g_y - g_x)/(L rho) along and across y - x.
Projecting every G_i onto span{e_1, e_2} keeps a chain feasible and F_N
unchanged, so two gradient coordinates suffice for every spec; at b = 0 e_2
is 0 and so is every second coordinate.  Only U_N(a, b) is solved: reversing
a chain maps the feasible set onto itself and F_N to a - F_N, so the lower
bound is a - U_N(a, b).  Tolerances act in canonical units, that is relative
to L ||y - x||^2.

For fixed gradients each increment F_i+1 - F_i has an interval, and the
maximum takes its upper end.  The interval is non-empty iff the gradient
increment D_j = G_j+1 - G_j lies in the disk D_N with centre e_1/(2N) and
radius 1/(2N), so with w_j = (N - j)/N

    U_N(a, b) = max sum_j [w_j D_j,1 - 1/2 ||D_j||^2]
                s.t. D_j in D_N, sum_j D_j = (a, b).

With m = a - a^2 - b^2 this is feasible iff m >= 0, so no phase I is
needed.  On the boundary m = 0, and for N = 1, the increments are pinned to
(a, b)/N, and that gives U_N directly.  Inside, log-barrier path-following
with damped Newton steps runs on one state, the offsets u_j = D_j - e_1/(2N)
of the increments from the disk centre, started at u_j = (a, b)/N - e_1/(2N),
where every disk slack s_j = 1/(4N^2) - ||u_j||^2 is m/N^2; D = u + e_1/(2N)
is formed once, at the end of the path.  Each Newton step is block
elimination of the KKT system (Boyd & Vandenberghe, Convex Optimization,
10.4) in one pass over the rows: the blocks H_j = (t + 2/s_j) I + (4/s_j^2)
u_j u_j' are inverted by Sherman-Morrison and applied to the gradient once,
and the 2 x 2 system for the multiplier of sum_j D_j = (a, b) is
solved by its closed-form inverse, with no linalg or matmul call.  Along a
Newton direction each slack and the objective are exact quadratics in the
step: the line search backtracks on those, takes the barrier change in
closed form and checks the slacks of u + step du directly, and the slacks it
checked are the ones the next step reads.  A centering ends centred on a
decrement below 2e-11 or not positive, or on one within the rounding floor
that stops falling or passes no line search; a path whose last centering
ends otherwise, after MAX_NEWTON steps say, is not reported Optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import PointData, cocoercivity_gap, make_chain
from .errors import DegenerateError, DimensionMismatch, RangeError

UPPER = "upper"
LOWER = "lower"

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
ITERATION_LIMIT = "IterationLimit"

# the longest chain a spec may ask for: a larger N is refused, not left to
# fail in allocating its N + 1 knots
MAX_N = 10**6

# a - a^2 - b^2 within FEAS_BAND * max(1, |a|) of 0 is the boundary of the
# feasible set; below that band the program is infeasible
FEAS_BAND = 1e-12

# the barrier path: t starts at 1/BARRIER_MU0 and grows by 1/MU_SHRINK per
# centering until (#constraints)/t <= NEWTON_TOL (14 centerings at N = 50);
# a centering takes at most MAX_NEWTON Newton steps
BARRIER_MU0 = 0.1
MU_SHRINK = 0.2
NEWTON_TOL = 1e-8
MAX_NEWTON = 60


@dataclass(frozen=True)
class ChainSpec:
    L: float
    x: np.ndarray
    y: np.ndarray
    f_x: float
    g_x: np.ndarray
    g_y: np.ndarray
    N: int
    direction: str = UPPER

    def __post_init__(self):
        for name in ("L", "x", "y", "f_x", "g_x", "g_y"):
            object.__setattr__(self, name, _spec_number(name, getattr(self, name)))
        if not 0 < self.x.size == self.y.size == self.g_x.size == self.g_y.size:
            raise DimensionMismatch("spec vectors must be 1-D and share one length d >= 1")
        if np.array_equal(self.x, self.y):
            raise DegenerateError("spec endpoints coincide")
        if self.L <= 0:
            raise RangeError("L must be positive")
        if (isinstance(self.N, bool) or not isinstance(self.N, (int, np.integer))
                or not 1 <= self.N <= MAX_N):
            raise RangeError(f"N must be an integer from 1 to {MAX_N}, got {self.N!r}")
        if self.direction not in (UPPER, LOWER):
            raise RangeError(f"direction must be '{UPPER}' or '{LOWER}'")


def _spec_number(name: str, value) -> float | np.ndarray:
    """One spec value in float64: L and f_x are spec numbers, finite ints or
    floats that are not bools, and x, y, g_x and g_y flat lists or 1-D arrays
    of them.  An int past the float range raises OverflowError."""
    vector = name in ("x", "y", "g_x", "g_y")
    items = value.tolist() if isinstance(value, np.ndarray) else value
    entries = items if vector else [items]
    if not (isinstance(entries, (list, tuple)) and all(
            isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
            for v in entries)):
        raise TypeError(f"{name} must be {'a list of numbers' if vector else 'a number'}, "
                        f"got {value!r}")
    numbers = np.array(items, dtype=float)
    if not np.isfinite(numbers).all():
        raise RangeError(f"{name} must be finite, got {value!r}")
    return numbers if vector else float(numbers)


@dataclass
class ChainProblem:
    """The canonical upper program of ``spec``: maximize F_N over the knots."""

    spec: ChainSpec
    basis: np.ndarray               # d x 2: e_1, then e_2 (0 when b = 0)
    gN: np.ndarray                  # G_N = (a, b)
    slope: float                    # <g_x, y - x>: the tilt's rise from x to y
    g_scale: float                  # L rho: spec units of one canonical unit of g
    scale: float                    # L rho^2: spec units of one canonical unit of f

    @property
    def N(self) -> int:
        return self.spec.N

    def value(self, t, F):
        """f_x + t <g_x, y - x> + L rho^2 F: canonical values F at x + t(y - x) in spec units."""
        return self.spec.f_x + t * self.slope + self.scale * F

    def derivative(self, dF):
        """<g_x, y - x> + L rho^2 dF: a canonical derivative along y - x in spec units."""
        return self.slope + self.scale * dF


@dataclass
class BoundResult:
    status: str
    value: float
    knots: PointData                # canonical knots (i/N) e_1, F_i, G_i; none when infeasible
    problem: ChainProblem           # their frame: spec, basis and scale
    max_constraint_violation: float
    duality_gap_estimate: float

    @property
    def chain(self) -> PointData:
        """The knots in the spec's units, as N+1 stacked points."""
        return _recover_chain(self.problem, self.knots)


def build_problem(spec: ChainSpec) -> ChainProblem:
    """Canonicalize: tilt away (f_x, g_x), rotate y - x onto e_1, rescale by L rho^2;
    RangeError if L rho^2, ||g_hat|| or a bound on the spec-unit values and
    gradients of a result leaves the float64 range."""
    with np.errstate(all="ignore"):     # overflow reads as inf, underflow as 0
        delta = spec.y - spec.x
        rho = float(np.linalg.norm(delta))
        g_hat = (spec.g_y - spec.g_x) / (spec.L * rho)
        g_norm = math.sqrt(g_hat @ g_hat)
        slope = float(spec.g_x @ delta)
        # canonical results are at most 1 in size when feasible (they start at
        # F_0 = 0, G_0 = 0 with curvature <= 1); an infeasible one's violation
        # is a^2 + b^2 - a <= ||g_hat|| (1 + ||g_hat||)
        reach = 1.0 + g_norm * (1.0 + g_norm)
        values = abs(spec.f_x) + abs(slope) + spec.L * rho * rho * reach
        gradients = float(np.abs(spec.g_x).max()) + spec.L * rho * reach
    if not (0 < spec.L * rho * rho and values < math.inf and gradients < math.inf):
        raise RangeError("L ||y-x||^2, (g_y - g_x)/(L ||y-x||) or a value or gradient "
                         "of the result leaves the float64 range")
    e1 = delta / rho
    a = float(g_hat @ e1)
    across = g_hat - a * e1
    b = float(np.linalg.norm(across))
    if b <= 1e-12 * max(1.0, g_norm):
        b, across = 0.0, np.zeros_like(e1)
    basis = np.column_stack([e1, across / b if b else across])
    return ChainProblem(spec, basis, np.array([a, b]), slope, spec.L * rho, spec.L * rho * rho)


# --- barrier machinery -------------------------------------------------------


def _disk_slacks(u: np.ndarray) -> np.ndarray:
    """s_j = 1/(4N^2) - ||u_j||^2 of the offsets u: positive iff increment j
    is inside D_N."""
    return 0.25 / u.shape[0] ** 2 - np.vecdot(u, u)


def _newton_step(w: np.ndarray, u: np.ndarray, s: np.ndarray,
                 t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient g and Newton step (du, nu) of the centering problem at offsets u.

    The step solves H_j du_j + g_j + nu = 0 for every j with sum_j du_j = 0.
    H_j = c_j I + (4/s_j^2) u_j u_j' with c_j = t + 2/s_j has the inverse
    (I - beta_j u_j u_j') / c_j, beta_j = 1/(||u_j||^2 + s_j/2 + t s_j^2/4)
    (Sherman-Morrison), so du_j = -H_j^-1 g_j - H_j^-1 nu and nu solves the
    2 x 2 system (sum_j H_j^-1) nu = -sum_j H_j^-1 g_j.  H_j^-1 is applied
    to g once; H_j^-1 nu = nu/c_j - (beta_j/c_j)(u_j . nu) u_j is taken from
    nu, and the 2 x 2 system by its closed-form inverse.  With
    D_j = u_j + e_1/(2N), g_j = c_j u_j - t (w_j - 1/(2N)) e_1, and with
    ||u_j||^2 = 1/(4N^2) - s_j, beta_j needs no pass over u.
    """
    c = t + 2.0 / s
    ic = 1.0 / c
    g = c[:, None] * u
    g[:, 0] -= t * (w - 0.5 / u.shape[0])
    bu = (ic / (0.25 / u.shape[0] ** 2 + s * (0.25 * t * s - 0.5)))[:, None] * u
    hg = ic[:, None] * g - np.vecdot(u, g)[:, None] * bu
    rhs = -hg.sum(axis=0)
    # sum_j H_j^-1 = (sum_j 1/c_j) I - sum_j (beta_j/c_j) u_j u_j'
    diag = ic.sum() - np.vecdot(bu.T, u.T)
    (d0, d1), (r0, r1) = diag.tolist(), rhs.tolist()
    off = -float(np.vecdot(bu[:, 0], u[:, 1]))
    det = d0 * d1 - off * off
    nu = np.array([(d1 * r0 - off * r1) / det, (d0 * r1 - off * r0) / det])
    return g, np.vecdot(u, nu)[:, None] * bu - ic[:, None] * nu - hg, nu


def _step_change(step: float, lin: float, quad: float, a: np.ndarray, b: np.ndarray,
                 s: np.ndarray) -> float:
    """Exact change of the centering objective over step*du, inf outside the interior.

    Along du the objective part changes by step*lin + step^2*quad/2 and the
    slacks are s(step) = s - step*a - step^2*b/2, so the change needs no
    barrier values, whose difference is lost to rounding at large t.
    """
    drop = step * (a + 0.5 * step * b)
    if not (drop < s).all():
        return math.inf
    return step * (lin + 0.5 * step * quad) - float(np.log1p(-drop / s).sum())


def _newton_center(w: np.ndarray, u: np.ndarray, t: float) -> tuple[np.ndarray, bool]:
    """Minimize t sum_j [1/2 ||D_j||^2 - w_j D_j,1] - sum_j log s_j over
    sum_j D_j fixed, D_j = u_j + e_1/(2N), by damped Newton from interior offsets u.

    Returns the new offsets and whether the centering ended centred.  At
    large t the Newton decrement levels off at a rounding floor above the
    1e-11 stop, where it stops falling or no step passes the line search;
    either ends a centering centred only within that floor.  A decrement
    that rises above it comes from a step that has not reached the quadratic
    region yet, so the centering goes on.  MAX_NEWTON steps end it uncentred.
    """
    s = _disk_slacks(u)
    previous = math.inf
    for _ in range(MAX_NEWTON):
        g, du, _ = _newton_step(w, u, s, t)
        decrement = -float(np.vecdot(g.ravel(), du.ravel()))
        # the floor is under 1e-5 up to t = 1e10, and far below the
        # decrements of a centering still on its way
        floor = decrement <= 1e-3
        if decrement <= 0 or (floor and decrement >= previous):
            return u, True
        previous = decrement
        # backtracking on the exact quadratic slacks: stay strictly feasible,
        # then Armijo on the barrier change taken without cancellation
        a = 2.0 * np.vecdot(u, du)
        b = 2.0 * np.vecdot(du, du)
        # sum_j du_j = 0, so sum_j D_j . du_j = sum_j u_j . du_j
        lin = t * (0.5 * float(a.sum()) - float(np.vecdot(w, du[:, 0])))
        quad = 0.5 * t * float(b.sum())
        step = 1.0
        for _ in range(60):
            if _step_change(step, lin, quad, a, b, s) <= -0.25 * step * decrement:
                # the direct evaluation guards against rounding in (a, b)
                un = u + step * du
                sn = _disk_slacks(un)
                if (sn > 0.0).all():
                    break
            step *= 0.5
        else:
            return u, floor
        u, s = un, sn
        if 0.5 * decrement <= 1e-11:
            return u, True
    return u, False


def _barrier_path(problem: ChainProblem) -> tuple[np.ndarray, float, bool]:
    """Increments D (N x 2) maximizing U_N by path-following from D_j = (a, b)/N.

    Returns (D, gap, converged); with N disk constraints the gap is N/t.  The
    path converges when the last centering, at N/t <= NEWTON_TOL, ends centred.
    """
    N = problem.N
    w = (N - np.arange(N)) / N
    u = np.tile(problem.gN / N - (0.5 / N, 0.0), (N, 1))
    t = 1.0 / BARRIER_MU0
    while True:
        u, centred = _newton_center(w, u, t)
        if N / t <= NEWTON_TOL:
            return u + (0.5 / N, 0.0), N / t, centred
        t /= MU_SHRINK


def _upper_ends(problem: ChainProblem, G: np.ndarray) -> PointData:
    """Knots (i/N) e_1 with gradients G and each F_i+1 - F_i at its interval's top,
    G_i+1.e_1/N - 1/2 |G_i+1 - G_i|^2 (h1_i = 0): the largest F_N through G."""
    step = G[1:, 0] / problem.N - 0.5 * np.sum(np.diff(G, axis=0) ** 2, axis=1)
    return PointData(make_chain(np.zeros(2), (1.0, 0.0), problem.N),
                     np.concatenate(([0.0], np.cumsum(step))), G)


def _constraint_values(K: PointData) -> np.ndarray:
    """(h1_i, h2_i) of each segment of the knots K, N x 2, feasible when all are
    <= 0: minus the co-coercivity gaps at L = 1 from knot i+1 to i and back."""
    return -np.column_stack([cocoercivity_gap(1.0, K[1:], K[:-1]),
                             cocoercivity_gap(1.0, K[:-1], K[1:])])


def solve(problem: ChainProblem) -> BoundResult:
    """Solve the canonical upper program U_N(a, b); see the module docstring.

    The value, violation and gap are in the units of ``problem.spec``; the
    knots stay canonical, and the result's ``chain`` maps them back.  A LOWER
    spec gets the reversed chain and its end value a - U.
    """
    N, gN = problem.N, problem.gN
    margin = gN[0] - float(gN @ gN)
    band = FEAS_BAND * max(1.0, abs(gN[0]))
    G = (np.arange(N + 1) / N)[:, None] * gN
    gap, converged = 0.0, True
    if N > 1 and margin > band:
        D, gap, converged = _barrier_path(problem)
        G[1:N] = np.cumsum(D[:-1], axis=0)
    K = _upper_ends(problem, G)
    violation = problem.scale * max(0.0, float(np.max(_constraint_values(K))))
    if margin < -band:
        return BoundResult(INFEASIBLE, math.nan, K[:0], problem, violation, 0.0)
    if problem.spec.direction == LOWER:
        K = _reverse(problem, K)
    return BoundResult(
        status=OPTIMAL if converged else ITERATION_LIMIT,
        value=problem.value(1.0, float(K.f[-1])),
        knots=K,
        problem=problem,
        max_constraint_violation=violation,
        duality_gap_estimate=problem.scale * gap,
    )


def _reverse(problem: ChainProblem, K: PointData) -> PointData:
    """The reversed chain F~_i = F_N-i - F_N + a i/N, G~_i = G_N - G_N-i.

    Its segment i meets the constraints of segment N-1-i with h1 and h2
    exchanged, so it is feasible wherever K is, and it ends at a - F_N.
    """
    F = K.f[::-1] - K.f[-1] + problem.gN[0] * K.x[:, 0]
    return PointData(K.x, F, problem.gN - K.g[::-1])


def _recover_chain(problem: ChainProblem, K: PointData) -> PointData:
    """Map canonical knots back to the spec's chain points, as one stack.

    f_i is problem.value at i/N and g_i = g_x + L rho Q G_i (Q the reduced
    basis); g_0 and g_N are the data.  No knots map to no points.
    """
    spec, frac = problem.spec, K.x[:, 0]
    g = spec.g_x + problem.g_scale * (K.g @ problem.basis.T)
    g[frac == 0], g[frac == 1] = spec.g_x, spec.g_y
    return PointData(x=spec.x + frac[:, None] * (spec.y - spec.x),
                     f=problem.value(frac, K.f), g=g)


def solve_spec(spec: ChainSpec) -> BoundResult:
    return solve(build_problem(spec))


# --- closed form -------------------------------------------------------------


def closed_form_n1(spec: ChainSpec) -> tuple[float, float, bool]:
    """(B1, U1, feasible) of the one-segment program; RangeError if B1 or U1 is inf."""
    with np.errstate(all="ignore"):     # overflow reads as inf, and is refused
        d = spec.y - spec.x
        dg = spec.g_y - spec.g_x
        cross = float(dg @ d)
        quad = float(dg @ dg) / (2.0 * spec.L)
        u1 = spec.f_x + float(spec.g_y @ d) - quad
        b1 = spec.f_x + float(spec.g_x @ d) + quad
    if not (math.isfinite(b1) and math.isfinite(u1)):
        raise RangeError("B1 or U1 leaves the float64 range")
    # u1 - b1 = L ||d||^2 (a - a^2 - b^2), so solve's band in spec units is
    # FEAS_BAND * max(L ||d||^2, |<g_y - g_x, d>|)
    band = FEAS_BAND * max(spec.L * float(d @ d), abs(cross))
    return b1, u1, cross - 2.0 * quad >= -band


# --- sweeps -------------------------------------------------------------------


def normalized_spec(s: float, N: int, direction: str = UPPER) -> ChainSpec:
    """Endpoint data with L=1, x=0, f_x=0, g_x=0, ||y||=1 and ||g_y||^2 = 1/2.

    s = <g_y, y> parametrizes the family; it must satisfy s^2 <= 1/2.
    """
    if s * s > 0.5 + 1e-12:
        raise RangeError(f"s = {s} incompatible with ||g_y||^2 = 1/2")
    gy1 = math.sqrt(max(0.0, 0.5 - s * s))
    return ChainSpec(
        L=1.0,
        x=np.zeros(2),
        y=np.array([1.0, 0.0]),
        f_x=0.0,
        g_x=np.zeros(2),
        g_y=np.array([s, gy1]),
        N=N,
        direction=direction,
    )


@dataclass(frozen=True)
class SweepRow:
    s: float
    N: int
    B: float
    U: float
    status: str


def sweep(s_values, Ns) -> list[SweepRow]:
    """One row per (s, N) under the normalization: one upper solve, B = s - U.

    The normalized spec has f_x = 0, g_x = 0 and <g_y, y - x> = s, so the
    reversal identity B = a - U reads B = s - U in spec units. An s with
    s^2 > 1/2 raises RangeError, as in normalized_spec.
    """
    rows: list[SweepRow] = []
    for s in s_values:
        for N in Ns:
            up = solve_spec(normalized_spec(s, N, UPPER))
            rows.append(SweepRow(s, N, s - up.value, up.value, up.status))
    return rows
