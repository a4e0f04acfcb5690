"""Chain bound programs in canonical form and a self-contained log-barrier solver.

Given endpoint data (x, f_x, g_x, y, g_y) for an L-smooth convex function,
the value f(y) is bracketed by the optima of two convex quadratically
constrained programs over the values f_i and gradients g_i at the chain
points x_i = x + (i/N)(y-x): each adjacent pair must satisfy the two-point
co-coercivity inequalities.  The upper program maximizes f_N, the lower one
minimizes it.

Those inequalities are unchanged by adding a linear function to f (a tilt),
by a rotation, and by rescaling f by L rho^2 and g by L rho, rho = ||y - x||.
So every spec is the canonical program in (a, b) and N: knots F[0..N] and
G[0..N] with F_0 = 0, G_0 = 0, G_N = (a, b), chain step e_1/N, and

    h1_i = 1/2 ||G_i - G_i+1||^2 - F_i + F_i+1 - G_i+1 . e_1/N <= 0
    h2_i = 1/2 ||G_i - G_i+1||^2 + F_i - F_i+1 + G_i . e_1/N   <= 0,

where a and b are the components of (g_y - g_x)/(L rho) along and across
y - x.  Projecting every G_i onto span{e_1, e_2} keeps a chain feasible and
F_N unchanged, so two gradient coordinates suffice (one when b = 0).  Only
the upper program U_N(a, b) is solved: reversing a chain maps the feasible
set onto itself and F_N to a - F_N, so the lower bound is a - U_N(a, b).
Tolerances act in canonical units, that is relative to L ||y - x||^2.

With m = a - a^2 - b^2 the program is feasible iff m >= 0, so no phase I is
needed.  For fixed gradients each increment F_i+1 - F_i has an interval,
and the maximum takes its upper end.  On the boundary m = 0, and for N = 1,
the gradients are pinned to G_i = (i/N)(a, b), and that gives U_N directly.
Inside, log-barrier path-following with damped Newton steps starts from
G_i = (i/N)(a, b), F_i = a i^2 / (2N^2), where every slack is m / (2N^2),
and F is then re-taken at the upper ends for the barrier's G.  Each
constraint couples only knots i and i+1, with the same +-I curvature on
(G_i, G_i+1), so values, gradients and the barrier Hessian come from
per-segment arrays.  Along a Newton direction each slack is an exact
quadratic in the step: the line search backtracks on those and takes the
barrier change in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import PointData
from .errors import DegenerateError, DimensionMismatch, NoFeasiblePoint, RangeError

UPPER = "upper"
LOWER = "lower"

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
ITERATION_LIMIT = "IterationLimit"

# a - a^2 - b^2 within FEAS_BAND * max(1, |a|) of 0 is the boundary of the
# feasible set; below that band the program is infeasible
FEAS_BAND = 1e-12

# the barrier path: t starts at 1/BARRIER_MU0 and grows by 1/MU_SHRINK per
# centering until (#constraints)/t <= NEWTON_TOL, at most MAX_OUTER times;
# a centering takes at most MAX_NEWTON Newton steps
BARRIER_MU0 = 0.1
MU_SHRINK = 0.2
NEWTON_TOL = 1e-8
MAX_OUTER = 80
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
        for name in ("x", "y", "g_x", "g_y"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.x.shape == self.y.shape == self.g_x.shape == self.g_y.shape):
            raise DimensionMismatch("spec vectors must share one dimension")
        if not (math.isfinite(self.L) and math.isfinite(self.f_x)
                and all(np.isfinite(getattr(self, name)).all()
                        for name in ("x", "y", "g_x", "g_y"))):
            raise RangeError("L, f_x, x, y, g_x and g_y must be finite")
        if np.array_equal(self.x, self.y):
            raise DegenerateError("spec endpoints coincide")
        if self.L <= 0:
            raise RangeError("L must be positive")
        if self.N < 1:
            raise RangeError("N must be a positive integer")
        if self.direction not in (UPPER, LOWER):
            raise RangeError(f"direction must be '{UPPER}' or '{LOWER}'")


@dataclass
class ChainProblem:
    """The canonical upper program of ``spec``: maximize F_N over the knots.

    The variables z are knot-major: (F_1, G_1, ..., F_N-1, G_N-1, F_N), so
    F_N is the last one.  ``knots`` fills in the pinned F_0, G_0 and G_N.
    """

    spec: ChainSpec
    basis: np.ndarray               # d x r orthonormal: e_1, then e_2 when b > 0
    gN: np.ndarray                  # G_N = (a, b), or (a,) when b = 0
    scale: float                    # L rho^2: spec units of one canonical unit of f

    @property
    def N(self) -> int:
        return self.spec.N

    @property
    def reduced_dim(self) -> int:
        return self.gN.size

    @property
    def n_vars(self) -> int:
        return self.N + (self.N - 1) * self.reduced_dim

    def knots(self, z: np.ndarray) -> np.ndarray:
        """(N+1) x (1+r) rows (F_i, G_i) of the chain z."""
        m = 1 + self.reduced_dim
        return np.concatenate([np.zeros(m), z, self.gN]).reshape(self.N + 1, m)

    def free(self, K: np.ndarray) -> np.ndarray:
        """The chain z of the knot rows K; the inverse of ``knots``."""
        return K.ravel()[1 + self.reduced_dim:-self.reduced_dim]

    def values(self, z: np.ndarray) -> np.ndarray:
        """Constraint values h1_0, h2_0, h1_1, ...; z is feasible when all are <= 0."""
        return _Barrier(self).values(z)

    def max_violation(self, z: np.ndarray) -> float:
        return float(np.max(self.values(z)))


@dataclass
class BoundResult:
    status: str
    value: float
    chain: list[PointData]
    max_constraint_violation: float
    duality_gap_estimate: float


def build_problem(spec: ChainSpec) -> ChainProblem:
    """Canonicalize: tilt away (f_x, g_x), rotate y - x onto e_1, rescale by L rho^2."""
    delta = spec.y - spec.x
    rho = float(np.linalg.norm(delta))
    e1 = delta / rho
    g_hat = (spec.g_y - spec.g_x) / (spec.L * rho)
    a = float(g_hat @ e1)
    across = g_hat - a * e1
    b = float(np.linalg.norm(across))
    if b <= 1e-12 * max(1.0, float(np.linalg.norm(g_hat))):
        basis, gN = e1[:, None], np.array([a])
    else:
        basis, gN = np.column_stack([e1, across / b]), np.array([a, b])
    return ChainProblem(spec, basis, gN, spec.L * rho * rho)


# --- barrier machinery -------------------------------------------------------


class _Barrier:
    """The constraints h_j(z) <= 0 as per-segment arrays.

    Segment i's two constraints read only u_i = (F_i, G_i, F_i+1, G_i+1),
    taken from the padded vector X = (F_0, G_0, z, G_N) by the index rows
    ``seg``.  Both are h(u) = 1/2 u'Pu + lin.u with the one curvature P,
    +-I on (G_i, G_i+1); ``lin`` holds the linear parts of h1 and h2.
    """

    def __init__(self, problem: ChainProblem):
        N, r = problem.N, problem.reduced_dim
        m = self.m = 1 + r
        self.head, self.tail = np.zeros(m), problem.gN
        self.free = slice(m, m + problem.n_vars)
        self.nx = (N + 1) * m
        seg = self.seg = np.arange(N)[:, None] * m + np.arange(2 * m)
        self.pairs = (seg[:, :, None] * self.nx + seg[:, None, :]).ravel()
        eye = np.eye(r)
        self.P = np.zeros((2 * m, 2 * m))
        self.P[1:m, 1:m] = self.P[m + 1:, m + 1:] = eye
        self.P[1:m, m + 1:] = self.P[m + 1:, 1:m] = -eye
        self.lin = np.zeros((2, 2 * m))
        self.lin[0, [0, m, m + 1]] = -1.0, 1.0, -1.0 / N
        self.lin[1, [0, 1, m]] = 1.0, 1.0 / N, -1.0

    def _entries(self, z: np.ndarray, tail: np.ndarray) -> np.ndarray:
        return np.concatenate((self.head, z, tail))[self.seg]

    def values(self, z: np.ndarray) -> np.ndarray:
        u = self._entries(z, self.tail)
        m = self.m
        v = u[:, 1:m] - u[:, m + 1:]
        q = 0.5 * np.einsum("ij,ij->i", v, v)
        return (u @ self.lin.T + q[:, None]).ravel()

    def local_grads(self, z: np.ndarray) -> np.ndarray:
        """Gradients P u + lin of h1_i and h2_i over u_i: N x 2 x len(u_i)."""
        return (self._entries(z, self.tail) @ self.P)[:, None, :] + self.lin

    def grad_hess(self, lg: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Barrier gradient and Hessian given local gradients and slacks d > 0."""
        w = (1.0 / d).reshape(-1, 2)
        wl = lg * w[:, :, None]
        blocks = np.einsum("nck,ncl->nkl", wl, wl) + w.sum(axis=1)[:, None, None] * self.P
        g = np.bincount(self.seg.ravel(), wl.sum(axis=1).ravel(), self.nx)
        H = np.bincount(self.pairs, blocks.ravel(), self.nx ** 2).reshape(self.nx, self.nx)
        return g[self.free], H[self.free, self.free]

    def slack_rates(self, lg: np.ndarray, dz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(a, b) with slacks d(alpha) = d - alpha*a - alpha^2*b/2 along dz."""
        du = self._entries(dz, np.zeros(self.m - 1))
        m = self.m
        dv = du[:, 1:m] - du[:, m + 1:]
        a = np.einsum("nck,nk->nc", lg, du).ravel()
        return a, np.repeat(np.einsum("ij,ij->i", dv, dv), 2)


def _step_change(step: float, tcdz: float, a: np.ndarray, b: np.ndarray,
                 d: np.ndarray) -> float:
    """Exact change of t*c'z - sum log d over step*dz, inf outside the interior.

    Slacks are quadratic along dz, d(step) = d - step*a - step^2*b/2, so the
    change needs no barrier values, whose difference is lost to rounding at
    large t.
    """
    drop = step * (a + 0.5 * step * b)
    if not np.all(drop < d):
        return math.inf
    return step * tcdz - float(np.sum(np.log1p(-drop / d)))


def _newton_center(
    c: np.ndarray,
    barrier: _Barrier,
    z: np.ndarray,
    d: np.ndarray,
    t: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize t*c'z - sum log(-h_j(z)) by damped Newton from interior z.

    d holds the slacks -h_j(z) > 0; returns the new point and its slacks.
    Stops once the Newton decrement no longer falls: at large t it levels
    off at the rounding floor, above the 1e-11 stop.
    """
    previous = math.inf
    for _ in range(MAX_NEWTON):
        lg = barrier.local_grads(z)
        g, H = barrier.grad_hess(lg, d)
        g += t * c
        diag = np.arange(g.size)
        H[diag, diag] += 1e-12 * (1.0 + np.abs(H[diag, diag]))
        try:
            dz = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            dz = np.linalg.lstsq(H, -g, rcond=None)[0]
        decrement = -float(g @ dz)
        if decrement <= 0 or decrement >= previous:
            break
        previous = decrement
        # backtracking on the exact quadratic slacks: stay strictly feasible,
        # then Armijo on the barrier change taken without cancellation
        a, b = barrier.slack_rates(lg, dz)
        tcdz = t * float(c @ dz)
        step = 1.0
        accepted = False
        for _ in range(60):
            if _step_change(step, tcdz, a, b, d) <= -0.25 * step * decrement:
                # the direct evaluation guards against rounding in (a, b)
                zn = z + step * dz
                dn = -barrier.values(zn)
                if np.all(dn > 0.0):
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break
        z, d = zn, dn
        if 0.5 * decrement <= 1e-11:
            break
    return z, d


def _barrier_path(problem: ChainProblem, z: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Maximize F_N by path-following from interior z; returns (z, gap, converged)."""
    barrier = _Barrier(problem)
    c = np.zeros(z.size)
    c[-1] = -1.0
    d = -barrier.values(z)
    t = 1.0 / BARRIER_MU0
    for _ in range(MAX_OUTER):
        z, d = _newton_center(c, barrier, z, d, t)
        if d.size / t <= NEWTON_TOL:
            return z, d.size / t, True
        t /= MU_SHRINK
    return z, d.size / t, False


def _upper_ends(problem: ChainProblem, G: np.ndarray) -> np.ndarray:
    """Knots with gradients G and each F_i+1 - F_i at the top of its interval,
    G_i+1.e_1/N - 1/2 |G_i+1 - G_i|^2 (h1_i = 0): the largest F_N through G."""
    step = G[1:, 0] / problem.N - 0.5 * np.sum(np.diff(G, axis=0) ** 2, axis=1)
    return np.column_stack([np.concatenate(([0.0], np.cumsum(step))), G])


def solve(problem: ChainProblem) -> BoundResult:
    """Solve the canonical upper program U_N(a, b); see the module docstring.

    The result is in the units of ``problem.spec``.  A LOWER spec gets the
    reversed chain and its end value a - U.
    """
    N, gN = problem.N, problem.gN
    margin = gN[0] - float(gN @ gN)
    band = FEAS_BAND * max(1.0, abs(gN[0]))
    frac = np.arange(N + 1) / N
    G = frac[:, None] * gN
    gap, converged = 0.0, True
    if N > 1 and margin > band:
        K = np.column_stack([0.5 * gN[0] * frac ** 2, G])
        z, gap, converged = _barrier_path(problem, problem.free(K))
        G = problem.knots(z)[:, 1:]
    K = _upper_ends(problem, G)
    violation = problem.scale * max(0.0, problem.max_violation(problem.free(K)))
    if margin < -band:
        return BoundResult(INFEASIBLE, math.nan, [], violation, 0.0)
    if problem.spec.direction == LOWER:
        K = _reverse(problem, K)
    chain = _recover_chain(problem, K)
    return BoundResult(
        status=OPTIMAL if converged else ITERATION_LIMIT,
        value=chain[-1].f,
        chain=chain,
        max_constraint_violation=violation,
        duality_gap_estimate=problem.scale * gap,
    )


def _reverse(problem: ChainProblem, K: np.ndarray) -> np.ndarray:
    """The reversed chain F~_i = F_N-i - F_N + a i/N, G~_i = G_N - G_N-i.

    Its segment i meets the constraints of segment N-1-i with h1 and h2
    exchanged, so it is feasible wherever K is, and it ends at a - F_N.
    """
    N, a = problem.N, problem.gN[0]
    F = K[::-1, 0] - K[-1, 0] + a * (np.arange(N + 1) / N)
    return np.column_stack([F, problem.gN - K[::-1, 1:]])


def _recover_chain(problem: ChainProblem, K: np.ndarray) -> list[PointData]:
    """Map canonical knots back to the spec's chain points.

    f_i = f_x + (i/N)<g_x, y - x> + L rho^2 F_i and g_i = g_x + L rho Q G_i,
    with the columns of Q the reduced basis; g_0 and g_N are the data.
    """
    spec = problem.spec
    N = spec.N
    delta = spec.y - spec.x
    frac = np.arange(N + 1) / N
    f = spec.f_x + frac * float(spec.g_x @ delta) + problem.scale * K[:, 0]
    g = spec.g_x + spec.L * float(np.linalg.norm(delta)) * (K[:, 1:] @ problem.basis.T)
    g[0], g[N] = spec.g_x, spec.g_y
    return [PointData(x=spec.x + frac[i] * delta, f=float(f[i]), g=g[i])
            for i in range(N + 1)]


def solve_spec(spec: ChainSpec) -> BoundResult:
    return solve(build_problem(spec))


# --- closed forms and oracles ------------------------------------------------


def closed_form_n1(spec: ChainSpec) -> tuple[float, float, bool]:
    """(B1, U1, feasible) for the single-segment program."""
    d = spec.y - spec.x
    dg = spec.g_y - spec.g_x
    quad = float(dg @ dg) / (2.0 * spec.L)
    u1 = spec.f_x + float(spec.g_y @ d) - quad
    b1 = spec.f_x + float(spec.g_x @ d) + quad
    return b1, u1, b1 <= u1 + 1e-15


def oracle_grid_n2(spec: ChainSpec, resolution: int = 400) -> tuple[float, float]:
    """Brute-force (B2, U2) by grid search over the single free gradient.

    The search runs in the canonical program: G_0 = 0, G_2 = (a, b) and
    chain step e_1/2.  For fixed G_1 the two F-variables collapse to
    closed-form intervals, so each grid pass reduces to vectorized interval
    arithmetic.  Summing a segment's two constraints gives
    ||G_1 - G_0|| <= 1/2 and likewise from G_2, so a box of half-width 1/2
    around G_2/2 covers the whole feasible set.  The upper objective is
    concave in G_1 and the lower one convex over that convex set, so zooming
    onto the best grid cell and re-gridding converges to the true optimum.
    """
    if spec.N != 2:
        raise RangeError("grid oracle is defined for N = 2")
    problem = build_problem(spec)
    r = problem.reduced_dim
    g2 = problem.gN

    def evaluate(G):
        q01 = 0.5 * np.sum(G ** 2, axis=1)
        q12 = 0.5 * np.sum((G - g2) ** 2, axis=1)
        u01 = 0.5 * G[:, 0] - q01
        b01 = q01
        u12 = 0.5 * g2[0] - q12
        b12 = 0.5 * G[:, 0] + q12
        feas = (b01 <= u01 + 1e-9) & (b12 <= u12 + 1e-9)
        return feas, b01 + b12, u01 + u12

    def grid(center, halfwidth):
        axes = [np.linspace(center[k] - halfwidth, center[k] + halfwidth,
                            resolution) for k in range(r)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    halfwidth = 0.5
    G = grid(0.5 * g2, halfwidth)
    feas, lows, ups = evaluate(G)
    if not np.any(feas):
        raise NoFeasiblePoint("no grid point satisfies the chain constraints")
    lo_at = G[feas][int(np.argmin(lows[feas]))]
    up_at = G[feas][int(np.argmax(ups[feas]))]
    lower = float(np.min(lows[feas]))
    upper = float(np.max(ups[feas]))

    spacing = 2.0 * halfwidth / max(resolution - 1, 1)
    for _ in range(3):
        window = 3.0 * spacing
        Gl = grid(lo_at, window)
        fl, ll, _ = evaluate(Gl)
        if np.any(fl) and float(np.min(ll[fl])) < lower:
            lower = float(np.min(ll[fl]))
            lo_at = Gl[fl][int(np.argmin(ll[fl]))]
        Gu = grid(up_at, window)
        fu, _, uu = evaluate(Gu)
        if np.any(fu) and float(np.max(uu[fu])) > upper:
            upper = float(np.max(uu[fu]))
            up_at = Gu[fu][int(np.argmax(uu[fu]))]
        spacing = 2.0 * window / max(resolution - 1, 1)
    base = spec.f_x + float(spec.g_x @ (spec.y - spec.x))
    return base + problem.scale * lower, base + problem.scale * upper


# --- sweeps -------------------------------------------------------------------


def normalized_spec(s: float, N: int, direction: str = UPPER,
                    L: float = 1.0) -> ChainSpec:
    """Endpoint data with x=0, f_x=0, g_x=0, ||y||=1 and ||g_y||^2 = 1/2.

    s = <g_y, y> parametrizes the family; it must satisfy s^2 <= 1/2.
    """
    if s * s > 0.5 + 1e-12:
        raise RangeError(f"s = {s} incompatible with ||g_y||^2 = 1/2")
    gy1 = math.sqrt(max(0.0, 0.5 - s * s))
    return ChainSpec(
        L=L,
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


def sweep(s_values, Ns, L: float = 1.0) -> list[SweepRow]:
    """One row per (s, N) under the normalization: one upper solve, B = s - U.

    The normalized spec has f_x = 0, g_x = 0 and <g_y, y - x> = s, so the
    reversal identity B = a - U reads B = s - U in spec units.
    """
    rows: list[SweepRow] = []
    for s in s_values:
        for N in Ns:
            if s * s > 0.5 + 1e-12 or s < 0.0:
                rows.append(SweepRow(s, N, math.nan, math.nan, INFEASIBLE))
                continue
            up = solve_spec(normalized_spec(s, N, UPPER, L))
            rows.append(SweepRow(s, N, s - up.value, up.value, up.status))
    return rows
