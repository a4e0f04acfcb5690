"""Chain bound programs and a self-contained log-barrier QCQP solver.

Given endpoint data (x, f_x, g_x, y, g_y) for an L-smooth convex function,
the value f(y) is bracketed by the optima of two convex quadratically
constrained programs over the values f_i and gradients g_i at the chain
points x_i = x + (i/N)(y-x): each adjacent pair must satisfy the two-point
co-coercivity inequalities.  The upper program maximizes f_N, the lower one
minimizes it.

The solver is a phase-I slack minimization followed by log-barrier
path-following with damped Newton steps; both phases share the same
barrier machinery.  Every constraint is quadratic, so along a Newton
direction each slack is an exact quadratic in the step: the line search
backtracks on those and takes the barrier change in closed form, and
evaluates the constraints directly only at the step it accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import Interval, PointData
from .errors import DegenerateError, DimensionMismatch, NoFeasiblePoint, RangeError

UPPER = "upper"
LOWER = "lower"

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
ITERATION_LIMIT = "IterationLimit"


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


@dataclass(frozen=True)
class SolverConfig:
    barrier_mu0: float = 0.1        # initial barrier parameter (1/t)
    mu_shrink: float = 0.2          # multiplicative decrease per outer step
    newton_tol: float = 1e-8        # stop when (#constraints)/t <= newton_tol
    max_outer: int = 80
    max_newton: int = 60
    feas_tol: float = 1e-8


@dataclass
class QuadConstraint:
    """h(z) = 1/2 u'Pu + q'u + r over the variable subset z[idx]."""

    idx: np.ndarray
    P: np.ndarray
    q: np.ndarray
    r: float

    def value(self, z: np.ndarray) -> float:
        u = z[self.idx]
        return 0.5 * float(u @ self.P @ u) + float(self.q @ u) + self.r

    def shifted(self, delta: float) -> "QuadConstraint":
        return QuadConstraint(self.idx, self.P, self.q, self.r - delta)

    def with_slack(self, slack_index: int) -> "QuadConstraint":
        """Augment to h(z) - s <= 0 with s the variable at slack_index."""
        k = len(self.idx)
        idx = np.append(self.idx, slack_index)
        P = np.zeros((k + 1, k + 1))
        P[:k, :k] = self.P
        q = np.append(self.q, -1.0)
        return QuadConstraint(idx, P, q, self.r)


@dataclass
class ChainProblem:
    spec: ChainSpec
    basis: np.ndarray               # d x reduced_dim, orthonormal columns
    reduced_dim: int
    delta_red: np.ndarray           # (y - x)/N in the reduced basis
    g0_red: np.ndarray
    gN_red: np.ndarray
    n_vars: int
    fN_index: int
    constraints: list[QuadConstraint] = field(default_factory=list)

    def max_violation(self, z: np.ndarray) -> float:
        return max(c.value(z) for c in self.constraints)


@dataclass
class BoundResult:
    status: str
    value: float
    chain: list[PointData]
    max_constraint_violation: float
    duality_gap_estimate: float


# --- problem construction ---------------------------------------------------


def _orthonormal_span(vectors: list[np.ndarray]) -> np.ndarray:
    """Gram-Schmidt basis of the span; columns orthonormal."""
    cols: list[np.ndarray] = []
    scale = max(float(np.linalg.norm(v)) for v in vectors) or 1.0
    for v in vectors:
        w = v.astype(float).copy()
        for u in cols:
            w -= float(u @ w) * u
        nw = float(np.linalg.norm(w))
        if nw > 1e-12 * scale:
            cols.append(w / nw)
    return np.column_stack(cols)


def build_problem(spec: ChainSpec, reduce: bool = True) -> ChainProblem:
    """Emit the 2N chain constraints over f_1..f_N and g_1..g_{N-1}.

    With reduce=True the gradient variables live in an orthonormal basis of
    span{y-x, g_x, g_y} (dimension <= 3): the feasible set is invariant
    under reflection across that span and reflection preserves f_N, so an
    optimal solution exists inside the span.
    """
    d = spec.x.size
    if reduce:
        basis = _orthonormal_span([spec.y - spec.x, spec.g_x, spec.g_y])
    else:
        basis = np.eye(d)
    r = basis.shape[1]
    N = spec.N

    delta_red = basis.T @ (spec.y - spec.x) / N
    g0 = basis.T @ spec.g_x
    gN = basis.T @ spec.g_y

    n_vars = N + (N - 1) * r
    fN_index = N - 1

    def fvar(i: int) -> int:
        return i - 1  # valid for 1 <= i <= N

    def gvar(i: int) -> np.ndarray:
        return np.arange(N + (i - 1) * r, N + i * r)  # valid for 1 <= i <= N-1

    inv_l = 1.0 / spec.L
    constraints: list[QuadConstraint] = []

    for i in range(N):
        gi_fixed = g0 if i == 0 else None
        gj_fixed = gN if i + 1 == N else None

        # participating variable indices, in a fixed local order
        idx_parts: list[np.ndarray] = []
        if i >= 1:
            idx_parts.append(np.array([fvar(i)]))
        idx_parts.append(np.array([fvar(i + 1)]))
        gi_off = gj_off = -1
        if gi_fixed is None:
            gi_off = sum(len(a) for a in idx_parts)
            idx_parts.append(gvar(i))
        if gj_fixed is None:
            gj_off = sum(len(a) for a in idx_parts)
            idx_parts.append(gvar(i + 1))
        idx = np.concatenate(idx_parts)
        k = len(idx)

        # shared quadratic part (1/2L)||g_i - g_{i+1}||^2
        P = np.zeros((k, k))
        q_quad = np.zeros(k)
        r_quad = 0.0
        if gi_fixed is None and gj_fixed is None:
            P[gi_off:gi_off + r, gi_off:gi_off + r] = inv_l * np.eye(r)
            P[gj_off:gj_off + r, gj_off:gj_off + r] = inv_l * np.eye(r)
            P[gi_off:gi_off + r, gj_off:gj_off + r] = -inv_l * np.eye(r)
            P[gj_off:gj_off + r, gi_off:gi_off + r] = -inv_l * np.eye(r)
        elif gi_fixed is None:
            P[gi_off:gi_off + r, gi_off:gi_off + r] = inv_l * np.eye(r)
            q_quad[gi_off:gi_off + r] = -inv_l * gj_fixed
            r_quad = 0.5 * inv_l * float(gj_fixed @ gj_fixed)
        elif gj_fixed is None:
            P[gj_off:gj_off + r, gj_off:gj_off + r] = inv_l * np.eye(r)
            q_quad[gj_off:gj_off + r] = -inv_l * gi_fixed
            r_quad = 0.5 * inv_l * float(gi_fixed @ gi_fixed)
        else:
            dg = gi_fixed - gj_fixed
            r_quad = 0.5 * inv_l * float(dg @ dg)

        fi_off = 0 if i >= 1 else None
        fj_off = 1 if i >= 1 else 0

        # h1: quad - f_i + f_{i+1} - <g_{i+1}, delta> <= 0
        q1 = q_quad.copy()
        r1 = r_quad
        if fi_off is None:
            r1 -= spec.f_x
        else:
            q1[fi_off] -= 1.0
        q1[fj_off] += 1.0
        if gj_fixed is None:
            q1[gj_off:gj_off + r] -= delta_red
        else:
            r1 -= float(gj_fixed @ delta_red)
        constraints.append(QuadConstraint(idx.copy(), P.copy(), q1, r1))

        # h2: quad + f_i - f_{i+1} + <g_i, delta> <= 0
        q2 = q_quad.copy()
        r2 = r_quad
        if fi_off is None:
            r2 += spec.f_x
        else:
            q2[fi_off] += 1.0
        q2[fj_off] -= 1.0
        if gi_fixed is None:
            q2[gi_off:gi_off + r] += delta_red
        else:
            r2 += float(gi_fixed @ delta_red)
        constraints.append(QuadConstraint(idx.copy(), P.copy(), q2, r2))

    return ChainProblem(
        spec=spec,
        basis=basis,
        reduced_dim=r,
        delta_red=delta_red,
        g0_red=g0,
        gN_red=gN,
        n_vars=n_vars,
        fN_index=fN_index,
        constraints=constraints,
    )


# --- barrier machinery -------------------------------------------------------


class _Batch:
    """Padded batch view of the constraints for vectorized Newton steps.

    Every constraint is padded to a common local size with a phantom
    variable slot (index n, pinned to zero) so values, gradients and
    Hessian blocks are computed with one einsum each.
    """

    def __init__(self, cons: list[QuadConstraint], n: int):
        self.n = n
        m = len(cons)
        K = max(len(c.idx) for c in cons)
        self.idx = np.full((m, K), n, dtype=int)
        self.P = np.zeros((m, K, K))
        self.q = np.zeros((m, K))
        self.r = np.zeros(m)
        for j, c in enumerate(cons):
            k = len(c.idx)
            self.idx[j, :k] = c.idx
            self.P[j, :k, :k] = c.P
            self.q[j, :k] = c.q
            self.r[j] = c.r

    def values(self, z: np.ndarray) -> np.ndarray:
        u = np.append(z, 0.0)[self.idx]
        return (
            0.5 * np.einsum("mk,mkl,ml->m", u, self.P, u)
            + np.sum(self.q * u, axis=1)
            + self.r
        )

    def local_grads(self, z: np.ndarray) -> np.ndarray:
        """Per-constraint gradients P u + q over each local variable slot."""
        u = np.append(z, 0.0)[self.idx]
        return np.einsum("mkl,ml->mk", self.P, u) + self.q

    def grad_hess(self, lg: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Barrier gradient and Hessian given local gradients and slacks d > 0."""
        inv = 1.0 / d
        w = lg * inv[:, None]
        g = np.zeros(self.n + 1)
        np.add.at(g, self.idx, w)
        blocks = np.einsum("mk,ml->mkl", w, w) + self.P * inv[:, None, None]
        H = np.zeros((self.n + 1, self.n + 1))
        np.add.at(H, (self.idx[:, :, None], self.idx[:, None, :]), blocks)
        return g[: self.n], H[: self.n, : self.n]

    def slack_rates(self, lg: np.ndarray, dz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(a, b) with slacks d(alpha) = d - alpha*a - alpha^2*b/2 along dz."""
        du = np.append(dz, 0.0)[self.idx]
        a = np.sum(lg * du, axis=1)
        b = np.einsum("mk,mkl,ml->m", du, self.P, du)
        return a, b


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
    batch: _Batch,
    z: np.ndarray,
    d: np.ndarray,
    t: float,
    max_newton: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize t*c'z - sum log(-h_j(z)) by damped Newton from interior z.

    d holds the slacks -h_j(z) > 0; returns the new point and its slacks.
    """
    for _ in range(max_newton):
        lg = batch.local_grads(z)
        g, H = batch.grad_hess(lg, d)
        g += t * c
        H[np.diag_indices_from(H)] += 1e-12 * (1.0 + np.abs(H.diagonal()))
        try:
            dz = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            dz = np.linalg.lstsq(H, -g, rcond=None)[0]
        decrement = -float(g @ dz)
        if decrement <= 0:
            break
        # backtracking on the exact quadratic slacks: stay strictly feasible,
        # then Armijo on the barrier change taken without cancellation
        a, b = batch.slack_rates(lg, dz)
        tcdz = t * float(c @ dz)
        step = 1.0
        accepted = False
        for _ in range(60):
            if _step_change(step, tcdz, a, b, d) <= -0.25 * step * decrement:
                # the direct evaluation guards against rounding in (a, b)
                zn = z + step * dz
                dn = -batch.values(zn)
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


def _barrier_path(
    c: np.ndarray,
    cons: list[QuadConstraint],
    z: np.ndarray,
    config: SolverConfig,
    gap_target: float,
    stop_early=None,
) -> tuple[np.ndarray, float, bool]:
    """Path-following; returns (z, gap, converged)."""
    m = len(cons)
    batch = _Batch(cons, z.size)
    d = -batch.values(z)
    t = 1.0 / config.barrier_mu0
    for _ in range(config.max_outer):
        z, d = _newton_center(c, batch, z, d, t, config.max_newton)
        gap = m / t
        if stop_early is not None and stop_early(z, gap):
            return z, gap, True
        if gap <= gap_target:
            return z, gap, True
        t /= config.mu_shrink
    return z, m / t, False


def _initial_point(problem: ChainProblem) -> np.ndarray:
    """Linear interpolation initializer; phase I repairs infeasibility."""
    spec = problem.spec
    N, r = spec.N, problem.reduced_dim
    z = np.zeros(problem.n_vars)
    d = spec.y - spec.x
    dg = spec.g_y - spec.g_x
    u1 = spec.f_x + float(spec.g_y @ d) - float(dg @ dg) / (2.0 * spec.L)
    b1 = spec.f_x + float(spec.g_x @ d) + float(dg @ dg) / (2.0 * spec.L)
    target = 0.5 * (u1 + b1)
    for i in range(1, N + 1):
        z[i - 1] = spec.f_x + (i / N) * (target - spec.f_x)
    for i in range(1, N):
        z[N + (i - 1) * r: N + i * r] = (
            problem.g0_red + (i / N) * (problem.gN_red - problem.g0_red)
        )
    return z


def solve(problem: ChainProblem, config: SolverConfig | None = None) -> BoundResult:
    """Solve the chain program; phase-I feasibility then barrier descent."""
    config = config or SolverConfig()
    spec = problem.spec
    cons = problem.constraints
    m = len(cons)
    sign = -1.0 if spec.direction == UPPER else 1.0  # minimize sign * f_N

    z = _initial_point(problem)
    viol = problem.max_violation(z)
    interior_margin = 1e-7
    delta = 0.0

    if viol > -interior_margin:
        # phase I: minimize slack s subject to h_j(z) - s <= 0
        s_idx = problem.n_vars
        aug = [c.with_slack(s_idx) for c in cons]
        z1 = np.append(z, viol + 1.0)
        c1 = np.zeros(problem.n_vars + 1)
        c1[s_idx] = 1.0

        def feasible_enough(zz, gap):
            return problem.max_violation(zz[:-1]) <= -interior_margin

        z1, gap1, _ = _barrier_path(
            c1, aug, z1, config, gap_target=config.feas_tol / 4.0,
            stop_early=feasible_enough,
        )
        z = z1[:-1]
        s_final = float(z1[s_idx])
        m0 = problem.max_violation(z)
        if m0 > -interior_margin:
            # certified lower bound on the minimal slack
            if s_final - gap1 > config.feas_tol:
                return BoundResult(INFEASIBLE, math.nan, [], m0, gap1)
            if s_final > config.feas_tol / 2.0 and s_final - gap1 > config.feas_tol / 2.0:
                return BoundResult(INFEASIBLE, math.nan, [], m0, gap1)
            # boundary case: relax so the phase-I point is strictly interior
            delta = max(0.0, m0) + config.feas_tol / 4.0

    work_cons = [c.shifted(delta) for c in cons] if delta > 0.0 else cons
    c2 = np.zeros(problem.n_vars)
    c2[problem.fN_index] = sign
    z, gap, converged = _barrier_path(c2, work_cons, z, config, config.newton_tol)

    status = OPTIMAL if converged else ITERATION_LIMIT
    value = float(z[problem.fN_index])
    chain = _recover_chain(problem, z)
    return BoundResult(
        status=status,
        value=value,
        chain=chain,
        max_constraint_violation=max(0.0, problem.max_violation(z)),
        duality_gap_estimate=gap,
    )


def _recover_chain(problem: ChainProblem, z: np.ndarray) -> list[PointData]:
    spec = problem.spec
    N, r = spec.N, problem.reduced_dim
    pts: list[PointData] = []
    for i in range(N + 1):
        x_i = spec.x + (i / N) * (spec.y - spec.x)
        if i == 0:
            f_i, g_i = spec.f_x, spec.g_x
        else:
            f_i = float(z[i - 1])
            if i == N:
                g_i = spec.g_y
            else:
                g_red = z[N + (i - 1) * r: N + i * r]
                g_i = problem.basis @ g_red
        pts.append(PointData(x=x_i, f=f_i, g=g_i))
    return pts


def solve_spec(spec: ChainSpec, config: SolverConfig | None = None,
               reduce: bool = True) -> BoundResult:
    return solve(build_problem(spec, reduce=reduce), config)


# --- closed forms and oracles ------------------------------------------------


def closed_form_n1(spec: ChainSpec) -> tuple[float, float, bool]:
    """(B1, U1, feasible) for the single-segment program."""
    d = spec.y - spec.x
    dg = spec.g_y - spec.g_x
    quad = float(dg @ dg) / (2.0 * spec.L)
    u1 = spec.f_x + float(spec.g_y @ d) - quad
    b1 = spec.f_x + float(spec.g_x @ d) + quad
    return b1, u1, b1 <= u1 + 1e-15


def feasibility_interval_n1(norm_y: float, norm_gy: float, L: float = 1.0) -> Interval:
    """Admissible range of <g_y, y> under x=0, g_x=0, f_x=0 normalization."""
    lo = norm_gy * norm_gy / L
    hi = norm_gy * norm_y
    if lo > hi:
        return Interval(math.nan, math.nan, empty=True)
    return Interval(lo, hi)


def oracle_grid_n2(spec: ChainSpec, resolution: int = 400) -> tuple[float, float]:
    """Brute-force (B2, U2) by grid search over the single free gradient.

    For fixed g_1 the two f-variables collapse to closed-form intervals, so
    each grid pass reduces to vectorized interval arithmetic.  Summing a
    segment's two constraints gives ||g_1 - g_0|| <= L||delta|| and likewise
    from g_2, so a box of half-width L||delta|| around (g_0+g_2)/2 covers
    the whole feasible set.  The upper objective is concave in g_1 and the
    lower one convex over that convex set, so zooming onto the best grid
    cell and re-gridding converges to the true optimum.
    """
    if spec.N != 2:
        raise RangeError("grid oracle is defined for N = 2")
    problem = build_problem(spec)
    r = problem.reduced_dim
    if r > 2:
        raise RangeError("grid oracle supports reduced dimension <= 2")
    g0, g2 = problem.g0_red, problem.gN_red
    delta = problem.delta_red
    inv2l = 1.0 / (2.0 * spec.L)

    def evaluate(G):
        q01 = inv2l * np.sum((G - g0) ** 2, axis=1)
        q12 = inv2l * np.sum((G - g2) ** 2, axis=1)
        u01 = spec.f_x + G @ delta - q01
        b01 = spec.f_x + float(g0 @ delta) + q01
        u12 = float(g2 @ delta) - q12
        b12 = G @ delta + q12
        feas = (b01 <= u01 + 1e-9) & (b12 <= u12 + 1e-9)
        return feas, b01 + b12, u01 + u12

    def grid(center, halfwidth):
        axes = [np.linspace(center[k] - halfwidth, center[k] + halfwidth,
                            resolution) for k in range(r)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    center = 0.5 * (g0 + g2)
    halfwidth = spec.L * float(np.linalg.norm(delta))
    G = grid(center, halfwidth or 1.0)
    feas, lows, ups = evaluate(G)
    if not np.any(feas):
        raise NoFeasiblePoint("no grid point satisfies the chain constraints")
    lo_at = G[feas][int(np.argmin(lows[feas]))]
    up_at = G[feas][int(np.argmax(ups[feas]))]
    lower = float(np.min(lows[feas]))
    upper = float(np.max(ups[feas]))

    spacing = 2.0 * (halfwidth or 1.0) / max(resolution - 1, 1)
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
    return lower, upper


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


def sweep(s_values, Ns, L: float = 1.0,
          config: SolverConfig | None = None) -> list[SweepRow]:
    """One row per (s, N): both chain bounds under the normalization."""
    rows: list[SweepRow] = []
    for s in s_values:
        for N in Ns:
            if s * s > 0.5 + 1e-12 or s < 0.0:
                rows.append(SweepRow(s, N, math.nan, math.nan, INFEASIBLE))
                continue
            lo = solve_spec(normalized_spec(s, N, LOWER, L), config)
            if lo.status == INFEASIBLE:
                rows.append(SweepRow(s, N, math.nan, math.nan, INFEASIBLE))
                continue
            up = solve_spec(normalized_spec(s, N, UPPER, L), config)
            status = OPTIMAL
            if INFEASIBLE in (lo.status, up.status):
                status = INFEASIBLE
            elif ITERATION_LIMIT in (lo.status, up.status):
                status = ITERATION_LIMIT
            rows.append(SweepRow(s, N, lo.value, up.value, status))
    return rows
