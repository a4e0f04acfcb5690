"""A brute-force reference for the N = 2 chain program, independent of the solver."""

import numpy as np

from openconvex.chain import ChainSpec, build_problem
from openconvex.errors import RangeError


class NoFeasiblePoint(RuntimeError):
    """A brute-force search found no feasible candidate."""


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
                            resolution) for k in range(2)]
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
