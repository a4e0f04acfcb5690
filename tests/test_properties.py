"""Properties of the chain program on random canonical (a, b, N).

Each draw is embedded in a spec of another dimension, scale, position and
tilt, whose canonical program is U_N(a, b).
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from openconvex.chain import (  # noqa: E402
    FEAS_BAND,
    INFEASIBLE,
    LOWER,
    OPTIMAL,
    UPPER,
    ChainSpec,
    build_problem,
    solve_spec,
)
from openconvex.interpolation import two_point_feasible  # noqa: E402


def _embedded(a, b, N, seed, direction):
    """A spec in R^d with canonical scalars (a, b), for d, L, x, y, f_x, g_x from seed."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    rho, L = math.exp(rng.uniform(-1, 1)), math.exp(rng.uniform(-1, 1))
    x = rng.normal(size=d)
    g_x = rng.normal(size=d)
    g_y = g_x + L * rho * (a * Q[:, 0] + b * Q[:, 1])
    return ChainSpec(L, x, x + rho * Q[:, 0], float(rng.normal()), g_x, g_y, N, direction)


# (a, b) = (1/2, 0) + (r/2)(cos theta, sin theta): the disk a^2 + b^2 <= a is
# r <= 1; "boundary" puts r = 1 and "flat" puts b = 0
canonical = st.tuples(
    st.floats(0.0, 1.5),
    st.floats(0.0, math.pi),
    st.sampled_from(["free", "free", "free", "boundary", "flat"]),
    st.integers(1, 8),
    st.integers(0, 2 ** 32 - 1),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(canonical)
def test_feasibility_witness_and_reversal(draw):
    r, theta, kind, N, seed = draw
    r = 1.0 if kind == "boundary" else r
    theta = math.pi * round(theta / math.pi) if kind == "flat" else theta
    a, b = 0.5 + 0.5 * r * math.cos(theta), 0.5 * r * math.sin(theta)
    up = _embedded(a, b, N, seed, UPPER)
    problem = build_problem(up)
    assert problem.gN[0] == pytest.approx(a, abs=1e-12)
    assert np.linalg.norm(problem.gN[1:]) == pytest.approx(b, abs=1e-12)
    res_up, res_lo = solve_spec(up), solve_spec(_embedded(a, b, N, seed, LOWER))

    ca = problem.gN[0]
    infeasible = float(problem.gN @ problem.gN) - ca > FEAS_BAND * max(1.0, abs(ca))
    assert (res_up.status == INFEASIBLE) == (res_lo.status == INFEASIBLE) == infeasible
    if infeasible:
        return
    for res in (res_up, res_lo):
        if res.status == OPTIMAL:
            for p0, p1 in zip(res.chain, res.chain[1:]):
                assert two_point_feasible(up.L, p0, p1)
    # B + U = a in canonical units
    base = up.f_x + float(up.g_x @ (up.y - up.x))
    total = (res_up.value - base + res_lo.value - base) / problem.scale
    assert total == pytest.approx(ca, abs=1e-12 * max(1.0, 1.0 / problem.scale))
