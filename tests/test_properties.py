"""Properties of the chain program on random canonical (a, b, N).

Each draw is embedded in a spec of another dimension, scale, position and
tilt, whose canonical program is U_N(a, b).  The segment interpolant of a
chain is checked the same way: in canonical units it does not depend on the
spec's units or on a rigid motion, and its derivatives do not depend on f_x.  Refinement is checked on the canonical
program itself: U_N <= U_kN up to the certified gap, also within 1e-8 of the
boundary circle a^2 + b^2 = a.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from openconvex import cli  # noqa: E402
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
from openconvex.errors import InfeasibleData  # noqa: E402
from openconvex.interpolation import (  # noqa: E402
    build_segment_interpolant,
    eval_interpolant,
)

from interpolation_helpers import two_point_feasible  # noqa: E402


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
            assert two_point_feasible(up.L, res.chain[:-1], res.chain[1:])
    # B + U = a in canonical units
    base = up.f_x + float(up.g_x @ (up.y - up.x))
    total = (res_up.value - base + res_lo.value - base) / problem.scale
    assert total == pytest.approx(ca, abs=1e-12 * max(1.0, 1.0 / problem.scale))


def _moved(a, b, N, scale, L, seed):
    """Spec with canonical (a, b, N), L ||y - x||^2 = scale, under a seeded rigid motion.

    f_x = 0 and g_x = 0, so f divided by scale is the canonical F.  The
    translation is of the order of ||y - x||: a position far from a short
    segment would already round y - x in the spec itself.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    rho = math.sqrt(scale / L)
    x = rho * rng.normal(size=d)
    g_y = L * rho * (a * Q[:, 0] + b * Q[:, 1])
    return ChainSpec(L, x, x + rho * Q[:, 0], 0.0, np.zeros(d), g_y, N, UPPER)


# canonical (a, b, N) of the interpolant properties, among them b = 0, the
# boundary a^2 + b^2 = a and N = 1
SHAPES = st.sampled_from([(0.6, 0.3, 5), (0.55, 0.1, 3), (0.7, 0.0, 2), (0.5, 0.5, 4),
                          (0.65, 0.2, 1)])


def _curve(spec, scale):
    """The solver's result, its interpolant at 101 t, and that curve / scale."""
    res = solve_spec(spec)
    assert res.status == OPTIMAL
    v, dv = eval_interpolant(build_segment_interpolant(res), np.arange(101) / 100)
    return res, np.concatenate([v, dv]) / scale


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(SHAPES, st.floats(-12.0, 10.0), st.floats(-4.0, 4.0), st.integers(0, 2 ** 32 - 1))
@example((0.6, 0.3, 5), -12.0, 0.0, 1)
@example((0.6, 0.3, 5), 0.0, 2.0, 2)
@example((0.6, 0.3, 5), 10.0, 4.0, 3)
def test_interpolant_unit_invariance(canonical, log_scale, log_L, seed):
    a, b, N = canonical
    scale = 10.0 ** log_scale
    _, unit = _curve(ChainSpec(1.0, np.zeros(2), np.array([1.0, 0.0]), 0.0,
                               np.zeros(2), np.array([a, b]), N, UPPER), 1.0)
    spec = _moved(a, b, N, scale, 10.0 ** log_L, seed)
    res, curve = _curve(spec, scale)
    assert np.max(np.abs(curve - unit)) <= 1e-12
    # the upper chain takes F_1 at the top of its interval, so raising knot 1
    # by a tenth of a canonical unit breaks pair (0, 1) at any scale
    f = res.knots.f.copy()
    f[1] += 0.1
    with pytest.raises(InfeasibleData, match=r"pair \(0, 1\)"):
        build_segment_interpolant(dataclasses.replace(res, knots=dataclasses.replace(
            res.knots, f=f)))


def _interpolate_rows(spec, directory) -> list[list[str]]:
    """The cells of ``interpolate``'s CSV for spec at the default 101 t, header dropped."""
    path, out = directory / "spec.json", directory / "interp.csv"
    path.write_text(json.dumps({"L": spec.L, "x": spec.x.tolist(), "y": spec.y.tolist(),
                                "f_x": spec.f_x, "g_x": spec.g_x.tolist(),
                                "g_y": spec.g_y.tolist(), "N": spec.N}))
    assert cli.main(["interpolate", "--in", str(path), "--out", str(out)]) == cli.EXIT_OK
    return [row.split(",") for row in out.read_text().split("\n")[1:-1]]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(SHAPES, st.floats(-12.0, 10.0), st.floats(-4.0, 4.0), st.integers(0, 2 ** 32 - 1),
       st.floats(-1e15, 1e15))
@example((0.6, 0.3, 5), 0.0, 0.0, 1, 1e8)
@example((0.6, 0.3, 5), 0.0, 0.0, 2, 1e12)
@example((0.55, 0.1, 3), 4.0, 2.0, 3, -1e15)
def test_interpolate_does_not_depend_on_f_x(tmp_path_factory, canonical, log_scale, log_L,
                                            seed, f_x):
    # f_x tilts f by a constant, which the two-point conditions do not see:
    # the derivatives keep their bits, and the values move by f_x up to the
    # rounding of adding it (ulp(1e15) = 0.125, so no bound relative to
    # L ||y - x||^2 alone can hold for the values themselves)
    a, b, N = canonical
    scale = 10.0 ** log_scale
    spec = _moved(a, b, N, scale, 10.0 ** log_L, seed)
    directory = tmp_path_factory.mktemp("tilt")
    base = _interpolate_rows(spec, directory)
    tilted = _interpolate_rows(dataclasses.replace(spec, f_x=f_x), directory)
    assert [(t, dv) for t, _, dv in tilted] == [(t, dv) for t, _, dv in base]
    value, value0 = (np.array([float(v) for _, v, _ in rows]) for rows in (tilted, base))
    eps = np.finfo(float).eps
    assert np.all(np.abs(value - f_x - value0) <= 4 * eps * abs(f_x) + 1e-12 * scale)


def _canonical_spec(a, b, N):
    """The canonical spec of U_N(a, b): L = 1, x = 0, y = e_1, f_x = 0, g_x = 0."""
    return ChainSpec(1.0, np.zeros(2), np.array([1.0, 0.0]), 0.0, np.zeros(2),
                     np.array([a, b]), N, UPPER)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, math.pi), st.floats(0.0, 1.0), st.booleans(), st.floats(-12.0, -8.0),
       st.integers(1, 6), st.sampled_from([2, 3, 5]))
@example(0.5, 0.0, True, -12.0, 5, 5)
@example(0.5, 0.0, True, -8.0, 1, 2)
def test_refinement_monotone(theta, r, near_boundary, log_distance, N, k):
    # (a, b) = (1/2, 0) + (r/2)(cos theta, sin theta) lies (1 - r)/2 inside the
    # circle a^2 + b^2 = a; near_boundary puts it 1e-12 to 1e-8 inside
    if near_boundary:
        r = 1.0 - 2.0 * 10.0 ** log_distance
    a, b = 0.5 + 0.5 * r * math.cos(theta), 0.5 * r * math.sin(theta)
    coarse, fine = solve_spec(_canonical_spec(a, b, N)), solve_spec(_canonical_spec(a, b, k * N))
    assert coarse.status == fine.status == OPTIMAL
    # a feasible N-chain refines to a feasible kN-chain, so U_N <= U_kN
    assert coarse.value <= fine.value + fine.duality_gap_estimate + 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, math.pi), st.floats(0.0, 1.0), st.integers(1, 6),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(0, 2 ** 32 - 1))
@example(1.0, 0.5, 5, -3.0, 3.0, 1)
@example(1.0, 0.5, 5, 3.0, -3.0, 2)
def test_scale_motion_and_tilt_invariance(theta, r, N, log_L, log_rho, seed):
    a, b = 0.5 + 0.5 * r * math.cos(theta), 0.5 * r * math.sin(theta)
    L, rho = 10.0 ** log_L, 10.0 ** log_rho
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    c, c0 = rng.normal(size=3), float(rng.normal())
    x = rng.normal(size=3)
    y = x + rho * Q[:, 0]
    g_y = c + L * rho * (a * Q[:, 0] + b * Q[:, 1])
    # f + c0 + <c, z> for an f with f(x) = 0 and grad f(x) = 0
    spec = ChainSpec(L, x, y, c0 + float(c @ x), c, g_y, N, UPPER)
    unit, res = solve_spec(_canonical_spec(a, b, N)), solve_spec(spec)
    assert unit.status == res.status == OPTIMAL
    scale, tilt = L * rho * rho, c0 + float(c @ y)
    tol = (scale * unit.duality_gap_estimate + res.duality_gap_estimate
           + 1e-12 * max(scale, abs(c0) + abs(float(c @ y))))
    assert abs(res.value - (tilt + scale * unit.value)) <= tol
