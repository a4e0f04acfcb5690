"""Chain programs, closed forms, oracles, and the barrier solver."""

import json
import math

import numpy as np
import pytest

from openconvex import chain, cli
from openconvex.chain import (
    INFEASIBLE,
    LOWER,
    OPTIMAL,
    UPPER,
    ChainSpec,
    build_problem,
    closed_form_n1,
    normalized_spec,
    solve_spec,
    sweep,
)
from openconvex.errors import (
    DegenerateError,
    DimensionMismatch,
    RangeError,
)

from grid_oracle import NoFeasiblePoint, oracle_grid_n2
from interpolation_helpers import two_point_feasible


def _spec(s, N, direction=UPPER):
    return normalized_spec(s, N, direction)


class TestSpecValidation:
    def test_bad_direction(self):
        with pytest.raises(RangeError):
            ChainSpec(1.0, np.zeros(2), np.ones(2), 0.0, np.zeros(2),
                      np.zeros(2), 1, "sideways")

    def test_coincident_endpoints(self):
        with pytest.raises(DegenerateError):
            ChainSpec(1.0, np.zeros(2), np.zeros(2), 0.0, np.zeros(2),
                      np.zeros(2), 1)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ChainSpec(1.0, np.zeros(2), np.ones(2), 0.0, np.zeros(3),
                      np.zeros(2), 1)

    def test_nonpositive_l(self):
        with pytest.raises(RangeError):
            ChainSpec(0.0, np.zeros(2), np.ones(2), 0.0, np.zeros(2),
                      np.zeros(2), 1)

    @pytest.mark.parametrize("field, value", [
        ("L", math.inf), ("L", math.nan), ("f_x", math.nan), ("f_x", -math.inf),
        ("x", [math.nan, 0.0]), ("y", [1.0, math.inf]),
        ("g_x", [0.0, math.nan]), ("g_y", [math.nan, 0.5]),
    ])
    def test_non_finite_rejected(self, field, value):
        args = dict(L=1.0, x=np.zeros(2), y=np.array([1.0, 0.0]), f_x=0.0,
                    g_x=np.zeros(2), g_y=np.array([0.6, 0.3]), N=2)
        args[field] = value
        with pytest.raises(RangeError):
            ChainSpec(**args)

    # what numpy or float() would read as a number: a bool as 0 or 1, a
    # string as its value, and a nested list as a 2-D vector
    @pytest.mark.parametrize("field, value", [
        ("L", True), ("f_x", False), ("x", ["0", "0"]), ("g_y", [True, False]),
        ("y", [[1, 0]]), ("L", "1"), ("f_x", None), ("g_x", np.array([True, False])),
        ("y", 1.0),
    ], ids=["L-bool", "f_x-bool", "x-strings", "g_y-bools", "y-nested", "L-string",
            "f_x-None", "g_x-bool-array", "y-scalar"])
    def test_non_numbers_refused(self, field, value):
        args = dict(L=1.0, x=[0, 0], y=[1, 0], f_x=0.0, g_x=[0, 0], g_y=[0.6, 0.3], N=2)
        args[field] = value
        with pytest.raises(TypeError, match=f"^{field} must be "):
            ChainSpec(**args)

    def test_numbers_of_every_kind_accepted(self):
        # ints of any size that fits a float, numpy scalars and arrays
        spec = ChainSpec(10**20, [0, 0], np.array([1, 0]), np.float32(0.5), [np.int64(0), 0.0],
                         (6e19, 3e19), 2)
        assert (spec.L, spec.f_x) == (1e20, 0.5)
        assert all(v.dtype == np.float64 and v.shape == (2,)
                   for v in (spec.x, spec.y, spec.g_x, spec.g_y))
        with pytest.raises(OverflowError):
            ChainSpec(10**400, [0, 0], [1, 0], 0.0, [0, 0], [0.6, 0.3], 2)

    # ChainSpec holds the data; build_problem, the one canonicalizer, refuses
    # a scale or a ||g_hat|| past the float range, including a g_hat whose
    # across-component alone overflows while a stays small, and a spec whose
    # end value f_x + <g_x, y - x> + L rho^2 U, tilt slope <g_x, y - x> or
    # infeasible violation in spec units would overflow
    @pytest.mark.parametrize("change", [
        {"L": 1e200, "y": [1e200, 0], "g_y": [1e300, 5e299]},
        {"y": [1e-170, 0], "g_y": [5e-171, 5e-171]},
        {"g_y": [1e200, 1e200]}, {"g_y": [0, 1e200]}, {"g_y": [0.6, 1e200]},
        {"f_x": 1e308, "g_x": [1e308, 0], "g_y": [1e308, 0], "N": 3},
        {"x": [0], "y": [1e10], "g_x": [1e300], "g_y": [1e300], "N": 2},
        {"x": [0], "y": [1e145], "g_x": [0], "g_y": [1e155]},
    ], ids=["scale-overflow", "scale-underflow", "g-hat-overflow",
            "across-overflow", "across-overflow-a", "value-overflow", "slope-overflow",
            "violation-overflow"])
    def test_canonical_form_out_of_range(self, change):
        args = dict(L=1.0, x=[0, 0], y=[1, 0], f_x=0.0, g_x=[0, 0], g_y=[0.6, 0.3], N=1)
        spec = ChainSpec(**dict(args, **change))
        with pytest.raises(RangeError, match="float64 range"):
            build_problem(spec)
        with pytest.raises(RangeError, match="float64 range"):
            solve_spec(spec)

    def test_normalized_out_of_range(self):
        # s^2 may pass 1/2 by rounding only: sqrt(1/2) is accepted, and an s
        # with s^2 = 1/2 + 1e-10 is refused
        assert normalized_spec(math.sqrt(0.5), 1).g_y[1] == 0.0
        for s in (0.75, math.sqrt(0.5 + 1e-10)):
            with pytest.raises(RangeError):
                normalized_spec(s, 1)

    @pytest.mark.parametrize("N", [0, chain.MAX_N + 1, 10**20])
    def test_chain_length_out_of_range(self, N):
        # a chain longer than MAX_N is refused, not left to fail in
        # allocating its N + 1 knots
        args = (1.0, np.zeros(2), np.array([1.0, 0.0]), 0.0, np.zeros(2), np.array([0.6, 0.3]))
        assert ChainSpec(*args, chain.MAX_N).N == chain.MAX_N
        with pytest.raises(RangeError):
            ChainSpec(*args, N)

    def test_chain_length_limit_is_one_million(self):
        args = (1.0, np.zeros(2), np.array([1.0, 0.0]), 0.0, np.zeros(2), np.array([0.6, 0.3]))
        assert ChainSpec(*args, 1_000_000).N == 1_000_000
        with pytest.raises(RangeError, match="1000000"):
            ChainSpec(*args, 1_000_001)


class TestProblemShape:
    def test_n1_sizes(self):
        p = build_problem(_spec(0.6, 1))
        G = np.array([[0.0, 0.0], p.gN])
        K = chain._upper_ends(p, G)
        assert K.shape == (2, 3)
        assert chain._constraint_values(p, K).shape == (1, 2)
        # F_N is the last knot's first entry: U_1 = a - (a^2 + b^2)/2
        assert K[-1, 0] == pytest.approx(0.35, abs=1e-15)

    def test_n3_sizes(self):
        p = build_problem(_spec(0.6, 3))
        # the normalized family spans only 2 directions (g_x = 0)
        assert p.gN.size == 2
        G = (np.arange(4) / 3)[:, None] * p.gN
        K = chain._upper_ends(p, G)
        assert K.shape == (4, 3)
        assert np.array_equal(K[0], np.zeros(3))
        assert np.array_equal(K[-1, 1:], p.gN)
        h = chain._constraint_values(p, K)
        assert h.shape == (3, 2)
        # the upper ends make every h1 tight
        assert np.max(np.abs(h[:, 0])) <= 1e-15

    def test_reduction_caps_dimension(self):
        rng = np.random.default_rng(3)
        spec = ChainSpec(
            L=1.0,
            x=np.zeros(5),
            y=rng.normal(size=5),
            f_x=0.0,
            g_x=rng.normal(size=5) * 0.1,
            g_y=rng.normal(size=5) * 0.1,
            N=4,
            direction=UPPER,
        )
        p = build_problem(spec)
        assert p.gN.size == 2 and p.gN[1] > 0
        assert p.basis.shape == (5, 2)
        assert np.allclose(p.basis.T @ p.basis, np.eye(2), atol=1e-14)
        # g_y - g_x parallel to y - x (s = sqrt(1/2)): b = 0 and the second
        # basis column is exactly zero
        p = build_problem(_spec(math.sqrt(0.5), 3))
        assert p.gN.size == 2 and p.gN[1] == 0.0
        assert p.basis.shape == (2, 2)
        assert np.array_equal(p.basis, [[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("direction", [UPPER, LOWER])
    def test_one_dimensional_spec_is_its_planar_embedding(self, direction, tmp_path):
        # d = 1 through the barrier (N = 3): the same canonical program as the
        # spec embedded in the plane, so the same result bit for bit
        line = ChainSpec(1.0, [0.0], [1.0], 0.0, [0.0], [0.6], N=3, direction=direction)
        plane = ChainSpec(1.0, [0.0, 0.0], [1.0, 0.0], 0.0, [0.0, 0.0], [0.6, 0.0],
                          N=3, direction=direction)
        got, want = solve_spec(line), solve_spec(plane)
        assert got.status == want.status == OPTIMAL
        assert got.value == want.value
        assert np.array_equal(got.knots, want.knots)
        assert got.chain.g.shape == (4, 1)
        assert np.array_equal(got.chain.g[:, 0], want.chain.g[:, 0])
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"L": 1, "x": [0], "y": [1], "f_x": 0, "g_x": [0],
                                    "g_y": [0.6], "N": 3, "direction": direction}))
        assert cli.main(["interpolate", "--in", str(path),
                         "--out", str(tmp_path / "interp.csv")]) == cli.EXIT_OK

    def test_canonical_scalars(self):
        # (a, b) are the components of (g_y - g_x)/(L rho) along and across y - x
        spec = ChainSpec(L=2.0, x=np.array([1.0, 1.0]), y=np.array([1.0, 4.0]),
                         f_x=5.0, g_x=np.array([1.0, 0.0]), g_y=np.array([4.0, 3.0]), N=2)
        p = build_problem(spec)
        assert p.gN == pytest.approx([0.5, 0.5], abs=1e-15)
        assert p.scale == pytest.approx(18.0, abs=1e-12)

    def test_constraint_values_at_known_point(self):
        # N=1, s = 0.5: both constraints are tight at f_1 = 1/4
        p = build_problem(_spec(0.5, 1))
        K = np.array([[0.0, 0.0, 0.0], [0.25, *p.gN]])
        h = chain._constraint_values(p, K)
        assert h.shape == (1, 2)
        assert np.max(np.abs(h)) <= 1e-12
        # N=2 on the boundary (a, b) = (1/2, 1/2): the straight chain with F
        # at the upper ends is tight on both segments, G_1 != 0 included
        K = np.array([[0.0, 0.0, 0.0], [1 / 16, 1 / 4, 1 / 4], [1 / 4, 1 / 2, 1 / 2]])
        assert not chain._constraint_values(build_problem(_spec(0.5, 2)), K).any()


class TestClosedFormN1:
    def test_s_half(self):
        b1, u1, feas = closed_form_n1(_spec(0.5, 1))
        assert feas
        assert b1 == pytest.approx(0.25, abs=1e-15)
        assert u1 == pytest.approx(0.25, abs=1e-15)

    def test_s_sqrt_half(self):
        s = math.sqrt(0.5)
        b1, u1, feas = closed_form_n1(_spec(s, 1))
        assert feas
        assert b1 == pytest.approx(0.25, abs=1e-12)
        assert u1 == pytest.approx(s - 0.25, abs=1e-12)

    def test_s_0_6(self):
        b1, u1, feas = closed_form_n1(_spec(0.6, 1))
        assert feas
        assert b1 == pytest.approx(0.25, abs=1e-15)
        assert u1 == pytest.approx(0.35, abs=1e-15)

    def test_counterexample_value_below_b1(self):
        # the program itself is feasible (f_N is free), but the function's
        # actual value at y sits strictly below the N = 1 lower bound: that
        # is exactly the co-coercivity violation
        spec = ChainSpec(
            L=1.0,
            x=np.zeros(2),
            y=np.array([2.0, 0.0]),
            f_x=0.0,
            g_x=np.zeros(2),
            g_y=np.array([253.0 / 240.0, 77.0 / 120.0]),
            N=1,
        )
        b1, u1, feas = closed_form_n1(spec)
        assert feas
        assert b1 == pytest.approx(17545.0 / 23040.0, abs=1e-12)
        assert 16991.0 / 23040.0 < b1 - 1e-3

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e5])
    @pytest.mark.parametrize("b, feasible", [(0.5 + 1e-6, False), (0.5, True)],
                             ids=["margin-1e-6", "boundary"])
    def test_flag_agrees_with_solve_at_every_scale(self, c, b, feasible):
        # a - a^2 - b^2 is about -1e-6 or 0 at a = 1/2, in specs whose
        # L ||y - x||^2 = c^2 spans 1e-12 to 1e10
        spec = ChainSpec(1.0, np.zeros(2), np.array([c, 0.0]), 0.0, np.zeros(2),
                         c * np.array([0.5, b]), 1)
        _, _, feas = closed_form_n1(spec)
        assert feas is feasible
        assert (solve_spec(spec).status == OPTIMAL) is feasible


def u2_closed_form(a: float, b: float) -> float:
    """U_2(a, b) as the projection of a point onto a lens.

    With G_1 = x and g = (a, b), the objective is
    -||x - p||^2 + ||p||^2 + a/2 - ||g||^2/2 with p = g/2 + e_1/4, over the
    lens D n (g - D), D the disk with centre e_1/4 and radius 1/4.  The
    projection of p onto either disk is its projection onto the lens if it
    lies in the other disk; otherwise the lens corner nearer p is.  Points
    of the plane are complex numbers here.
    """
    g, r = complex(a, b), 0.25
    p = g / 2 + r
    centres = (r, g - r)

    def project(c):
        return p if abs(p - c) <= r else c + r * (p - c) / abs(p - c)

    x = [project(c) for c, other in (centres, centres[::-1])
         if abs(project(c) - other) <= r * (1 + 1e-12)]
    if not x:
        d = g - 2 * r
        h = math.sqrt(max(0.0, r * r - abs(d) ** 2 / 4))
        x = [g / 2 + sign * h * 1j * d / abs(d) for sign in (1, -1)]
    x = min(x, key=lambda z: abs(z - p))
    return -abs(x - p) ** 2 + abs(p) ** 2 + a / 2 - abs(g) ** 2 / 2


class TestClosedFormN2:
    def test_default_sweep_cells(self, default_sweep):
        # the normalized spec has (a, b) = (s, sqrt(1/2 - s^2)) in canonical units
        rows = [r for r in default_sweep if r.N == 2]
        assert len(rows) == 60
        for r in rows:
            u2 = u2_closed_form(r.s, math.sqrt(max(0.0, 0.5 - r.s * r.s)))
            assert r.status == OPTIMAL
            assert r.U == pytest.approx(u2, abs=1e-8)
            if r.s == 0.5:  # the lens is the one point g/2
                assert u2 == pytest.approx(0.25, abs=1e-15)

    def test_seeded_interior_points(self):
        # (a, b) uniform in the open half-disk (a - 1/2)^2 + b^2 < 1/4, b > 0
        rng = np.random.default_rng(2)
        radius = 0.5 * np.sqrt(rng.uniform(1e-6, 1 - 1e-6, 100))
        angle = rng.uniform(1e-6, math.pi - 1e-6, 100)
        for a, b in zip(0.5 + radius * np.cos(angle), radius * np.sin(angle)):
            spec = ChainSpec(1.0, np.zeros(2), np.array([1.0, 0.0]), 0.0, np.zeros(2),
                             np.array([a, b]), 2)
            res = solve_spec(spec)
            assert res.status == OPTIMAL
            assert res.value == pytest.approx(u2_closed_form(a, b), abs=1e-8)


class TestSolverN1:
    @pytest.mark.parametrize("s", [0.5, 0.55, 0.6, 0.65, math.sqrt(0.5)])
    def test_matches_closed_form(self, s):
        b1, u1, _ = closed_form_n1(_spec(s, 1))
        lo = solve_spec(_spec(s, 1, LOWER))
        up = solve_spec(_spec(s, 1, UPPER))
        assert lo.status == OPTIMAL and up.status == OPTIMAL
        assert lo.value == pytest.approx(b1, abs=1e-12)
        assert up.value == pytest.approx(u1, abs=1e-12)

    @pytest.mark.parametrize("s", [0.4, 0.45])
    def test_infeasible_below_half(self, s):
        res = solve_spec(_spec(s, 1, LOWER))
        assert res.status == INFEASIBLE
        assert math.isnan(res.value)
        assert res.chain.f.shape == (0,)

    def test_violation_within_tolerance(self):
        res = solve_spec(_spec(0.6, 1, UPPER))
        assert res.max_constraint_violation <= 1e-8


class TestBoundary:
    """a^2 + b^2 = a: the feasible set is the single chain G_i = (i/N)(a, b)."""

    @pytest.mark.parametrize("direction", [UPPER, LOWER])
    @pytest.mark.parametrize("N", [1, 2, 5, 50])
    def test_s_half_is_a_quarter(self, N, direction):
        res = solve_spec(_spec(0.5, N, direction))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(0.25, abs=1e-12)
        assert res.duality_gap_estimate == 0.0

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_refinement_near_boundary(self, k):
        # U_N - 1/4 shrinks like sqrt(s - 1/2) and U_N rises towards its
        # limit as N grows, so U_50 may exceed U_5 by a small part of U_5 - 1/4
        s = 0.5 + 10.0 ** -k
        u5 = solve_spec(_spec(s, 5)).value
        u50 = solve_spec(_spec(s, 50)).value
        assert u5 <= u50 <= u5 + 0.05 * (u5 - 0.25)

    @pytest.mark.parametrize("eps", [1e-9, 1e-7])
    def test_refinement_just_above_half(self, eps):
        # refining a feasible chain keeps it feasible, so U_1 <= U_5 <= U_50;
        # here every disk slack starts at m/N^2 with m = eps
        u1, u5, u50 = (solve_spec(_spec(0.5 + eps, N)).value for N in (1, 5, 50))
        assert u1 <= u5 + 1e-12
        assert u5 <= u50 + 1e-12


class TestSolverGeneral:
    def test_n2_against_grid_oracle(self):
        spec = _spec(0.6, 2)
        b2o, u2o = oracle_grid_n2(spec, resolution=400)
        lo = solve_spec(_spec(0.6, 2, LOWER))
        up = solve_spec(_spec(0.6, 2, UPPER))
        assert lo.value == pytest.approx(b2o, abs=2e-3)
        assert up.value == pytest.approx(u2o, abs=2e-3)

    def test_reduction_agrees_with_full_space(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(5)
        y = rng.normal(size=4)
        spec = ChainSpec(
            L=1.3,
            x=np.zeros(4),
            y=y,
            f_x=0.1,
            g_x=0.05 * rng.normal(size=4),
            g_y=0.6 * y / np.linalg.norm(y),
            N=3,
            direction=UPPER,
        )
        red = solve_spec(spec)
        assert red.status == OPTIMAL
        # the same program over f_1..f_N and g_1..g_{N-1} in the full space
        N, d = spec.N, spec.x.size
        step = (spec.y - spec.x) / N

        def unpack(v):
            f = np.concatenate([[spec.f_x], v[:N]])
            g = np.vstack([spec.g_x, v[N:].reshape(N - 1, d), spec.g_y])
            return f, g

        def slacks(v):
            f, g = unpack(v)
            q = np.sum((g[:-1] - g[1:]) ** 2, axis=1) / (2.0 * spec.L)
            df = f[1:] - f[:-1]
            return np.concatenate([df - g[:-1] @ step - q, g[1:] @ step - df - q])

        frac = np.arange(1, N + 1) / N
        # start from the linear interpolation of the endpoint data
        g0 = spec.g_x + np.outer(frac[:-1], spec.g_y - spec.g_x)
        v0 = np.concatenate([spec.f_x + frac * float(spec.g_x @ (spec.y - spec.x)), g0.ravel()])
        full = optimize.minimize(lambda v: -v[N - 1], v0, method="SLSQP",
                                 constraints=[{"type": "ineq", "fun": slacks}],
                                 options={"ftol": 1e-14, "maxiter": 500})
        assert full.success
        assert np.min(slacks(full.x)) >= -1e-10
        # the barrier point is within its certified gap of the optimum
        assert abs(red.value - full.x[N - 1]) <= red.duality_gap_estimate

    def test_chain_endpoints_pinned(self):
        res = solve_spec(_spec(0.6, 5, LOWER))
        spec = _spec(0.6, 5, LOWER)
        assert res.chain.f.shape == (6,)
        assert np.allclose(res.chain[0].x, spec.x)
        assert np.allclose(res.chain[-1].x, spec.y)
        assert res.chain[0].f == spec.f_x
        assert np.allclose(res.chain[0].g, spec.g_x)
        assert np.allclose(res.chain[-1].g, spec.g_y)
        assert res.chain[-1].f == pytest.approx(res.value, abs=0.0)

    def test_translation_invariance(self):
        base = _spec(0.6, 2, UPPER)
        shifted = ChainSpec(
            L=base.L,
            x=base.x + np.array([3.0, -1.0]),
            y=base.y + np.array([3.0, -1.0]),
            f_x=base.f_x + 2.0,
            g_x=base.g_x,
            g_y=base.g_y,
            N=base.N,
            direction=UPPER,
        )
        r0 = solve_spec(base)
        r1 = solve_spec(shifted)
        assert r1.value - r0.value == pytest.approx(2.0, abs=1e-6)

    def test_role_swap_preserves_feasibility(self):
        # exchanging the endpoint roles (and the bound direction) describes
        # the same function class, so feasibility verdicts must agree
        for s, feasible in ((0.6, True), (0.4, False)):
            fwd = _spec(s, 2, LOWER)
            swapped = ChainSpec(
                L=fwd.L, x=fwd.y, y=fwd.x, f_x=0.0,
                g_x=fwd.g_y, g_y=fwd.g_x, N=2, direction=UPPER,
            )
            rf = solve_spec(fwd)
            rs = solve_spec(swapped)
            assert (rf.status == INFEASIBLE) == (not feasible)
            assert (rs.status == INFEASIBLE) == (not feasible)


class TestOracle:
    def test_requires_n2(self):
        with pytest.raises(RangeError):
            oracle_grid_n2(_spec(0.6, 3))

    def test_infeasible_spec(self):
        with pytest.raises(NoFeasiblePoint):
            oracle_grid_n2(_spec(0.4, 2), resolution=150)

    def test_boundary_collapse(self):
        # at s = 1/2 the feasible set is a single chain for every N
        b2, u2 = oracle_grid_n2(_spec(0.5, 2), resolution=301)
        assert b2 == pytest.approx(0.25, abs=2e-3)
        assert u2 == pytest.approx(0.25, abs=2e-3)


class TestSweep:
    def test_rows_and_statuses(self):
        rows = sweep([0.4, 0.6], [1, 2])
        assert [(r.s, r.N) for r in rows] == [(0.4, 1), (0.4, 2), (0.6, 1), (0.6, 2)]
        assert rows[0].status == INFEASIBLE and math.isnan(rows[0].B)
        assert rows[2].status == OPTIMAL
        assert rows[2].B == pytest.approx(0.25, abs=1e-6)
        assert rows[2].U == pytest.approx(0.35, abs=1e-6)

    def test_bounds_ordered(self):
        for row in sweep([0.55, 0.65], [1, 2, 5]):
            assert row.status == OPTIMAL
            assert row.B <= row.U + 1e-9
            assert row.B == row.s - row.U

    def test_one_solve_per_cell(self, monkeypatch):
        # the lower bound comes from the upper solve by reversal
        calls = []
        real = chain.solve_spec
        monkeypatch.setattr(chain, "solve_spec",
                            lambda spec: calls.append(spec) or real(spec))
        # s < 1/2 with s^2 <= 1/2 solves to Infeasible like any other s < 1/2
        rows = sweep([-0.3, 0.4, 0.55, 0.65], [1, 3])
        assert len(calls) == len(rows) == 8
        assert all(spec.direction == UPPER for spec in calls)
        assert [r.status for r in rows] == [INFEASIBLE] * 4 + [OPTIMAL] * 4

    def test_s_outside_the_family_refused(self):
        # the normalized family needs s^2 <= ||g_y||^2 = 1/2
        with pytest.raises(RangeError):
            sweep([0.75], [1])


class TestLineSearch:
    """The Newton step and the closed-form slacks and barrier change behind its
    line search, on the offsets u_j = D_j - e_1/(2N) the barrier carries."""

    T = 1.0  # nothing cancels at t = 1, so direct differences are accurate

    @staticmethod
    def _interior(s):
        # the start u_j = (a, b)/N - e_1/(2N), where every disk slack is
        # width = m/N^2, moved by a small seeded perturbation; the direction du
        # is scaled to the same width and sums to 0, as a Newton step does;
        # both stay in the span of the basis, so at b = 0 their second
        # coordinates are exactly 0
        N = 5
        problem = build_problem(_spec(s, N))
        span = problem.basis.any(axis=0)
        width = (problem.gN[0] - float(problem.gN @ problem.gN)) / N ** 2
        rng = np.random.default_rng(7)
        u = problem.gN / N - (0.5 / N, 0.0) + 0.05 * width * rng.normal(size=(N, 2)) * span
        assert np.all(chain._disk_slacks(u) > 0.5 * width)
        du = width * rng.normal(size=(N, 2)) * span
        w = (N - np.arange(N)) / N
        return w, u, du - du.mean(axis=0), width

    @pytest.fixture
    def interior(self):
        return self._interior(0.7)

    @staticmethod
    def _increments(u):
        return u + (0.5 / u.shape[0], 0.0)

    @classmethod
    def _value(cls, w, u):
        # the centering objective t sum_j [1/2 |D_j|^2 - w_j D_j,1] - sum_j log s_j
        D = cls._increments(u)
        return (cls.T * float(0.5 * np.sum(D * D) - w @ D[:, 0])
                - float(np.sum(np.log(chain._disk_slacks(u)))))

    @staticmethod
    def _rates(u, du):
        return 2.0 * np.sum(u * du, axis=1), 2.0 * np.sum(du * du, axis=1)

    @classmethod
    def _blocks(cls, u):
        # H_j = (t + 2/s_j) I + (4/s_j^2) u_j u_j', one 2 x 2 block per increment
        s = chain._disk_slacks(u)
        return ((cls.T + 2.0 / s)[:, None, None] * np.eye(2)
                + (4.0 / s ** 2)[:, None, None] * u[:, :, None] * u[:, None, :])

    def test_predicted_slacks_match_direct_evaluation(self, interior):
        _, u, du, _ = interior
        s = chain._disk_slacks(u)
        a, b = self._rates(u, du)
        for alpha in (0.0, 0.1, 0.5, 1.0, 2.0):
            predicted = s - alpha * a - 0.5 * alpha ** 2 * b
            direct = chain._disk_slacks(u + alpha * du)
            assert np.max(np.abs(predicted - direct) / np.abs(direct)) <= 1e-12

    def test_exact_change_matches_barrier_difference(self, interior):
        w, u, du, _ = interior
        s = chain._disk_slacks(u)
        a, b = self._rates(u, du)
        lin = self.T * float(np.sum(self._increments(u) * du) - w @ du[:, 0])
        quad = self.T * float(np.sum(du * du))
        checked = 0
        for alpha in (1e-3, 0.01, 0.1, 0.25):
            if np.any(chain._disk_slacks(u + alpha * du) <= 0.0):
                continue
            exact = chain._step_change(alpha, lin, quad, a, b, s)
            direct = self._value(w, u + alpha * du) - self._value(w, u)
            assert exact == pytest.approx(direct, rel=1e-9, abs=1e-12)
            checked += 1
        assert checked >= 2

    def test_step_outside_interior_is_rejected(self, interior):
        _, u, du, _ = interior
        a, b = self._rates(u, du)
        # far enough along du every increment leaves its disk
        assert chain._step_change(1e6, 0.0, 0.0, a, b, chain._disk_slacks(u)) == math.inf

    def test_gradient_and_hessian_match_differences(self, interior):
        # the per-block gradient against central differences of the centering
        # objective, and the blocks H_j against central differences of it
        w, u, _, width = interior

        def grad(uu):
            return chain._newton_step(w, uu, chain._disk_slacks(uu), self.T)[0]

        g, H = grad(u), self._blocks(u)
        h = 1e-4 * width
        for j, k in np.ndindex(u.shape):
            e = np.zeros(u.shape)
            e[j, k] = h
            assert g[j, k] == pytest.approx(
                (self._value(w, u + e) - self._value(w, u - e)) / (2 * h), rel=1e-6, abs=1e-8)
            column = (grad(u + e) - grad(u - e)) / (2 * h)
            assert column[j] == pytest.approx(H[j, :, k], rel=1e-6, abs=1e-8)
            # the Hessian is block diagonal: no other increment moves
            assert np.delete(column, j, axis=0) == pytest.approx(0.0, abs=1e-6)

    # s = 0.7 has b > 0; s = sqrt(1/2) has b = 0 and m > 0; the closed-form
    # 2 x 2 solve is worst conditioned at t = 1e10
    @pytest.mark.parametrize("s, t", [(0.7, 1.0), (0.7, 1e6), (0.7, 1e10),
                                      (math.sqrt(0.5), 1.0), (math.sqrt(0.5), 1e6),
                                      (math.sqrt(0.5), 1e10)],
                             ids=["1.0", "1000000.0", "10000000000.0",
                                  "b0-1.0", "b0-1000000.0", "b0-10000000000.0"])
    def test_step_solves_full_kkt_system(self, s, t):
        # the block-eliminated step against the dense KKT system
        #   [blockdiag(H_j)  A'] [du]   [-g]
        #   [A               0 ] [nu] = [ 0],   A = [I I ... I]
        w, u, _, _ = self._interior(s)
        N = u.shape[0]
        g, du, nu = chain._newton_step(w, u, chain._disk_slacks(u), t)
        blocks = self._blocks(u) + (t - self.T) * np.eye(2)
        kkt = np.zeros((2 * N + 2, 2 * N + 2))
        for j in range(N):
            kkt[2 * j:2 * j + 2, 2 * j:2 * j + 2] = blocks[j]
        kkt[:2 * N, 2 * N:] = np.tile(np.eye(2), (N, 1))
        kkt[2 * N:, :2 * N] = kkt[:2 * N, 2 * N:].T
        ref = np.linalg.solve(kkt, np.concatenate([-g.ravel(), np.zeros(2)]))
        got = np.concatenate([du.ravel(), nu])
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
        assert np.max(np.abs(du.sum(axis=0))) <= 1e-10 * np.max(np.abs(du))
        if s == math.sqrt(0.5):
            # at b = 0 the second coordinate of the step and multiplier is exactly 0
            assert not u[:, 1].any()
            assert not du[:, 1].any() and nu[1] == 0.0


class TestReversalPrecision:
    @pytest.mark.parametrize("s", [0.5, 0.55, 0.6, 0.65, math.sqrt(0.5)])
    def test_lower_and_upper_sum_to_s(self, s):
        # reversing the chain maps the lower program onto the upper one: B = s - U
        lo = solve_spec(_spec(s, 50, LOWER))
        up = solve_spec(_spec(s, 50, UPPER))
        assert lo.status == up.status == OPTIMAL
        assert abs(lo.value + up.value - s) <= 1e-11


class TestRecordedValues:
    """U_N of the normalized family, held to values recorded to 17 digits.

    The barrier stops at the gap N/t <= 1e-8, so any solver of the same
    program, or another rounding of this one, must agree within 1e-8.
    """

    RECORDED = {
        0.55: (0.33055121101222301, 0.33674365800305167, 0.33787062354425995),
        0.6: (0.37637625748660053, 0.38398009576710501, 0.38539496243679411),
        0.65: (0.41427669324863686, 0.42196415128671672, 0.42354495573119655),
        0.7: (0.45177669324863695, 0.45292084612670813, 0.45374594332363977),
    }

    @pytest.mark.parametrize("s", sorted(RECORDED))
    def test_recorded_upper_bounds(self, s):
        for N, recorded in zip((2, 5, 50), self.RECORDED[s]):
            res = solve_spec(_spec(s, N))
            assert res.status == OPTIMAL
            assert abs(res.value - recorded) <= 1e-8


class TestCenteringStop:
    """A path reports Optimal only if its last centering ends centred."""

    S_K33 = 0.615839386087391  # k = 33 of the default 60-step grid

    def test_faster_growth_still_centres(self, monkeypatch):
        # at 1/MU_SHRINK = 20 some centerings meet decrements of 1.6-2.9 that
        # rise from one step to the next; stopping there left U off by 1.3e-4
        expected = solve_spec(_spec(self.S_K33, 2))
        monkeypatch.setattr(chain, "MU_SHRINK", 0.05)
        res = solve_spec(_spec(self.S_K33, 2))
        assert res.status == expected.status == OPTIMAL
        assert abs(res.value - expected.value) <= 1e-8

    def test_default_grid_column_is_optimal(self):
        # at t ~ 1e10 some last centerings end at the rounding floor, where no
        # step passes the line search; that is centred, not an iteration limit
        s_values = [0.5 + k * (math.sqrt(0.5) - 0.5) / 59 for k in range(60)]
        assert {row.status for row in sweep(s_values, [50])} == {OPTIMAL}

    def test_step_limit_is_an_iteration_limit(self, monkeypatch):
        monkeypatch.setattr(chain, "MAX_NEWTON", 1)
        assert solve_spec(_spec(0.6, 5)).status == chain.ITERATION_LIMIT
        # N = 1 and the boundary s = 1/2 take no Newton step
        assert solve_spec(_spec(0.6, 1)).status == OPTIMAL
        assert solve_spec(_spec(0.5, 5)).status == OPTIMAL


def _quadratic_spec(direction=UPPER, moved=False):
    """A seeded d=5 spec from f(z) = z'Az/2 + c'z (A <= 0.8 L I), L = 0.05.

    ``moved`` applies a rigid motion z -> Qz + c and adds a linear function
    and a constant to f; the result is the data of another L-smooth convex
    function, with the same canonical program.
    """
    rng = np.random.default_rng(11)
    d, L = 5, 0.05
    M = rng.normal(size=(d, d))
    A = M @ M.T
    A *= 0.8 * L / np.linalg.eigvalsh(A)[-1]
    lin = L * rng.normal(size=d)
    x = rng.normal(size=d)
    u = rng.normal(size=d)
    y = x + 0.3 * u / np.linalg.norm(u)
    f_x, g_x, g_y = 0.5 * x @ A @ x + lin @ x, A @ x + lin, A @ y + lin
    if moved:
        Q, R = np.linalg.qr(rng.normal(size=(d, d)))
        Q *= np.sign(np.diag(R))
        shift, tilt = rng.normal(size=d), rng.normal(size=d)
        x, y = Q @ x + shift, Q @ y + shift
        f_x = f_x + tilt @ x + 3.0
        g_x, g_y = Q @ g_x + tilt, Q @ g_y + tilt
    return ChainSpec(L, x, y, f_x, g_x, g_y, N=4, direction=direction)


def _scaled_normalized(c, direction):
    """normalized_spec(0.6, 5) with lengths scaled by c, so L rho^2 = c^2."""
    base = normalized_spec(0.6, 5, direction)
    return ChainSpec(base.L, c * base.x, c * base.y, c * c * base.f_x,
                     c * base.g_x, c * base.g_y, base.N, direction)


class TestUnitInvariance:
    """Tilt, rigid motion and scale leave the canonical program unchanged."""

    @staticmethod
    def _expected(spec):
        # (a, b) taken directly from the data; the canonical spec is solved
        # at unit scale, where absolute and relative tolerances agree
        delta = spec.y - spec.x
        rho = float(np.linalg.norm(delta))
        g_hat = (spec.g_y - spec.g_x) / (spec.L * rho)
        a = float(g_hat @ delta) / rho
        b = math.sqrt(max(0.0, float(g_hat @ g_hat) - a * a))
        canon = ChainSpec(1.0, np.zeros(2), np.array([1.0, 0.0]), 0.0, np.zeros(2),
                          np.array([a, b]), spec.N, spec.direction)
        scale = spec.L * rho * rho
        return spec.f_x + float(spec.g_x @ delta) + scale * solve_spec(canon).value, scale

    @pytest.mark.parametrize("direction", [UPPER, LOWER])
    @pytest.mark.parametrize("c", [1e-3, 1e3])
    def test_scaled_normalized_spec(self, c, direction):
        res = solve_spec(_scaled_normalized(c, direction))
        ref = solve_spec(normalized_spec(0.6, 5, direction))
        assert res.status == ref.status == OPTIMAL
        assert res.value / (c * c) == pytest.approx(ref.value, rel=1e-8)
        expected, scale = self._expected(_scaled_normalized(c, direction))
        assert abs(res.value - expected) <= 1e-8 * scale

    @pytest.mark.parametrize("direction", [UPPER, LOWER])
    @pytest.mark.parametrize("moved", [False, True])
    def test_rigid_motion_and_tilt(self, moved, direction):
        spec = _quadratic_spec(direction, moved)
        res = solve_spec(spec)
        assert res.status == OPTIMAL
        expected, scale = self._expected(spec)
        assert abs(res.value - expected) <= 1e-8 * scale


class TestPrimalWitness:
    """Every Optimal chain passes the two-point conditions on each adjacent pair."""

    @pytest.mark.parametrize("direction", [UPPER, LOWER])
    @pytest.mark.parametrize("make", [
        lambda dr: normalized_spec(0.6, 5, dr),
        lambda dr: normalized_spec(0.55, 3, dr),
        lambda dr: normalized_spec(0.7, 8, dr),
        lambda dr: _quadratic_spec(dr),
        lambda dr: _quadratic_spec(dr, moved=True),
    ], ids=["s0.6-N5", "s0.55-N3", "s0.7-N8", "d5", "d5-moved"])
    def test_chain_is_feasible(self, make, direction):
        spec = make(direction)
        res = solve_spec(spec)
        assert res.status == OPTIMAL
        assert res.chain.f.shape == (spec.N + 1,)
        assert res.chain.f[-1] == res.value
        assert two_point_feasible(spec.L, res.chain[:-1], res.chain[1:])
