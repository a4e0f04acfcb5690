"""Chain programs, closed forms, oracles, and the barrier solver."""

import math

import numpy as np
import pytest

from openconvex import chain
from openconvex.chain import (
    INFEASIBLE,
    LOWER,
    OPTIMAL,
    UPPER,
    ChainSpec,
    build_problem,
    closed_form_n1,
    feasibility_interval_n1,
    normalized_spec,
    oracle_grid_n2,
    solve_spec,
    sweep,
)
from openconvex.errors import (
    DegenerateError,
    DimensionMismatch,
    NoFeasiblePoint,
    RangeError,
)


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

    def test_normalized_out_of_range(self):
        with pytest.raises(RangeError):
            normalized_spec(0.75, 1)


class TestProblemShape:
    def test_n1_sizes(self):
        p = build_problem(_spec(0.6, 1))
        assert p.n_vars == 1
        assert len(p.constraints) == 2
        assert p.fN_index == 0

    def test_n3_sizes(self):
        p = build_problem(_spec(0.6, 3))
        # the normalized family spans only 2 directions (g_x = 0)
        assert p.reduced_dim == 2
        assert p.n_vars == 3 + 2 * 2
        assert len(p.constraints) == 6

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
        assert p.reduced_dim <= 3
        q = build_problem(spec, reduce=False)
        assert q.reduced_dim == 5

    def test_constraint_values_at_known_point(self):
        # N=1, s = 0.5: both constraints are tight at f_1 = 1/4
        p = build_problem(_spec(0.5, 1))
        z = np.array([0.25])
        assert p.max_violation(z) == pytest.approx(0.0, abs=1e-12)


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

    def test_feasibility_interval(self):
        iv = feasibility_interval_n1(1.0, math.sqrt(0.5))
        assert iv.lo == pytest.approx(0.5, abs=1e-15)
        assert iv.hi == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert feasibility_interval_n1(0.5, 1.0).empty


class TestSolverN1:
    @pytest.mark.parametrize("s", [0.5, 0.55, 0.6, 0.65, math.sqrt(0.5)])
    def test_matches_closed_form(self, s):
        b1, u1, _ = closed_form_n1(_spec(s, 1))
        lo = solve_spec(_spec(s, 1, LOWER))
        up = solve_spec(_spec(s, 1, UPPER))
        assert lo.status == OPTIMAL and up.status == OPTIMAL
        assert lo.value == pytest.approx(b1, abs=1e-6)
        assert up.value == pytest.approx(u1, abs=1e-6)

    @pytest.mark.parametrize("s", [0.4, 0.45])
    def test_infeasible_below_half(self, s):
        res = solve_spec(_spec(s, 1, LOWER))
        assert res.status == INFEASIBLE
        assert math.isnan(res.value)
        assert res.chain == []

    def test_violation_within_tolerance(self):
        res = solve_spec(_spec(0.6, 1, UPPER))
        assert res.max_constraint_violation <= 1e-8


class TestSolverGeneral:
    def test_n2_against_grid_oracle(self):
        spec = _spec(0.6, 2)
        b2o, u2o = oracle_grid_n2(spec, resolution=400)
        lo = solve_spec(_spec(0.6, 2, LOWER))
        up = solve_spec(_spec(0.6, 2, UPPER))
        assert lo.value == pytest.approx(b2o, abs=2e-3)
        assert up.value == pytest.approx(u2o, abs=2e-3)

    def test_reduction_agrees_with_full_space(self):
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
        red = solve_spec(spec, reduce=True)
        full = solve_spec(spec, reduce=False)
        assert red.status == OPTIMAL and full.status == OPTIMAL
        assert red.value == pytest.approx(full.value, abs=1e-6)

    def test_chain_endpoints_pinned(self):
        res = solve_spec(_spec(0.6, 5, LOWER))
        spec = _spec(0.6, 5, LOWER)
        assert len(res.chain) == 6
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


class TestLineSearch:
    """The closed-form slacks and barrier change behind the Newton line search."""

    @pytest.fixture
    def interior(self):
        problem = build_problem(_spec(0.6, 5))
        rng = np.random.default_rng(7)
        z = rng.normal(size=problem.n_vars)
        # shift every constraint so that z is strictly interior
        shift = max(c.value(z) for c in problem.constraints) + 1.0
        batch = chain._Batch([c.shifted(shift) for c in problem.constraints], z.size)
        dz = rng.normal(size=z.size)
        return batch, z, dz

    def test_predicted_slacks_match_direct_evaluation(self, interior):
        batch, z, dz = interior
        d = -batch.values(z)
        a, b = batch.slack_rates(batch.local_grads(z), dz)
        for alpha in (0.0, 0.1, 0.5, 1.0, 2.0):
            predicted = d - alpha * a - 0.5 * alpha ** 2 * b
            direct = -batch.values(z + alpha * dz)
            scale = np.maximum(np.abs(direct), 1.0)
            assert np.max(np.abs(predicted - direct) / scale) <= 1e-12

    def test_exact_change_matches_barrier_difference(self, interior):
        batch, z, dz = interior
        problem_c = np.zeros(z.size)
        problem_c[4] = -1.0
        t = 1.0  # nothing cancels at t = 1, so the direct difference is accurate

        def barrier(zz):
            return t * float(problem_c @ zz) - float(np.sum(np.log(-batch.values(zz))))

        d = -batch.values(z)
        a, b = batch.slack_rates(batch.local_grads(z), dz)
        tcdz = t * float(problem_c @ dz)
        checked = 0
        for alpha in (1e-3, 0.01, 0.1, 0.25):
            if np.any(-batch.values(z + alpha * dz) <= 0.0):
                continue
            exact = chain._step_change(alpha, tcdz, a, b, d)
            direct = barrier(z + alpha * dz) - barrier(z)
            assert exact == pytest.approx(direct, rel=1e-9, abs=1e-12)
            checked += 1
        assert checked >= 2

    def test_step_outside_interior_is_rejected(self, interior):
        batch, z, dz = interior
        d = -batch.values(z)
        a, b = batch.slack_rates(batch.local_grads(z), dz)
        # far enough along dz the convex constraints are violated
        assert chain._step_change(1e6, 0.0, a, b, d) == math.inf


class TestReversalPrecision:
    @pytest.mark.parametrize("s", [0.5, 0.55, 0.6, 0.65, math.sqrt(0.5)])
    def test_lower_and_upper_sum_to_s(self, s):
        # reversing the chain maps the lower program onto the upper one: B = s - U
        lo = solve_spec(_spec(s, 50, LOWER))
        up = solve_spec(_spec(s, 50, UPPER))
        assert lo.status == up.status == OPTIMAL
        assert abs(lo.value + up.value - s) <= 1e-11
