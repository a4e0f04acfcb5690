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

    def test_normalized_out_of_range(self):
        with pytest.raises(RangeError):
            normalized_spec(0.75, 1)


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
        assert p.gN.size <= 2
        assert p.basis.shape == (5, p.gN.size)
        assert np.allclose(p.basis.T @ p.basis, np.eye(p.gN.size), atol=1e-14)
        # g_y - g_x parallel to y - x (s = sqrt(1/2)) leaves one direction
        assert build_problem(_spec(math.sqrt(0.5), 3)).gN.size == 1

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
        rows = sweep([0.4, 0.55, 0.65], [1, 3])
        assert len(calls) == len(rows) == 6
        assert all(spec.direction == UPPER for spec in calls)
        assert [r.status for r in rows] == [INFEASIBLE] * 2 + [OPTIMAL] * 4


class TestLineSearch:
    """The Newton step and the closed-form slacks and barrier change behind its line search."""

    T = 1.0  # nothing cancels at t = 1, so direct differences are accurate

    @pytest.fixture
    def interior(self):
        # the start D_j = (a, b)/N, where every disk slack is width = m/N^2,
        # moved by a small seeded perturbation; the direction dD is scaled to
        # the same width and sums to 0, as a Newton step does
        N = 5
        problem = build_problem(_spec(0.7, N))
        a, b = problem.gN
        width = (a - a * a - b * b) / N ** 2
        rng = np.random.default_rng(7)
        D = problem.gN / N + 0.05 * width * rng.normal(size=(N, 2))
        assert np.all(chain._disk_slacks(D) > 0.5 * width)
        dD = width * rng.normal(size=(N, 2))
        w = (N - np.arange(N)) / N
        return w, D, dD - dD.mean(axis=0), width

    @classmethod
    def _value(cls, w, D):
        # the centering objective t sum_j [1/2 |D_j|^2 - w_j D_j,1] - sum_j log s_j
        return (cls.T * float(0.5 * np.sum(D * D) - w @ D[:, 0])
                - float(np.sum(np.log(chain._disk_slacks(D)))))

    @staticmethod
    def _rates(D, dD):
        a = 2.0 * np.sum(chain._offsets(D) * dD, axis=1)
        return a, 2.0 * np.sum(dD * dD, axis=1)

    @classmethod
    def _blocks(cls, D):
        # H_j = (t + 2/s_j) I + (4/s_j^2) u_j u_j', one r x r block per increment
        s, u = chain._disk_slacks(D), chain._offsets(D)
        eye = np.eye(D.shape[1])
        return ((cls.T + 2.0 / s)[:, None, None] * eye
                + (4.0 / s ** 2)[:, None, None] * u[:, :, None] * u[:, None, :])

    def test_predicted_slacks_match_direct_evaluation(self, interior):
        _, D, dD, _ = interior
        s = chain._disk_slacks(D)
        a, b = self._rates(D, dD)
        for alpha in (0.0, 0.1, 0.5, 1.0, 2.0):
            predicted = s - alpha * a - 0.5 * alpha ** 2 * b
            direct = chain._disk_slacks(D + alpha * dD)
            assert np.max(np.abs(predicted - direct) / np.abs(direct)) <= 1e-12

    def test_exact_change_matches_barrier_difference(self, interior):
        w, D, dD, _ = interior
        s = chain._disk_slacks(D)
        a, b = self._rates(D, dD)
        lin = self.T * float(np.sum(D * dD) - w @ dD[:, 0])
        quad = self.T * float(np.sum(dD * dD))
        checked = 0
        for alpha in (1e-3, 0.01, 0.1, 0.25):
            if np.any(chain._disk_slacks(D + alpha * dD) <= 0.0):
                continue
            exact = chain._step_change(alpha, lin, quad, a, b, s)
            direct = self._value(w, D + alpha * dD) - self._value(w, D)
            assert exact == pytest.approx(direct, rel=1e-9, abs=1e-12)
            checked += 1
        assert checked >= 2

    def test_step_outside_interior_is_rejected(self, interior):
        _, D, dD, _ = interior
        a, b = self._rates(D, dD)
        # far enough along dD every increment leaves its disk
        assert chain._step_change(1e6, 0.0, 0.0, a, b, chain._disk_slacks(D)) == math.inf

    def test_gradient_and_hessian_match_differences(self, interior):
        # the per-block gradient against central differences of the centering
        # objective, and the blocks H_j against central differences of it
        w, D, _, width = interior

        def grad(DD):
            return chain._newton_step(w, DD, chain._disk_slacks(DD), self.T)[0]

        g, H = grad(D), self._blocks(D)
        h = 1e-4 * width
        for j, k in np.ndindex(D.shape):
            e = np.zeros(D.shape)
            e[j, k] = h
            assert g[j, k] == pytest.approx(
                (self._value(w, D + e) - self._value(w, D - e)) / (2 * h), rel=1e-6, abs=1e-8)
            column = (grad(D + e) - grad(D - e)) / (2 * h)
            assert column[j] == pytest.approx(H[j, :, k], rel=1e-6, abs=1e-8)
            # the Hessian is block diagonal: no other increment moves
            assert np.delete(column, j, axis=0) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("t", [1.0, 1e6])
    def test_step_solves_full_kkt_system(self, interior, t):
        # the block-eliminated step against the dense KKT system
        #   [blockdiag(H_j)  A'] [dD]   [-g]
        #   [A               0 ] [nu] = [ 0],   A = [I I ... I]
        w, D, _, _ = interior
        N, r = D.shape
        g, dD, nu = chain._newton_step(w, D, chain._disk_slacks(D), t)
        blocks = self._blocks(D) + (t - self.T) * np.eye(r)
        kkt = np.zeros((N * r + r, N * r + r))
        for j in range(N):
            kkt[j * r:(j + 1) * r, j * r:(j + 1) * r] = blocks[j]
        kkt[:N * r, N * r:] = np.tile(np.eye(r), (N, 1))
        kkt[N * r:, :N * r] = kkt[:N * r, N * r:].T
        ref = np.linalg.solve(kkt, np.concatenate([-g.ravel(), np.zeros(r)]))
        got = np.concatenate([dD.ravel(), nu])
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
        assert np.max(np.abs(dD.sum(axis=0))) <= 1e-10 * np.max(np.abs(dD))


class TestReversalPrecision:
    @pytest.mark.parametrize("s", [0.5, 0.55, 0.6, 0.65, math.sqrt(0.5)])
    def test_lower_and_upper_sum_to_s(self, s):
        # reversing the chain maps the lower program onto the upper one: B = s - U
        lo = solve_spec(_spec(s, 50, LOWER))
        up = solve_spec(_spec(s, 50, UPPER))
        assert lo.status == up.status == OPTIMAL
        assert abs(lo.value + up.value - s) <= 1e-11


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
