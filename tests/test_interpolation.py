"""Envelope construction, segment interpolants, and convex combination."""

import dataclasses

import numpy as np
import pytest

from openconvex import chain
from openconvex.bounds import PointData
from openconvex.errors import InfeasibleData, RangeError
from openconvex.interpolation import (
    build_segment_interpolant,
    envelope_eval,
    eval_interpolant,
)

from interpolation_helpers import MismatchError, combine, eval_mixture, two_point_feasible


def _pd(x, f, g):
    return PointData(x=np.asarray(x, float), f=f, g=np.asarray(g, float))


class TestTwoPointFeasible:
    def test_quadratic_data(self):
        # samples of ||z||^2/2 are always interpolable at L = 1
        p0 = _pd([0.0, 0.0], 0.0, [0.0, 0.0])
        p1 = _pd([1.0, 2.0], 2.5, [1.0, 2.0])
        assert two_point_feasible(1.0, p0, p1)

    def test_counterexample_pair_infeasible(self):
        p0 = _pd([0.0, 0.0], 0.0, [0.0, 0.0])
        p1 = _pd([2.0, 0.0], 16991.0 / 23040.0,
                 [253.0 / 240.0, 77.0 / 120.0])
        assert not two_point_feasible(1.0, p0, p1)

    def test_value_window(self):
        p0 = _pd([0.0], 0.0, [0.0])
        x1, g1 = [1.0], [0.5]
        # window is [g1^2/(2L) .. g1 - g1^2/(2L)] = [0.125, 0.375]
        assert two_point_feasible(1.0, p0, _pd(x1, 0.125, g1))
        assert two_point_feasible(1.0, p0, _pd(x1, 0.375, g1))
        assert not two_point_feasible(1.0, p0, _pd(x1, 0.1249, g1))
        assert not two_point_feasible(1.0, p0, _pd(x1, 0.3751, g1))

    def test_stacked_pairs(self):
        # a stack passes iff every row does
        p0 = _pd(np.zeros((3, 1)), np.zeros(3), np.zeros((3, 1)))
        x1, g1 = np.ones((3, 1)), np.full((3, 1), 0.5)
        assert two_point_feasible(1.0, p0, _pd(x1, np.array([0.125, 0.25, 0.375]), g1))
        assert not two_point_feasible(1.0, p0, _pd(x1, np.array([0.125, 0.1249, 0.375]), g1))
        assert not two_point_feasible(1.0, p0, _pd(x1, np.array([0.125, 0.25, 0.3751]), g1))

    def test_slack_relative_to_pair(self):
        # at L ||y - x||^2 = 1e-12 a solver chain passes, and raising knot 1 by
        # 0.1 canonical units (1e-13 here, below any absolute slack) fails
        base = chain.normalized_spec(0.6, 5)
        c = 1e-6
        spec = chain.ChainSpec(base.L, c * base.x, c * base.y, 0.0, c * base.g_x,
                               c * base.g_y, base.N)
        knots = chain.solve_spec(spec).chain
        assert two_point_feasible(spec.L, knots[:-1], knots[1:])
        f = knots.f.copy()
        f[1] += 0.1 * c * c
        raised = PointData(knots.x, f, knots.g)
        assert not two_point_feasible(spec.L, raised[:-1], raised[1:])


class TestEnvelope:
    def test_coincident_surrogates(self):
        # both surrogates equal ||z||^2/2: envelope is that quadratic
        p0 = _pd([0.0, 0.0], 0.0, [0.0, 0.0])
        p1 = _pd([1.0, 0.0], 0.5, [1.0, 0.0])
        for z in ([0.3, 0.0], [0.5, 0.4], [1.0, 0.0]):
            v, g = envelope_eval(p0, p1, z)
            z = np.asarray(z)
            assert v == pytest.approx(0.5 * float(z @ z), abs=1e-12)
            assert np.allclose(g, z, atol=1e-12)

    def test_hand_derived_tangency_window(self):
        # q0(z) = z^2/2 and q1(z) = (z - 1/2)^2/2 + 1/8 share the tangent
        # line y = z/4 - 1/32, touching at z = 1/4 and z = 3/4
        p0 = _pd([0.0], 0.0, [0.0])
        p1 = _pd([1.0], 0.25, [0.5])
        assert two_point_feasible(1.0, p0, p1)
        # before the window the envelope equals q0
        v, g = envelope_eval(p0, p1, [0.1])
        assert v == pytest.approx(0.005, abs=1e-12)
        assert g[0] == pytest.approx(0.1, abs=1e-12)
        # inside the window it is the tangent line
        for z in (0.5, 0.6):
            v, g = envelope_eval(p0, p1, [z])
            assert v == pytest.approx(0.25 * z - 0.03125, abs=1e-12)
            assert g[0] == pytest.approx(0.25, abs=1e-12)
        # past the window it equals q1
        v, g = envelope_eval(p0, p1, [0.9])
        assert v == pytest.approx(0.205, abs=1e-12)
        assert g[0] == pytest.approx(0.4, abs=1e-12)

    def test_envelope_dominated_by_surrogates(self):
        rng = np.random.default_rng(2)
        ts = np.linspace(0.0, 1.0, 11)[:, None]
        for _ in range(30):
            p0 = _pd(rng.normal(size=2), 0.0, 0.3 * rng.normal(size=2))
            x1 = p0.x + rng.normal(size=2)
            g1 = 0.3 * rng.normal(size=2)
            d = x1 - p0.x
            quad = float((p0.g - g1) @ (p0.g - g1)) / 2.0
            lo = p0.f + float(p0.g @ d) + quad
            hi = p0.f + float(g1 @ d) - quad
            if lo > hi:
                continue
            p1 = _pd(x1, 0.5 * (lo + hi), g1)
            z = p0.x + ts * d
            v, _ = envelope_eval(p0, p1, z)
            for p in (p0, p1):
                q = p.f + (z - p.x) @ p.g + 0.5 * np.sum((z - p.x) ** 2, axis=1)
                assert np.all(v <= q + 1e-10)

    def test_infeasible_pair_rejected(self):
        # canonical knots (F, G) = (0, (0, 0)) and (0, (0.5, 0)) on the unit segment
        spec = chain.ChainSpec(1.0, np.zeros(1), np.ones(1), 0.0, np.zeros(1), [0.5], 1)
        res = chain.solve_spec(spec)
        pair = dataclasses.replace(res, knots=np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.0]]))
        with pytest.raises(InfeasibleData, match=r"pair \(0, 1\)"):
            build_segment_interpolant(pair)

    def test_violation_slack_is_1e_9_canonical(self):
        # G = (0, 0), (0.5, 0) on the unit segment admit F_1 in [1/8, 3/8], and
        # h1 = F_1 - 3/8: passing 3/8 by 1e-10 is accepted, by 1e-8 refused
        spec = chain.ChainSpec(1.0, np.zeros(1), np.ones(1), 0.0, np.zeros(1), [0.5], 1)
        res = chain.solve_spec(spec)

        def raised(excess):
            return dataclasses.replace(res, knots=np.array([[0.0, 0.0, 0.0],
                                                            [0.375 + excess, 0.5, 0.0]]))

        assert np.max(chain._constraint_values(res.problem, raised(1e-8).knots)) \
            == pytest.approx(1e-8)
        build_segment_interpolant(raised(1e-10))
        with pytest.raises(InfeasibleData, match=r"pair \(0, 1\)"):
            build_segment_interpolant(raised(1e-8))


class TestSegmentInterpolant:
    def _interp(self, s, N, direction):
        spec = chain.normalized_spec(s, N, direction)
        res = chain.solve_spec(spec)
        assert res.status == chain.OPTIMAL
        return build_segment_interpolant(res), res

    def test_knot_round_trip(self):
        interp, res = self._interp(0.6, 4, chain.UPPER)
        knots = res.chain
        v, dv = eval_interpolant(interp, np.arange(5) / 4)
        assert np.allclose(v, knots.f, rtol=0.0, atol=1e-10)
        assert np.allclose(dv, knots.g @ (knots.x[-1] - knots.x[0]), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("direction", [chain.UPPER, chain.LOWER])
    def test_array_t_matches_scalar_t(self, direction):
        # one call over all t gives, bit for bit, what one call per t gives
        interp, _ = self._interp(0.62, 5, direction)
        ts = np.linspace(0.0, 1.0, 101)
        v, dv = eval_interpolant(interp, ts)
        assert v.shape == dv.shape == ts.shape
        assert [(a, b) for a, b in zip(v.tolist(), dv.tolist())] \
            == [eval_interpolant(interp, t) for t in ts.tolist()]

    def test_endpoint_matches_bound(self):
        interp, res = self._interp(0.6, 3, chain.LOWER)
        v, _ = eval_interpolant(interp, 1.0)
        assert v == pytest.approx(res.value, abs=1e-9)

    def test_convex_and_smooth_along_segment(self):
        interp, _ = self._interp(0.55, 5, chain.UPPER)
        ts = np.linspace(0.0, 1.0, 201)
        _, ders = eval_interpolant(interp, ts)
        steps = np.diff(ders)
        # convexity: the directional derivative is nondecreasing
        assert np.all(steps >= -1e-9)
        # smoothness: derivative is 1-Lipschitz in t (L = 1, unit segment)
        assert np.all(np.abs(steps) <= ts[1] - ts[0] + 1e-9)

    def test_corrupted_chain_rejected(self):
        spec = chain.normalized_spec(0.6, 3, chain.UPPER)
        res = chain.solve_spec(spec)
        K = res.knots.copy()
        K[1, 0] += 0.1
        with pytest.raises(InfeasibleData, match=r"pair \(0, 1\)"):
            build_segment_interpolant(dataclasses.replace(res, knots=K))

    def test_short_chain_rejected(self):
        res = chain.solve_spec(chain.normalized_spec(0.6, 3, chain.UPPER))
        with pytest.raises(InfeasibleData):
            build_segment_interpolant(dataclasses.replace(res, knots=res.knots[:1]))

    def test_t_out_of_range(self):
        interp, _ = self._interp(0.6, 2, chain.UPPER)
        with pytest.raises(RangeError):
            eval_interpolant(interp, 1.0 + 1e-9)
        with pytest.raises(RangeError):
            eval_interpolant(interp, np.array([0.0, 0.5, -1e-9]))


class TestCombine:
    def _pair(self, s=0.6, N=3):
        spec_u = chain.normalized_spec(s, N, chain.UPPER)
        spec_b = chain.normalized_spec(s, N, chain.LOWER)
        ru = chain.solve_spec(spec_u)
        rb = chain.solve_spec(spec_b)
        Fu = build_segment_interpolant(ru)
        Fb = build_segment_interpolant(rb)
        return Fu, Fb, ru, rb

    def test_extremes_reproduce_inputs(self):
        Fu, Fb, _, _ = self._pair()
        for t in np.linspace(0.0, 1.0, 21):
            vu, du = eval_interpolant(Fu, float(t))
            vb, db = eval_interpolant(Fb, float(t))
            v1, d1 = eval_mixture(combine(Fu, Fb, 1.0), float(t))
            v0, d0 = eval_mixture(combine(Fu, Fb, 0.0), float(t))
            assert v1 == pytest.approx(vu, abs=1e-12)
            assert v0 == pytest.approx(vb, abs=1e-12)
            assert d1 == pytest.approx(du, abs=1e-12)
            assert d0 == pytest.approx(db, abs=1e-12)

    def test_midpoint_mixture(self):
        Fu, Fb, ru, rb = self._pair()
        Fm = combine(Fu, Fb, 0.5)
        v_end, _ = eval_mixture(Fm, 1.0)
        assert v_end == pytest.approx(0.5 * (ru.value + rb.value), abs=1e-9)
        for t in np.linspace(0.0, 1.0, 21):
            vu, _ = eval_interpolant(Fu, float(t))
            vb, _ = eval_interpolant(Fb, float(t))
            vm, _ = eval_mixture(Fm, float(t))
            assert vm == pytest.approx(0.5 * (vu + vb), abs=1e-12)

    def test_mixture_stays_convex_and_smooth(self):
        Fu, Fb, _, _ = self._pair(s=0.65, N=2)
        Fm = combine(Fu, Fb, 0.3)
        ts = np.linspace(0.0, 1.0, 201)
        ders = [eval_mixture(Fm, float(t))[1] for t in ts]
        h = ts[1] - ts[0]
        assert all(d2 >= d1 - 1e-9 for d1, d2 in zip(ders, ders[1:]))
        assert all(abs(d2 - d1) <= h + 1e-9 for d1, d2 in zip(ders, ders[1:]))

    def test_lambda_out_of_range(self):
        Fu, Fb, _, _ = self._pair(N=2)
        with pytest.raises(RangeError):
            combine(Fu, Fb, 1.5)

    def test_tolerances_relative_to_units(self):
        # at rho = 1e-6 the end gradients (0.6, 0.3) and (0.6, 0.301), in
        # canonical units, are 1e-9 apart in spec units
        def build(g_y, direction):
            rho = 1e-6
            spec = chain.ChainSpec(L=1.0, x=np.zeros(2), y=np.array([rho, 0.0]), f_x=0.0,
                                   g_x=np.zeros(2), g_y=rho * np.asarray(g_y), N=3,
                                   direction=direction)
            return build_segment_interpolant(chain.solve_spec(spec))

        Fu = build([0.6, 0.3], chain.UPPER)
        combine(Fu, build([0.6, 0.3], chain.LOWER), 0.5)
        with pytest.raises(MismatchError, match="gradient at y"):
            combine(Fu, build([0.6, 0.301], chain.LOWER), 0.5)

    def test_mismatched_knot_counts(self):
        Fu, _, _, _ = self._pair(N=2)
        _, Fb3, _, _ = self._pair(N=3)
        with pytest.raises(MismatchError):
            combine(Fu, Fb3, 0.5)
