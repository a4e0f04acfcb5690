"""Analytical two-point bounds and the weight family."""

import math

import numpy as np
import pytest

from openconvex import bounds
from openconvex.bounds import PointData
from openconvex.errors import DegenerateError, DimensionMismatch, RangeError


def _pd(x, f, g):
    return PointData(x=np.asarray(x, float), f=f, g=np.asarray(g, float))


COUNTER_X = _pd([0.0, 0.0], 0.0, [0.0, 0.0])
COUNTER_Y = _pd([2.0, 0.0], 16991.0 / 23040.0, [253.0 / 240.0, 77.0 / 120.0])


class TestDescentGap:
    def test_counterexample_pair(self):
        lower, upper = bounds.descent_gap(1.0, COUNTER_X, COUNTER_Y)
        assert lower == pytest.approx(16991.0 / 23040.0, abs=1e-15)
        assert upper == pytest.approx(2.0 - 16991.0 / 23040.0, abs=1e-15)
        assert lower >= 0.0 and upper >= 0.0

    def test_pure_quadratic_tight_upper(self):
        # f = ||z||^2/2, L = 1: the upper bound is an equality from the origin
        px = _pd([0.0], 0.0, [0.0])
        py = _pd([3.0], 4.5, [3.0])
        lower, upper = bounds.descent_gap(1.0, px, py)
        assert upper == pytest.approx(0.0, abs=1e-12)
        assert lower == pytest.approx(4.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bounds.descent_gap(1.0, COUNTER_X, _pd([0.0], 0.0, [0.0]))


class TestCocoercivityGap:
    def test_counterexample_is_negative(self):
        gap = bounds.cocoercivity_gap(1.0, COUNTER_X, COUNTER_Y)
        assert gap == pytest.approx(-554.0 / 23040.0, abs=1e-15)

    def test_quadratic_pair_is_tight(self):
        px = _pd([0.0, 0.0], 0.0, [0.0, 0.0])
        py = _pd([1.0, 2.0], 2.5, [1.0, 2.0])
        assert bounds.cocoercivity_gap(1.0, px, py) == pytest.approx(0.0, abs=1e-12)

    def test_scaling_in_l(self):
        gap2 = bounds.cocoercivity_gap(2.0, COUNTER_X, COUNTER_Y)
        dg = COUNTER_X.g - COUNTER_Y.g
        expected = COUNTER_Y.f - float(dg @ dg) / 4.0
        assert gap2 == pytest.approx(expected, abs=1e-15)


class TestGlobalBoundInterval:
    def test_counterexample_lower_edge(self):
        iv = bounds.global_bound_interval(1.0, COUNTER_X, COUNTER_Y)
        assert iv.lo == pytest.approx(64009.0 / 115200.0, abs=1e-14)
        assert iv.lo <= COUNTER_Y.f <= iv.hi

    def test_symmetric_formulation(self):
        # reversing the pair must describe f(x) consistently: the forward
        # interval contains f(y) iff the reversed one contains f(x)
        rng = np.random.default_rng(7)
        for _ in range(50):
            px = _pd(rng.normal(size=3), rng.normal(), rng.normal(size=3))
            py = _pd(rng.normal(size=3), rng.normal(), rng.normal(size=3))
            fwd = bounds.global_bound_interval(1.0, px, py)
            rev = bounds.global_bound_interval(1.0, py, px)
            assert ((fwd.lo - 1e-12 <= py.f <= fwd.hi + 1e-12)
                    == (rev.lo - 1e-12 <= px.f <= rev.hi + 1e-12))

    def test_coincident_points_degenerate(self):
        with pytest.raises(DegenerateError):
            bounds.global_bound_interval(1.0, COUNTER_X, COUNTER_X)


class TestLocalCondition:
    def test_strict_inequality(self):
        assert bounds.local_condition([0.0, 0.0], [1.0, 0.0], 1.5)
        assert not bounds.local_condition([0.0, 0.0], [1.0, 0.0], 1.0)
        assert not bounds.local_condition([0.0, 0.0], [2.0, 0.0], 1.5)

    def test_counterexample_pair_fails_locality(self):
        # dist(y, complement) = 23/240 << ||x - y|| = 2
        assert not bounds.local_condition([0.0, 0.0], [2.0, 0.0], 23.0 / 240.0)


class TestChain:
    def test_min_chain_length(self):
        assert bounds.min_chain_length([0.0, 0.0], [2.0, 0.0], 0.5, 1.0) == 5
        assert bounds.min_chain_length([0.0], [1.0], 1.0, 1.0) == 2  # strict

    @pytest.mark.parametrize("dist", [0.0, -1.0, math.nan, math.inf])
    def test_min_chain_length_needs_positive_finite_distances(self, dist):
        for dist_x, dist_y in ((dist, 1.0), (1.0, dist)):
            with pytest.raises(RangeError):
                bounds.min_chain_length([0.0, 0.0], [2.0, 0.0], dist_x, dist_y)

    def test_make_chain_spacing(self):
        pts = bounds.make_chain(np.zeros(2), np.array([2.0, 0.0]), 4)
        assert len(pts) == 5
        for i, p in enumerate(pts):
            assert np.allclose(p, [0.5 * i, 0.0], atol=1e-15)

    def test_make_chain_rows_are_the_affine_points(self):
        # row i is x + (i/N)(y - x), bit for bit, in any dimension
        x, y = np.array([0.3, -1.0, 2.0]), np.array([1.7, 0.25, -3.0])
        pts = bounds.make_chain(x, y, 7)
        assert pts.shape == (8, 3)
        for i in range(8):
            assert np.array_equal(pts[i], x + (i / 7) * (y - x))

    def test_degenerate_chain(self):
        with pytest.raises(DegenerateError):
            bounds.make_chain(np.zeros(2), np.zeros(2), 3)

    def test_bad_n(self):
        with pytest.raises(RangeError):
            bounds.make_chain(np.zeros(2), np.ones(2), 0)


class TestAlphaWeights:
    def test_example_n4_xi_1_5(self):
        w = bounds.alpha_weights(4, 1.5)
        assert np.allclose(w.alpha, [0.5, 0.0, 0.5, 1.5], atol=1e-15)
        assert w.N1 == 1

    def test_xi_integer_interior(self):
        w = bounds.alpha_weights(5, 3.0)
        assert np.allclose(w.alpha, [2.0, 1.0, 0.0, 0.0, 1.0], atol=1e-15)
        assert w.N1 == 2

    def test_endpoints(self):
        assert bounds.alpha_weights(3, 0.0).N1 == 0
        w = bounds.alpha_weights(3, 3.0)
        assert np.allclose(w.alpha, [2.0, 1.0, 0.0], atol=1e-15)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            bounds.alpha_weights(4, 4.5)
        with pytest.raises(RangeError):
            bounds.alpha_weights(4, -0.1)
        with pytest.raises(RangeError):
            bounds.alpha_weights(0, 0.0)


class TestSumIdentity:
    def test_example_n4_xi_1_5(self):
        direct, closed = bounds.sum_identity(4, 1.5)
        assert closed == 6.25
        assert direct == pytest.approx(6.25, abs=1e-12)

    def test_xi_equals_n(self):
        direct, closed = bounds.sum_identity(6, 6.0)
        assert closed == 0.0
        assert direct == pytest.approx(0.0, abs=1e-12)

    def test_xi_zero(self):
        direct, closed = bounds.sum_identity(7, 0.0)
        assert closed == 49.0
        assert direct == pytest.approx(49.0, abs=1e-12)

    def test_random_xi(self):
        rng = np.random.default_rng(11)
        for N in (1, 2, 3, 10, 50):
            for xi in rng.uniform(0.0, N, size=20):
                direct, closed = bounds.sum_identity(N, float(xi))
                assert direct == pytest.approx(closed, abs=1e-9 * N * N)


class TestAnalyticalRegion:
    def test_half_point(self):
        inner, outer = bounds.analytical_region(0.5)
        assert (inner.lo, inner.hi) == (0.125, 0.375)
        assert (outer.lo, outer.hi) == (0.0, 0.5)

    def test_endpoints_collapse(self):
        for t in (0.0, 1.0):
            inner, outer = bounds.analytical_region(t)
            assert inner.hi - inner.lo == pytest.approx(0.0, abs=1e-15)
            assert outer.hi - outer.lo == pytest.approx(0.0, abs=1e-15)

    def test_strict_inclusion_in_interior(self):
        for t in np.linspace(0.01, 0.99, 99):
            inner, outer = bounds.analytical_region(float(t))
            assert inner.lo >= outer.lo - 1e-15
            assert inner.hi <= outer.hi + 1e-15
            assert inner.lo > outer.lo or inner.hi < outer.hi

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            bounds.analytical_region(1.0 + 1e-9)
        with pytest.raises(RangeError, match=r"t = 2\.0 outside"):
            bounds.analytical_region(np.array([0.5, 2.0, -1.0]))

    def test_array_matches_scalar_formulas(self):
        ts = np.linspace(0.0, 1.0, 101)
        inner, outer = bounds.analytical_region(ts)
        for k, t in enumerate(ts.tolist()):
            assert (inner.lo[k], inner.hi[k], outer.lo[k], outer.hi[k]) == (
                0.5 * t * t, t - 0.5 * t * t, max(0.0, t - 0.5), min(0.5, t))


class TestPointData:
    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            PointData(x=np.zeros((2, 2)), f=0.0, g=np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch):
            PointData(x=np.zeros(2), f=0.0, g=np.zeros(3))


class TestStackedPointData:
    """A stack of n points gives, row by row, exactly the single-point results."""

    @staticmethod
    def _stacks(n, d, seed=5):
        rng = np.random.default_rng(seed)
        return tuple(_pd(rng.normal(size=(n, d)), rng.normal(size=n), rng.normal(size=(n, d)))
                     for _ in range(2))

    @staticmethod
    def _rows(p):
        return [PointData(x=x, f=f, g=g) for x, f, g in zip(p.x, p.f, p.g)]

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_rows_match_bit_for_bit(self, d):
        px, py = self._stacks(40, d)
        lower, upper = bounds.descent_gap(1.5, px, py)
        gap = bounds.cocoercivity_gap(1.5, px, py)
        iv = bounds.global_bound_interval(1.5, px, py)
        assert lower.shape == upper.shape == gap.shape == iv.lo.shape == iv.hi.shape == (40,)
        for i, (qx, qy) in enumerate(zip(self._rows(px), self._rows(py))):
            assert (lower[i], upper[i]) == bounds.descent_gap(1.5, qx, qy)
            assert gap[i] == bounds.cocoercivity_gap(1.5, qx, qy)
            one = bounds.global_bound_interval(1.5, qx, qy)
            assert (iv.lo[i], iv.hi[i]) == (one.lo, one.hi)

    def test_coincident_row_degenerate(self):
        px, py = self._stacks(6, 2)
        y = py.x.copy()
        y[3] = px.x[3]
        with pytest.raises(DegenerateError):
            bounds.global_bound_interval(1.0, px, _pd(y, py.f, py.g))

    def test_mismatched_stacks(self):
        px, _ = self._stacks(6, 2)
        _, py = self._stacks(5, 2)
        for fn in (bounds.descent_gap, bounds.cocoercivity_gap, bounds.global_bound_interval):
            with pytest.raises(DimensionMismatch):
                fn(1.0, px, py)
            with pytest.raises(DimensionMismatch):
                fn(1.0, px, COUNTER_Y)

    def test_value_shape(self):
        with pytest.raises(DimensionMismatch):
            PointData(x=np.zeros((3, 2)), f=np.zeros(2), g=np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            PointData(x=np.zeros(2), f=np.zeros(2), g=np.zeros(2))
        assert PointData(x=np.zeros((3, 2)), f=np.zeros(3), g=np.zeros((3, 2))).f.shape == (3,)

    def test_indexing_leading_axes(self):
        # a stack of stacks, as a mixture of chains holds them
        p = PointData(x=np.zeros((2, 3, 4)), f=np.arange(6.0).reshape(2, 3), g=np.ones((2, 3, 4)))
        assert p[1].f.tolist() == [3.0, 4.0, 5.0]
        assert p[1, 2].f == 5.0 and p[1, 2].x.shape == (4,)
        assert p[:, 1:].x.shape == (2, 2, 4)
