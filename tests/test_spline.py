"""Exact checks of the piecewise-quadratic spline."""

import functools
import itertools
import json
import math
import operator
from dataclasses import asdict, replace
from fractions import Fraction as Q

import numpy as np
import pytest

from openconvex import cli, spline
from openconvex.errors import DimensionMismatch, DomainError, RangeError
from openconvex.spline import ExactPoint, build_spline


class TestClassification:
    def test_origin_is_piece_1(self):
        assert build_spline().classify_region(ExactPoint.of(0, 0)) == 1

    def test_far_point_is_piece_4(self):
        assert build_spline().classify_region(ExactPoint.of(2, 0)) == 4

    def test_middle_band_is_piece_2(self):
        # 3x0 - x1 = 7/3, inside [1/12, 31/12]
        assert build_spline().classify_region(ExactPoint.of(Q(3, 4), Q(-1, 12))) == 2

    def test_piece_3_needs_both_inequalities(self):
        # 3x0 - x1 = 11/4 >= 31/12 and x0 - 2x1 = 1/2 <= 49/48
        assert build_spline().classify_region(ExactPoint.of(1, Q(1, 4))) == 3

    def test_seam_point_gets_lowest_index(self):
        # on 3x0 - x1 = 1/12
        p = ExactPoint.of(Q(1, 36), 0)
        assert build_spline().classify_region(p) == 1

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            build_spline().classify_region(ExactPoint.of(0, Q(-23, 240)))

    def test_below_boundary_rejected(self):
        with pytest.raises(DomainError):
            spline.SPLINE.value(ExactPoint.of(0, -1))


def _crossing(h, m):
    """The exact point where lines h and m cross, or None if they are parallel."""
    (n0, n1), (m0, m1) = h.normal, m.normal
    det = n0 * m1 - n1 * m0
    if det == 0:
        return None
    return ((h.offset * m1 - n1 * m.offset) / det, (n0 * m.offset - m0 * h.offset) / det)


class TestSeamOrder:
    def test_seams_cross_only_outside_the_domain(self):
        # so inside the domain the seams are ordered strips and the seam
        # order gives each piece its region in REGIONS
        seams = build_spline().seams
        for h, m in itertools.combinations(seams, 2):
            crossing = _crossing(h, m)
            assert crossing is None or crossing[1] <= spline.DOMAIN_BOUND
        assert _crossing(seams[0], seams[1]) is None
        assert _crossing(seams[1], seams[2]) == (Q(199, 240), Q(-23, 240))

    def test_seam_order_gives_the_regions(self):
        # points (i, j)/48 in [-1, 2] x [-1/12, 1] cross all three seams, 64
        # of them on a seam
        model = build_spline()
        on_seam = 0
        for i, j in itertools.product(range(-48, 97), range(-4, 49)):
            p = ExactPoint.of(Q(i, 48), Q(j, 48))
            claims = _regions_holding(p.x0, p.x1)
            assert claims and claims in ([claims[0]], [claims[0], claims[0] + 1]), (p, claims)
            on_seam += len(claims) == 2
            assert model.classify_region(p) == claims[0] + 1, p
        assert on_seam == 64


class TestExactValues:
    def test_value_at_origin(self):
        assert spline.SPLINE.value(ExactPoint.of(0, 0)) == 0

    def test_value_at_violation_point(self):
        assert spline.SPLINE.value(ExactPoint.of(2, 0)) == Q(16991, 23040)

    def test_gradient_at_origin(self):
        assert spline.SPLINE.gradient(ExactPoint.of(0, 0)) == (0, 0)

    def test_gradient_at_violation_point(self):
        assert spline.SPLINE.gradient(ExactPoint.of(2, 0)) == (Q(253, 240), Q(77, 120))

    def test_piece_2_off_domain_algebra(self):
        # the raw quadratic evaluates everywhere even where the assembled
        # function's domain gate rejects the point
        p2 = build_spline().pieces[1]
        pt = ExactPoint.of(Q(3, 4), Q(-1, 4))
        assert p2.value(pt) == Q(59, 2880)
        assert p2.gradient(pt) == (Q(1, 40), Q(-1, 120))

    def test_in_domain_piece_2_value_and_gradient(self):
        pt = ExactPoint.of(Q(3, 4), Q(-1, 12))
        assert spline.SPLINE.value(pt) == spline.build_spline().pieces[1].value(pt)

    def test_float_path_matches_exact(self):
        for x0, x1 in [(0.5, 0.25), (2.0, 0.0), (-1.0, 1.0), (1.5, -0.05)]:
            exact = float(spline.SPLINE.value(ExactPoint.of(Q(x0), Q(x1))))
            assert spline.eval_F_float(x0, x1) == pytest.approx(exact, abs=1e-15)
            ge = spline.SPLINE.gradient(ExactPoint.of(Q(x0), Q(x1)))
            gf = spline.grad_F_float(x0, x1)
            assert gf[0] == pytest.approx(float(ge[0]), abs=1e-15)
            assert gf[1] == pytest.approx(float(ge[1]), abs=1e-15)


class TestSeams:
    def test_all_seams_pass(self):
        report = spline.verify_c1_seams()
        assert report.passed
        assert len(report.checks) == 3

    def test_perturbed_constant_breaks_a_seam(self):
        bad = build_spline({2: Q(1, 1000)})
        report = spline.verify_c1_seams(bad)
        assert not report.passed
        failing = [c for c in report.checks if not c.passed]
        assert failing and all("seam" in c.name for c in failing)

    @pytest.mark.parametrize("index", [0, 5, -1])
    def test_piece_index_out_of_range(self, index):
        # a mistyped hook is refused, not left to build the plain spline
        with pytest.raises(RangeError, match="1..4"):
            build_spline({index: Q(1, 1000)})

    # Each perturbation of a piece next to seam 1|2 (through z0 = (1/36, 0),
    # along d = (1, 3)) leaves some of its five residuals nonzero.
    @pytest.mark.parametrize("piece, deltas, residuals", [
        (1, {"c": Q(1, 1000)}, "grad_dir=(0,0) grad=(0,0) value=1/1000"),
        (1, {"b0": Q(1, 1000)}, "grad_dir=(0,0) grad=(1/1000,0) value=1/36000"),
        (1, {"b0": Q(1, 1000), "c": Q(-1, 36000)}, "grad_dir=(0,0) grad=(1/1000,0) value=0"),
        (1, {"b1": Q(1, 1000)}, "grad_dir=(0,0) grad=(0,1/1000) value=0"),
        (1, {"a11": Q(1, 1000)}, "grad_dir=(0,3/1000) grad=(0,0) value=0"),
        # 1/2000 (x0 - 1/36)^2: zero with its gradient at z0, curved along d
        (0, {"a00": Q(1, 1000), "b0": Q(-1, 36000), "c": Q(1, 2592000)},
         "grad_dir=(-1/1000,0) grad=(0,0) value=0"),
    ])
    def test_each_residual_is_reported(self, piece, deltas, residuals):
        first = spline.verify_c1_seams(_shifted(piece, **deltas)).checks[0]
        assert first.name == "seam 1|2 on <(3,-1),z> = 1/12"
        assert not first.passed
        assert first.detail == f"residuals {residuals}"

    def test_horizontal_seam(self):
        # a seam with n0 = 0, 2 x1 = 1/2, through z0 = (0, 1/4): q and
        # q + 1/7 (x1 - 1/4)^2 agree on it with their gradients; with b1
        # raised by 1/1000 they differ by x1/1000, which is 1/4000 at z0
        line = spline.HalfPlane((Q(0), Q(2)), Q(1, 2))
        q = spline.SPLINE.pieces[2]
        glued = replace(q, a11=q.a11 + Q(2, 7), b1=q.b1 - Q(1, 14), c=q.c + Q(1, 112))
        check, = spline.verify_c1_seams(spline.PiecewiseQuadratic((q, glued), (line,))).checks
        assert check.name == "seam 1|2 on <(0,2),z> = 1/2"
        assert check.passed and check.detail == "value and gradient agree identically"
        tilted = replace(glued, b1=glued.b1 + Q(1, 1000))
        check, = spline.verify_c1_seams(spline.PiecewiseQuadratic((q, tilted), (line,))).checks
        assert not check.passed
        assert check.detail == "residuals grad_dir=(0,0) grad=(0,1/1000) value=1/4000"

    @pytest.mark.parametrize("seam", [0, 1, 2])
    @pytest.mark.parametrize("side", [0, 1])
    def test_square_of_own_line_keeps_the_seam(self, seam, side):
        # how pieces 2 and 4 are built: coef * (<n, z> - beta)^2 vanishes on
        # the line with its gradient, so only the piece's other seam breaks
        base = build_spline()
        piece = seam + side
        q = spline._square_expansion(base.pieces[piece], Q(1, 7), base.seams[seam])
        model = _with_piece(piece, **asdict(q))
        passed = [c.passed for c in spline.verify_c1_seams(model).checks]
        assert passed == [k == seam or piece not in (k, k + 1) for k in range(3)]


def _with_eigenvalues(lam, mu):
    """The spline with piece 1's Hessian eigenvalues lam along (3, 4)/5 and mu along (-4, 3)/5."""
    return _with_piece(0, a00=(9 * lam + 16 * mu) / 25, a01=(12 * lam - 12 * mu) / 25,
                       a11=(16 * lam + 9 * mu) / 25)


class TestPieceSpectra:
    def test_all_pieces_pass(self):
        assert spline.verify_smooth_convex_pieces().passed

    @pytest.mark.parametrize("model, failing", [
        ("piece1-stiff", ["piece 1 1-smooth (eigenvalues within [0,1])"]),
        ("piece3-non-convex", ["piece 3 convex (trace=2/3, det=-1/3)"]),
    ])
    def test_broken_piece_fails_its_line(self, model, failing):
        report = spline.verify_smooth_convex_pieces(BROKEN_PIECES[model])
        assert [c.name for c in report.checks if not c.passed] == failing

    @pytest.mark.parametrize("lam, mu, convex, smooth", [
        (Q(0), Q(1), True, True),
        (Q(1), Q(0), True, True),
        (Q(-1, 1000), Q(1), False, True),
        (Q(0), Q(1001, 1000), True, False),
        (Q(1001, 1000), Q(-1, 1000), False, False),
    ])
    def test_eigenvalue_edges(self, lam, mu, convex, smooth):
        report = spline.verify_smooth_convex_pieces(_with_eigenvalues(lam, mu))
        assert [c.passed for c in report.checks[:2]] == [convex, smooth]
        assert all(c.passed for c in report.checks[2:])

    def test_exact_trace_det(self):
        pieces = build_spline().pieces
        # identity Hessians: eigenvalues {1, 1}
        assert (pieces[0].trace(), pieces[0].det()) == (2, 1)
        assert (pieces[2].trace(), pieces[2].det()) == (2, 1)
        # rank-one deficient: eigenvalues {0, 1}
        assert (pieces[1].trace(), pieces[1].det()) == (1, 0)
        assert (pieces[3].trace(), pieces[3].det()) == (1, 0)

    def test_piece_2_hessian_entries(self):
        p2 = build_spline().pieces[1]
        assert (p2.a00, p2.a01, p2.a11) == (Q(1, 10), Q(3, 10), Q(9, 10))

    def test_piece_4_hessian_entries(self):
        p4 = build_spline().pieces[3]
        assert (p4.a00, p4.a01, p4.a11) == (Q(4, 5), Q(2, 5), Q(1, 5))


class TestViolation:
    def test_exact_sides(self):
        lhs, rhs = spline.cocoercivity_sides()
        assert lhs == Q(17545, 23040)
        assert rhs == Q(16991, 23040)
        assert lhs - rhs == Q(554, 23040)

    def test_report(self):
        report = spline.verify_violation()
        assert report.passed
        assert "violation" in report.checks[0].detail

    # b0 + 1/1000 on piece 1 moves the gradient at (0,0) by (1/1000, 0) and
    # lowers the rhs by 2/1000; on piece 4 it moves the gradient at (2,0) and
    # f(2,0) by 2/1000, raising the rhs by as much.  The violation holds.
    @pytest.mark.parametrize("piece, lhs, rhs", [
        (0, Q(54752261, 72000000), Q(423623, 576000)),
        (3, Q(54904061, 72000000), Q(425927, 576000)),
    ])
    def test_sides_of_the_given_spline(self, piece, lhs, rhs):
        model = _shifted(piece, b0=Q(1, 1000))
        assert spline.cocoercivity_sides(model) == (lhs, rhs)
        (check,) = spline.verify_violation(model).checks
        assert check.passed
        assert check.detail == f"lhs = {lhs}, rhs = {rhs}, violation = {lhs - rhs}"


class TestVerifyAll:
    def test_every_part_checks_the_given_spline(self):
        # piece 1 stiffened to A = 2I breaks its seam, which the default
        # lattice's points on the seams see too, its spectrum and the lattice
        # pairs; (0,0) keeps its value and gradient
        report = spline.verify_all(spline=BROKEN_PIECES["piece1-stiff"])
        assert [c.name for c in report.checks if not c.passed] == [
            "seam 1|2 on <(3,-1),z> = 1/12",
            "piece 1 1-smooth (eigenvalues within [0,1])",
            "seam agreement at 41 multiply-claimed lattice points",
            "gradient monotonicity on 102456 lattice pairs",
            "1-smoothness (squared norms) on lattice pairs",
            "two-sided descent inequality on lattice pairs",
        ]


def test_every_verify_line_can_fail(monkeypatch, tmp_path):
    # through the CLI, so that verify's two float lines are judged too
    def verdicts(model):
        monkeypatch.setattr(spline, "build_spline", lambda offsets=None: model)
        out = tmp_path / "verify.json"
        cli.main(["verify", "--format", "json", "--out", str(out)])
        return [c["passed"] for c in json.loads(out.read_text())["checks"]]

    plain = verdicts(_PLAIN)
    assert all(plain) and len(plain) == 19
    # a new line without a model that fails it fails here
    assert sorted(FAILS_LINE) == list(range(len(plain)))
    by_model = {model: verdicts(model) for model in set(FAILS_LINE.values())}
    assert [line for line, model in FAILS_LINE.items() if by_model[model][line]] == []


# The paper's regions, written out apart from the spline's seam order: piece
# k + 1 is the set where every (normal, offset, side) of REGIONS[k] holds
# <normal, z> side offset, on the open domain x1 > -23/240.
REGIONS = (
    (((3, -1), Q(1, 12), "<="),),
    (((3, -1), Q(1, 12), ">="), ((3, -1), Q(31, 12), "<=")),
    (((3, -1), Q(31, 12), ">="), ((1, -2), Q(49, 48), "<=")),
    (((1, -2), Q(49, 48), ">="),),
)
REGION_DOMAIN_BOUND = Q(-23, 240)
_SIDES = {"<=": operator.le, ">=": operator.ge}


def _regions_holding(x0, x1, num=Q):
    """0-based pieces whose region in REGIONS holds (x0, x1), tested in num."""
    return [k for k, region in enumerate(REGIONS)
            if all(_SIDES[side](num(n0) * x0 + num(n1) * x1, num(offset))
                   for (n0, n1), offset, side in region)]


def _reference_grid_report(spacing, x_range, y_range, pair_stride, model):
    """The lattice checks as a per-pair Fraction loop: (name, passed) per line.

    Coverage holds when the model's seams are nested at every point: on the
    <= side of seam k means on the <= side of seam k+1.  The pieces and the
    pairs come from REGIONS, apart from the model's seam order.
    """
    nx = int((x_range[1] - x_range[0]) / spacing)
    ny = int((y_range[1] - y_range[0]) / spacing)
    pts = [
        ExactPoint(x_range[0] + i * spacing, y_range[0] + j * spacing)
        for i in range(nx + 1)
        for j in range(ny + 1)
    ]
    pts = [p for p in pts if p.x1 > REGION_DOMAIN_BOUND]
    coverage_ok = overlap_ok = True
    shared = 0
    data = []
    for p in pts:
        held = [h.contains(p) for h in model.seams]
        coverage_ok &= all(after for before, after in zip(held, held[1:]) if before)
        claims = _regions_holding(p.x0, p.x1)
        if not claims:
            coverage_ok = False
            break
        shared += len(claims) > 1
        overlap_ok &= (len({model.pieces[k].value(p) for k in claims}) == 1
                       and len({model.pieces[k].gradient(p) for k in claims}) == 1)
        q = model.pieces[claims[0]]
        data.append((p, q.value(p), q.gradient(p)))
    mono_ok = smooth_ok = descent_ok = True
    npairs = idx = 0
    for a, (pa, fa, ga) in enumerate(data):
        for pb, fb, gb in data[a + 1:]:
            idx += 1
            if idx % pair_stride:
                continue
            npairs += 1
            d0, d1 = pb.x0 - pa.x0, pb.x1 - pa.x1
            g0, g1 = gb[0] - ga[0], gb[1] - ga[1]
            mono_ok &= g0 * d0 + g1 * d1 >= 0
            smooth_ok &= g0 * g0 + g1 * g1 <= d0 * d0 + d1 * d1
            lower = fb - fa - (ga[0] * d0 + ga[1] * d1)
            descent_ok &= 0 <= lower <= (d0 * d0 + d1 * d1) / 2
    return [
        (f"region coverage on {len(pts)}-point lattice", coverage_ok),
        (f"seam agreement at {shared} multiply-claimed lattice points", overlap_ok),
        (f"gradient monotonicity on {npairs} lattice pairs", mono_ok),
        ("1-smoothness (squared norms) on lattice pairs", smooth_ok),
        ("two-sided descent inequality on lattice pairs", descent_ok),
    ]


def _with_piece(k, **coefficients):
    """The spline with some coefficients of its 0-based piece k replaced."""
    base = build_spline()
    pieces = list(base.pieces)
    pieces[k] = replace(pieces[k], **coefficients)
    return replace(base, pieces=tuple(pieces))


def _shifted(k, **deltas):
    """The spline with deltas added to some coefficients of its 0-based piece k."""
    q = build_spline().pieces[k]
    return _with_piece(k, **{name: getattr(q, name) + d for name, d in deltas.items()})


COARSE_LATTICE = dict(
    spacing=Q(1, 4),
    x_range=(Q(-2), Q(3)),
    y_range=(spline.DOMAIN_BOUND + Q(1, 240), Q(2)),
    pair_stride=3,
)
BOUNDARY_BAND = dict(
    spacing=Q(1, 32),
    x_range=(Q(-1, 4), Q(1, 4)),
    y_range=(spline.DOMAIN_BOUND + Q(1, 480), Q(0)),
    pair_stride=11,
)
# Straddles seam 1|2 at (1/36, 0) with a spacing of about 1e-9.  Scaled by
# their denominator D ~ 3.6e10 the pair checks could overflow int64, so the
# whole lattice is built in Python integers (dtype=object).
_H = Q(1, 10**9 + 7)
SEAM_CLOSE_UP = dict(
    spacing=_H,
    x_range=(Q(1, 36) - 2 * _H, Q(1, 36) + 2 * _H),
    y_range=(-2 * _H, 2 * _H),
    pair_stride=2,
)
# Crosses all three seams near x1 = 0 on points (i, j)/48: 3 lattice points
# on seam 1|2, 3 on seam 2|3 and 9 on seam 3|4, each claimed by two pieces.
SEAM_CROSSING = dict(
    spacing=Q(1, 48),
    x_range=(Q(0), Q(5, 4)),
    y_range=(Q(-4, 48), Q(4, 48)),
    pair_stride=37,
)
MODELS = {
    "plain": build_spline(),
    "piece2+1/1000": build_spline({2: Q(1, 1000)}),
    "piece4-1/7": build_spline({4: Q(-1, 7)}),
}
# piece k + 1 stiffened to a00 = a11 = 2 (convex, not 1-smooth) or made non-convex by a00 = -1/3
STIFF = [_with_piece(k, a00=Q(2), a11=Q(2)) for k in range(4)]
NON_CONVEX = [_with_piece(k, a00=Q(-1, 3)) for k in range(4)]
BROKEN_PIECES = {"piece1-stiff": STIFF[0], "piece3-non-convex": NON_CONVEX[2]}
_PLAIN = build_spline()
# seams 1|2 and 2|3 swapped: a point of piece 2's strip is on the <= side of
# seam 2|3, now first, and not of seam 1|2, now second
SWAPPED_SEAMS = replace(_PLAIN, seams=(_PLAIN.seams[1], _PLAIN.seams[0], _PLAIN.seams[2]))
# every piece 1/2 ||z||^2: at (0,0), (2,0) the co-coercivity sides are equal, lhs = rhs = 2
ALL_PIECE_1 = replace(_PLAIN, pieces=(_PLAIN.pieces[0],) * 4)

# For each verify line, by its position (a line's name can carry data), a
# spline on which it FAILs: lines 0-16 are verify_all's, 17 and 18 the two
# float checks cmd_verify adds.
FAILS_LINE = {
    0: MODELS["piece2+1/1000"],                         # seam 1|2
    1: MODELS["piece2+1/1000"],                         # seam 2|3
    2: MODELS["piece4-1/7"],                            # seam 3|4
    3: NON_CONVEX[0], 4: STIFF[0],                      # piece 1 convex, 1-smooth
    5: NON_CONVEX[1], 6: STIFF[1],                      # piece 2
    7: NON_CONVEX[2], 8: STIFF[2],                      # piece 3
    9: NON_CONVEX[3], 10: STIFF[3],                     # piece 4
    11: ALL_PIECE_1,                                    # co-coercivity violated
    12: SWAPPED_SEAMS,                                  # region coverage
    13: MODELS["piece2+1/1000"],                        # seam agreement
    14: STIFF[0], 15: STIFF[0], 16: STIFF[0],          # the lattice pair lines
    17: MODELS["piece2+1/1000"],                        # two-sided global bound
    18: MODELS["piece2+1/1000"],                        # local co-coercivity
}


LATTICES = {"coarse": COARSE_LATTICE, "band": BOUNDARY_BAND,
            "close-up": SEAM_CLOSE_UP, "seam-crossing": SEAM_CROSSING}


@functools.cache
def _cached_reference(model, lattice):
    """The Fraction reference for a spline on a named lattice, computed once per session."""
    return _reference_grid_report(model=model, **LATTICES[lattice])


def _pair_check_dtypes(monkeypatch):
    """The dtype of every array each later lattice check computes in, one per call."""
    seen, checks = [], spline._sampled_pair_checks

    def spy(X0, X1, f, g0, g1, M, pair_stride):
        (dtype,) = {v.dtype for v in (X0, X1, f, g0, g1)}
        seen.append(dtype.type)
        return checks(X0, X1, f, g0, g1, M, pair_stride)

    monkeypatch.setattr(spline, "_sampled_pair_checks", spy)
    return seen


class TestGridInvariants:
    def test_coarse_lattice(self):
        report = spline.verify_grid_properties(**COARSE_LATTICE)
        assert report.passed, report.to_text()

    def test_near_boundary_band(self):
        report = spline.verify_grid_properties(**BOUNDARY_BAND)
        assert report.passed, report.to_text()

    @pytest.mark.parametrize("lattice", ["coarse", "band", "close-up", "seam-crossing"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_matches_fraction_reference(self, lattice, model):
        report = spline.verify_grid_properties(spline=MODELS[model], **LATTICES[lattice])
        assert [(c.name, c.passed) for c in report.checks] == \
            _cached_reference(MODELS[model], lattice)

    def test_coverage_fails_when_the_seams_are_not_nested(self):
        for model, passed in ((_PLAIN, True), (SWAPPED_SEAMS, False)):
            coverage = spline.verify_grid_properties(spline=model).checks[0]
            assert (coverage.name, coverage.passed) == \
                ("region coverage on 2754-point lattice", passed)
        coarse = spline.verify_grid_properties(spline=SWAPPED_SEAMS, **COARSE_LATTICE).checks[0]
        assert (coarse.name, coarse.passed) == _cached_reference(SWAPPED_SEAMS, "coarse")[0]
        assert not coarse.passed

    @pytest.mark.parametrize("model", list(BROKEN_PIECES.values()))
    def test_non_convex_or_stiff_piece_matches_reference(self, model):
        report = spline.verify_grid_properties(spline=model, **COARSE_LATTICE)
        assert [(c.name, c.passed) for c in report.checks] == \
            _cached_reference(model, "coarse")
        assert not report.passed

    # Blocks hold whole rows: on the coarse lattice a row has up to 62
    # sampled pairs, so blocks of 1 and 7 meet rows longer than a block and
    # every size ends blocks between rows partway through the run of sampled
    # k.  Every block is checked, so each line's verdict and the pair count
    # must not depend on the block size.
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("lattice", ["coarse", "band"])
    @pytest.mark.parametrize("model", [*sorted(MODELS), *BROKEN_PIECES])
    def test_block_boundaries_match_reference(self, monkeypatch, chunk, lattice, model):
        monkeypatch.setattr(spline, "_PAIR_CHUNK", chunk)
        model = {**MODELS, **BROKEN_PIECES}[model]
        report = spline.verify_grid_properties(spline=model, **LATTICES[lattice])
        assert [(c.name, c.passed) for c in report.checks] == _cached_reference(model, lattice)

    @pytest.mark.parametrize("lattice", ["coarse", "band", "default"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_python_integers_agree_with_int64(self, monkeypatch, lattice, model):
        kw = {**LATTICES, "default": {}}[lattice]
        dtypes = _pair_check_dtypes(monkeypatch)
        fast = spline.verify_grid_properties(spline=MODELS[model], **kw)
        monkeypatch.setattr(spline, "_INT64_SAFE", 0)
        slow = spline.verify_grid_properties(spline=MODELS[model], **kw)
        assert dtypes == [np.int64, np.object_]
        assert fast.to_text() == slow.to_text()

    def test_seam_close_up_runs_in_python_integers(self, monkeypatch):
        dtypes = _pair_check_dtypes(monkeypatch)
        spline.verify_grid_properties(**SEAM_CLOSE_UP)
        assert dtypes == [np.object_]

    @pytest.mark.parametrize("model, passed", [("plain", True), ("piece2+1/1000", False)])
    def test_seam_agreement_counts_shared_points(self, model, passed):
        report = spline.verify_grid_properties(spline=MODELS[model], **SEAM_CROSSING)
        (seam,) = [c for c in report.checks if c.name.startswith("seam agreement")]
        assert seam.name == "seam agreement at 15 multiply-claimed lattice points"
        assert seam.passed is passed

    def test_default_lattice_counts(self):
        names = [c.name for c in spline.verify_grid_properties().checks]
        assert "region coverage on 2754-point lattice" in names
        assert "gradient monotonicity on 102456 lattice pairs" in names

    def test_default_lattice_lands_on_every_seam(self):
        # so the default seam agreement line checks points on each seam
        step = spline.DEFAULT_GRID_SPACING
        (x0, _), (y0, _) = spline.DEFAULT_X_RANGE, spline.DEFAULT_Y_RANGE
        nx, ny = spline.lattice_shape(step)
        points = [(x0 + i * step, y0 + j * step) for i in range(nx + 1) for j in range(ny + 1)]
        on_seam = [sum(h.normal[0] * p0 + h.normal[1] * p1 == h.offset for p0, p1 in points)
                   for h in spline.SPLINE.seams]
        assert on_seam == [12, 11, 18]
        names = [c.name for c in spline.verify_grid_properties().checks]
        assert f"seam agreement at {sum(on_seam)} multiply-claimed lattice points" in names

    @pytest.mark.parametrize("model", [*sorted(MODELS), *BROKEN_PIECES])
    def test_default_lattice_checks_every_sampled_pair(self, model):
        # a failing pair does not cut the sample short
        report = spline.verify_grid_properties(spline={**MODELS, **BROKEN_PIECES}[model])
        names = [c.name for c in report.checks]
        assert "gradient monotonicity on 102456 lattice pairs" in names

    @pytest.mark.parametrize("model", list(BROKEN_PIECES))
    def test_broken_piece_fails_every_pair_line(self, model):
        report = spline.verify_grid_properties(spline=BROKEN_PIECES[model])
        assert [(c.name, c.passed) for c in report.checks[2:]] == [
            ("gradient monotonicity on 102456 lattice pairs", False),
            ("1-smoothness (squared norms) on lattice pairs", False),
            ("two-sided descent inequality on lattice pairs", False),
        ]

    def test_domain_distance(self):
        assert spline.domain_distance(ExactPoint.of(0, 0)) == Q(23, 240)


def _reference_float(model, x0, x1):
    """Per-point float value, gradient and 1-based piece, as scalar code.

    The piece is the first whose region in REGIONS holds the point by float
    comparisons, or the last piece when none does.
    """
    k = (_regions_holding(x0, x1, num=float) or [len(REGIONS) - 1])[0]
    q = model.pieces[k]
    value = (0.5 * float(q.a00) * x0 * x0 + float(q.a01) * x0 * x1
             + 0.5 * float(q.a11) * x1 * x1 + float(q.b0) * x0 + float(q.b1) * x1
             + float(q.c))
    grad = (float(q.a00) * x0 + float(q.a01) * x1 + float(q.b0),
            float(q.a01) * x0 + float(q.a11) * x1 + float(q.b1))
    return value, grad, k + 1


def _seam_points():
    """Points whose float seam test evaluates to exactly the float offset."""
    pts = []
    for n0, n1, off in ((3.0, -1.0, 1 / 12), (3.0, -1.0, 31 / 12), (1.0, -2.0, 49 / 48)):
        for x0 in np.linspace(-1.0, 3.0, 33):
            x1 = (n0 * x0 - off) / -n1
            if x1 > spline.DOMAIN_BOUND_F and n0 * x0 + n1 * x1 == off:
                pts.append((x0, x1))
    return pts


class TestFloatEvaluator:
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_matches_scalar_reference_bit_for_bit(self, model):
        m = MODELS[model]
        grid = [(x0, x1) for x0 in np.linspace(-2.0, 3.0, 23)
                for x1 in np.linspace(spline.DOMAIN_BOUND_F + 1e-9, 2.0, 17)]
        seams = _seam_points()
        assert len(seams) >= 9
        X = np.array(grid + seams)
        points, pieces = m.eval_float(X)
        assert points.x.tobytes() == X.tobytes()
        assert set(pieces.tolist()) == {1, 2, 3, 4}
        for (x0, x1), v, g, k in zip(X.tolist(), points.f.tolist(), points.g.tolist(),
                                     pieces.tolist()):
            rv, rg, rk = _reference_float(m, x0, x1)
            assert (v, tuple(g), k) == (rv, rg, rk), (x0, x1)

    def test_outside_domain_rejected(self):
        for x1 in (spline.DOMAIN_BOUND_F, -1.0):
            with pytest.raises(DomainError):
                spline.SPLINE.eval_float(np.array([[0.0, 0.5], [0.0, x1]]))
            with pytest.raises(DomainError):
                spline.grad_F_float(0.0, x1)
        # a non-finite row is outside the open domain too
        for row in ([math.nan, 0.0], [0.0, math.nan], [math.inf, 0.0], [0.0, math.inf],
                    [-math.inf, 0.5]):
            with pytest.raises(DomainError):
                spline.SPLINE.eval_float(np.array([[0.0, 0.5], row]))

    def test_empty_input(self):
        points, pieces = spline.SPLINE.eval_float(np.empty((0, 2)))
        assert points.f.shape == pieces.shape == (0,)
        assert points.x.shape == points.g.shape == (0, 2)

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (2, 1), (1, 1, 2)])
    def test_rows_must_be_points_in_the_plane(self, shape):
        # an extra column is refused, not dropped; a 1-D X is not n x 2
        with pytest.raises(DimensionMismatch, match="n x 2"):
            spline.SPLINE.eval_float(np.zeros(shape))


class TestReport:
    def test_json_round_trip(self):
        import json

        report = spline.verify_violation()
        doc = json.loads(report.to_json())
        assert doc["passed"] is True
        assert doc["checks"][0]["name"].startswith("co-coercivity")

    def test_text_has_summary(self):
        assert "OK" in spline.verify_violation().to_text()
