"""Exact checks of the piecewise-quadratic spline."""

import functools
import math
from dataclasses import asdict, replace
from fractions import Fraction as Q

import numpy as np
import pytest

from openconvex import spline
from openconvex.errors import DomainError
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
            spline.eval_F(ExactPoint.of(0, -1))


class TestExactValues:
    def test_value_at_origin(self):
        assert spline.eval_F(ExactPoint.of(0, 0)) == 0

    def test_value_at_violation_point(self):
        assert spline.eval_F(ExactPoint.of(2, 0)) == Q(16991, 23040)

    def test_gradient_at_origin(self):
        assert spline.grad_F(ExactPoint.of(0, 0)) == (0, 0)

    def test_gradient_at_violation_point(self):
        assert spline.grad_F(ExactPoint.of(2, 0)) == (Q(253, 240), Q(77, 120))

    def test_piece_2_off_domain_algebra(self):
        # the raw quadratic evaluates everywhere even where the assembled
        # function's domain gate rejects the point
        p2 = build_spline().pieces[1][0]
        pt = ExactPoint.of(Q(3, 4), Q(-1, 4))
        assert p2.value(pt) == Q(59, 2880)
        assert p2.gradient(pt) == (Q(1, 40), Q(-1, 120))

    def test_in_domain_piece_2_value_and_gradient(self):
        pt = ExactPoint.of(Q(3, 4), Q(-1, 12))
        assert spline.eval_F(pt) == spline.build_spline().pieces[1][0].value(pt)

    def test_float_path_matches_exact(self):
        for x0, x1 in [(0.5, 0.25), (2.0, 0.0), (-1.0, 1.0), (1.5, -0.05)]:
            exact = float(spline.eval_F(ExactPoint.of(Q(x0), Q(x1))))
            assert spline.eval_F_float(x0, x1) == pytest.approx(exact, abs=1e-15)
            ge = spline.grad_F(ExactPoint.of(Q(x0), Q(x1)))
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

    # Each perturbation of a piece next to seam 1|2 (through z0 = (1/36, 0),
    # along d = (1, 3)) leaves some of its five residuals nonzero.
    @pytest.mark.parametrize("piece, deltas, residuals", [
        (1, {"c": Q(1, 1000)}, "grad_dir=(0,0) grad=(Fraction(0, 1), Fraction(0, 1)) value=1/1000"),
        (1, {"b0": Q(1, 1000)},
         "grad_dir=(0,0) grad=(Fraction(1, 1000), Fraction(0, 1)) value=1/36000"),
        (1, {"b0": Q(1, 1000), "c": Q(-1, 36000)},
         "grad_dir=(0,0) grad=(Fraction(1, 1000), Fraction(0, 1)) value=0"),
        (1, {"b1": Q(1, 1000)}, "grad_dir=(0,0) grad=(Fraction(0, 1), Fraction(1, 1000)) value=0"),
        (1, {"a11": Q(1, 1000)}, "grad_dir=(0,3/1000) grad=(Fraction(0, 1), Fraction(0, 1)) value=0"),
        # 1/2000 (x0 - 1/36)^2: zero with its gradient at z0, curved along d
        (0, {"a00": Q(1, 1000), "b0": Q(-1, 36000), "c": Q(1, 2592000)},
         "grad_dir=(-1/1000,0) grad=(Fraction(0, 1), Fraction(0, 1)) value=0"),
    ])
    def test_each_residual_is_reported(self, piece, deltas, residuals):
        first = spline.verify_c1_seams(_shifted(piece, **deltas)).checks[0]
        assert first.name == "seam 1|2 on <(3,-1),z> = 1/12"
        assert not first.passed
        assert first.detail == f"residuals {residuals}"

    @pytest.mark.parametrize("seam", [0, 1, 2])
    @pytest.mark.parametrize("side", [0, 1])
    def test_square_of_own_line_keeps_the_seam(self, seam, side):
        # how pieces 2 and 4 are built: coef * (<n, z> - beta)^2 vanishes on
        # the line with its gradient, so only the piece's other seam breaks
        base = build_spline()
        piece = base.seams[seam][side]
        line = base.seams[seam][2]
        q = spline._square_expansion(base.pieces[piece][0], Q(1, 7), line.normal, line.offset)
        model = _with_piece(piece, **asdict(q))
        passed = [c.passed for c in spline.verify_c1_seams(model).checks]
        assert passed == [k == seam or piece not in base.seams[k][:2] for k in range(3)]


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
        pieces = [p for p, _ in build_spline().pieces]
        # identity Hessians: eigenvalues {1, 1}
        assert (pieces[0].trace(), pieces[0].det()) == (2, 1)
        assert (pieces[2].trace(), pieces[2].det()) == (2, 1)
        # rank-one deficient: eigenvalues {0, 1}
        assert (pieces[1].trace(), pieces[1].det()) == (1, 0)
        assert (pieces[3].trace(), pieces[3].det()) == (1, 0)

    def test_piece_2_hessian_entries(self):
        p2 = build_spline().pieces[1][0]
        assert (p2.a00, p2.a01, p2.a11) == (Q(1, 10), Q(3, 10), Q(9, 10))

    def test_piece_4_hessian_entries(self):
        p4 = build_spline().pieces[3][0]
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


def _reference_grid_report(spacing, x_range, y_range, pair_stride, model):
    """The lattice checks as a per-pair Fraction loop: (name, passed) per line."""
    nx = int((x_range[1] - x_range[0]) / spacing)
    ny = int((y_range[1] - y_range[0]) / spacing)
    pts = [
        ExactPoint(x_range[0] + i * spacing, y_range[0] + j * spacing)
        for i in range(nx + 1)
        for j in range(ny + 1)
    ]
    pts = [p for p in pts if model.in_domain(p)]
    coverage_ok = overlap_ok = True
    for p in pts:
        claims = [k for k, (_, region) in enumerate(model.pieces)
                  if all(h.contains(p) for h in region)]
        if not claims:
            coverage_ok = False
            break
        if len({model.pieces[k][0].value(p) for k in claims}) != 1 or \
                len({model.pieces[k][0].gradient(p) for k in claims}) != 1:
            overlap_ok = False
            break
    data = [(p, model.value(p), model.gradient(p)) for p in pts]
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
        if not (mono_ok and smooth_ok and descent_ok):
            break
    return [
        (f"region coverage on {len(pts)}-point lattice", coverage_ok),
        ("seam agreement at multiply-claimed lattice points", overlap_ok),
        (f"gradient monotonicity on {npairs} lattice pairs", mono_ok),
        ("1-smoothness (squared norms) on lattice pairs", smooth_ok),
        ("two-sided descent inequality on lattice pairs", descent_ok),
    ]


def _with_piece(k, **coefficients):
    """The spline with some coefficients of its 0-based piece k replaced."""
    base = build_spline()
    pieces = list(base.pieces)
    q, region = pieces[k]
    pieces[k] = (replace(q, **coefficients), region)
    return replace(base, pieces=tuple(pieces))


def _shifted(k, **deltas):
    """The spline with deltas added to some coefficients of its 0-based piece k."""
    q = build_spline().pieces[k][0]
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
MODELS = {
    "plain": build_spline(),
    "piece2+1/1000": build_spline({2: Q(1, 1000)}),
    "piece4-1/7": build_spline({4: Q(-1, 7)}),
}
BROKEN_PIECES = {
    "piece1-stiff": _with_piece(0, a00=Q(2), a11=Q(2)),       # not 1-smooth
    "piece3-non-convex": _with_piece(2, a00=Q(-1, 3)),        # not convex
}


@functools.cache
def _cached_reference(model, lattice):
    kw = {"coarse": COARSE_LATTICE, "band": BOUNDARY_BAND}[lattice]
    return _reference_grid_report(model={**MODELS, **BROKEN_PIECES}[model], **kw)


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

    @pytest.mark.parametrize("lattice", ["coarse", "band", "close-up"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_matches_fraction_reference(self, lattice, model):
        kw = {"coarse": COARSE_LATTICE, "band": BOUNDARY_BAND,
              "close-up": SEAM_CLOSE_UP}[lattice]
        report = spline.verify_grid_properties(spline=MODELS[model], **kw)
        expected = _reference_grid_report(model=MODELS[model], **kw)
        assert [(c.name, c.passed) for c in report.checks] == expected

    @pytest.mark.parametrize("model", list(BROKEN_PIECES.values()))
    def test_non_convex_or_stiff_piece_matches_reference(self, model):
        report = spline.verify_grid_properties(spline=model, **COARSE_LATTICE)
        expected = _reference_grid_report(model=model, **COARSE_LATTICE)
        assert [(c.name, c.passed) for c in report.checks] == expected
        assert not report.passed

    # Blocks hold whole rows: on the coarse lattice a row has up to 62
    # sampled pairs, so blocks of 1 and 7 meet rows longer than a block and
    # every size ends blocks between rows partway through the run of sampled
    # k.  piece4-1/7 and piece3-non-convex (coarse, every size) and
    # piece2+1/1000 (band, sizes 1 and 7) fail in a later block than the first.
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("lattice", ["coarse", "band"])
    @pytest.mark.parametrize("model", [*sorted(MODELS), *BROKEN_PIECES])
    def test_block_boundaries_match_reference(self, monkeypatch, chunk, lattice, model):
        monkeypatch.setattr(spline, "_PAIR_CHUNK", chunk)
        kw = {"coarse": COARSE_LATTICE, "band": BOUNDARY_BAND}[lattice]
        report = spline.verify_grid_properties(spline={**MODELS, **BROKEN_PIECES}[model], **kw)
        assert [(c.name, c.passed) for c in report.checks] == _cached_reference(model, lattice)

    @pytest.mark.parametrize("lattice", ["coarse", "band", "default"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_python_integers_agree_with_int64(self, monkeypatch, lattice, model):
        kw = {"coarse": COARSE_LATTICE, "band": BOUNDARY_BAND, "default": {}}[lattice]
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

    def test_uncovered_point_raises(self):
        base = build_spline()
        gap = replace(base, pieces=base.pieces[:3])
        with pytest.raises(DomainError, match="claimed by no region"):
            spline.verify_grid_properties(spline=gap, **COARSE_LATTICE)

    def test_default_lattice_counts(self):
        names = [c.name for c in spline.verify_grid_properties().checks]
        assert "region coverage on 2754-point lattice" in names
        assert "gradient monotonicity on 102456 lattice pairs" in names

    def test_perturbed_lattice_stops_after_failing_row(self):
        report = spline.verify_grid_properties(spline=MODELS["piece2+1/1000"])
        verdicts = {c.name: c.passed for c in report.checks}
        assert verdicts["gradient monotonicity on 446 lattice pairs"]
        assert not verdicts["two-sided descent inequality on lattice pairs"]

    def test_domain_distance(self):
        assert spline.domain_distance(ExactPoint.of(0, 0)) == Q(23, 240)


def _reference_float(model, x0, x1):
    """Per-point float value, gradient and 1-based piece, as scalar code."""
    k = len(model.pieces) - 1
    for j, (_, region) in enumerate(model.pieces):
        if all(float(h.normal[0]) * x0 + float(h.normal[1]) * x1 <= float(h.offset)
               for h in region):
            k = j
            break
    q = model.pieces[k][0]
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
        values, pieces = m.eval_float(X)
        # one classification pass gives the values' bits and the gradients
        both_values, grads = m.float_data(X)
        assert both_values.tobytes() == values.tobytes()
        assert set(pieces.tolist()) == {1, 2, 3, 4}
        for (x0, x1), v, g, k in zip(X.tolist(), values.tolist(), grads.tolist(), pieces.tolist()):
            rv, rg, rk = _reference_float(m, x0, x1)
            assert (v, tuple(g), k) == (rv, rg, rk), (x0, x1)

    def test_outside_domain_rejected(self):
        for x1 in (spline.DOMAIN_BOUND_F, -1.0):
            with pytest.raises(DomainError):
                spline.eval_float(np.array([[0.0, 0.5], [0.0, x1]]))
            with pytest.raises(DomainError):
                spline.grad_F_float(0.0, x1)
        # a non-finite row is outside the open domain too
        for row in ([math.nan, 0.0], [0.0, math.nan], [math.inf, 0.0], [0.0, math.inf],
                    [-math.inf, 0.5]):
            for evaluate in (spline.eval_float, spline.float_data):
                with pytest.raises(DomainError):
                    evaluate(np.array([[0.0, 0.5], row]))

    def test_empty_input(self):
        values, pieces = spline.eval_float(np.empty((0, 2)))
        assert values.shape == pieces.shape == (0,)


class TestReport:
    def test_json_round_trip(self):
        import json

        report = spline.verify_violation()
        doc = json.loads(report.to_json())
        assert doc["passed"] is True
        assert doc["checks"][0]["name"].startswith("co-coercivity")

    def test_text_has_summary(self):
        assert "OK" in spline.verify_violation().to_text()
