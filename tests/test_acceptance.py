"""Acceptance gate: one test per numbered criterion.

Each test prints a single PASS/FAIL summary line before asserting, so the
verbose log doubles as a checklist.  Criterion 10 checks that the chain
bands widen under refinement (B_50 <= B_5 <= B_1 and U_1 <= U_5 <= U_50) and
that the N = 5 band fills all but 2% of the N = 50 band's width.
"""

import math
import time
from fractions import Fraction as Q

import numpy as np
import pytest

from openconvex import bounds, chain, checks, cli, interpolation, spline
from openconvex.bounds import PointData
from openconvex.spline import ExactPoint

from grid_oracle import oracle_grid_n2
from interpolation_helpers import combine, eval_mixture

S_MAX = math.sqrt(0.5)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_01_exact_counterexample():
    start = time.perf_counter()
    value = spline.SPLINE.value(ExactPoint.of(2, 0))
    grad = spline.SPLINE.gradient(ExactPoint.of(2, 0))
    lhs, rhs = spline.cocoercivity_sides()
    elapsed = time.perf_counter() - start
    ok = (
        value == Q(16991, 23040)
        and grad == (Q(253, 240), Q(77, 120))
        and lhs == Q(17545, 23040)
        and lhs > rhs
        and elapsed < 1.0
    )
    _report(1, ok, f"exact rational reproduction, {elapsed:.3f}s")
    assert value == Q(16991, 23040)
    assert grad == (Q(253, 240), Q(77, 120))
    assert lhs == Q(17545, 23040)
    assert lhs > rhs
    assert elapsed < 1.0


def test_criterion_02_seams_and_spectra():
    seams = spline.verify_c1_seams()
    pieces_report = spline.verify_smooth_convex_pieces()
    model = spline.build_spline()
    spectra = [(p.trace(), p.det()) for p in model.pieces]
    expected = [(2, 1), (1, 0), (2, 1), (1, 0)]
    ok = seams.passed and pieces_report.passed and spectra == expected
    _report(2, ok, "C1 seams and exact piece spectra")
    assert seams.passed, seams.to_text()
    assert pieces_report.passed, pieces_report.to_text()
    assert spectra == expected


def test_criterion_03_global_bound_random_pairs():
    start = time.perf_counter()
    excursion = checks.global_bound_max_excursion(10_000, seed=0)
    elapsed = time.perf_counter() - start
    ok = excursion <= 1e-12 and elapsed < 10.0
    _report(3, ok, f"max excursion {excursion:.3e} over 1e4 pairs, {elapsed:.2f}s")
    assert excursion <= 1e-12
    assert elapsed < 10.0


def test_criterion_04_local_cocoercivity_random_pairs():
    gap = checks.local_cocoercivity_min_gap(1_000, seed=0)
    ok = gap >= -1e-12
    _report(4, ok, f"min co-coercivity gap {gap:.3e} over 1e3 local pairs")
    assert gap >= -1e-12


def test_criterion_05_sum_identity():
    worst = 0.0
    rng = np.random.default_rng(0)
    for N in range(1, 51):
        for xi in rng.uniform(0.0, N, size=100):
            direct, closed = bounds.sum_identity(N, float(xi))
            worst = max(worst, abs(direct - closed) / (N * N))
    d1, _ = bounds.sum_identity(4, 1.5)
    d2, _ = bounds.sum_identity(6, 6.0)
    d3, _ = bounds.sum_identity(7, 0.0)
    hand_ok = (
        abs(d1 - 6.25) <= 1e-12
        and abs(d2 - 0.0) <= 1e-12
        and abs(d3 - 49.0) <= 1e-12
    )
    ok = worst <= 1e-9 and hand_ok
    _report(5, ok, f"worst relative residual {worst:.3e}, hand cases exact")
    assert worst <= 1e-9
    assert hand_ok


def test_criterion_06_region_inclusion():
    ts = np.linspace(0.0, 1.0, 1001)
    ok = True
    for t in ts:
        inner, outer = bounds.analytical_region(float(t))
        if not (outer.lo - 1e-15 <= inner.lo and inner.hi <= outer.hi + 1e-15):
            ok = False
        if 0.0 < t < 1.0 and not (inner.lo > outer.lo or inner.hi < outer.hi):
            ok = False
    for t in (0.0, 1.0):
        inner, outer = bounds.analytical_region(t)
        if inner.hi - inner.lo > 1e-15 or outer.hi - outer.lo > 1e-15:
            ok = False
    _report(6, ok, "inner region strictly inside outer on 1000-step grid")
    assert ok


def test_criterion_07_solver_vs_closed_form_n1():
    worst = 0.0
    for s in np.linspace(0.5, S_MAX, 50):
        b1, u1, _ = chain.closed_form_n1(chain.normalized_spec(float(s), 1))
        lo = chain.solve_spec(chain.normalized_spec(float(s), 1, chain.LOWER))
        up = chain.solve_spec(chain.normalized_spec(float(s), 1, chain.UPPER))
        assert lo.status == chain.OPTIMAL and up.status == chain.OPTIMAL
        worst = max(worst, abs(lo.value - b1), abs(up.value - u1))
    infeasible = chain.solve_spec(chain.normalized_spec(0.45, 1, chain.LOWER))
    ok = worst <= 1e-6 and infeasible.status == chain.INFEASIBLE
    _report(7, ok, f"worst N=1 deviation {worst:.3e}; s=0.45 flagged infeasible")
    assert worst <= 1e-6
    assert infeasible.status == chain.INFEASIBLE


def test_criterion_08_solver_vs_grid_oracle_n2():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for s in rng.uniform(0.52, S_MAX - 0.01, size=10):
        spec = chain.normalized_spec(float(s), 2)
        b2o, u2o = oracle_grid_n2(spec, resolution=400)
        lo = chain.solve_spec(chain.normalized_spec(float(s), 2, chain.LOWER))
        up = chain.solve_spec(chain.normalized_spec(float(s), 2, chain.UPPER))
        worst = max(worst, abs(lo.value - b2o), abs(up.value - u2o))
    elapsed = time.perf_counter() - start
    ok = worst <= 2e-3 and elapsed < 60.0
    _report(8, ok, f"worst N=2 oracle deviation {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 2e-3
    assert elapsed < 60.0


def test_criterion_09_analytical_sandwich(default_sweep):
    worst = -math.inf
    n_optimal = 0
    for row in default_sweep:
        if row.status != chain.OPTIMAL:
            continue
        n_optimal += 1
        lower = 0.5 * row.s * row.s          # directional-bound value from x
        upper = row.s - 0.5 * row.s * row.s  # same bound with roles switched
        worst = max(worst, lower - row.B, row.U - upper)
    ok = n_optimal > 0 and worst <= 1e-6
    _report(9, ok, f"{n_optimal} Optimal rows, worst sandwich excess {worst:.3e}")
    assert n_optimal > 0
    assert worst <= 1e-6


def test_criterion_10_band_nesting_and_overlap():
    # The chain constraints are the two-point interpolation conditions for
    # L-smooth convex functions, so splitting every link of a feasible N-chain
    # into k links gives a feasible kN-chain with the same endpoint values:
    # B_kN <= B_N <= U_N <= U_kN.  Here 1 | 5 | 50, so the bands widen with N.
    failures = []
    for s in (0.55, 0.6, 0.65):
        vals = {}
        for N in (1, 5, 50):
            lo = chain.solve_spec(chain.normalized_spec(s, N, chain.LOWER))
            up = chain.solve_spec(chain.normalized_spec(s, N, chain.UPPER))
            assert lo.status == chain.OPTIMAL and up.status == chain.OPTIMAL
            vals[N] = (lo.value, up.value)
        b1, u1 = vals[1]
        b5, u5 = vals[5]
        b50, u50 = vals[50]
        if not b50 <= b5 + 1e-6:
            failures.append(f"s={s}: B50={b50:.6f} > B5={b5:.6f} + 1e-6")
        if not b5 <= b1 + 1e-6:
            failures.append(f"s={s}: B5={b5:.6f} > B1={b1:.6f} + 1e-6")
        if not u1 <= u5 + 1e-6:
            failures.append(f"s={s}: U1={u1:.6f} > U5={u5:.6f} + 1e-6")
        if not u5 <= u50 + 1e-6:
            failures.append(f"s={s}: U5={u5:.6f} > U50={u50:.6f} + 1e-6")
        # Normalise by the width of the band compared against: U1 - B1 = s - 1/2
        # closes faster than U50 - B50 towards s = 1/2, so it cannot serve.
        width = u50 - b50
        if not u50 - u5 <= 0.02 * width:
            failures.append(
                f"s={s}: U50-U5={u50 - u5:.3e} > 0.02*(U50-B50)={0.02 * width:.3e}"
            )
        if not b5 - b50 <= 0.02 * width:
            failures.append(
                f"s={s}: B5-B50={b5 - b50:.3e} > 0.02*(U50-B50)={0.02 * width:.3e}"
            )
    ok = not failures
    _report(10, ok, "bands widen in N (1 | 5 | 50); N=5 within 2% of the N=50 width"
            if ok else "; ".join(failures))
    assert not failures, "\n".join(failures)


def test_criterion_11_interpolation_round_trip():
    worst_knot = 0.0
    worst_convex = 0.0
    worst_smooth = 0.0
    worst_end = 0.0
    worst_mid = 0.0
    for s in (0.55, 0.65):
        for N in (2, 5):
            lo = chain.solve_spec(chain.normalized_spec(s, N, chain.LOWER))
            up = chain.solve_spec(chain.normalized_spec(s, N, chain.UPPER))
            assert lo.status == chain.OPTIMAL and up.status == chain.OPTIMAL
            Fb = interpolation.build_segment_interpolant(1.0, lo.chain)
            Fu = interpolation.build_segment_interpolant(1.0, up.chain)
            for res, interp in ((lo, Fb), (up, Fu)):
                for k, knot in enumerate(interp.knots):
                    v, dv = interpolation.eval_interpolant(interp, k / N)
                    worst_knot = max(worst_knot, abs(v - knot.f))
                    d = float(knot.g @ (interp.y - interp.x))
                    worst_knot = max(worst_knot, abs(dv - d))
                v_end, _ = interpolation.eval_interpolant(interp, 1.0)
                worst_end = max(worst_end, abs(v_end - res.value))
                ts = np.linspace(0.0, 1.0, 401)
                ders = [interpolation.eval_interpolant(interp, float(t))[1]
                        for t in ts]
                h = float(ts[1] - ts[0])
                for d1, d2 in zip(ders, ders[1:]):
                    worst_convex = max(worst_convex, d1 - d2)
                    worst_smooth = max(worst_smooth, abs(d2 - d1) - h)
            Fm = combine(Fu, Fb, 0.5)
            v_mid, _ = eval_mixture(Fm, 1.0)
            worst_mid = max(worst_mid, abs(v_mid - 0.5 * (lo.value + up.value)))
    ok = (worst_knot <= 1e-10 and worst_convex <= 1e-9
          and worst_smooth <= 1e-9 and worst_end <= 1e-6 and worst_mid <= 1e-6)
    _report(11, ok,
            f"knot {worst_knot:.1e}, convexity {worst_convex:.1e}, "
            f"smoothness {worst_smooth:.1e}, endpoint {worst_end:.1e}, "
            f"combine {worst_mid:.1e}")
    assert worst_knot <= 1e-10
    assert worst_convex <= 1e-9
    assert worst_smooth <= 1e-9
    assert worst_end <= 1e-6
    assert worst_mid <= 1e-6


def test_criterion_12_sweep_determinism(tmp_path):
    args = ["sweep", "--s-steps", "8", "--N-list", "1,2,5"]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli.main(args + ["--out", str(out1)]) == cli.EXIT_OK
    assert cli.main(args + ["--out", str(out2)]) == cli.EXIT_OK
    ok = out1.read_bytes() == out2.read_bytes()
    _report(12, ok, "byte-identical sweep CSV across reruns")
    assert ok
