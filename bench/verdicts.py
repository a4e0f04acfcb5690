"""Correctness checks on the outputs of each workload, and their negative controls.

Every check maps an operation (a sweep cell, an interpolate request, a verify
line or a spline artefact) to the reasons it failed; an empty list means the
operation is correct.  Each ``corrupt_*`` function returns a damaged copy of
good output that its check must reject; the workloads run these controls on
every unit and the tests in ``test_bench.py`` run them on fixed data.
"""

from __future__ import annotations

import csv
import hashlib
import io

from openconvex import chain

# Solver tolerance in the normalised band units (L = 1, ||y - x|| = 1): the
# barrier stops at a duality gap of 1e-8, so 1e-7 leaves a tenfold margin.
BAND_TOL = 1e-7

# sha256 of `openconvex contour` (400 x 400, default window) at the commit
# that introduced this benchmark; the CSV is byte-reproducible by design.
CONTOUR_SHA256 = "0408ad147224d2c2178ad66e85f1e2ff734e0f6f63853c5a36a27b77c72fd4c2"

VERIFY_CHECKS = 19          # lines `openconvex verify` prints before its summary
PERTURBED_EXIT = 1          # exit code of a verify run on a perturbed spline


# --- bands ----------------------------------------------------------------


def parse_sweep_csv(text: str) -> list[tuple[float, int, float, float, str]]:
    reader = csv.DictReader(io.StringIO(text))
    return [(float(r["s"]), int(r["N"]), float(r["B"]), float(r["U"]), r["status"])
            for r in reader]


def check_band_rows(rows, tol: float = BAND_TOL) -> dict[tuple[float, int], list[str]]:
    """Reasons each (s, N) cell of a sweep on [1/2, sqrt(1/2)] is wrong.

    Checks: status Optimal, B <= U, N = 1 against the closed form, the
    reversal identity B = s - U, and refinement monotonicity B_M <= B_N and
    U_N <= U_M for N | M.  Nesting in the opposite direction is never
    checked: it contradicts refinement monotonicity.
    """
    bad: dict[tuple[float, int], list[str]] = {}
    cells = {(s, n): (b, u, status) for s, n, b, u, status in rows}
    for (s, n), (b, u, status) in cells.items():
        reasons = []
        if status != chain.OPTIMAL:
            reasons.append(f"status {status}")
        if not b <= u + tol:
            reasons.append(f"B {b!r} > U {u!r}")
        if not abs(b - (s - u)) <= tol:
            reasons.append(f"reversal B - (s - U) = {b - (s - u):.3e}")
        if n == 1:
            b1, u1, _ = chain.closed_form_n1(chain.normalized_spec(s, 1))
            if not (abs(b - b1) <= tol and abs(u - u1) <= tol):
                reasons.append(f"N=1 ({b!r}, {u!r}) vs closed form ({b1!r}, {u1!r})")
        for (s2, m), (bm, um, _) in cells.items():
            if s2 != s or m == n or m % n:
                continue
            if not bm <= b + tol:
                reasons.append(f"B_{m} {bm!r} > B_{n} {b!r}")
            if not u <= um + tol:
                reasons.append(f"U_{n} {u!r} > U_{m} {um!r}")
        if reasons:
            bad[(s, n)] = reasons
    return bad


def corrupt_band_rows(rows):
    """Swap B and U in the widest cell of the grid."""
    rows = list(rows)
    k = max(range(len(rows)), key=lambda i: rows[i][3] - rows[i][2])
    s, n, b, u, status = rows[k]
    rows[k] = (s, n, u, b, status)
    return rows


# --- specs ----------------------------------------------------------------


def check_spec_request(req: dict) -> list[str]:
    """Reasons one interpolate request came back wrong.

    ``req`` holds the generator's truth (``infeasible``, ``direction``,
    ``f_y``), the CLI exit code, the solver result seen by the request
    (``status``, ``value``, ``gap``) and the interpolant's value at t = 1.
    """
    reasons = []
    if req["infeasible"]:
        if req["status"] != chain.INFEASIBLE:
            reasons.append(f"monotonicity-violating spec came back {req['status']}")
        if req["exit"] != 2:
            reasons.append(f"exit {req['exit']} on an infeasible spec")
        return reasons
    if req["status"] != chain.OPTIMAL or req["exit"] != 0:
        return [f"status {req['status']}, exit {req['exit']} on a feasible spec"]
    value, f_y = req["value"], req["f_y"]
    slack = req["gap"] + 1e-9 * (1.0 + abs(f_y))
    if req["direction"] == chain.UPPER and not value >= f_y - slack:
        reasons.append(f"upper bound {value!r} below f(y) {f_y!r}")
    if req["direction"] == chain.LOWER and not value <= f_y + slack:
        reasons.append(f"lower bound {value!r} above f(y) {f_y!r}")
    t1 = req["t1_value"]
    if t1 is None or not abs(t1 - value) <= 1e-9 * (1.0 + abs(value)):
        reasons.append(f"interpolant at t=1 is {t1!r}, bound is {value!r}")
    return reasons


def corrupt_spec_request(req: dict) -> dict:
    """Report the opposite status for the request."""
    wrong = chain.OPTIMAL if req["status"] == chain.INFEASIBLE else chain.INFEASIBLE
    return dict(req, status=wrong)


# --- spline ---------------------------------------------------------------


def check_verify_text(text: str) -> list[str]:
    """One entry per verify check line that is not PASS, or a count mismatch."""
    lines = text.splitlines()
    checks, summary = lines[:-1], lines[-1] if lines else ""
    bad = [line for line in checks if not line.startswith("PASS  ")]
    if len(checks) != VERIFY_CHECKS:
        bad.append(f"{len(checks)} check lines, expected {VERIFY_CHECKS}")
    if summary != f"OK: {VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed":
        bad.append(f"summary {summary!r}")
    return bad


def corrupt_verify_text(text: str) -> str:
    return text.replace("PASS  ", "FAIL  ", 1)


def check_perturbed_exit(code: int) -> list[str]:
    return [] if code == PERTURBED_EXIT else [f"perturbed verify exited {code}"]


def check_contour(data: bytes) -> list[str]:
    digest = hashlib.sha256(data).hexdigest()
    return [] if digest == CONTOUR_SHA256 else [f"contour sha256 {digest}"]


def corrupt_contour(data: bytes) -> bytes:
    return data[:-2] + bytes([data[-2] ^ 1]) + data[-1:]
