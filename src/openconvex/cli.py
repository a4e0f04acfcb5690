"""Command-line front end.

Subcommands:
  verify       exact spline verification plus seeded empirical bound checks
  contour      CSV/SVG grid of the spline's piece index and value
  region       CSV/SVG of the inner/outer admissible-gap intervals
  sweep        CSV/SVG of the chain bounds B_N/U_N over the s grid
  solve        solve one chain program from a JSON spec
  interpolate  solve, build the segment interpolant and sample it

All files are written atomically (temp file + rename); floats are printed
with 17 significant digits so CSV output is byte-reproducible (for sweep, at
a fixed BLAS thread count).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from typing import NoReturn

import numpy as np

from . import bounds, chain, checks, interpolation, spline

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_ALL_INFEASIBLE = 2
EXIT_SOLVER_FAILURE = 3
EXIT_BAD_INPUT = 4


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _atomic_write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(r) for r in rows)
    return "\n".join(lines) + "\n"


# --- minimal SVG rendering ---------------------------------------------------

_SVG_W, _SVG_H, _SVG_PAD = 720, 480, 50


def _svg_document(body: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">\n'
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>\n'
        f"{body}</svg>\n"
    )


def _svg_lines(series: list[tuple[str, list[tuple[float, float]]]]) -> str:
    """Polyline chart; one (color, points) entry per series."""
    pts = [p for _, s in series for p in s if math.isfinite(p[0]) and math.isfinite(p[1])]
    if not pts:
        return _svg_document("")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = (_SVG_W - 2 * _SVG_PAD) / ((x1 - x0) or 1.0)
    sy = (_SVG_H - 2 * _SVG_PAD) / ((y1 - y0) or 1.0)

    def to_px(p):
        return (
            _SVG_PAD + (p[0] - x0) * sx,
            _SVG_H - _SVG_PAD - (p[1] - y0) * sy,
        )

    body = [
        f'<rect x="{_SVG_PAD}" y="{_SVG_PAD}" width="{_SVG_W - 2 * _SVG_PAD}" '
        f'height="{_SVG_H - 2 * _SVG_PAD}" fill="none" stroke="black"/>'
    ]
    for color, s in series:
        good = [p for p in s if math.isfinite(p[1])]
        if not good:
            continue
        path = " ".join(f"{px:.2f},{py:.2f}" for px, py in map(to_px, good))
        body.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    return _svg_document("\n".join(body) + "\n")


def _svg_heatmap(nx: int, ny: int, values: np.ndarray) -> str:
    finite = np.isfinite(values)
    shown = values[finite]
    lo, hi = (float(shown.min()), float(shown.max())) if shown.size else (0.0, 1.0)
    span = (hi - lo) or 1.0
    cw = (_SVG_W - 2 * _SVG_PAD) / nx
    ch = (_SVG_H - 2 * _SVG_PAD) / ny
    j, i = np.nonzero(finite)
    u = (shown - lo) / span
    r, g, b = (255 * u).astype(int), (64 + 128 * (1 - u)).astype(int), (255 * (1 - u)).astype(int)
    x = _SVG_PAD + i * cw
    y = _SVG_H - _SVG_PAD - (j + 1) * ch
    size = f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}"'
    cells = [
        f'<rect x="{xc:.2f}" y="{yc:.2f}" {size} fill="rgb({rc},{gc},{bc})"/>'
        for xc, yc, rc, gc, bc in zip(x.tolist(), y.tolist(), r.tolist(), g.tolist(), b.tolist())
    ]
    return _svg_document("\n".join(cells) + "\n")


# --- input checks --------------------------------------------------------------


def _bad_input(message: str) -> NoReturn:
    """Report malformed command-line input on one line and exit 4."""
    print(f"openconvex: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_BAD_INPUT)


def _require(ok: bool, message: str) -> None:
    if not ok:
        _bad_input(message)


def _fraction(text: str, name: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        _bad_input(f"{name} must be a rational number, got {text!r}")


def _n_list(text: str) -> list[int]:
    try:
        ns = [int(v) for v in text.split(",")]
    except ValueError:
        ns = []
    _require(bool(ns) and min(ns) >= 1,
             f"--N-list must be comma-separated positive integers, got {text!r}")
    return ns


def _finite(*values: float | None) -> bool:
    return all(v is None or math.isfinite(v) for v in values)


# --- subcommands -------------------------------------------------------------


def cmd_verify(args) -> int:
    spacing = _fraction(args.grid_spacing, "--grid-spacing")
    _require(spacing > 0, f"--grid-spacing must be positive, got {args.grid_spacing!r}")
    delta = _fraction(args.perturb_delta, "--perturb-delta")
    _require(args.pairs >= 1, f"--pairs must be at least 1, got {args.pairs}")
    _require(args.seed >= 0, f"--seed must be non-negative, got {args.seed}")
    offsets = None
    if args.perturb_piece is not None:
        offsets = {args.perturb_piece: delta}
    model = spline.build_spline(offsets)
    _require(args.perturb_piece is None or 1 <= args.perturb_piece <= len(model.pieces),
             f"--perturb-piece must be a piece index 1..{len(model.pieces)}, "
             f"got {args.perturb_piece}")
    report = spline.verify_all(spacing=spacing, spline=model)

    excursion = checks.global_bound_max_excursion(args.pairs, seed=args.seed)
    report.add(
        f"two-sided global bound on {args.pairs} random pairs",
        excursion <= 1e-12,
        f"max excursion {excursion:.3e}",
    )
    gap = checks.local_cocoercivity_min_gap(args.pairs, seed=args.seed)
    report.add(
        f"local co-coercivity on {args.pairs} random pairs",
        gap >= -1e-12,
        f"min gap {gap:.3e}",
    )

    text = report.to_json() + "\n" if args.format == "json" else report.to_text() + "\n"
    _atomic_write(args.out, text)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_contour(args) -> int:
    _require(args.nx >= 1 and args.ny >= 1,
             f"--nx and --ny must be at least 1, got {args.nx} and {args.ny}")
    _require(_finite(args.xmin, args.xmax, args.ymin, args.ymax),
             "--xmin, --xmax, --ymin and --ymax must be finite")
    ymin = args.ymin if args.ymin is not None else spline.DOMAIN_BOUND_F + 1e-6
    x = np.linspace(args.xmin, args.xmax, args.nx)
    y = np.linspace(ymin, args.ymax, args.ny)
    rows = y > spline.DOMAIN_BOUND_F
    X = np.column_stack([np.tile(x, rows.sum()), np.repeat(y[rows], args.nx)])
    v, piece = spline.eval_float(X)
    values = np.full((args.ny, args.nx), math.nan)
    values[rows] = v.reshape(-1, args.nx)
    if args.format == "svg":
        _atomic_write(args.out, _svg_heatmap(args.nx, args.ny, values))
    else:
        xs = [_fmt(t) for t in x.tolist()]
        ys = [_fmt(t) for t in y[rows].tolist()]
        cells = zip(itertools.product(ys, xs), piece.tolist(), v.tolist())
        table = [[x0, x1, str(k), _fmt(f)] for (x1, x0), k, f in cells]
        _atomic_write(args.out, _csv(["x0", "x1", "piece", "value"], table))
    return EXIT_OK


def cmd_region(args) -> int:
    _require(args.steps >= 1, f"--steps must be at least 1, got {args.steps}")
    ts = np.linspace(0.0, 1.0, args.steps + 1)
    rows = []
    for t in ts:
        inner, outer = bounds.analytical_region(float(t))
        rows.append([_fmt(float(t)), _fmt(inner.lo), _fmt(inner.hi),
                     _fmt(outer.lo), _fmt(outer.hi)])
    if args.format == "svg":
        series = [
            ("steelblue", [(float(r[0]), float(r[1])) for r in map(list, rows)]),
            ("steelblue", [(float(r[0]), float(r[2])) for r in map(list, rows)]),
            ("firebrick", [(float(r[0]), float(r[3])) for r in map(list, rows)]),
            ("firebrick", [(float(r[0]), float(r[4])) for r in map(list, rows)]),
        ]
        _atomic_write(args.out, _svg_lines(series))
    else:
        _atomic_write(
            args.out,
            _csv(["t", "inner_lo", "inner_hi", "outer_lo", "outer_hi"], rows),
        )
    return EXIT_OK


def _sweep_cell(job) -> chain.SweepRow:
    s, n = job
    return chain.sweep([s], [n])[0]


def cmd_sweep(args) -> int:
    _require(_finite(args.s_min, args.s_max), "--s-min and --s-max must be finite")
    _require(args.s_steps >= 1, f"--s-steps must be at least 1, got {args.s_steps}")
    ns = _n_list(args.n_list)
    s_max = args.s_max if args.s_max is not None else math.sqrt(0.5)
    s_values = [
        args.s_min + k * (s_max - args.s_min) / (args.s_steps - 1)
        for k in range(args.s_steps)
    ] if args.s_steps > 1 else [args.s_min]

    if args.workers > 1:
        jobs = [(s, n) for s in s_values for n in ns]
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_cell, jobs))
    else:
        rows = chain.sweep(s_values, ns)

    table = [[_fmt(r.s), str(r.N), _fmt(r.B), _fmt(r.U), r.status] for r in rows]
    if args.format == "svg":
        series = []
        palette = ["steelblue", "seagreen", "darkorange", "firebrick", "purple"]
        for k, n in enumerate(ns):
            color = palette[k % len(palette)]
            sub = [r for r in rows if r.N == n]
            series.append((color, [(r.s, r.B) for r in sub]))
            series.append((color, [(r.s, r.U) for r in sub]))
        _atomic_write(args.out, _svg_lines(series))
    else:
        _atomic_write(args.out, _csv(["s", "N", "B", "U", "status"], table))

    if all(r.status == chain.INFEASIBLE for r in rows):
        return EXIT_ALL_INFEASIBLE
    if any(r.status == chain.ITERATION_LIMIT for r in rows):
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


def _load_spec(path: str) -> chain.ChainSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return chain.ChainSpec(
            L=float(doc["L"]),
            x=np.asarray(doc["x"], dtype=float),
            y=np.asarray(doc["y"], dtype=float),
            f_x=float(doc["f_x"]),
            g_x=np.asarray(doc["g_x"], dtype=float),
            g_y=np.asarray(doc["g_y"], dtype=float),
            N=doc["N"],
            direction=str(doc.get("direction", "upper")).lower(),
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _bad_input(f"cannot read a chain spec from {path!r}: {exc!r}")


def cmd_solve(args) -> int:
    spec = _load_spec(getattr(args, "in"))
    result = chain.solve_spec(spec)
    knots = zip(result.chain.x.tolist(), result.chain.f.tolist(), result.chain.g.tolist())
    doc = {
        "status": result.status,
        "value": None if math.isnan(result.value) else result.value,
        "max_constraint_violation": result.max_constraint_violation,
        "duality_gap_estimate": result.duality_gap_estimate,
        "chain": [{"x": x, "f": f, "g": g} for x, f, g in knots],
    }
    _atomic_write(args.out, json.dumps(doc, indent=2) + "\n")
    if result.status == chain.ITERATION_LIMIT:
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


def cmd_interpolate(args) -> int:
    _require(args.t_steps >= 1, f"--t-steps must be at least 1, got {args.t_steps}")
    spec = _load_spec(getattr(args, "in"))
    result = chain.solve_spec(spec)
    if result.status == chain.INFEASIBLE:
        return EXIT_ALL_INFEASIBLE
    if result.status == chain.ITERATION_LIMIT:
        return EXIT_SOLVER_FAILURE
    interp = interpolation.build_segment_interpolant(spec.L, result.chain)
    t = np.arange(args.t_steps + 1) / args.t_steps
    v, dv = interpolation.eval_interpolant(interp, t)
    rows = [list(map(_fmt, row)) for row in zip(t.tolist(), v.tolist(), dv.tolist())]
    _atomic_write(args.out, _csv(["t", "value", "dvalue"], rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openconvex",
        description="Exact and numerical bounds for smooth convex functions on open sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats, default):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", default=default, choices=formats)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="exact spline verification")
    common(p, ["text", "json"], "text")
    p.add_argument("--grid-spacing", default="1/16", help="rational lattice spacing")
    p.add_argument("--pairs", type=int, default=2000,
                   help="random pairs for the empirical bound checks")
    p.add_argument("--perturb-piece", type=int, default=None,
                   help="test hook: 1-based piece whose constant is perturbed")
    p.add_argument("--perturb-delta", default="1/1000",
                   help="test hook: rational perturbation added to the constant")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("contour", help="piece/value grid of the spline")
    common(p, ["csv", "svg"], "csv")
    p.add_argument("--xmin", type=float, default=-1.5)
    p.add_argument("--xmax", type=float, default=2.5)
    p.add_argument("--ymin", type=float, default=None)
    p.add_argument("--ymax", type=float, default=2.0)
    p.add_argument("--nx", type=int, default=400)
    p.add_argument("--ny", type=int, default=400)
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("region", help="inner/outer admissible-gap intervals")
    common(p, ["csv", "svg"], "csv")
    p.add_argument("--steps", type=int, default=1000)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("sweep", help="chain bounds over the s grid")
    common(p, ["csv", "svg"], "csv")
    p.add_argument("--s-min", type=float, default=0.5)
    p.add_argument("--s-max", type=float, default=None)
    p.add_argument("--s-steps", type=int, default=60)
    p.add_argument("--N-list", dest="n_list", default="1,2,5,50")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("solve", help="solve one chain program from JSON")
    common(p, ["json"], "json")
    p.add_argument("--in", required=True, help="chain spec JSON path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("interpolate", help="sample the segment interpolant")
    common(p, ["csv"], "csv")
    p.add_argument("--in", required=True, help="chain spec JSON path")
    p.add_argument("--t-steps", type=int, default=100)
    p.set_defaults(func=cmd_interpolate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
