"""Command-line front end.

Subcommands:
  verify       exact spline verification plus seeded empirical bound checks
  contour      CSV/SVG grid of the spline's piece index and value
  region       CSV/SVG of the inner/outer admissible-gap intervals
  sweep        CSV/SVG of the chain bounds B_N/U_N over s in [1/2, sqrt(1/2)]
  solve        solve one chain program from a JSON spec
  interpolate  solve, build the segment interpolant and sample it

All files are written atomically (temp file + rename); floats are printed
with 17 significant digits so CSV output is byte-reproducible, at any BLAS
thread count.  A CSV table is formatted a block of rows at a
time, by one ``%`` format over the block's cells (``"%.17g" % v`` is the same
text as ``format(v, ".17g")``), so no cell is formatted by its own call, and
each block is written as it is formatted, so no table is held whole, nor
the grid behind ``contour``'s: it is evaluated a block of rows at a time.
The argument parser is built once per process and reused by every ``main``
call.  Each option's check is its argparse ``type=`` converter, and every
parse error, a refused value included, is one ``openconvex: error:`` line
and exit 4.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
import tempfile
from fractions import Fraction
from typing import Iterable, Iterator, NoReturn

import numpy as np

from . import bounds, chain, checks, interpolation, spline
from .errors import RangeError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_ALL_INFEASIBLE = 2
EXIT_SOLVER_FAILURE = 3
EXIT_BAD_INPUT = 4

# what verify --perturb-piece adds to the piece's constant term
PERTURB_DELTA = Fraction(1, 1000)
# random pairs of each of verify's two float bound checks
VERIFY_PAIRS = 2000
# contour's grid: CONTOUR_SHAPE = (nx, ny) points on CONTOUR_X x CONTOUR_Y, all in x1 > -23/240
CONTOUR_X = (-1.5, 2.5)
CONTOUR_Y = (spline.DOMAIN_BOUND_F + 1e-6, 2.0)
CONTOUR_SHAPE = (400, 400)
# grid points that contour evaluates per block of rows (the fastest of 2**11..2**17)
_CONTOUR_CHUNK = 1 << 13
# steps of t over [0, 1] in region's table and in interpolate's
REGION_STEPS, T_STEPS = 1000, 100


def _atomic_write(path: str | None, text: str | Iterable[str]) -> None:
    """Write text, or an iterable of text chunks, to path or stdout."""
    chunks = [text] if isinstance(text, str) else text
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        return
    directory = os.path.dirname(os.path.abspath(path))
    # mkstemp creates the file 0600: give it the mode an existing file has,
    # or that open() would give a new one under the umask
    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cells(*columns: list) -> list:
    """The cells of the rows whose columns are given, row after row."""
    cells = [None] * (len(columns) * len(columns[0]))
    for k, column in enumerate(columns):
        cells[k::len(columns)] = column
    return cells


def _csv(header: str, block: str, blocks: Iterable[list]) -> Iterator[str]:
    """The header line, then ``block % tuple(cells)`` for each block's cells.

    ``block`` holds one %-conversion per cell of a block of rows, so each
    block is formatted by one % operation.  The text is yielded a block at a
    time, so a table is never held whole.
    """
    yield header + "\n"
    for cells in blocks:
        yield block % tuple(cells)


# --- minimal SVG rendering ---------------------------------------------------

_SVG_W, _SVG_H, _SVG_PAD = 720, 480, 50


def _svg_document(body: Iterable[str]) -> Iterator[str]:
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">\n'
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>\n'
    )
    yield from body
    yield "</svg>\n"


def _svg_lines(series: list[tuple[str, list[tuple[float, float]]]]) -> Iterator[str]:
    """Polyline chart; one (color, points) entry per series."""
    pts = [p for _, s in series for p in s]
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
        path = " ".join(f"{px:.2f},{py:.2f}" for px, py in map(to_px, s))
        body.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    return _svg_document(["\n".join(body) + "\n"])


def _svg_heatmap(values: np.ndarray) -> Iterator[str]:
    """The <rect> lines of values (ny x nx), a grid row at a time."""
    ny, nx = values.shape
    lo, hi = float(values.min()), float(values.max())
    span = (hi - lo) or 1.0
    cw = (_SVG_W - 2 * _SVG_PAD) / nx
    ch = (_SVG_H - 2 * _SVG_PAD) / ny
    size = f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}"'
    xs = (_SVG_PAD + np.arange(nx) * cw).tolist()
    for j in range(ny):
        u = (values[j] - lo) / span
        r, g, b = (255 * u).astype(int), (64 + 128 * (1 - u)).astype(int), (255 * (1 - u)).astype(int)
        y = f"{_SVG_H - _SVG_PAD - (j + 1) * ch:.2f}"
        yield "".join(
            f'<rect x="{xc:.2f}" y="{y}" {size} fill="rgb({rc},{gc},{bc})"/>\n'
            for xc, rc, gc, bc in zip(xs, r.tolist(), g.tolist(), b.tolist())
        )


# --- input checks --------------------------------------------------------------


def _bad_input(message: str) -> NoReturn:
    """Report malformed command-line input on one line and exit 4."""
    print(f"openconvex: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_BAD_INPUT)


class _Parser(argparse.ArgumentParser):
    """Refuses every parse error through _bad_input; subparsers share the class."""

    def error(self, message: str) -> NoReturn:
        _bad_input(message)


def _checked(convert, ok, what: str):
    """An argparse type= converter: convert(text), refused unless ok accepts it."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


_count = _checked(int, lambda n: 1 <= n <= chain.MAX_N, f"an integer from 1 to {chain.MAX_N}")
_seed = _checked(int, lambda n: n >= 0, "a non-negative integer")
_n_list = _checked(lambda text: [int(v) for v in text.split(",")],
                   lambda ns: 1 <= min(ns) <= max(ns) <= chain.MAX_N,
                   f"comma-separated integers from 1 to {chain.MAX_N}")
# os.replace would turn a link, FIFO or device into a regular file
_out_path = _checked(str, lambda p: p == "-" or (
    os.path.basename(p) != "" and os.path.isdir(os.path.dirname(os.path.abspath(p)))
    and (not os.path.lexists(p) or stat.S_ISREG(os.lstat(p).st_mode))),
    "'-' or a new or regular file in an existing directory")


# --- subcommands -------------------------------------------------------------


def cmd_verify(args) -> int:
    offsets = None if args.perturb_piece is None else {args.perturb_piece: PERTURB_DELTA}
    model = spline.build_spline(offsets)
    report = spline.verify_all(spline=model)

    excursion = checks.global_bound_max_excursion(VERIFY_PAIRS, seed=args.seed, model=model)
    report.add(
        f"two-sided global bound on {VERIFY_PAIRS} random pairs",
        excursion <= 1e-12,
        f"max excursion {excursion:.3e}",
    )
    gap = checks.local_cocoercivity_min_gap(VERIFY_PAIRS, seed=args.seed, model=model)
    report.add(
        f"local co-coercivity on {VERIFY_PAIRS} random pairs",
        gap >= -1e-12,
        f"min gap {gap:.3e}",
    )

    text = report.to_json() + "\n" if args.format == "json" else report.to_text() + "\n"
    _atomic_write(args.out, text)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_contour(args) -> int:
    nx, ny = CONTOUR_SHAPE
    x, y = np.linspace(*CONTOUR_X, nx), np.linspace(*CONTOUR_Y, ny)

    def grid() -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
        """(y, piece row, value row) of each grid row, a block of rows per eval_float."""
        step = max(1, _CONTOUR_CHUNK // nx)
        for j in range(0, ny, step):
            yb = y[j:j + step]
            points, piece = spline.SPLINE.eval_float(
                np.column_stack([np.tile(x, yb.size), np.repeat(yb, nx)]))
            yield from zip(yb.tolist(), piece.reshape(-1, nx), points.f.reshape(-1, nx))

    if args.format == "svg":
        # the colour scale needs every value before the first cell is drawn
        values = np.array([f for _, _, f in grid()])
        _atomic_write(args.out, _svg_document(_svg_heatmap(values)))
    else:
        # one block per row of the grid, its x labels formatted once
        block = ("%.17g,%%s,%%d,%%.17g\n" * nx) % tuple(x.tolist())
        blocks = (_cells(["%.17g" % y1] * nx, k.tolist(), f.tolist()) for y1, k, f in grid())
        _atomic_write(args.out, _csv("x0,x1,piece,value", block, blocks))
    return EXIT_OK


def cmd_region(args) -> int:
    ts = np.linspace(0.0, 1.0, REGION_STEPS + 1)
    inner, outer = bounds.analytical_region(ts)
    ts, *columns = (v.tolist() for v in (ts, inner.lo, inner.hi, outer.lo, outer.hi))
    if args.format == "svg":
        colors = ["steelblue", "steelblue", "firebrick", "firebrick"]
        _atomic_write(args.out, _svg_lines(
            [(color, list(zip(ts, c))) for color, c in zip(colors, columns)]))
    else:
        _atomic_write(args.out, _csv("t,inner_lo,inner_hi,outer_lo,outer_hi",
                                     "%.17g,%.17g,%.17g,%.17g,%.17g\n" * len(ts),
                                     [_cells(ts, *columns)]))
    return EXIT_OK


def cmd_sweep(args) -> int:
    # the normalized family is feasible exactly for s in [1/2, sqrt(1/2)]
    s_values = [
        0.5 + k * (math.sqrt(0.5) - 0.5) / (args.s_steps - 1)
        for k in range(args.s_steps)
    ] if args.s_steps > 1 else [0.5]
    rows = chain.sweep(s_values, args.n_list)

    if args.format == "svg":
        series = []
        palette = ["steelblue", "seagreen", "darkorange", "firebrick", "purple"]
        for k, n in enumerate(args.n_list):
            color = palette[k % len(palette)]
            sub = [r for r in rows if r.N == n]
            series.append((color, [(r.s, r.B) for r in sub]))
            series.append((color, [(r.s, r.U) for r in sub]))
        _atomic_write(args.out, _svg_lines(series))
    else:
        cells = [v for r in rows for v in (r.s, r.N, r.B, r.U, r.status)]
        _atomic_write(args.out, _csv("s,N,B,U,status",
                                     "%.17g,%d,%.17g,%.17g,%s\n" * len(rows), [cells]))

    if any(r.status == chain.ITERATION_LIMIT for r in rows):
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


def _solve_spec(path: str) -> chain.BoundResult:
    """Solve the spec at path, its JSON values as they are; malformed data exits 4."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        spec = chain.ChainSpec(doc["L"], doc["x"], doc["y"], doc["f_x"], doc["g_x"], doc["g_y"],
                               doc["N"], doc.get("direction", chain.UPPER))
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        _bad_input(f"cannot read a chain spec from {path!r}: {exc!r}")
    try:
        return chain.solve_spec(spec)
    except RangeError as exc:       # build_problem: a canonical form past the float range
        _bad_input(f"cannot solve the chain spec in {path!r}: {exc}")


def cmd_solve(args) -> int:
    result = _solve_spec(getattr(args, "in"))
    points = result.chain
    knots = zip(points.x.tolist(), points.f.tolist(), points.g.tolist())
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
    result = _solve_spec(getattr(args, "in"))
    if result.status == chain.INFEASIBLE:
        return EXIT_ALL_INFEASIBLE
    if result.status == chain.ITERATION_LIMIT:
        return EXIT_SOLVER_FAILURE
    interp = interpolation.build_segment_interpolant(result)
    t = np.arange(T_STEPS + 1) / T_STEPS
    v, dv = interpolation.eval_interpolant(interp, t)
    _atomic_write(args.out, _csv("t,value,dvalue", "%.17g,%.17g,%.17g\n" * t.size,
                                 [_cells(t.tolist(), v.tolist(), dv.tolist())]))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process.

    Parsing keeps no state in the parser: each ``parse_args`` call fills a
    new namespace, so one parser serves every ``main`` call.
    """
    parser = _Parser(
        prog="openconvex",
        description="Exact and numerical bounds for smooth convex functions on open sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def outputs(p, *formats):
        p.add_argument("--out", type=_out_path, default=None,
                       help="output path (default: stdout)")
        if formats:
            p.add_argument("--format", default=formats[0], choices=formats)

    p = sub.add_parser("verify", help="exact spline verification")
    outputs(p, "text", "json")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--perturb-piece", type=int, default=None,
                   choices=range(1, len(spline.SPLINE.pieces) + 1),
                   help="test hook: 1-based piece whose constant is raised by 1/1000")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("contour", help="piece/value grid of the spline")
    outputs(p, "csv", "svg")
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("region", help="inner/outer admissible-gap intervals")
    outputs(p, "csv", "svg")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("sweep", help="chain bounds over s in [1/2, sqrt(1/2)]")
    outputs(p, "csv", "svg")
    p.add_argument("--s-steps", type=_count, default=60)
    p.add_argument("--N-list", dest="n_list", type=_n_list, default="1,2,5,50")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("solve", help="solve one chain program from JSON")
    outputs(p)
    p.add_argument("--in", required=True, help="chain spec JSON path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("interpolate", help="sample the segment interpolant")
    outputs(p)
    p.add_argument("--in", required=True, help="chain spec JSON path")
    p.set_defaults(func=cmd_interpolate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
