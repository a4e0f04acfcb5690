"""Run one benchmark workload in this process and print its result as JSON.

``run.py`` starts this file in a fresh interpreter with BLAS pinned to one
thread and ``src/`` on the import path.  A workload repeats a *unit* of work
until ``--seconds`` have passed; end-to-end figures are medians over units.
Between units it times cold starts.  While units run, ``speed.Sampler``
samples the core's speed with a fixed reference kernel, and every time taken
inside a unit is scaled to the kernel's nominal speed (see ``speed.py``).
With ``--trace 1`` each unit runs twice on the same inputs, once plain and
once with the span tracer installed, and the result holds per-layer figures
and the tracing overhead instead.

    python3 bench/workloads.py --workload bands --seed 0 --seconds 36 \\
        --trace 0 --work-dir .bench_out/bands-0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import openconvex
from openconvex import bounds, chain, checks, cli, interpolation, spline

import spans
import speed
import verdicts
from speed import work_clock

# The band figure on [1/2, sqrt(1/2)], both endpoints included.  Nine s values
# keep one sweep near 8 s on a 2.1 GHz Xeon core, so a 36 s run holds three to
# five sweeps, and each of the 36 cells is timed that many times.
BAND_ARGS = ["sweep", "--s-steps", "9", "--N-list", "1,2,5,50"]

SPEC_NS = (1, 2, 3, 5, 8, 13, 20)
SPEC_DIRECTIONS = (chain.UPPER, chain.LOWER)
SPEC_PER_CELL = 10          # specs per (N, direction) in a batch; one in five is infeasible
# The specs' shapes come from one fixed batch; --seed moves and orders them.
SPEC_POOL_SEED = 0

# Set-up is timed between units rather than all at once, so that its median
# spans the whole run, as wall_s does, and not one moment of core speed.
SETUP_STARTS = 4            # cold starts before the first unit and after each unit


class BenchError(RuntimeError):
    """The benchmark itself could not measure what it claims to."""


# --- op clock --------------------------------------------------------------


class SolveLog:
    """Records every ``chain.solve_spec`` call: its time and its verdict.

    The sweep cells' latencies come from it, and so do the statuses and
    values that the ``specs`` checks compare with the CLI output.  Times are
    (start, end) pairs on ``speed.work_clock``.
    """

    def __init__(self):
        self.original = chain.solve_spec
        self.records: list[dict] = []

    def install(self) -> None:
        original, records = self.original, self.records

        def logged(spec, *args, **kwargs):
            t0 = work_clock()
            result = original(spec, *args, **kwargs)
            records.append({
                "span": (t0, work_clock()),
                "N": spec.N,
                "s": float(spec.g_y @ (spec.y - spec.x)),
                "status": result.status,
                "value": result.value,
                "gap": result.duality_gap_estimate,
            })
            return result

        chain.solve_spec = logged

    def uninstall(self) -> None:
        chain.solve_spec = self.original

    def take(self) -> list[dict]:
        """Records since the last call, oldest first."""
        taken = self.records[:]
        self.records.clear()
        return taken


Span = tuple[float, float]     # (start, end) on speed.work_clock


@dataclass
class Unit:
    span: Span                  # from the first CLI call to the last output written
    ops: dict[object, Span]     # sweep cells, requests or CLI calls, by what they are
    attempted: int
    failed: int
    controls_caught: bool
    cells: int = 0              # sweep cells or requests served
    bytes_out: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.span[1] - self.span[0]


class Context:
    def __init__(self, work_dir: Path, seed: int):
        self.work_dir = work_dir
        self.seed = seed
        self.log = SolveLog()
        self.tracer: spans.Tracer | None = None
        self.label = ""

    def file(self, name: str) -> str:
        path = self.work_dir / name
        if path.exists():
            path.unlink()
        return str(path)

    def call(self, request: str, argv: list[str]) -> tuple[int, Span]:
        """Run one CLI request in-process; returns (exit code, its span)."""
        if self.tracer is not None:
            self.tracer.request = f"{self.label}/{request}"
        t0 = work_clock()
        code = cli.main(argv)
        return code, (t0, work_clock())


# --- bands ---------------------------------------------------------------------


def bands_unit(ctx: Context) -> Unit:
    out = ctx.file("bands.csv")
    ctx.log.take()
    code, span = ctx.call("sweep", [*BAND_ARGS, "--out", out])
    # The CSV is written before the exit code is chosen, so a sweep that
    # exits non-zero (an ITERATION_LIMIT cell, say) is still checked per cell.
    rows = verdicts.parse_sweep_csv(Path(out).read_text()) if os.path.exists(out) else []
    # A cell runs from the start of its first solve to the end of its last.
    cell_span: dict[tuple[float, int], Span] = {}
    for rec in ctx.log.take():
        key = (rec["s"], rec["N"])
        start = cell_span[key][0] if key in cell_span else rec["span"][0]
        cell_span[key] = (start, rec["span"][1])
    if rows and set(cell_span) != {(s, n) for s, n, *_ in rows}:
        raise BenchError("solve log does not cover the sweep's cells")
    bad = verdicts.check_band_rows(rows)
    problems = [f"cell s={s!r} N={n}: {'; '.join(r)}" for (s, n), r in bad.items()]
    attempted = max(len(rows), 1)
    failed = len(bad)
    if code != 0:
        problems.append(f"sweep exited {code}")
        failed = failed or attempted
    caught = bool(rows) and bool(verdicts.check_band_rows(verdicts.corrupt_band_rows(rows)))
    return Unit(span, cell_span, attempted, failed, caught,
                cells=len(rows), bytes_out=os.path.getsize(out) if rows else 0,
                problems=problems)


# --- specs -------------------------------------------------------------------


def _convex_function(rng: np.random.Generator, d: int, L: float):
    """f(z) = z'Az/2 + b'z + c + mu*logsumexp(Cz): convex, Hessian <= 0.9 L I."""
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    A = (Q * (L * rng.uniform(0.05, 0.6, d))) @ Q.T
    C = rng.normal(size=(3, d))
    C /= np.linalg.norm(C, 2)
    mu = L * rng.uniform(0.05, 0.3)
    b = L * rng.normal(size=d)
    c = L * float(rng.normal())

    def f(z):
        v = C @ z
        top = float(v.max())
        return float(0.5 * z @ A @ z + b @ z + c + mu * (top + math.log(np.exp(v - top).sum())))

    def g(z):
        v = C @ z
        p = np.exp(v - v.max())
        return A @ z + b + mu * (C.T @ (p / p.sum()))

    return f, g


def make_spec(rng: np.random.Generator, N: int, direction: str, infeasible: bool) -> dict:
    """Endpoint data of a seeded L-smooth convex function, as a spec document.

    d is uniform on 2..8 and L log-uniform on [1e-2, 1e2].  An infeasible
    spec swaps the two endpoint gradients, so <g_y - g_x, y - x> < 0, which
    no convex function allows.
    """
    d = int(rng.integers(2, 9))
    L = float(10.0 ** rng.uniform(-2.0, 2.0))
    f, g = _convex_function(rng, d, L)
    x = rng.normal(size=d)
    u = rng.normal(size=d)
    y = x + rng.uniform(0.5, 2.0) * u / np.linalg.norm(u)
    g_x, g_y = g(x), g(y)
    if infeasible:
        g_x, g_y = g_y, g_x
    return {
        "doc": {"L": L, "x": x.tolist(), "y": y.tolist(), "f_x": f(x),
                "g_x": g_x.tolist(), "g_y": g_y.tolist(), "N": N,
                "direction": direction},
        "f_y": f(y),
        "infeasible": infeasible,
    }


def make_batch(rng: np.random.Generator) -> list[dict]:
    """SPEC_PER_CELL specs per (N, direction), one in five infeasible, shuffled.

    Each spec's ``shape`` is its place in the batch.
    """
    batch = [make_spec(rng, N, direction, k % 5 == 0)
             for N in SPEC_NS for direction in SPEC_DIRECTIONS
             for k in range(SPEC_PER_CELL)]
    order = rng.permutation(len(batch))
    return [dict(batch[i], shape=j) for j, i in enumerate(order)]


def moved_batch(pool: list[dict], rng: np.random.Generator) -> list[dict]:
    """Every spec of the pool under its own seeded rigid motion, in seeded order.

    The motion z -> Qz + c (Q orthogonal) maps the generating function f to
    f(Q'(z - c)), which is L-smooth and convex with the same values, so each
    spec keeps its bound, its verdict and its f(y).  The numbers the
    program reads change with the seed, and only by rounding in the span
    the solver works in; that rounding can still switch the solver's path
    for a spec between a fast and a slow one.
    """
    moved = []
    for spec in pool:
        doc = spec["doc"]
        d = len(doc["x"])
        Q, R = np.linalg.qr(rng.normal(size=(d, d)))
        Q = Q * np.sign(np.diag(R))
        c = rng.normal(size=d)
        new = dict(doc, **{k: (Q @ np.asarray(doc[k]) + c).tolist() for k in ("x", "y")},
                   **{k: (Q @ np.asarray(doc[k])).tolist() for k in ("g_x", "g_y")})
        moved.append(dict(spec, doc=new))
    return [moved[i] for i in rng.permutation(len(moved))]


def specs_unit(ctx: Context, batch: list[dict]) -> Unit:
    paths = []
    for k, spec in enumerate(batch):
        spec_path = ctx.file(f"spec-{k}.json")
        Path(spec_path).write_text(json.dumps(spec["doc"]))
        paths.append((spec_path, ctx.file(f"interp-{k}.csv")))
    ctx.log.take()
    codes, times = [], []
    for k, (spec_path, out) in enumerate(paths):
        code, span = ctx.call(f"req{k}", ["interpolate", "--in", spec_path, "--out", out])
        codes.append(code)
        times.append(span)
    solves = ctx.log.take()
    if len(solves) != len(batch):
        raise BenchError(f"{len(solves)} solves for {len(batch)} requests")

    failed, bytes_out, problems, requests = 0, 0, [], []
    for k, (spec, code, solve, (_, out)) in enumerate(zip(batch, codes, solves, paths)):
        t1_value = None
        if os.path.exists(out):
            text = Path(out).read_text()
            bytes_out += len(text)
            t1_value = float(text.splitlines()[-1].split(",")[1])
        req = {"infeasible": spec["infeasible"], "direction": spec["doc"]["direction"],
               "f_y": spec["f_y"], "exit": code, "status": solve["status"],
               "value": solve["value"], "gap": solve["gap"], "t1_value": t1_value}
        requests.append(req)
        reasons = verdicts.check_spec_request(req)
        if reasons:
            failed += 1
            problems.append(f"request {k} (N={spec['doc']['N']}, L={spec['doc']['L']:.3g}): "
                            + "; ".join(reasons))
    caught = all(verdicts.check_spec_request(verdicts.corrupt_spec_request(r))
                 for r in requests)
    return Unit((times[0][0], times[-1][1]),
                {spec["shape"]: span for spec, span in zip(batch, times)},
                len(batch), failed, caught,
                cells=len(batch), bytes_out=bytes_out, problems=problems)


# --- spline --------------------------------------------------------------------


def spline_unit(ctx: Context) -> Unit:
    verify_out, perturbed_out = ctx.file("verify.txt"), ctx.file("verify-perturbed.txt")
    contour_out = ctx.file("contour.csv")
    code_v, t_v = ctx.call("verify", ["verify", "--seed", str(ctx.seed), "--out", verify_out])
    code_p, t_p = ctx.call("verify-perturbed", ["verify", "--perturb-piece", "2",
                                                "--out", perturbed_out])
    code_c, t_c = ctx.call("contour", ["contour", "--out", contour_out])

    text = Path(verify_out).read_text() if os.path.exists(verify_out) else ""
    contour = Path(contour_out).read_bytes() if os.path.exists(contour_out) else b""
    bad_verify = verdicts.check_verify_text(text)
    if code_v != 0 and not bad_verify:
        bad_verify = [f"verify exited {code_v}"]
    bad_perturbed = verdicts.check_perturbed_exit(code_p)
    bad_contour = verdicts.check_contour(contour)
    if code_c != 0 and not bad_contour:
        bad_contour = [f"contour exited {code_c}"]
    problems = bad_verify + bad_perturbed + bad_contour
    failed = min(len(bad_verify), verdicts.VERIFY_CHECKS) + len(bad_perturbed) + len(bad_contour)
    caught = (bool(text) and bool(contour)
              and bool(verdicts.check_verify_text(verdicts.corrupt_verify_text(text)))
              and bool(verdicts.check_perturbed_exit(0))
              and bool(verdicts.check_contour(verdicts.corrupt_contour(contour))))
    bytes_out = len(text) + len(contour) + os.path.getsize(perturbed_out)
    return Unit((t_v[0], t_c[1]), {"verify": t_v, "verify-perturbed": t_p, "contour": t_c},
                verdicts.VERIFY_CHECKS + 2, failed, caught, bytes_out=bytes_out,
                problems=problems)


# --- tracing -------------------------------------------------------------------


def _solve_tags(args, kwargs, result):
    spec = args[0].spec
    return {"N": spec.N, "s": float(spec.g_y @ (spec.y - spec.x)), "status": result.status}


_LATTICE_POINTS = re.compile(r"region coverage on (\d+)-point lattice")
_LATTICE_PAIRS = re.compile(r"gradient monotonicity on (\d+) lattice pairs")


def _lattice_tags(args, kwargs, report):
    text = report.to_text()
    return {"points": int(_LATTICE_POINTS.search(text).group(1)),
            "pairs": int(_LATTICE_PAIRS.search(text).group(1))}


def _pair_tags(args, kwargs, result):
    return {"pairs": int(args[0] if args else kwargs["n_pairs"])}


def trace_targets():
    """(module, attribute, hot, tag function) for every traced public function."""
    targets = [
        (cli, "main", False, None),
        (chain, "sweep", False, None),
        (chain, "solve_spec", False, None),
        (chain, "build_problem", False, None),
        (chain, "solve", False, _solve_tags),
        (interpolation, "build_segment_interpolant", False, None),
        (interpolation, "eval_interpolant", True, None),
        (spline, "verify_all", False, None),
        (spline, "verify_c1_seams", False, None),
        (spline, "verify_smooth_convex_pieces", False, None),
        (spline, "verify_violation", False, None),
        (spline, "verify_grid_properties", False, _lattice_tags),
        (spline, "eval_F_float", True, None),
        (spline, "grad_F_float", True, None),
        (checks, "global_bound_max_excursion", False, _pair_tags),
        (checks, "local_cocoercivity_min_gap", False, _pair_tags),
    ]
    for name in ("descent_gap", "cocoercivity_gap", "global_bound_interval",
                 "local_condition", "min_chain_length", "make_chain",
                 "alpha_weights", "sum_identity", "analytical_region"):
        targets.append((bounds, name, True, None))
    return targets


def _median_ms(durations) -> float:
    durations = list(durations)
    return statistics.median(durations) * 1e3 if durations else 0.0


def _quantile_ms(durations, q: int) -> float:
    durations = list(durations)
    if len(durations) < 2:
        return durations[0] * 1e3 if durations else 0.0
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(tracer: spans.Tracer, pairs: list[tuple[Unit, Unit]]) -> dict[str, float]:
    """Per-layer figures over the traced units; totals are per unit."""
    traced = [t for _, t in pairs]
    n = len(traced)
    wall = sum(u.wall for u in traced) / n
    solves = tracer.named("chain.solve")
    status = Counter(s.tags["status"] for s in solves)
    cells = sum(u.cells for u in traced)

    def self_of(*names):
        return sum(tracer.self_time(name) for name in names) / n

    def dur_of(*names):
        return sum(s.dur for name in names for s in tracer.named(name)) / n

    m = {f"chain.solve_ms.N{N}": _median_ms(s.dur for s in solves if s.tags["N"] == N)
         for N in (1, 2, 5, 50)}
    chain_self = self_of("chain.sweep", "chain.solve_spec", "chain.build_problem", "chain.solve")
    m.update({
        "chain.solve_calls": len(solves) / n,
        "chain.solves_per_cell": len(solves) / cells if cells else 0.0,
        "chain.boundary_s": sum(s.dur for s in solves if s.tags["s"] == 0.5) / n,
        "chain.solve_ms.p50": _median_ms(s.dur for s in solves),
        "chain.solve_ms.p90": _quantile_ms((s.dur for s in solves), 90),
        "chain.infeasible_ms": _median_ms(s.dur for s in solves
                                          if s.tags["status"] == chain.INFEASIBLE),
        "chain.build_self_s": self_of("chain.build_problem"),
        "chain.solve_self_s": self_of("chain.solve"),
        "chain.share": chain_self / wall,
        "chain.status.optimal": status[chain.OPTIMAL] / n,
        "chain.status.infeasible": status[chain.INFEASIBLE] / n,
        "chain.status.iteration_limit": status[chain.ITERATION_LIMIT] / n,
    })

    eval_calls, eval_total = tracer.hot_totals("interpolation.eval_interpolant")
    build_self = self_of("interpolation.build_segment_interpolant")
    m.update({
        "interpolation.build_self_s": build_self,
        "interpolation.eval_calls": eval_calls / n,
        "interpolation.eval_us": eval_total / eval_calls * 1e6 if eval_calls else 0.0,
        "interpolation.share": (build_self + eval_total / n) / wall,
    })

    lattice = [s for s in tracer.named("spline.verify_grid_properties")
               if s.request.endswith("/verify")]
    points = lattice[0].tags["points"] if lattice else 0
    checked = lattice[0].tags["pairs"] if lattice else 0
    float_calls, float_total = tracer.hot_totals("spline.eval_F_float")
    grad_calls, grad_total = tracer.hot_totals("spline.grad_F_float")
    float_calls += grad_calls
    float_total += grad_total
    m.update({
        "spline.lattice_s": dur_of("spline.verify_grid_properties"),
        "spline.lattice_points": float(points),
        "spline.lattice_pairs_checked": float(checked),
        "spline.lattice_pair_ratio": checked / (points * (points - 1) / 2) if points > 1 else 0.0,
        "spline.exact_s": dur_of("spline.verify_c1_seams", "spline.verify_smooth_convex_pieces",
                                 "spline.verify_violation"),
        "spline.float_calls": float_calls / n,
        "spline.float_self_s": float_total / n,
        "spline.float_us": float_total / float_calls * 1e6 if float_calls else 0.0,
    })

    bounds_calls, bounds_total = tracer.hot_totals("bounds.")
    check_spans = (tracer.named("checks.global_bound_max_excursion")
                   + tracer.named("checks.local_cocoercivity_min_gap"))
    m.update({
        "bounds.calls": bounds_calls / n,
        "bounds.self_s": bounds_total / n,
        "checks.pairs": sum(s.tags["pairs"] for s in check_spans) / n,
        "checks.self_s": sum(s.self_s for s in check_spans) / n,
        "cli.self_s": self_of("cli.main"),
        "cli.bytes_out": sum(u.bytes_out for u in traced) / n,
        "trace.overhead_s": statistics.median(t.wall - p.wall for p, t in pairs),
    })
    return m


# --- environment -------------------------------------------------------------


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    root = Path.cwd()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# --- run loop -------------------------------------------------------------------


def cold_start() -> float:
    """Seconds from starting a fresh interpreter to ``import openconvex`` done."""
    t0 = work_clock()
    subprocess.run([sys.executable, "-c", "import openconvex"], check=True)
    return work_clock() - t0


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    ctx = Context(work_dir, seed)
    rng = np.random.default_rng(seed)
    if workload == "specs":
        pool = make_batch(np.random.default_rng(SPEC_POOL_SEED))

        def make_inputs():
            return moved_batch(pool, rng)

        def unit(batch):
            return specs_unit(ctx, batch)
    else:
        body = spline_unit if workload == "spline" else bands_unit

        def make_inputs():
            return None

        def unit(_):
            return body(ctx)

    ctx.log.install()
    tracer = spans.Tracer() if trace else None
    sampler = None if trace else speed.Sampler()
    units: list[Unit] = []
    pairs: list[tuple[Unit, Unit]] = []
    setup: list[float] = []
    start = perf_counter()
    step = 0.0                  # wall of the last unit (or plain + traced pair)
    try:
        # Start another unit only if it would end no more than half a unit
        # past the budget, so a run lasts about `seconds`.
        while not units or perf_counter() - start + 0.5 * step < seconds:
            inputs = make_inputs()
            if sampler is None:
                plain = unit(inputs)
            else:
                setup.extend(cold_start() for _ in range(SETUP_STARTS))
                sampler.start()
                try:
                    plain = unit(inputs)
                finally:
                    sampler.stop()
            units.append(plain)
            step = plain.wall
            if tracer is None:
                continue
            ctx.tracer, ctx.label = tracer, f"u{len(pairs)}"
            tracer.install(trace_targets())
            try:
                traced = unit(inputs)
            finally:
                tracer.uninstall()
                ctx.tracer = None
            units.append(traced)
            pairs.append((plain, traced))
            step += traced.wall
    finally:
        ctx.log.uninstall()

    # An op recurs in every unit: the same sweep cell, spec shape or CLI
    # call.  Where every unit runs the same inputs (bands, spline) its times
    # differ only by noise, and their median is its latency.  A specs unit
    # moves each spec anew, which can change the solver's path (see
    # moved_batch), so there the latency is the mean over the run's motions.
    typical = statistics.fmean if workload == "specs" else statistics.median
    timed: dict[object, list[float]] = defaultdict(list)
    for u in units:
        for key, span in u.ops.items():
            timed[key].append(sampler.scaled(span) if sampler else span[1] - span[0])
    latency = {key: typical(times) for key, times in timed.items()}
    if workload == "spline":
        # Three different calls make no latency distribution: here p50 is the
        # contour call and p90 the seeded verify call.
        p50_ms, p90_ms = latency["contour"] * 1e3, latency["verify"] * 1e3
    else:
        p50_ms = _median_ms(latency.values())
        p90_ms = _quantile_ms(latency.values(), 90)

    if tracer is not None:
        metrics = layer_metrics(tracer, pairs)
        tracer.dump(str(work_dir.parent / f"spans-{workload}-{seed}.json"))
    else:
        setup.extend(cold_start() for _ in range(SETUP_STARTS))
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(sampler.scaled(u.span) for u in units),
            "op_ms_p50": p50_ms,
            "op_ms_p90": p90_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    problems = [p for u in units for p in u.problems]
    return {
        "correct": all(u.controls_caught for u in units) and not problems,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": metrics,
        "samples": {"units": len(units),
                    "ops": sum(len(times) for times in timed.values()),
                    "distinct_ops": len(latency),
                    "ops_above_p90": sum(t * 1e3 > p90_ms for t in latency.values()),
                    "unit_walls": [round(u.wall, 4) for u in units],
                    "unit_calls": [{k: round(t1 - t0, 4) for k, (t0, t1) in u.ops.items()}
                                   for u in units] if workload == "spline" else [],
                    "cold_starts": len(setup),
                    "raw_wall_s": statistics.median(u.wall for u in units),
                    "reference_slices": len(sampler.slices) if sampler else 0,
                    "reference_ms": [round(sampler.slice_time(u.span) * 1e3, 4)
                                     for u in units] if sampler else [],
                    "traced_units": len(pairs)},
        "controls_caught": all(u.controls_caught for u in units),
        "problems": problems[:20],
        "env": environment(seed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("bands", "specs", "spline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if Path(openconvex.__file__).resolve().parent.parent != src:
        raise BenchError(f"openconvex imported from {openconvex.__file__}, not from src/")
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
