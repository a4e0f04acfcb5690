"""Tests of the benchmark's own checks and plumbing.

    python3 -m pytest -q bench/test_bench.py

Each negative control damages real program output on its way out of the
CLI and requires the workload's failure count to rise above zero.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import numpy as np  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402
from openconvex import chain, cli  # noqa: E402

SMALL_SWEEP = ["sweep", "--s-steps", "3", "--N-list", "1,2,4"]


@pytest.fixture
def ctx(tmp_path):
    original = chain.solve_spec
    context = workloads.Context(tmp_path, seed=3)
    context.log.install()
    yield context
    chain.solve_spec = original


def _damage_output(monkeypatch, subcommand, damage):
    """Let cli.main run, then rewrite the file it wrote for `subcommand`."""
    real_main = cli.main

    def main(argv):
        code = real_main(argv)
        if argv[0] == subcommand and "--perturb-piece" not in argv:
            out = Path(argv[argv.index("--out") + 1])
            out.write_text(damage(out.read_text()))
        return code

    monkeypatch.setattr(cli, "main", main)


def _corrupt_csv_row(text):
    lines = text.splitlines()
    s, n, b, u, status = lines[-2].split(",")
    lines[-2] = ",".join([s, n, b, repr(float(u) + 1e-3), status])
    return "\n".join(lines) + "\n"


def test_band_checks_pass_on_real_sweep(tmp_path):
    out = tmp_path / "bands.csv"
    assert cli.main([*SMALL_SWEEP, "--out", str(out)]) == 0
    rows = verdicts.parse_sweep_csv(out.read_text())
    assert verdicts.check_band_rows(rows) == {}
    assert verdicts.check_band_rows(verdicts.corrupt_band_rows(rows))


def test_corrupted_sweep_row_raises_fail_share(ctx, monkeypatch):
    monkeypatch.setattr(workloads, "BAND_ARGS", SMALL_SWEEP)
    assert workloads.bands_unit(ctx).failed == 0
    _damage_output(monkeypatch, "sweep", _corrupt_csv_row)
    unit = workloads.bands_unit(ctx)
    assert unit.failed > 0 and unit.problems
    assert unit.controls_caught


def test_iteration_limit_cell_is_counted_per_cell(ctx, monkeypatch):
    monkeypatch.setattr(workloads, "BAND_ARGS", SMALL_SWEEP)
    ctx.log.uninstall()
    real_solve = chain.solve_spec

    def stalled(spec, *args, **kwargs):
        result = real_solve(spec, *args, **kwargs)
        if spec.N == 4 and abs(float(spec.g_y @ (spec.y - spec.x)) - 0.5) < 1e-12:
            result.status = chain.ITERATION_LIMIT
        return result

    monkeypatch.setattr(chain, "solve_spec", stalled)
    ctx.log = workloads.SolveLog()
    ctx.log.install()
    unit = workloads.bands_unit(ctx)
    assert (unit.attempted, unit.failed, unit.cells) == (9, 1, 9)
    assert unit.problems[-1].startswith("sweep exited")
    assert unit.controls_caught


def test_wrong_spec_status_raises_fail_share(ctx, monkeypatch):
    monkeypatch.setattr(workloads, "SPEC_NS", (1, 2))
    monkeypatch.setattr(workloads, "SPEC_PER_CELL", 2)
    batch = workloads.make_batch(np.random.default_rng(5))
    assert workloads.specs_unit(ctx, batch).failed == 0

    ctx.log.uninstall()
    real_solve = chain.solve_spec

    def wrong_status(spec, *args, **kwargs):
        result = real_solve(spec, *args, **kwargs)
        if result.status == chain.OPTIMAL:
            result.status = chain.INFEASIBLE
        return result

    monkeypatch.setattr(chain, "solve_spec", wrong_status)
    ctx.log = workloads.SolveLog()
    ctx.log.install()
    unit = workloads.specs_unit(ctx, batch)
    assert unit.failed == len(batch) - sum(s["infeasible"] for s in batch) > 0
    assert unit.controls_caught


def test_flipped_verify_line_raises_fail_share(ctx, monkeypatch):
    _damage_output(monkeypatch, "verify", verdicts.corrupt_verify_text)
    unit = workloads.spline_unit(ctx)
    assert unit.failed == 1
    assert unit.problems[0].startswith("FAIL  ")
    assert unit.controls_caught


def test_spline_controls_reject_damage():
    assert verdicts.check_perturbed_exit(0)
    assert verdicts.check_perturbed_exit(verdicts.PERTURBED_EXIT) == []
    assert verdicts.check_contour(b"x0,x1,piece,value\n")
    assert verdicts.check_verify_text("PASS  a\nOK: 1/1 checks passed")


def test_spec_generator_is_seeded_and_one_in_five_infeasible():
    a = workloads.make_batch(np.random.default_rng(11))
    b = workloads.make_batch(np.random.default_rng(11))
    assert json.dumps([s["doc"] for s in a]) == json.dumps([s["doc"] for s in b])
    assert sum(s["infeasible"] for s in a) * 5 == len(a)
    for spec in a:
        doc = spec["doc"]
        mono = np.dot(np.subtract(doc["g_y"], doc["g_x"]), np.subtract(doc["y"], doc["x"]))
        assert (mono < 0) == spec["infeasible"]


def test_moved_specs_keep_their_bound_and_verdict():
    pool = workloads.make_batch(np.random.default_rng(11))[:6]
    moved = workloads.moved_batch(pool, np.random.default_rng(4))
    again = workloads.moved_batch(pool, np.random.default_rng(4))
    assert json.dumps([s["doc"] for s in moved]) == json.dumps([s["doc"] for s in again])
    by_f_x = {s["doc"]["f_x"]: s for s in pool}
    for spec in moved:
        before = by_f_x[spec["doc"]["f_x"]]
        assert spec["doc"]["x"] != before["doc"]["x"]
        results = [chain.solve_spec(chain.ChainSpec(**s["doc"])) for s in (before, spec)]
        assert results[0].status == results[1].status
        if spec["infeasible"]:
            assert results[1].status == chain.INFEASIBLE
        else:
            assert results[1].value == pytest.approx(results[0].value, rel=1e-6, abs=1e-6)


def test_sampler_scales_by_the_slices_around_a_span():
    sampler = speed.Sampler()
    sampler.stamps = [float(i) for i in range(40)]
    sampler.slices = [speed.NOMINAL_S] * 20 + [2 * speed.NOMINAL_S] * 20
    assert sampler.scaled((25.0, 35.0)) == pytest.approx(5.0)   # a core at half speed
    assert sampler.scaled((2.0, 3.0)) == pytest.approx(1.0)     # widened to 15 slices


def test_work_clock_leaves_out_the_slices():
    sampler = speed.Sampler()
    t0, w0 = perf_counter(), speed.work_clock()
    sampler.start()
    try:
        deadline = perf_counter() + 0.6
        while perf_counter() < deadline:
            sum(range(1000))
    finally:
        sampler.stop()
    assert len(sampler.slices) >= 3
    spent = (perf_counter() - t0) - (speed.work_clock() - w0)
    assert sum(sampler.slices) <= spent < sum(sampler.slices) + 0.05


def test_tracer_self_time_and_restore():
    import types

    mod = types.ModuleType("openconvex._bench_probe")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    try:
        tracer = spans.Tracer()
        tracer.install([(mod, "outer", False, None), (mod, "inner", False, None)])
        assert mod.outer(1) == 4
        tracer.uninstall()
        assert mod.outer is outer and mod.inner is inner
        out, = tracer.named("_bench_probe.outer")
        inn, = tracer.named("_bench_probe.inner")
        assert inn.parent == tracer.spans.index(out)
        assert out.self_s == pytest.approx(out.dur - inn.dur)
    finally:
        del sys.modules[mod.__name__]


def test_single_workload_exits_1_when_not_correct(monkeypatch, capsys):
    result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    monkeypatch.setattr(run, "run_workload", lambda *args: result)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "bands", "--seed", "0", "--seconds", "1"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == result


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "bands", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
