"""End-to-end command-line behavior and exit codes."""

import argparse
import hashlib
import importlib
import json
import math
import os
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from openconvex import chain, checks, cli, spline

SPEC_06_N1 = {
    "L": 1.0,
    "x": [0.0, 0.0],
    "y": [1.0, 0.0],
    "f_x": 0.0,
    "g_x": [0.0, 0.0],
    "g_y": [0.6, math.sqrt(0.5 - 0.36)],
    "N": 1,
    "direction": "upper",
}


def _write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _child_env():
    """The environment of a child interpreter that imports this package's tree."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))


# a child that imports the CLI, runs the CLI call its arguments give, if
# any, and prints its own peak RSS in KiB (Linux)
_PEAK_RSS = ("import resource, sys; from openconvex import cli; "
             "assert not sys.argv[1:] or cli.main(sys.argv[1:]) == cli.EXIT_OK; "
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")


class TestVerify:
    def test_passes_on_default_lattice(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = cli.main(["verify", "--out", str(out)])
        assert code == cli.EXIT_OK
        text = out.read_text()
        assert "violation" in text and "OK" in text

    def test_json_format(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--format", "json", "--out", str(out)])
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["passed"] is True

    def test_perturbation_fails(self, tmp_path):
        out = tmp_path / "report.txt"
        code = cli.main(["verify", "--perturb-piece", "2", "--out", str(out)])
        assert code == cli.EXIT_VERIFY_FAILED
        assert "FAIL" in out.read_text()

    # sha256 of each report; the default text is the one the benchmark checks
    @pytest.mark.parametrize("args, code, digest", [
        ([], cli.EXIT_OK,
         "bd55945206d80609027f557dc6e47559618f57b4e2b7b9a6cfa4c7b0bcee00ad"),
        (["--format", "json"], cli.EXIT_OK,
         "7c8cba623f73c223da6ca4411c916acd60e0be28322ad9b8cf699c6579a10993"),
        (["--perturb-piece", "2"], cli.EXIT_VERIFY_FAILED,
         "3a56de217d77c71d12e24b09517e85744fd071f241cf8d899d0a5ffff994eb6a"),
    ], ids=["text", "json", "perturb-piece-2"])
    def test_output_bytes_pinned(self, tmp_path, args, code, digest):
        out = tmp_path / "report.out"
        assert cli.main(["verify", *args, "--out", str(out)]) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # the exact rhs of the violation line moves when the perturbed piece
    # holds (0,0) (piece 1) or (2,0) (piece 4)
    @pytest.mark.parametrize("k, rhs", [(1, "424199/576000"), (2, "16991/23040"),
                                        (3, "16991/23040"), (4, "425351/576000")])
    def test_perturbed_report_describes_one_function(self, tmp_path, k, rhs):
        # every line is the check run directly on the perturbed spline
        out = tmp_path / "report.txt"
        assert cli.main(["verify", "--perturb-piece", str(k), "--out", str(out)]) \
            == cli.EXIT_VERIFY_FAILED
        *lines, summary = out.read_text().splitlines()
        model = spline.build_spline({k: Fraction(1, 1000)})
        *exact, _ = spline.verify_all(spline=model).to_text().splitlines()
        excursion = checks.global_bound_max_excursion(2000, model=model)
        gap = checks.local_cocoercivity_min_gap(2000, model=model)
        assert lines == [
            *exact,
            f"{'PASS' if excursion <= 1e-12 else 'FAIL'}  two-sided global bound on 2000 "
            f"random pairs  [max excursion {excursion:.3e}]",
            f"{'PASS' if gap >= -1e-12 else 'FAIL'}  local co-coercivity on 2000 "
            f"random pairs  [min gap {gap:.3e}]",
        ]
        assert f"rhs = {rhs}," in lines[11]
        assert summary == f"FAILED: {sum(s.startswith('PASS') for s in lines)}/19 checks passed"
        if k == 2:
            assert lines[-2].startswith("FAIL") and lines[-1].startswith("FAIL")


class TestContour:
    # sha256 of the default CSV, the one the benchmark checks
    CSV_SHA256 = "0408ad147224d2c2178ad66e85f1e2ff734e0f6f63853c5a36a27b77c72fd4c2"

    def test_svg_output(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CONTOUR_SHAPE", (20, 20))
        out = tmp_path / "contour.svg"
        assert cli.main(["contour", "--format", "svg", "--out", str(out)]) == cli.EXIT_OK
        assert out.read_text().startswith("<svg")

    # sha256 of the output of the per-point implementation these replaced,
    # recorded before the grid was evaluated a block of rows at a time
    @pytest.mark.parametrize("args, digest", [
        ([], CSV_SHA256),
        (["--format", "svg"],
         "fb107f3d27223543d04eb3d98ebefeb8d21623fcd78a107d73168bd3a86e9ae5"),
    ], ids=["csv", "svg"])
    def test_output_bytes_pinned(self, tmp_path, args, digest):
        out = tmp_path / "contour.out"
        assert cli.main(["contour", *args, "--out", str(out)]) == cli.EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # one grid row per block, 57 blocks of 7 rows and a last block of one,
    # and the whole grid in one block
    @pytest.mark.parametrize("chunk", [1, 7 * 400, 1 << 20])
    def test_block_size_keeps_the_bytes(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cli, "_CONTOUR_CHUNK", chunk)
        out = tmp_path / "contour.csv"
        assert cli.main(["contour", "--out", str(out)]) == cli.EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.CSV_SHA256

    def test_peak_memory_does_not_grow_with_the_grid(self, tmp_path):
        # The grid is evaluated and written a block of rows at a time. Each
        # call runs in its own child and reports its own peak RSS: in one
        # process a large call's peak would hide a smaller call's growth,
        # and RUSAGE_CHILDREN gives the largest child ever waited for. Held
        # whole, the grid put the CSV 14 MiB over a child that only imports
        # the CLI, and the SVG, its <rect> lines joined, 72 MiB over it.
        calls = {"import": [], "csv": ["contour"], "svg": ["contour", "--format", "svg"]}
        children = {
            name: subprocess.Popen(
                [sys.executable, "-c", _PEAK_RSS, *args,
                 *(["--out", str(tmp_path / name)] if args else [])],
                env=_child_env(), stdout=subprocess.PIPE, text=True)
            for name, args in calls.items()}
        mib = {}
        for name, child in children.items():
            out, _ = child.communicate(timeout=60)
            assert child.returncode == 0
            mib[name] = int(out) / 1024
        assert mib["csv"] < mib["import"] + 6
        # the SVG keeps one float per cell for its colour scale (1.3 MB)
        assert mib["svg"] < mib["import"] + 6

    def test_stdout_matches_file(self, tmp_path, capsys, monkeypatch):
        # the table is streamed a grid row at a time to either
        monkeypatch.setattr(cli, "CONTOUR_SHAPE", (20, 20))
        out = tmp_path / "contour.csv"
        assert cli.main(["contour", "--out", str(out)]) == cli.EXIT_OK
        assert cli.main(["contour"]) == cli.EXIT_OK
        assert capsys.readouterr().out == out.read_text()


class TestRegion:
    def test_inclusion_on_grid(self, tmp_path):
        out = tmp_path / "region.csv"
        assert cli.main(["region", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,inner_lo,inner_hi,outer_lo,outer_hi"
        assert len(lines) == cli.REGION_STEPS + 2
        for line in lines[1:]:
            t, ilo, ihi, olo, ohi = map(float, line.split(","))
            assert olo - 1e-15 <= ilo <= ihi <= ohi + 1e-15

    def test_svg_output(self, tmp_path):
        out = tmp_path / "region.svg"
        code = cli.main(["region", "--format", "svg", "--out", str(out)])
        assert code == cli.EXIT_OK
        assert "<polyline" in out.read_text()

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_out_file_mode(self, tmp_path, umask):
        # a new file gets 0666 under the umask; an existing file keeps its mode
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("")
        old.chmod(0o604)
        saved = os.umask(umask)
        try:
            for out in (new, old):
                assert cli.main(["region", "--out", str(out)]) == 0
        finally:
            os.umask(saved)
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(old.stat().st_mode) == 0o604
        assert old.read_text() == new.read_text()

    def test_failed_stream_keeps_the_file(self, tmp_path):
        # a table that fails part way through replaces nothing and leaves no temp file
        out = tmp_path / "kept.csv"
        out.write_text("kept\n")

        def chunks():
            yield "t,value\n"
            raise ValueError("no more rows")

        with pytest.raises(ValueError):
            cli._atomic_write(str(out), chunks())
        assert out.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]


class TestSweep:
    def test_small_grid(self, tmp_path):
        # three points of [1/2, sqrt(1/2)], where every cell is feasible
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--s-steps", "3", "--N-list", "1,2", "--out", str(out)])
        assert code == cli.EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "s,N,B,U,status"
        rows = [r.split(",") for r in lines[1:]]
        assert [(float(s), n) for s, n, *_ in rows[::2]] == \
            [(0.5, "1"), ((0.5 + math.sqrt(0.5)) / 2, "1"), (math.sqrt(0.5), "1")]
        assert all(r[4] == "Optimal" for r in rows)
        # N = 1 at s: B = 1/4, U = s - 1/4
        s, _, b, u, _ = rows[2]
        assert float(b) == pytest.approx(0.25, abs=1e-6)
        assert float(u) == pytest.approx(float(s) - 0.25, abs=1e-6)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--s-steps", "4", "--N-list", "1,2"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == cli.EXIT_OK
        assert cli.main(args + ["--out", str(out2)]) == cli.EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


class TestSolve:
    def test_n1_closed_form(self, tmp_path):
        path = _write_spec(tmp_path, SPEC_06_N1)
        out = tmp_path / "result.json"
        assert cli.main(["solve", "--in", path, "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["status"] == "Optimal"
        assert doc["value"] == pytest.approx(0.35, abs=1e-6)
        assert doc["max_constraint_violation"] <= 1e-8
        assert len(doc["chain"]) == 2
        assert doc["chain"][0]["f"] == 0.0

    def test_infeasible_reported_in_json(self, tmp_path):
        # ||g_y||^2 = 1/2 > <g_y, y - x> = 0.4 leaves no admissible value
        doc = dict(SPEC_06_N1, g_y=[0.4, math.sqrt(0.34)], direction="lower")
        path = _write_spec(tmp_path, doc)
        out = tmp_path / "result.json"
        assert cli.main(["solve", "--in", path, "--out", str(out)]) == cli.EXIT_OK
        result = json.loads(out.read_text())
        assert result["status"] == "Infeasible"
        assert result["value"] is None

    # sha256 of each result document; the knots, values and gaps of upper,
    # lower, infeasible and moved three-dimensional specs keep their bits
    @pytest.mark.parametrize("spec, digest", [
        (dict(SPEC_06_N1, N=5),
         "bed73b8a5753269d6414740a8625d97b264c1afbe4915e907d0b4759f1b3fe48"),
        (dict(SPEC_06_N1, N=5, direction="lower"),
         "24fc07b1980b7cd29543ddd49a4e255dba46ae04d11a1ba739b813b8886b234f"),
        (dict(SPEC_06_N1, g_y=[0.4, math.sqrt(0.34)]),
         "c3c1c50b58af660c42e70aa7790b7ff4f57fe4ddcaf568196034caa58165da82"),
        ({"L": 1.5, "x": [0.3, -0.2, 1.0], "y": [1.1, 0.4, 0.5], "f_x": 0.7,
          "g_x": [0.1, -0.3, 0.2], "g_y": [0.9, 0.2, -0.1], "N": 5},
         "2c8dfa1f11cdc4071bc6a136a170ec61df8fe93e33caa3f661f5e6141ba55bc5"),
        # an int of 2**64 or more is a spec number too (numpy would make it an object)
        ({"L": 10**20, "x": [0, 0], "y": [1, 0], "f_x": 0, "g_x": [0, 0],
          "g_y": [6e19, 3e19], "N": 2},
         "3c84a12196eca70b2ee98f4740971b9b2e50e4640307371a2a807bc04d9143e1"),
    ], ids=["upper-N5", "lower-N5", "infeasible-N1", "moved-3d-N5", "L-int-1e20-N2"])
    def test_json_bytes_pinned(self, tmp_path, spec, digest):
        out = tmp_path / "result.json"
        argv = ["solve", "--in", _write_spec(tmp_path, spec), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_malformed_json_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["solve", "--in", str(path)]) == cli.EXIT_BAD_INPUT

    def test_missing_field_exit_code(self, tmp_path):
        doc = {k: v for k, v in SPEC_06_N1.items() if k != "g_y"}
        path = _write_spec(tmp_path, doc)
        assert cli.main(["solve", "--in", path]) == cli.EXIT_BAD_INPUT

    @pytest.mark.parametrize("field, value", [
        ("f_x", math.nan), ("L", math.inf), ("g_y", [math.nan, 0.3]),
    ])
    def test_non_finite_spec_exit_code(self, tmp_path, field, value):
        path = _write_spec(tmp_path, dict(SPEC_06_N1, **{field: value}))
        out = tmp_path / "result.json"
        assert cli.main(["solve", "--in", path, "--out", str(out)]) \
            == cli.EXIT_BAD_INPUT
        assert not out.exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["solve", "--in", str(tmp_path / "nope.json")]) \
            == cli.EXIT_BAD_INPUT


class TestInterpolate:
    def test_samples_match_bound(self, tmp_path):
        doc = dict(SPEC_06_N1, N=3)
        path = _write_spec(tmp_path, doc)
        out = tmp_path / "interp.csv"
        code = cli.main(["interpolate", "--in", path, "--out", str(out)])
        assert code == cli.EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,value,dvalue"
        assert len(lines) == cli.T_STEPS + 2
        first = list(map(float, lines[1].split(",")))
        assert first[0] == 0.0 and first[1] == pytest.approx(0.0, abs=1e-9)
        values = [float(l.split(",")[1]) for l in lines[1:]]
        # convex along the segment
        for a, b, c in zip(values, values[1:], values[2:]):
            assert b <= 0.5 * (a + c) + 1e-9

    def test_infeasible_exit_code(self, tmp_path):
        doc = dict(SPEC_06_N1, g_y=[0.4, math.sqrt(0.34)])
        path = _write_spec(tmp_path, doc)
        assert cli.main(["interpolate", "--in", path]) == cli.EXIT_ALL_INFEASIBLE

    def test_boundary_spec(self, tmp_path):
        # s = 1/2: the feasible set is the single chain G_i = (i/N) g_y
        doc = {"L": 1, "x": [0, 0], "y": [1, 0], "f_x": 0, "g_x": [0, 0],
               "g_y": [0.5, 0.5], "N": 5}
        path = _write_spec(tmp_path, doc)
        out = tmp_path / "interp.csv"
        assert cli.main(["interpolate", "--in", path, "--out", str(out)]) == cli.EXIT_OK
        last = out.read_text().strip().split("\n")[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("change", [
        {"f_x": 1e8},
        {"f_x": 1e12},
        {"x": [1e8, 0], "y": [1e8 + 1, 0]},
        {"x": [1e8, 0], "y": [1e8 + 1, 0], "f_x": 1e8},
        {"L": 1e4, "y": [1e3, 0], "g_y": [6e6, 3e6]},
    ], ids=["f-1e8", "f-1e12", "x-1e8", "x-and-f-1e8", "units-1e10"])
    def test_offset_data(self, change, tmp_path):
        # solve accepts these chains; the knots' rounding at large f, x or
        # L ||y - x||^2 must not make the interpolant refuse them
        spec = {**SPEC_06_N1, "g_y": [0.6, 0.3], "N": 5, **change}
        path = _write_spec(tmp_path, spec)
        solved, out = tmp_path / "solve.json", tmp_path / "interp.csv"
        assert cli.main(["solve", "--in", path, "--out", str(solved)]) == cli.EXIT_OK
        assert cli.main(["interpolate", "--in", path, "--out", str(out)]) == cli.EXIT_OK
        v = json.loads(solved.read_text())["value"]
        t, value, dvalue = map(float, out.read_text().strip().split("\n")[-1].split(","))
        assert t == 1.0
        assert abs(value - v) <= 1e-9 * (1 + abs(v))
        # the slope at y is <g_y, y - x>, whatever the offset
        slope = math.fsum(g * (b - a) for g, a, b in zip(spec["g_y"], spec["x"], spec["y"]))
        assert abs(dvalue - slope) <= 2 * math.ulp(slope)


class TestTableBytes:
    # sha256 of each table; region, interpolate-N1 and the boundary spec run
    # no barrier, so only the other interpolate pins and sweep move when its
    # rounding does
    @pytest.mark.parametrize("argv, spec, digest", [
        (["interpolate"], SPEC_06_N1,
         "b6fee1a9524eb2d4ff319c76ab80a0e838554f54983721a1dcaaa8f8f9cc3123"),
        (["interpolate"], dict(SPEC_06_N1, N=5),
         "77be355b07c8c78fbe74b63e1a40180e1d0ac8367fa181f26ed65da059d85a5b"),
        (["sweep", "--s-steps", "3", "--N-list", "1,2"], None,
         "8b3811fb28141269984f358f58dfae53e9669f0355b3c39d0a90468406c31562"),
        (["region"], None,
         "017293d406c82e455c6318b6cca57629d92b9dd646acce81471f461c7534cb8a"),
        (["interpolate"], dict(SPEC_06_N1, N=5, direction="lower"),
         "1ca538a22783e434277ff3a17f3883b02986c72707f958029a1a3c69bf5df2a0"),
        (["interpolate"], {"L": 1, "x": [0, 0], "y": [1, 0], "f_x": 0, "g_x": [0, 0],
                           "g_y": [0.5, 0.5], "N": 5},
         "90de1430bc8eccd9071888de0b1e69ce54d1bfba8e44e8a1360b0ab575ee0e37"),
    ], ids=["interpolate-N1", "interpolate-N5", "sweep", "region", "interpolate-lower-N5",
            "interpolate-boundary-N5"])
    def test_csv_bytes_pinned(self, tmp_path, argv, spec, digest):
        if spec is not None:
            argv = [*argv, "--in", _write_spec(tmp_path, spec)]
        out = tmp_path / "table.csv"
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # sha256 of each line chart: region's and sweep's points are all finite
    # and no series is empty, the single-cell sweep spanning no x or y
    @pytest.mark.parametrize("argv, digest", [
        (["region"], "7f962663b4095763303e3967b8c8989bd4f6b734159f149040637c0e0b0e47a4"),
        (["sweep", "--s-steps", "3", "--N-list", "1,2"],
         "2a8e7abce04351c12f43fd072dade3fa5ad8538d450939b4dfc0c9ed83d1e27b"),
        (["sweep", "--s-steps", "1", "--N-list", "1"],
         "2f2c7a56a9f272d84f0abb8fbfa06de9b78276fb4ee726aa74d45f3511a2cd97"),
    ], ids=["region", "sweep", "sweep-one-cell"])
    def test_svg_bytes_pinned(self, tmp_path, argv, digest):
        out = tmp_path / "chart.svg"
        assert cli.main([*argv, "--format", "svg", "--out", str(out)]) == cli.EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1])
    def test_percent_format_matches_format(self, v):
        # the tables format floats with "%.17g" %, the writer before them with format()
        assert "%.17g" % v == format(v, ".17g")


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_between_calls(self, tmp_path, monkeypatch):
        # an option given to one call is back at its default in the next
        assert cli.main(["verify", "--perturb-piece", "2",
                         "--out", str(tmp_path / "bad.txt")]) == cli.EXIT_VERIFY_FAILED
        assert cli.main(["verify", "--out", str(tmp_path / "good.txt")]) == cli.EXIT_OK
        monkeypatch.setattr(cli, "CONTOUR_SHAPE", (3, 2))
        svg, csv = tmp_path / "c.svg", tmp_path / "c.csv"
        assert cli.main(["contour", "--format", "svg", "--out", str(svg)]) == 0
        assert cli.main(["contour", "--out", str(csv)]) == 0
        assert svg.read_text().startswith("<svg")
        assert csv.read_text().startswith("x0,x1,piece,value\n")


class TestOptions:
    # each subcommand declares only the options its cmd_* reads
    OPTIONS = {
        "verify": {"--out", "--format", "--seed", "--perturb-piece"},
        "contour": {"--out", "--format"},
        "region": {"--out", "--format"},
        "sweep": {"--out", "--format", "--s-steps", "--N-list"},
        "solve": {"--out", "--in"},
        "interpolate": {"--out", "--in"},
    }

    def test_each_subcommand_options_pinned(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
                   for name, p in sub.choices.items()}
        assert options == self.OPTIONS
        assert sum(map(len, options.values())) == 16


def test_parser_takes_every_benchmark_call(tmp_path, monkeypatch):
    # the calls bench/workloads.py makes: an option one of them passes that
    # the parser no longer has would otherwise fail only the benchmark
    workloads = _bench_workloads(monkeypatch)
    out = str(tmp_path / "out")
    for argv in ([*workloads.BAND_ARGS, "--out", out],
                 ["interpolate", "--in", str(tmp_path / "spec.json"), "--out", out],
                 ["verify", "--seed", "3", "--out", out],
                 ["verify", "--perturb-piece", "2", "--out", out],
                 ["contour", "--out", out]):
        assert cli.build_parser().parse_args(argv).func.__name__ == f"cmd_{argv[0]}"


def _bench_workloads(monkeypatch):
    """bench/workloads.py, imported as the benchmark runs it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return importlib.import_module("workloads")


def test_every_benchmark_trace_target_exists(monkeypatch):
    # the traced benchmark wraps each by name: a moved or renamed one would
    # otherwise fail only the traced smoke
    for module, name, *_ in _bench_workloads(monkeypatch).trace_targets():
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_interpolate_solves_once_through_the_module(tmp_path, monkeypatch):
    # the benchmark's SolveLog patches chain.solve_spec and refuses a run
    # that records fewer solves than requests
    calls, solve_spec = [], chain.solve_spec
    monkeypatch.setattr(chain, "solve_spec", lambda spec: calls.append(spec) or solve_spec(spec))
    path = _write_spec(tmp_path, dict(SPEC_06_N1, N=5))
    assert cli.main(["interpolate", "--in", path, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert len(calls) == 1


def test_import_loads_no_process_pool():
    # the sweep is serial, so starting the CLI pays for no pool machinery
    code = ("import sys, openconvex.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("argv, code", [
    (["region"], cli.EXIT_OK),
    (["verify", "--perturb-piece", "2"], cli.EXIT_VERIFY_FAILED),
    (["sweep", "--s-steps", "abc"], cli.EXIT_BAD_INPUT),
], ids=["region", "verify-perturbed", "sweep-bad-s-steps"])
def test_module_exit_code(argv, code):
    # python -m openconvex.cli hands main's return value to the shell
    run = subprocess.run([sys.executable, "-m", "openconvex.cli", *argv],
                         env=_child_env(), capture_output=True, timeout=60)
    assert run.returncode == code


class TestBadInput:
    # each is refused before any work, with one line on stderr and exit 4
    # (a traceback exits 1, the code of a failed verification)
    @pytest.mark.parametrize("argv", [
        ["verify", "--perturb-piece", "5"],
        ["verify", "--seed", "-1"],
        ["sweep", "--N-list", "0"],
        ["sweep", "--N-list", "x"],
        ["sweep", "--s-steps", "0"],
        # a count above chain.MAX_N, refused rather than left to fail in an allocation
        ["sweep", "--N-list", "100000000000000000000"],
        ["sweep", "--s-steps", "1000000000000"],
        # argparse's own errors take the same path: a value that is not a
        # number, an unknown option, a missing --in or subcommand
        ["sweep", "--s-steps", "abc"],
        ["contour", "--seed", "0"],
        ["verify", "--perturb-delta", "abc"],
        ["sweep", "--workers", "2"],
        ["solve"],
        [],
        # the sweep always spans [1/2, sqrt(1/2)]: the removed options are
        # refused whatever their value, the old --s-min default included
        ["sweep", "--s-min", "0.5"],
        ["sweep", "--s-max", "0.7"],
        # verify checks one fixed lattice and sample: the removed options are
        # refused whatever their value, their old defaults included
        ["verify", "--grid-spacing", "1/16"],
        ["verify", "--grid-spacing", "0"],
        ["verify", "--grid-spacing", "abc"],
        ["verify", "--grid-spacing=-1/4"],
        ["verify", "--grid-spacing", "1/0"],
        ["verify", "--grid-spacing", "2"],
        ["verify", "--grid-spacing", "10"],
        ["verify", "--pairs", "2000"],
        ["verify", "--pairs", "0"],
        ["verify", "--pairs", "x"],
        # contour has one grid and region and interpolate one t grid: the
        # removed options are refused whatever their value, their old
        # defaults and the values they once refused included (argparse
        # reads a bare -1e308 as an option, so those values are given with =)
        ["contour", "--xmin=-1.5"],
        ["contour", "--xmax", "2.5"],
        ["contour", "--ymin", "0"],
        ["contour", "--ymax", "2"],
        ["contour", "--nx", "400"],
        ["contour", "--ny", "400"],
        ["region", "--steps", "1000"],
        ["contour", "--nx", "0"],
        ["contour", "--nx", "abc"],
        ["contour", "--xmax", "inf"],
        ["contour", "--xmin=-1e308", "--xmax=1e308"],
        ["contour", "--ymin=-1e308", "--ymax=1e308"],
        ["region", "--steps", "0"],
        ["interpolate", "--in", "unread.json", "--t-steps", "0"],
    ], ids=lambda argv: "_".join(a.removeprefix("--") for a in argv) or "no-command")
    def test_exit_4_with_one_line(self, argv, tmp_path, capsys):
        self._refused(argv, tmp_path, capsys)

    @pytest.mark.parametrize("command", ["verify", "region"])
    def test_out_in_missing_directory(self, command, tmp_path, capsys):
        # a traceback here would exit 1, which verify means as "failed"
        out = tmp_path / "missing" / "out"
        assert cli.main([command, "--out", str(out)]) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("openconvex: error: argument --out: ")
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["verify", "region"])
    def test_out_is_existing_directory(self, command, tmp_path, capsys):
        # os.replace onto a directory raised IsADirectoryError (exit 1)
        assert cli.main([command, "--out", str(tmp_path)]) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("openconvex: error: argument --out: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["fifo", "symlink", "dangling-symlink", "empty",
                                      "trailing-slash"])
    def test_out_is_not_a_regular_file(self, kind, tmp_path, monkeypatch, capsys):
        # os.replace would put a regular file in place of the FIFO or link
        # (its target keeping its bytes); "" and "name/" name no file and
        # failed in os.replace with a traceback
        (tmp_path / "target").write_text("kept\n")
        make = {"fifo": os.mkfifo, "symlink": lambda p: os.symlink(tmp_path / "target", p),
                "dangling-symlink": lambda p: os.symlink(tmp_path / "missing", p)}
        entry = tmp_path / "entry"
        if kind in make:
            make[kind](entry)
        before = entry.lstat() if kind in make else None
        out = {"empty": "", "trailing-slash": f"{tmp_path / 'new'}/"}.get(kind, str(entry))
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert cli.main(["region", "--out", out]) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("openconvex: error: argument --out: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(["target", "cwd", *(["entry"] if kind in make else [])])
        assert list(workdir.iterdir()) == []
        assert (tmp_path / "target").read_text() == "kept\n"
        if before is not None:
            assert (entry.lstat().st_mode, entry.lstat().st_ino) == (before.st_mode, before.st_ino)

    def test_t_steps_refused(self, tmp_path, capsys):
        # on a spec interpolate solves, so that only the removed option is refused
        path = _write_spec(tmp_path, SPEC_06_N1)
        self._refused(["interpolate", "--in", path, "--t-steps", "100"], tmp_path, capsys)

    def test_counts_end_at_max_n(self, capsys):
        # parsed only, not run: MAX_N is the largest count either option takes
        parse = cli.build_parser().parse_args
        top = chain.MAX_N
        args = parse(["sweep", "--s-steps", str(top), "--N-list", f"1,{top}"])
        assert (args.s_steps, args.n_list) == (top, [1, top])
        for argv in (["--s-steps", str(top + 1)], ["--N-list", f"1,{top + 1}"]):
            with pytest.raises(SystemExit) as refused:
                parse(["sweep", *argv])
            assert refused.value.code == cli.EXIT_BAD_INPUT
        assert len(capsys.readouterr().err.splitlines()) == 2

    def test_help_returns_0(self, capsys):
        assert cli.main(["verify", "--help"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("usage: openconvex verify")

    @staticmethod
    def _refused(argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("openconvex: error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "interpolate"])
    @pytest.mark.parametrize("change", [
        {"N": 2.7},
        {"N": True},
        {"L": True},
        {"f_x": False},
        {"y": [True, False]},
        {"x": [[0.0, 0.0]], "y": [[1.0, 0.0]], "g_x": [[0.0, 0.0]], "g_y": [[0.6, 0.3]]},
        {"x": 0.0, "y": 1.0, "g_x": 0.0, "g_y": 0.6},
        {"x": [], "y": [], "g_x": [], "g_y": []},
        {"L": "1"},
        {"f_x": "0"},
        {"y": ["1", 0]},
        {"L": "1", "x": ["0", "0"], "y": [1, 0], "f_x": "0", "g_x": [0, 0],
         "g_y": [0.6, 0.3], "N": 2},
        {"L": 10 ** 400},
        {"L": 1e200, "y": [1e200, 0], "g_y": [1e300, 5e299]},
        {"y": [1e-170, 0], "g_y": [5e-171, 5e-171]},
        {"L": 1e-300, "g_y": [1e10, 0]},
        {"g_y": [1e200, 1e200]},
        {"g_y": [0, 1e200]},
        {"g_y": [0.6, 1e200]},
        {"f_x": 1e308, "g_x": [1e308, 0], "g_y": [1e308, 0], "N": 3},
        {"x": [0], "y": [1e10], "g_x": [1e300], "g_y": [1e300], "N": 2},
        {"x": [0], "y": [1e145], "g_x": [0], "g_y": [1e155]},
        {"N": 10 ** 20},
        {"direction": "UPPER"},
    ], ids=["N-fraction", "N-bool", "L-bool", "f_x-bool", "vector-bool",
            "vectors-2d", "vectors-scalar", "vectors-empty", "L-string",
            "f_x-string", "vector-string", "strings", "L-huge-int",
            "scale-overflow", "distance-underflow", "g-hat-overflow",
            "g-hat-norm-overflow", "g-hat-across-overflow",
            "g-hat-across-overflow-a", "value-overflow", "slope-overflow",
            "violation-overflow", "N-huge", "direction-upper-case"])
    def test_malformed_spec(self, command, change, tmp_path, capsys):
        # a truncated N, a boolean read as 0 or 1, a string read as a number,
        # an integer past the float range, a vector of another shape, a
        # direction not spelled as ChainSpec spells it or a spec whose
        # canonical form or result leaves the float range is refused, not solved
        path = _write_spec(tmp_path, dict(SPEC_06_N1, **change))
        self._refused([command, "--in", path], tmp_path, capsys)
