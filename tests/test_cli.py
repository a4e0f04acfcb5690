"""End-to-end command-line behavior and exit codes."""

import argparse
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from openconvex import checks, cli, spline

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
    def test_csv_has_exact_value_at_violation_point(self, tmp_path):
        out = tmp_path / "contour.csv"
        code = cli.main([
            "contour", "--xmin", "0", "--xmax", "2", "--nx", "3",
            "--ymin", "0", "--ymax", "1", "--ny", "2",
            "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x0,x1,piece,value"
        row = next(r for r in lines[1:] if r.startswith("2,0,"))
        fields = row.split(",")
        assert fields[2] == "4"
        assert float(fields[3]) == pytest.approx(16991.0 / 23040.0, abs=1e-15)

    def test_svg_output(self, tmp_path):
        out = tmp_path / "contour.svg"
        code = cli.main([
            "contour", "--nx", "20", "--ny", "20", "--format", "svg",
            "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        assert out.read_text().startswith("<svg")

    # sha256 of the output of the per-point implementation these replaced;
    # the last two grids start below the domain, whose rows are skipped.
    # The default 400 x 400 grid, last, is the one the benchmark checks.
    @pytest.mark.parametrize("args, digest", [
        (["--nx", "20", "--ny", "20"],
         "296ff81c76e0edfd8e8322152b775890fb458f33b3a9b48c8c0a5b8411fa43b1"),
        (["--nx", "20", "--ny", "20", "--format", "svg"],
         "ea824d78f792a68dc90b5c1edf90f021708367e980719add70bb7ab5eb2bbb91"),
        (["--nx", "37", "--ny", "29", "--ymin", "-0.5", "--xmin", "-3", "--xmax", "4"],
         "2690a78a979cb6e78ebb4ed0caecf64a35b677842e6b03d727f63b48128d5d0d"),
        (["--nx", "37", "--ny", "29", "--ymin", "-0.5", "--xmin", "-3", "--xmax", "4",
          "--format", "svg"],
         "cf59a204e81400625529de1306d328a5a09bf2a5e7be1b86e1372cef890b6bd9"),
        ([], "0408ad147224d2c2178ad66e85f1e2ff734e0f6f63853c5a36a27b77c72fd4c2"),
        # recorded before the grid was evaluated a block of rows at a time:
        # the default SVG; one row per block; many blocks and a partial last
        # one; the first domain row in mid-block; no domain row at all
        (["--format", "svg"],
         "fb107f3d27223543d04eb3d98ebefeb8d21623fcd78a107d73168bd3a86e9ae5"),
        (["--nx", "9000", "--ny", "3"],
         "c0b79096f3a0a56a2862d64761c0083df2a7ad21b632722f02f3288114fc8eb2"),
        (["--nx", "1", "--ny", "20000"],
         "4f8316c4a92f3b656e6382c732ae032c7d15d9070bc6b5912538602095a51430"),
        (["--nx", "3", "--ny", "20000", "--ymin", "-0.5"],
         "55e74c6002cf5cad41503a3167ea24056378a71132f8344d120afcc83815a47b"),
        (["--ymin", "-1", "--ymax", "-0.5"],
         "4c2f61d497c107468d1df8edbc0f4bc5fc0dcfd55431ee23e6a53e2a1c71b5e0"),
        (["--ymin", "-1", "--ymax", "-0.5", "--format", "svg"],
         "fc457a735885558a2bf24e99292aadb92401f7a8829ae49d2fee03a024abe9a9"),
    ])
    def test_output_bytes_pinned(self, tmp_path, args, digest):
        out = tmp_path / "contour.out"
        assert cli.main(["contour", *args, "--out", str(out)]) == cli.EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @staticmethod
    def _peak_bytes(tmp_path, *args):
        """tracemalloc's peak over one contour run written to a file."""
        tracemalloc.start()
        try:
            assert cli.main(["contour", *args, "--out", str(tmp_path / "c.out")]) == cli.EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_does_not_grow_with_the_grid(self, tmp_path):
        # the grid is evaluated and written a block of rows at a time; held
        # whole, it peaked at 13.4 MiB (400 x 400) and 53.7 MiB (400 x 1600)
        mib = 1 << 20
        csv = self._peak_bytes(tmp_path)
        assert csv < 2 * mib
        assert self._peak_bytes(tmp_path, "--ny", "1600") < csv + mib // 2
        # the SVG keeps one float per cell for its colour scale, but its
        # <rect> lines are written a row at a time (62.4 MiB when joined)
        assert self._peak_bytes(tmp_path, "--format", "svg") < 4 * mib

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_refused_before_any_output(self, fmt, capsys):
        # output is streamed to stdout, so the window is checked before the
        # first line: a refusal never leaves a partial table behind
        argv = ["contour", "--xmin=-1e308", "--xmax=1e308", "--format", fmt]
        assert cli.main(argv) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("openconvex: error: ")

    def test_stdout_matches_file(self, tmp_path, capsys):
        # the table is streamed a grid row at a time to either
        out = tmp_path / "contour.csv"
        small = ["contour", "--nx", "20", "--ny", "20"]
        assert cli.main([*small, "--out", str(out)]) == cli.EXIT_OK
        assert cli.main(small) == cli.EXIT_OK
        assert capsys.readouterr().out == out.read_text()


class TestRegion:
    def test_inclusion_on_grid(self, tmp_path):
        out = tmp_path / "region.csv"
        assert cli.main(["region", "--steps", "100", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,inner_lo,inner_hi,outer_lo,outer_hi"
        assert len(lines) == 102
        for line in lines[1:]:
            t, ilo, ihi, olo, ohi = map(float, line.split(","))
            assert olo - 1e-15 <= ilo <= ihi <= ohi + 1e-15

    def test_svg_output(self, tmp_path):
        out = tmp_path / "region.svg"
        code = cli.main(["region", "--steps", "50", "--format", "svg",
                         "--out", str(out)])
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
                assert cli.main(["region", "--steps", "3", "--out", str(out)]) == 0
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
         "bd64021a1a440fb32eb72925ecfb044b1db6e76b39e492e393bfc78031ddb5cd"),
        (dict(SPEC_06_N1, N=5, direction="lower"),
         "e359b3eed70fbfffbe7db83f3a116628b25d8f3d7cf1a1ee06e2a950baa039fb"),
        (dict(SPEC_06_N1, g_y=[0.4, math.sqrt(0.34)]),
         "c3c1c50b58af660c42e70aa7790b7ff4f57fe4ddcaf568196034caa58165da82"),
        ({"L": 1.5, "x": [0.3, -0.2, 1.0], "y": [1.1, 0.4, 0.5], "f_x": 0.7,
          "g_x": [0.1, -0.3, 0.2], "g_y": [0.9, 0.2, -0.1], "N": 5},
         "dd27a8a23663dab368284f10954f73c72f8b0cea2bc337bb195bf3a01dade970"),
    ], ids=["upper-N5", "lower-N5", "infeasible-N1", "moved-3d-N5"])
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
        code = cli.main(["interpolate", "--in", path, "--t-steps", "20",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,value,dvalue"
        assert len(lines) == 22
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
    ], ids=["f-1e8", "f-1e12", "x-1e8", "x-and-f-1e8"])
    def test_offset_data(self, change, tmp_path):
        # solve accepts these chains; the knots' rounding at large f or x
        # must not make the interpolant refuse them
        path = _write_spec(tmp_path, dict(SPEC_06_N1, g_y=[0.6, 0.3], N=5, **change))
        solved, out = tmp_path / "solve.json", tmp_path / "interp.csv"
        assert cli.main(["solve", "--in", path, "--out", str(solved)]) == cli.EXIT_OK
        assert cli.main(["interpolate", "--in", path, "--t-steps", "4",
                         "--out", str(out)]) == cli.EXIT_OK
        v = json.loads(solved.read_text())["value"]
        t, value, dvalue = map(float, out.read_text().strip().split("\n")[-1].split(","))
        assert t == 1.0
        assert abs(value - v) <= 1e-9 * (1 + abs(v))
        # the slope at y is <g_y, y - x> = 0.6, whatever the offset
        assert abs(dvalue - 0.6) <= 2 * math.ulp(0.6)


class TestTableBytes:
    # sha256 of each table; region, interpolate-N1 and the boundary spec run
    # no barrier, so only the other interpolate pins and sweep move when its
    # rounding does
    @pytest.mark.parametrize("argv, spec, digest", [
        (["interpolate"], SPEC_06_N1,
         "b6fee1a9524eb2d4ff319c76ab80a0e838554f54983721a1dcaaa8f8f9cc3123"),
        (["interpolate"], dict(SPEC_06_N1, N=5),
         "c257fb81385b76dedd4f1e9d5e85abd101e377eaf1d3ba2314bc23273a1ac456"),
        (["sweep", "--s-steps", "3", "--N-list", "1,2"], None,
         "7a9a8c089ae0b6eec9324c28e02c8310bb0f0bf3b8d9c7589444427828286b46"),
        (["region", "--steps", "10"], None,
         "1ff596aee5dc5538573631136233ca0b1863155b604836abc2a1f442a1ad9f1b"),
        (["interpolate"], dict(SPEC_06_N1, N=5, direction="lower"),
         "2fbd05a728badd6e48d9c69446d05bff2e54c12c785a82f1327367d7839ca4bd"),
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

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1])
    def test_percent_format_matches_format(self, v):
        # the tables format floats with "%.17g" %, the writer before them with format()
        assert "%.17g" % v == format(v, ".17g")


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_between_calls(self, tmp_path):
        # an option given to one call is back at its default in the next
        assert cli.main(["verify", "--perturb-piece", "2",
                         "--out", str(tmp_path / "bad.txt")]) == cli.EXIT_VERIFY_FAILED
        assert cli.main(["verify", "--out", str(tmp_path / "good.txt")]) == cli.EXIT_OK
        small = ["--nx", "3", "--ny", "2"]
        svg, csv = tmp_path / "c.svg", tmp_path / "c.csv"
        assert cli.main(["contour", *small, "--format", "svg", "--out", str(svg)]) == 0
        assert cli.main(["contour", *small, "--out", str(csv)]) == 0
        assert svg.read_text().startswith("<svg")
        assert csv.read_text().startswith("x0,x1,piece,value\n")


class TestOptions:
    # each subcommand declares only the options its cmd_* reads
    OPTIONS = {
        "verify": {"--out", "--format", "--seed", "--perturb-piece"},
        "contour": {"--out", "--format", "--xmin", "--xmax", "--ymin", "--ymax", "--nx", "--ny"},
        "region": {"--out", "--format", "--steps"},
        "sweep": {"--out", "--format", "--s-steps", "--N-list"},
        "solve": {"--out", "--in"},
        "interpolate": {"--out", "--in", "--t-steps"},
    }

    def test_each_subcommand_options_pinned(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
                   for name, p in sub.choices.items()}
        assert options == self.OPTIONS
        assert sum(map(len, options.values())) == 24


def test_import_loads_no_process_pool():
    # the sweep is serial, so starting the CLI pays for no pool machinery
    code = ("import sys, openconvex.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


class TestBadInput:
    # each is refused before any work, with one line on stderr and exit 4
    # (a traceback exits 1, the code of a failed verification)
    @pytest.mark.parametrize("argv", [
        ["verify", "--perturb-piece", "5"],
        ["verify", "--seed", "-1"],
        ["sweep", "--N-list", "0"],
        ["sweep", "--N-list", "x"],
        ["sweep", "--s-steps", "0"],
        ["contour", "--nx", "0"],
        ["contour", "--xmax", "inf"],
        # a window of finite bounds whose width overflows (argparse reads
        # a bare -1e308 as an option, so the values are given with =)
        ["contour", "--xmin=-1e308", "--xmax=1e308"],
        ["contour", "--ymin=-1e308", "--ymax=1e308"],
        ["region", "--steps", "0"],
        ["interpolate", "--in", "unread.json", "--t-steps", "0"],
        # argparse's own errors take the same path: a value that is not a
        # number, an unknown option, a missing --in or subcommand
        ["contour", "--nx", "abc"],
        ["contour", "--seed", "0"],
        ["verify", "--perturb-delta", "abc"],
        ["sweep", "--workers", "2"],
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
        ["solve"],
        [],
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
    ], ids=["N-fraction", "N-bool", "L-bool", "f_x-bool", "vector-bool",
            "vectors-2d", "vectors-scalar", "vectors-empty", "L-string",
            "f_x-string", "vector-string", "strings", "L-huge-int",
            "scale-overflow", "distance-underflow", "g-hat-overflow",
            "g-hat-norm-overflow"])
    def test_malformed_spec(self, command, change, tmp_path, capsys):
        # a truncated N, a boolean read as 0 or 1, a string read as a number,
        # an integer past the float range, a vector of another shape or a
        # spec whose canonical form leaves the float range is refused, not
        # solved
        path = _write_spec(tmp_path, dict(SPEC_06_N1, **change))
        self._refused([command, "--in", path], tmp_path, capsys)
