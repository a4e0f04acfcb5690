"""End-to-end command-line behavior and exit codes."""

import argparse
import hashlib
import json
import math
import os
import stat

import pytest

from openconvex import cli

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
    def test_passes_with_coarse_grid(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = cli.main([
            "verify", "--grid-spacing", "1/4", "--pairs", "50",
            "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        text = out.read_text()
        assert "violation" in text and "OK" in text

    def test_json_format(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main([
            "verify", "--grid-spacing", "1/4", "--pairs", "50",
            "--format", "json", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["passed"] is True

    def test_perturbation_fails(self, tmp_path):
        out = tmp_path / "report.txt"
        code = cli.main([
            "verify", "--grid-spacing", "1/4", "--pairs", "10",
            "--perturb-piece", "2", "--perturb-delta", "1/1000",
            "--out", str(out),
        ])
        assert code == cli.EXIT_VERIFY_FAILED
        assert "FAIL" in out.read_text()

    # sha256 of the reports of the Python-integer lattice these replaced;
    # the default text is the one the benchmark checks
    @pytest.mark.parametrize("args, code, digest", [
        ([], cli.EXIT_OK,
         "837a4246b60cba86df164fd471d79975253d67d62009e31e114c52ffb6f9a611"),
        (["--format", "json"], cli.EXIT_OK,
         "f4885e84419db11a70be10d0a022890342ae05bbc34b0b878b436e943887cfa0"),
        (["--perturb-piece", "2"], cli.EXIT_VERIFY_FAILED,
         "9150a33b04e283ba3027ce7551e72de567f518d3b05aebcbfa660e777e621830"),
    ], ids=["text", "json", "perturb-piece-2"])
    def test_output_bytes_pinned(self, tmp_path, args, code, digest):
        out = tmp_path / "report.out"
        assert cli.main(["verify", *args, "--out", str(out)]) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
    ])
    def test_output_bytes_pinned(self, tmp_path, args, digest):
        out = tmp_path / "contour.out"
        assert cli.main(["contour", *args, "--out", str(out)]) == cli.EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


class TestSweep:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main([
            "sweep", "--s-min", "0.5", "--s-max", "0.7", "--s-steps", "3",
            "--N-list", "1,2", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "s,N,B,U,status"
        assert len(lines) == 7
        row = next(
            r.split(",") for r in lines[1:]
            if abs(float(r.split(",")[0]) - 0.6) < 1e-12 and r.split(",")[1] == "1"
        )
        _, _, b, u, status = row
        assert status == "Optimal"
        assert float(b) == pytest.approx(0.25, abs=1e-6)
        assert float(u) == pytest.approx(0.35, abs=1e-6)

    def test_all_infeasible_exit_code(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main([
            "sweep", "--s-min", "0.3", "--s-max", "0.4", "--s-steps", "2",
            "--N-list", "1", "--out", str(out),
        ])
        assert code == cli.EXIT_ALL_INFEASIBLE
        for line in out.read_text().strip().split("\n")[1:]:
            assert line.endswith("Infeasible")

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--s-min", "0.5", "--s-max", "0.7", "--s-steps", "4",
                "--N-list", "1,2"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == cli.EXIT_OK
        assert cli.main(args + ["--out", str(out2)]) == cli.EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_match_serial(self, tmp_path):
        args = ["sweep", "--s-min", "0.55", "--s-max", "0.65", "--s-steps", "2",
                "--N-list", "1,2"]
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert cli.main(args + ["--out", str(serial)]) == cli.EXIT_OK
        assert cli.main(args + ["--workers", "2", "--out", str(parallel)]) == cli.EXIT_OK
        assert serial.read_bytes() == parallel.read_bytes()


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


class TestTableBytes:
    # sha256 of each table; contour, region and interpolate-N1 run no barrier,
    # so only the interpolate-N5 and sweep pins move when its rounding does
    @pytest.mark.parametrize("argv, spec, digest", [
        (["interpolate"], SPEC_06_N1,
         "b6fee1a9524eb2d4ff319c76ab80a0e838554f54983721a1dcaaa8f8f9cc3123"),
        (["interpolate"], dict(SPEC_06_N1, N=5),
         "efba8ce58423cb7af68c13ba96d0008aec08a97155f26d36f255ecabf6a19fbb"),
        (["sweep", "--s-steps", "3", "--N-list", "1,2"], None,
         "87ae704c1ec8e4905e47d635992a545f8aa66a4449884d79085e4f669451c8f3"),
        (["region", "--steps", "10"], None,
         "1ff596aee5dc5538573631136233ca0b1863155b604836abc2a1f442a1ad9f1b"),
    ], ids=["interpolate-N1", "interpolate-N5", "sweep", "region"])
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
        quick = ["--grid-spacing", "1/4", "--pairs", "10"]
        assert cli.main(["verify", *quick, "--perturb-piece", "2",
                         "--out", str(tmp_path / "bad.txt")]) == cli.EXIT_VERIFY_FAILED
        assert cli.main(["verify", *quick, "--out", str(tmp_path / "good.txt")]) \
            == cli.EXIT_OK
        small = ["--nx", "3", "--ny", "2"]
        svg, csv = tmp_path / "c.svg", tmp_path / "c.csv"
        assert cli.main(["contour", *small, "--format", "svg", "--out", str(svg)]) == 0
        assert cli.main(["contour", *small, "--out", str(csv)]) == 0
        assert svg.read_text().startswith("<svg")
        assert csv.read_text().startswith("x0,x1,piece,value\n")


class TestOptions:
    # each subcommand declares only the options its cmd_* reads
    OPTIONS = {
        "verify": {"--out", "--format", "--seed", "--grid-spacing", "--pairs",
                   "--perturb-piece", "--perturb-delta"},
        "contour": {"--out", "--format", "--xmin", "--xmax", "--ymin", "--ymax", "--nx", "--ny"},
        "region": {"--out", "--format", "--steps"},
        "sweep": {"--out", "--format", "--s-min", "--s-max", "--s-steps", "--N-list",
                  "--workers"},
        "solve": {"--out", "--in"},
        "interpolate": {"--out", "--in", "--t-steps"},
    }

    def test_each_subcommand_options_pinned(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
                   for name, p in sub.choices.items()}
        assert options == self.OPTIONS
        assert sum(map(len, options.values())) == 30


class TestBadInput:
    # each is refused before any work, with one line on stderr and exit 4
    # (a traceback exits 1, the code of a failed verification)
    @pytest.mark.parametrize("argv", [
        ["verify", "--grid-spacing", "0"],
        ["verify", "--grid-spacing", "abc"],
        ["verify", "--grid-spacing=-1/4"],
        ["verify", "--grid-spacing", "1/0"],
        ["verify", "--perturb-delta", "abc"],
        ["verify", "--perturb-piece", "5"],
        ["verify", "--pairs", "0"],
        ["verify", "--seed", "-1"],
        ["verify", "--grid-spacing", "2"],
        ["verify", "--grid-spacing", "10"],
        ["sweep", "--N-list", "0"],
        ["sweep", "--N-list", "x"],
        ["sweep", "--s-min", "nan"],
        ["sweep", "--s-steps", "0"],
        ["contour", "--nx", "0"],
        ["contour", "--xmax", "inf"],
        ["region", "--steps", "0"],
        ["interpolate", "--in", "unread.json", "--t-steps", "0"],
        # argparse's own errors take the same path: a value that is not a
        # number, an unknown option, a missing --in or subcommand
        ["contour", "--nx", "abc"],
        ["contour", "--seed", "0"],
        ["verify", "--pairs", "x"],
        ["sweep", "--workers", "0"],
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
    ], ids=["N-fraction", "N-bool", "L-bool", "f_x-bool", "vector-bool",
            "vectors-2d", "vectors-scalar", "vectors-empty", "L-string",
            "f_x-string", "vector-string", "strings", "L-huge-int"])
    def test_malformed_spec(self, command, change, tmp_path, capsys):
        # a truncated N, a boolean read as 0 or 1, a string read as a number,
        # an integer past the float range or a vector of another shape is
        # refused, not solved
        path = _write_spec(tmp_path, dict(SPEC_06_N1, **change))
        self._refused([command, "--in", path], tmp_path, capsys)
