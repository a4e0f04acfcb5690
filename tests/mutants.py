"""Mutants of the package, each with the test node that kills it.

Every entry changes one text in one file under src/.  Its verdict is either
the test node that must fail on the mutant, or "equivalent: " and the reason
no test can see it.  ``tests/test_mutants.py`` checks in tier-1 that each old
text occurs exactly once in src/ and each node names a test, so the table
cannot go stale silently.  A change to src/ that is claimed to fail a test
belongs in this table.

    python tests/mutants.py

runs the table.  It copies the repository, all but .git and caches (the
tests read README.md and bench/ too), into a temporary directory, then runs
every node on the copy as it is, the identity mutant, where all must pass:
the runner's negative control.  Then it applies each mutant in turn and runs
its node, where pytest must report a failing test (exit 1), not a collection
or usage error.  It exits 1 if any mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENT = "equivalent: "

CHAIN = "src/openconvex/chain.py"
SPLINE = "src/openconvex/spline.py"
INTERPOLATION = "src/openconvex/interpolation.py"
CLI = "src/openconvex/cli.py"


class Mutant(NamedTuple):
    path: str       # relative to the repository root
    old: str
    new: str
    verdict: str    # the node that kills the mutant, or EQUIVALENT + reason

    @property
    def killed(self) -> bool:
        return not self.verdict.startswith(EQUIVALENT)


TABLE = (
    # spec rules and canonical form
    Mutant(CHAIN, "MAX_N = 10**6", "MAX_N = 10**7",
           "tests/test_chain.py::TestSpecValidation::test_chain_length_limit_is_one_million"),
    Mutant(CHAIN, "if s * s > 0.5 + 1e-12:", "if s * s > 0.5 + 1e-9:",
           "tests/test_chain.py::TestSpecValidation::test_normalized_out_of_range"),
    Mutant(CHAIN, "values < math.inf and gradients < math.inf", "gradients < math.inf",
           "tests/test_chain.py::TestSpecValidation::test_canonical_form_out_of_range"
           "[value-overflow]"),
    Mutant(CHAIN, "abs(spec.f_x) + abs(slope) +", "abs(spec.f_x) +",
           "tests/test_chain.py::TestSpecValidation::test_canonical_form_out_of_range"
           "[slope-overflow]"),
    Mutant(CHAIN, "reach = 1.0 + g_norm * (1.0 + g_norm)", "reach = 1.0 + g_norm",
           "tests/test_chain.py::TestSpecValidation::test_canonical_form_out_of_range"
           "[violation-overflow]"),
    Mutant(CHAIN, "spec.L * rho, spec.L * rho * rho)", "spec.L * rho, spec.L * rho)",
           "tests/test_chain.py::TestUnitInvariance::test_scaled_normalized_spec[1000.0-upper]"),
    Mutant(CHAIN, "if b <= 1e-12 * max(1.0, g_norm):", "if b <= 1e-9 * max(1.0, g_norm):",
           EQUIVALENT + "U_N is even in b, so zeroing a b below 1e-9 moves it by at most "
           "about 1e-18, under every tolerance"),
    # maps back to spec units
    Mutant(CHAIN, "return self.spec.f_x + t * self.slope + self.scale * F",
           "return self.spec.f_x + self.scale * F",
           "tests/test_chain.py::TestUnitInvariance::test_rigid_motion_and_tilt[True-upper]"),
    Mutant(CHAIN, "g = spec.g_x + problem.g_scale * (K[:, 1:] @ problem.basis.T)",
           "g = problem.g_scale * (K[:, 1:] @ problem.basis.T)",
           "tests/test_chain.py::TestPrimalWitness::test_chain_is_feasible[d5-upper]"),
    Mutant(CHAIN, "duality_gap_estimate=problem.scale * gap", "duality_gap_estimate=gap",
           "tests/test_cli.py::TestSolve::test_json_bytes_pinned[L-int-1e20-N2]"),
    Mutant(CHAIN, "F = K[::-1, 0] - K[-1, 0] + a * (np.arange(N + 1) / N)",
           "F = K[::-1, 0] - K[-1, 0]",
           "tests/test_chain.py::TestReversalPrecision::test_lower_and_upper_sum_to_s[0.6]"),
    Mutant(CHAIN, "q - dF + K[:-1, 1] / problem.N])", "q - dF - K[:-1, 1] / problem.N])",
           "tests/test_chain.py::TestProblemShape::test_constraint_values_at_known_point"),
    Mutant(CHAIN, "SweepRow(s, N, s - up.value, up.value, up.status)",
           "SweepRow(s, N, up.value - s, up.value, up.status)",
           "tests/test_chain.py::TestSweep::test_rows_and_statuses"),
    Mutant(CHAIN, "band = FEAS_BAND * max(spec.L * float(d @ d), abs(cross))",
           "band = FEAS_BAND * spec.L * float(d @ d)",
           EQUIVALENT + "|<g_y - g_x, d>| passes L ||d||^2 only where |a| > 1, and there "
           "a - a^2 - b^2 lies below -(|a| - 1)|a|, outside both bands unless |a| - 1 "
           "<= 1e-12"),
    # the barrier and its one state, the offsets u
    Mutant(CHAIN, "return 0.25 / u.shape[0] ** 2 - np.vecdot(u, u)",
           "return 0.25 / u.shape[0] ** 2 + np.vecdot(u, u)",
           "tests/test_chain.py::TestRecordedValues::test_recorded_upper_bounds[0.6]"),
    Mutant(CHAIN, "u = np.tile(problem.gN / N - (0.5 / N, 0.0), (N, 1))",
           "u = np.tile(problem.gN / N, (N, 1))",
           "tests/test_chain.py::TestRecordedValues::test_recorded_upper_bounds[0.6]"),
    Mutant(CHAIN, "return u + (0.5 / N, 0.0), N / t, centred", "return u, N / t, centred",
           "tests/test_chain.py::TestRecordedValues::test_recorded_upper_bounds[0.6]"),
    Mutant(CHAIN, "        u, s = un, sn\n", "        u = un\n",
           "tests/test_chain.py::TestRecordedValues::test_recorded_upper_bounds[0.6]"),
    # a shift of every g_j by one vector moves nu only, so the path is the same
    # and only the gradient check sees it
    Mutant(CHAIN, "g[:, 0] -= t * (w - 0.5 / u.shape[0])", "g[:, 0] -= t * w",
           "tests/test_chain.py::TestLineSearch::test_gradient_and_hessian_match_differences"),
    Mutant(CHAIN, "if not (drop < s).all():", "if False:",
           "tests/test_chain.py::TestLineSearch::test_step_outside_interior_is_rejected"),
    Mutant(CHAIN, "    return u, False\n", "    return u, True\n",
           "tests/test_chain.py::TestCenteringStop::test_step_limit_is_an_iteration_limit"),
    # the exact spline checks
    Mutant(SPLINE, "z0 = ExactPoint(Q(0), line.offset / n1)",
           "z0 = ExactPoint(Q(0), line.offset * n1)",
           "tests/test_spline.py::TestSeams::test_horizontal_seam"),
    Mutant(SPLINE, "(grad_dir0, grad_dir1, grad0, grad1, dq_z0))",
           "(grad_dir0, grad_dir1, grad0, grad1))",
           "tests/test_spline.py::TestSeams::test_perturbed_constant_breaks_a_seam"),
    Mutant(SPLINE, "return self.trace() >= 0 and self.det() >= 0",
           "return self.trace() > 0 and self.det() > 0",
           "tests/test_spline.py::TestPieceSpectra::test_eigenvalue_edges[lam0-mu0-True-True]"),
    Mutant(SPLINE, "return self.normal[0] * p.x0 + self.normal[1] * p.x1 <= self.offset",
           "return self.normal[0] * p.x0 + self.normal[1] * p.x1 < self.offset",
           "tests/test_spline.py::TestClassification::test_seam_point_gets_lowest_index"),
    Mutant(SPLINE, "return p.x1 > DOMAIN_BOUND", "return p.x1 >= DOMAIN_BOUND",
           "tests/test_spline.py::TestClassification::test_boundary_rejected"),
    Mutant(SPLINE, "if not set(offsets) <= {1, 2, 3, 4}:",
           "if not set(offsets) <= {0, 1, 2, 3, 4}:",
           "tests/test_spline.py::TestSeams::test_piece_index_out_of_range[0]"),
    # the interpolant
    Mutant(INTERPOLATION, "> 1e-9)", "> 1e-6)",
           "tests/test_interpolation.py::TestEnvelope::test_violation_slack_is_1e_9_canonical"),
    Mutant(INTERPOLATION, "seg = np.minimum((t * problem.N).astype(int), problem.N - 1)",
           "seg = (t * problem.N).astype(int)",
           "tests/test_interpolation.py::TestSegmentInterpolant::test_endpoint_matches_bound"),
    # the CLI's refusals
    Mutant(CLI, "stat.S_ISREG(os.lstat(p).st_mode)", "stat.S_ISREG(os.stat(p).st_mode)",
           "tests/test_cli.py::TestBadInput::test_out_is_not_a_regular_file[symlink]"),
)


def _pytest(tree: Path, *nodes: str) -> subprocess.CompletedProcess:
    # no bytecode: a mutant and its original may share size and mtime second
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *nodes], cwd=tree, env=env, capture_output=True, text=True,
                          timeout=600)


def main() -> int:
    killed = [m for m in TABLE if m.killed]
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp, "repo")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out"))
        control = _pytest(tree, *sorted({m.verdict for m in killed}))
        print(f"identity mutant: pytest exit {control.returncode} (must be 0)", flush=True)
        if control.returncode != 0:
            print(control.stdout, control.stderr)
            return 1
        for m in killed:
            target = tree / m.path
            original = target.read_text()
            target.write_text(original.replace(m.old, m.new, 1))
            code = _pytest(tree, m.verdict).returncode
            target.write_text(original)
            print(f"{'killed' if code == 1 else 'SURVIVED'} (exit {code}): {m.path}: "
                  f"{m.old.strip()!r} -> {m.new.strip()!r}", flush=True)
            if code != 1:
                survivors.append(m)
    print(f"{len(killed) - len(survivors)} of {len(killed)} mutants killed, "
          f"{len(TABLE) - len(killed)} equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
