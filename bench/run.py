"""Benchmark entry point; run it from the root of a checkout.

    python3 bench/run.py --workload bands --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 36 --trace 1

Each workload runs in a fresh child interpreter with BLAS pinned to one
thread and the checkout's ``src/`` on the import path.  This process prints
every metric by name with its unit and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--workload all`` the last
line maps each workload to that object.  It exits 1 when a result is not
correct.  Workloads and metrics are those that ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent

PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
CHILD_TIMEOUT_S = 160.0     # a run must end within 180 s

# Workloads, metric names and units are declared once, in BENCHMARK.json.
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in DECLARED["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}


def child_env(root: Path, tmp: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    return env


def run_child(argv: list[str], env: dict, cwd: Path) -> tuple[int, str]:
    """Run the workload in its own session; kill the whole session if it overruns."""
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"workload did not finish within {CHILD_TIMEOUT_S:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, stdout


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    work = root / ".bench_out" / f"{workload}-{seed}-{os.getpid()}"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = child_env(root, tmp)
    try:
        code, stdout = run_child(
            [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--work-dir", str(work)],
            env, root,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        raise SystemExit(f"workload {workload} exited {code}")
    child = json.loads(stdout.splitlines()[-1])

    metrics = child["metrics"]
    units = PER_LAYER if trace else END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"workload {workload} did not report {sorted(missing)}")

    print(f"# {workload} seed={seed} trace={trace}")
    print(f"env {json.dumps(child['env'], sort_keys=True)}")
    print(f"samples {json.dumps(child['samples'], sort_keys=True)}")
    share = child["failed"] / child["attempted"]
    print(f"fail_share = {share:.6g} ({child['failed']}/{child['attempted']} ops); "
          f"negative controls caught: {child['controls_caught']}")
    for problem in child["problems"]:
        print(f"problem: {problem}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    return {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description="openconvex benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "openconvex" / "__init__.py").is_file():
        print("bench: run from the root of an openconvex checkout (src/openconvex missing)",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    results = {w: run_workload(root, w, args.seed, args.seconds, args.trace)
               for w in WORKLOADS}
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
