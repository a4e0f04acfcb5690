"""Ungated record: the bands sweep, serial against --workers 2, with BLAS
threads left at their default and pinned to one.

    python3 bench/oversub.py --out bench/results/oversubscription.json

Each configuration runs once as ``python3 -m openconvex.cli sweep`` in a
fresh interpreter.  With default BLAS threads every pool worker may start
as many BLAS threads as there are cores, so the workers oversubscribe them.
The four CSV outputs must be byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    out_dir = ROOT / ".bench_out" / "oversub"
    out_dir.mkdir(parents=True, exist_ok=True)
    records, digests = [], set()
    for pinned in (False, True):
        env = run.child_env(ROOT, out_dir)
        if not pinned:
            for name in run.PINNED_THREADS:
                env.pop(name, None)
        for workers in (1, 2):
            csv_path = out_dir / f"bands-{int(pinned)}-{workers}.csv"
            t0 = perf_counter()
            subprocess.run([sys.executable, "-m", "openconvex.cli", *workloads.BAND_ARGS,
                            "--workers", str(workers), "--out", str(csv_path)],
                           env=env, cwd=ROOT, check=True, timeout=600)
            wall = perf_counter() - t0
            digests.add(hashlib.sha256(csv_path.read_bytes()).hexdigest())
            records.append({"blas_threads": "1" if pinned else "default",
                            "workers": workers, "wall_s": wall})
            print(f"BLAS threads {records[-1]['blas_threads']:7s} workers {workers}: "
                  f"{wall:.2f} s", flush=True)
    doc = {
        "what": "one ungated run of the bands sweep per configuration",
        "sweep_args": workloads.BAND_ARGS[1:],
        "runs": records,
        "outputs_identical": len(digests) == 1,
        "env": workloads.environment(seed=0),
    }
    doc["env"]["blas_threads"] = "see runs"
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if doc["outputs_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
