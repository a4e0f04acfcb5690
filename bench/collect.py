"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/collect.py --workloads bands,specs,spline \\
        --seeds 1-10 --out bench/results/baseline.json

For every workload and metric it reports the median of the runs, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median.  Runs go one after another, never in parallel, so that
they do not compete for the cores they measure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=200,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    samples = next((json.loads(line[8:]) for line in lines if line.startswith("samples ")), None)
    return {"seed": seed, "env": env, "samples": samples, **result}


def spread_of(values: list[float], unit: str) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def summarise(runs: list[dict]) -> dict:
    """Each metric's spread, and that of the unscaled wall time (see speed.py)."""
    summary = {name: spread_of([r["metrics"][name]["value"] for r in runs], m["unit"])
               for name, m in runs[0]["metrics"].items()}
    if "wall_s" in summary:
        summary["raw_wall_s"] = spread_of([r["samples"]["raw_wall_s"] for r in runs], "s")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="bands,specs,spline")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="JSON file for the runs and summary")
    args = parser.parse_args(argv)

    doc = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, seed, args.seconds, args.trace)
                for seed in parse_seeds(args.seeds)]
        summary = summarise(runs)
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "summary": summary,
            "runs": runs,
        }
        print(f"# {workload}: {len(runs)} runs, "
              f"failed {doc['workloads'][workload]['failed']}"
              f"/{doc['workloads'][workload]['attempted']}")
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            values = " ".join(f"{v:.4g}" for v in
                              (r["metrics"][name]["value"] if name in r["metrics"]
                               else r["samples"][name] for r in runs))
            print(f"  {name:14s} median {s['median']:.6g} {s['unit']:3s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}  [{values}]", flush=True)
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
