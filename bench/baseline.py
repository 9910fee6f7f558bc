#!/usr/bin/env python3
"""Repeat bench/run.py over seeds and summarise the spread of each metric.

    python3 bench/baseline.py --workloads star-deep --seeds 1-5
    python3 bench/baseline.py --seeds 1-10 --traced-seed 1 \
        --out bench/baseline.json

For every workload and end-to-end metric it prints the median over the
seeds and the quartile spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, next to the metric's bound in
BENCHMARK.json.  With ``--traced-seed`` it also makes two traced runs per
workload on that seed and reports any per-layer count that differs between
them.  Each run is its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.splitlines()
    env = next(l for l in lines if l.startswith("environment: "))
    result = json.loads(lines[-1])
    result["environment"] = dict(
        kv.split("=", 1) for kv in env[len("environment: "):].split()
    )
    print(f"  {workload} seed {seed} trace {trace}: "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, 0) for seed in seed_range(args.seeds)]
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs)
        rows = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[metric] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": spread(values), "bound": bound,
                "unit": runs[0]["metrics"][metric]["unit"],
            }
            row = rows[metric]
            print(f"{workload:14s} {metric:12s} median {row['median']:.6g}"
                  f" spread {row['spread']:.3f} (bound {bound}) "
                  + " ".join(f"{v:.4g}" for v in values))
        entry = {
            "seeds": seed_range(args.seeds),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "environment": [r["environment"] for r in runs],
            "end_to_end": rows,
        }
        if args.traced_seed is not None:
            traced = [run(workload, args.traced_seed, 1) for _ in range(2)]
            ok &= all(r["correct"] for r in traced)
            first, second = (r["metrics"] for r in traced)
            differing = [
                m for m in first
                if first[m]["unit"] in ("count", "ratio")
                and m != "trace.overhead_ratio"
                and first[m]["value"] != second[m]["value"]
            ]
            ok &= not differing
            print(f"{workload:14s} traced runs on seed {args.traced_seed}: "
                  f"{len(differing)} counts differ {differing}")
            entry["per_layer"] = {m: v["value"] for m, v in first.items()}
        summary[workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
