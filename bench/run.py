#!/usr/bin/env python3
"""Benchmark of the qstar CLI: seeded workloads, end-to-end and per-layer.

    python3 bench/run.py --workload star-wide --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table
    python3 bench/run.py --record-golden         # rewrite golden.json

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nothing needs installing.  One process, one client,
closed loop, no threads: each op is one ``qstar.cli.main(argv)`` call with
stdout captured, and the next op starts when it returns.

A run cycles through whole passes over the workload's distinct ops until
``--seconds`` have passed; the first pass's outputs are the reference that
later passes must repeat byte for byte.  Set-up time is sampled in fresh
processes between passes, so that slow and fast spells of a shared CPU
reach it as they reach the ops.  Every distinct op's output is then
checked (see checks.py).  ``--trace 1`` alternates untraced and traced
passes instead and reports the per-layer metrics of tracing.py.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"

SETUP_SAMPLES = 15  # at least this many fresh processes per run
SETUP_PER_PASS = 3
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import qstar.cli; "
    "qstar.cli.build_parser(); print(time.perf_counter() - t0)"
)
# op_tail_s is the highest of these percentiles with >= 10 ops beyond it
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)

END_TO_END = [
    ("ops_per_s", "ops/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]


def _import_program():
    if not (SRC / "qstar" / "cli.py").is_file():
        sys.exit(f"error: no qstar sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import qstar.cli

    if Path(qstar.cli.__file__).resolve().parent != SRC / "qstar":
        sys.exit(f"error: imported qstar from {qstar.cli.__file__}, not {SRC}")
    return qstar.cli


def _git_sha() -> str:
    """HEAD of the checkout, read without leaving it; 'unknown' if absent."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = git / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def _environment(seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "load1": os.getloadavg()[0],
        "seed": seed,
    }


class SetupTimer:
    """Times fresh processes that import qstar.cli and build the parser."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), self.env.get("PYTHONPATH")) if p
        )
        self.times = []
        self._one()  # writes the bytecode caches; not counted

    def _one(self) -> float:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=self.env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        return float(proc.stdout)

    def sample(self, count: int):
        self.times.extend(self._one() for _ in range(count))

    def median(self) -> float:
        self.sample(max(SETUP_SAMPLES - len(self.times), 0))
        return statistics.median(self.times)


def call(cli, argv):
    """One op: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # counted as a failed op, the run goes on
            rc = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def tail(latencies):
    """(percentile, value): highest listed percentile with >= 10 beyond.

    Nearest rank, so the value is one of the latencies.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    pct = max(
        (p for p in TAIL_PERCENTILES if count * (100 - p) / 100 >= 10),
        default=TAIL_PERCENTILES[0],
    )
    return pct, ordered[max(math.ceil(pct / 100 * count) - 1, 0)]


def load_golden() -> dict:
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text())


class Workload:
    """The distinct ops of one seed, their reference outputs and checks."""

    def __init__(self, cli, name: str, seed: int, golden: dict | None):
        import checks
        import workloads

        self.cli = cli
        self.name = name
        self.seed = seed
        self.ops = workloads.generate(name, seed)
        self.golden = golden
        self._checks = checks
        self.reference = []  # (rc, out, err) of the first pass
        self.digests = []
        self.bad_per_pass = []  # op indices that misbehaved, per pass

    def run_pass(self, latencies=None):
        """Run every op once; return (wall seconds, stdout bytes)."""
        first = not self.reference
        bad = set()
        out_bytes = 0
        start = time.perf_counter()
        for idx, op in enumerate(self.ops):
            rc, out, err, elapsed = call(self.cli, op.argv)
            if latencies is not None:
                latencies.append(elapsed)
            out_bytes += len(out.encode())
            digest = self._checks.digest(rc, out)
            if first:
                self.reference.append((rc, out, err))
                self.digests.append(digest)
            if rc != 0 or "Traceback" in err or digest != self.digests[idx]:
                bad.add(idx)
        wall = time.perf_counter() - start
        self.bad_per_pass.append(bad)
        return wall, out_bytes

    def check(self):
        """{op index: reason} for the ops whose reference output is wrong."""
        failures = {}
        for idx, (op, (rc, out, err)) in enumerate(
                zip(self.ops, self.reference)):
            try:
                reason = self._checks.check_op(op, rc, out, err, self.golden)
            except Exception as exc:  # a malformed output, reported per op
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                failures[idx] = reason
        return failures

    def attempted(self) -> int:
        return len(self.ops) * len(self.bad_per_pass)

    def failed(self, failures) -> int:
        """Op runs that misbehaved themselves or whose output is wrong."""
        return sum(len(bad | failures.keys()) for bad in self.bad_per_pass)


def run_timed(work: Workload, seconds: float):
    """Whole passes for ``seconds``, then medians over passes.

    An op's latency is its median over the passes, and the rate is taken
    from the median pass, so a slow or fast spell of a shared CPU during
    part of the run moves them less than pooled samples would.  The tail
    percentile then depends only on the number of distinct ops, which the
    workload fixes.
    """
    setup = SetupTimer()
    per_op = [[] for _ in work.ops]
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        latencies = []
        walls.append(work.run_pass(latencies)[0])
        for samples, elapsed in zip(per_op, latencies):
            samples.append(elapsed)
        setup.sample(SETUP_PER_PASS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    op_latency = [statistics.median(samples) for samples in per_op]
    pct, tail_s = tail(op_latency)
    metrics = {
        "ops_per_s": len(work.ops) / statistics.median(walls),
        "op_p50_s": statistics.median(op_latency),
        "op_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup.median(),
    }
    notes = {
        "passes": len(walls),
        "distinct_ops": len(work.ops),
        "pass_s": [round(w, 3) for w in walls],
        "tail_percentile": pct,
        "setup_samples": len(setup.times),
    }
    return metrics, notes


def run_traced(work: Workload, seconds: float):
    import tracing

    tracer = tracing.Tracer()
    untraced, traced, per_pass = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        untraced.append(work.run_pass()[0])
        tracer.reset()
        tracer.install()
        try:
            wall, out_bytes = work.run_pass()
        finally:
            tracer.uninstall()
        traced.append(wall)
        per_pass.append(tracing.layer_metrics(
            tracer.summary(), tracer.useful_ratio(), out_bytes))
    metrics, mismatched = {}, []
    for metric, unit, _, _, _ in tracing.PER_LAYER:
        values = [p[metric] for p in per_pass if metric in p]
        if not values:
            continue
        if tracing.is_count(metric, unit):
            metrics[metric] = values[0]
            if len(set(values)) > 1:
                mismatched.append(metric)
        else:
            metrics[metric] = statistics.median(values)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{work.name}-seed{work.seed}.jsonl.gz")
    notes = {
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "distinct_ops": len(work.ops),
        "count_mismatches": mismatched,
        "missing": sorted(tracing.missing_metrics(tracer)),
    }
    return metrics, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 golden: dict | None = None) -> dict:
    """Run one workload, print its report and return the result object.

    The default seed's ops are checked against golden.json unless a
    ``golden`` mapping is given; other seeds only against the routes.
    """
    import tracing
    import workloads

    env = _environment(seed)
    cli = _import_program()
    if golden is None and seed == workloads.DEFAULT_SEED:
        golden = load_golden().get(name, {})
    work = Workload(cli, name, seed, golden)
    if trace:
        metrics, notes = run_traced(work, seconds)
        specs = [(m, u) for m, u, _, _, _ in tracing.PER_LAYER]
        flagged = set(notes["missing"])
    else:
        metrics, notes = run_timed(work, seconds)
        specs = END_TO_END
        flagged = set()
    failures = work.check()
    failed = work.failed(failures) + len(notes.get("count_mismatches", ()))
    attempted = work.attempted()
    result_metrics = {}
    for metric, unit in specs:
        result_metrics[metric] = {"value": metrics[metric], "unit": unit}
        if metric in flagged:
            result_metrics[metric]["missing"] = True
    print(f"qstar benchmark: workload={name} seed={seed} "
          f"trace={int(trace)} seconds={seconds:g}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("notes: " + json.dumps(notes))
    for metric, unit in specs:
        extra = "  MISSING" if metric in flagged else ""
        if metric == "op_tail_s":
            extra = (f"  (p{notes['tail_percentile']:g} of "
                     f"{notes['distinct_ops']} ops' median latencies)")
        print(f"  {metric:34s} {metrics[metric]:.6g} {unit}{extra}")
    print(f"  {'error_rate':34s} {failed / attempted:.6g} ratio  "
          f"({failed} failed of {attempted} op runs attempted)")
    for idx, reason in sorted(failures.items())[:20]:
        print(f"FAILED {work.ops[idx].key}: {reason}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
        "environment": env,
    }


def record_golden():
    """Write golden.json from the default seed, after the route checks."""
    import workloads

    cli = _import_program()
    golden = {}
    for name in workloads.GENERATORS:
        work = Workload(cli, name, workloads.DEFAULT_SEED, None)
        work.run_pass()
        failures = work.check()
        if failures or work.failed(failures):
            sys.exit(f"error: {name} fails its checks: {failures}")
        golden[name] = {op.key: d for op, d in zip(work.ops, work.digests)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, golden.values()))} digests to {GOLDEN}")


def run_all(args) -> int:
    """Each workload in its own process; print every report."""
    import workloads

    results = {}
    for name in workloads.GENERATORS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": entry
            for name, r in results.items()
            for metric, entry in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    del result["environment"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
