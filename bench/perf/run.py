#!/usr/bin/env python3
"""Build and run deproto-bench, the end-to-end benchmark of this repository.

One run (the form BENCHMARK.json names):

    python3 bench/perf/run.py --workload fig11-sync --seed 1 --seconds 15 --trace 0

builds bench/perf (a CMake project that compiles the library from source)
into $CARGO_TARGET_DIR, default .bench_build/, then runs one workload and
passes its output through: the last line of stdout is the JSON result.
With --trace 1 the Chrome trace lands in <build>/traces/.

Runner mode repeats fresh runs, interleaving workloads, and summarizes:

    python3 bench/perf/run.py --runs 10 --save before.json
    python3 bench/perf/run.py --runs 10 --compare before.json

It prints the median and quartiles of every end-to-end metric per workload,
flags a spread (IQR / median) wider than the metric's bound in
BENCHMARK.json (setup_s excepted), and with --compare flags every median
that is worse than the saved one by more than that bound. Runs from a non-Release build count
as failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["fig11-sync", "event-faults", "small-jobs-cold", "small-jobs-warm",
             "exact-gate"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                          os.path.join(ROOT, ".bench_build")))


def build():
    """Configure and build deproto-bench; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "deproto-bench", "-j", jobs]]
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("run.py: build failed: " + " ".join(step))
            return None
    return os.path.join(out, "deproto-bench")


def bench_argv(exe, workload, seed, seconds, trace):
    out = build_dir()
    argv = [exe, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", os.path.join(out, "work")]
    if trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        argv += ["--trace-out",
                 os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    return argv


def run_once(exe, workload, seed, seconds):
    """One fresh process; returns (context, result) or None on failure."""
    proc = subprocess.run(bench_argv(exe, workload, seed, seconds, 0),
                          stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return None
    context, result = json.loads(lines[-2]), json.loads(lines[-1])
    if proc.returncode != 0 or context["context"]["build_type"] != "Release":
        result["correct"] = False
    return context, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def runner(args, exe):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    values = {w: {m: [] for m in metrics} for w in workloads}
    failed_runs = 0
    for r in range(args.runs):
        for w in workloads:
            got = run_once(exe, w, r + 1, args.seconds)
            if got is None or not got[1]["correct"]:
                failed_runs += 1
                log("run %d %s: FAILED" % (r + 1, w))
                continue
            context, result = got
            for m in metrics:
                values[w][m].append(result["metrics"][m]["value"])
            log("run %d %s: ok (load %.2f)" % (r + 1, w,
                                               context["context"]["loadavg_1m"]))

    baseline = None
    if args.compare:
        with open(args.compare) as f:
            baseline = json.load(f)["values"]
    flagged = 0
    print("%-16s %-12s %12s %12s %12s %8s %8s  %s" % (
        "workload", "metric", "median", "q1", "q3", "iqr/med", "bound", "verdict"))
    for w in workloads:
        for m, meta in metrics.items():
            vals = values[w][m]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            verdict = []
            # Only set-up's median is gated; its run-to-run spread is not.
            if spread > meta["bound"] and m != "setup_s":
                verdict.append("WIDE")
            if baseline is not None and baseline.get(w, {}).get(m):
                base = statistics.median(baseline[w][m])
                worse = (base - med) / base if meta["better"] == "higher" \
                    else (med - base) / base
                verdict.append("%+.1f%%" % (-100 * worse))
                if worse > meta["bound"]:
                    verdict.append("REGRESSION")
            if "WIDE" in verdict or "REGRESSION" in verdict:
                flagged += 1
            print("%-16s %-12s %12.6g %12.6g %12.6g %8.3f %8.3f  %s" % (
                w, m, med, q1, q3, spread, meta["bound"], " ".join(verdict)))
    print("failed runs: %d" % failed_runs)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"runs": args.runs, "seconds": args.seconds,
                       "failed_runs": failed_runs, "values": values}, f, indent=1)
    return 1 if failed_runs or flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=0,
                        help="runner mode: fresh runs per workload")
    parser.add_argument("--save", help="runner mode: write the values here")
    parser.add_argument("--compare", help="runner mode: saved values to compare")
    args = parser.parse_args()
    if args.runs <= 0 and args.workload is None:
        parser.error("--workload is required outside runner mode")

    exe = build()
    if exe is None:
        return 1
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.runs > 0:
        if args.workload is None:
            args.workload = "all"
        return runner(args, exe)
    argv = bench_argv(exe, args.workload, args.seed, args.seconds, args.trace)
    return subprocess.run(argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
