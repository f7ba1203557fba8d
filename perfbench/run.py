#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (the simulator libraries from src/ plus the perfbench program) into
.bench_build/ with CMake; later calls rebuild incrementally. Build output goes
to stderr, so stdout carries only the benchmark's own lines, the last of which
is the JSON result. With --trace 1 the raw spans are also written to
.bench_build/traces/<workload>-seed<N>.tsv.

--selftest runs every workload at tiny scale: twice at one seed (the
simulated metrics must match exactly), once at another seed (they must
differ), and once traced (every per-layer metric must be printed and the
ledger rows must sum to the traced wall time).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("swarm_100k", "data_contended", "fault_sweep")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no simulator sources at src/; run from a full checkout\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def run_binary(args, capture):
    cmd = [BINARY] + args
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    return subprocess.run(cmd)


def parse_output(text):
    lines = text.strip().splitlines()
    sim = None
    for line in lines:
        if line.startswith("SIM "):
            sim = json.loads(line[4:])
    return sim, json.loads(lines[-1])


def selftest():
    problems = []
    for w in WORKLOADS:
        base = ["--workload", w, "--seconds", "1", "--scale", "tiny"]
        runs = {}
        for label, seed, trace in (("a", 1, 0), ("b", 1, 0), ("c", 2, 0), ("t", 1, 1)):
            p = run_binary(base + ["--seed", str(seed), "--trace", str(trace)], capture=True)
            if p.returncode != 0:
                problems.append("%s seed %d trace %d: exit %d" % (w, seed, trace, p.returncode))
                continue
            runs[label] = (p.stdout,) + parse_output(p.stdout)
        if len(runs) != 4:
            continue
        for label, (_, _, res) in runs.items():
            if not res["correct"]:
                problems.append("%s run %s: not correct" % (w, label))
        if runs["a"][1] != runs["b"][1]:
            problems.append("%s: same seed gave different simulated metrics" % w)
        if runs["a"][1] == runs["c"][1]:
            problems.append("%s: a different seed gave identical simulated metrics" % w)
        if runs["a"][1] != runs["t"][1]:
            problems.append("%s: tracing changed the simulated metrics" % w)
        traced_text, _, traced = runs["t"]
        if "trace.unattributed_share" not in traced["metrics"]:
            problems.append("%s: traced run lacks per-layer metrics" % w)
        if "host_ns_per_op" not in runs["a"][2]["metrics"]:
            problems.append("%s: untraced run lacks end-to-end metrics" % w)
        for line in traced_text.splitlines():
            if line.strip().startswith("sum "):
                parts = line.split()
                total, wall = float(parts[1]), float(parts[5])
                if abs(total - wall) > 0.0015:  # both printed to 0.001 ms
                    problems.append("%s: ledger sums to %s ms, wall %s ms" % (w, total, wall))
        print("selftest %-15s %s" % (w, "ok" if not any(p.startswith(w) for p in problems)
                                     else "FAILED"))
    for p in problems:
        print("  " + p)
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not build():
        return 2
    if args.selftest:
        return selftest()
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.tsv" % (args.workload, args.seed))]
    return run_binary(cmd, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
