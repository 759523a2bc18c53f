#!/usr/bin/env python3
"""golite benchmark entry point.

    python3 perfbench/run.py --workload hunt|sweep --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR or .bench_build, runs one
workload, checks its output against BENCHMARK.json, prints every
metric with its unit and sample count, and prints the result object
as the last line. Exits non-zero, printing no result, when the build,
the run, or the self-check fails. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import check  # noqa: E402

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
MARK = "PERFBENCH_RESULT "


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure once, then build (a no-op when up to date)."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "golite_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "golite_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
        return 2
    if args.seed < 0 or args.seconds < 1:
        log("--seed must be >= 0 and --seconds >= 1")
        return 2

    try:
        out = build_dir()
        binary = build(out)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return 1

    traced = args.trace == 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if traced:
        os.makedirs(os.path.join(out, "spans"), exist_ok=True)
        cmd += ["--spans", os.path.join(out, "spans", args.workload + ".csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith(MARK):
        sys.stderr.write(proc.stdout[-4000:])
        log("workload exited with code %d" % proc.returncode)
        return 1
    raw = json.loads(lines[-1][len(MARK):])

    units = check.promised(spec, traced)
    metrics = {}
    samples = {}
    for name, m in raw["metrics"].items():
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
        samples[name] = m["samples"]
    unexercised = []
    for name, unit in units.items():
        if traced and name not in metrics:
            # The layer does no work on this workload.
            metrics[name] = {"value": 0, "unit": unit}
            samples[name] = 0
            unexercised.append(name)
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    problems = check.validate(result, units)
    if problems:
        for p in problems:
            log("self-check: " + p)
        return 1

    for line in lines[:-1]:
        print(line)
    for name in unexercised:
        print("# %s: not exercised by %s, reported as 0" % (name, args.workload))
    print("# %-28s %22s  %-6s %s" % ("metric", "value", "unit", "samples"))
    for name in units:
        m = metrics[name]
        print("# %-28s %22.6f  %-6s %d"
              % (name, m["value"], m["unit"], samples[name]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
