#!/usr/bin/env python3
"""Builds idba from source and runs its end-to-end benchmark.

One workload, as BENCHMARK.json's command runs it:

    python3 perfbench/run.py --workload monitor_fanout --seed 1 \
        --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics": with --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics.

Every workload, end-to-end metrics only, with one summary table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset; full results (environment stamp, sample
counts, failures) go to <build dir>/results/, with the spans of the latest
traced run of each workload.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ["monitor_fanout", "browse_cold", "monitor_fanout_tcp"]
# A run may take this long once the program is built; the first run of a
# checkout may also spend up to 900 s building.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 880


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    """Configures (once) and builds the benchmark; returns its path or None."""
    log_path = os.path.join(out_dir, "build.log")
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "idba_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT, timeout=BUILD_LIMIT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log.write("\n%s\n" % e)
                rc = 1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("build failed: %s\n" % " ".join(cmd))
                return None
    return os.path.join(out_dir, "idba_perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(binary, out_dir, workload, seed, seconds, trace, deadline):
    """Runs one workload; returns (stdout, parsed result) or (None, None)."""
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (workload, seed, trace))
    # Spans run to tens of MB per traced run: keep only the latest per
    # workload.
    spans = os.path.join(results, "%s-spans.tsv" % workload)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", stem + ".json", "--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()),
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("%s: timed out\n" % workload)
        return None, None
    if proc.returncode != 0:
        sys.stderr.write("%s: exited with %d\n" % (workload, proc.returncode))
        return None, None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("%s: no result line\n" % workload)
        return None, None
    names = expected_metrics(trace)
    if names is not None and sorted(names) != sorted(result["metrics"]):
        sys.stderr.write("%s: metrics differ from BENCHMARK.json\n" % workload)
        return None, None
    for name, m in result["metrics"].items():
        if not math.isfinite(m["value"]):
            sys.stderr.write("%s: %s is not finite\n" % (workload, name))
            return None, None
    return proc.stdout, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    start = time.monotonic()
    out_dir = build_dir()
    already_built = os.path.exists(os.path.join(out_dir, "idba_perfbench"))
    binary = build(out_dir)
    if binary is None:
        return 1
    limit = RUN_LIMIT_S if already_built else BUILD_LIMIT_S
    deadline = start + limit

    if args.workload != "all":
        stdout, result = run_one(binary, out_dir, args.workload, args.seed,
                                 args.seconds, args.trace, deadline)
        if result is None:
            return 1
        sys.stdout.write(stdout)
        return 0

    # All workloads, one after the other, each with its own time limit.
    table, attempted, failed = {}, {}, {}
    all_correct = True
    for i, workload in enumerate(WORKLOADS):
        stdout, result = run_one(binary, out_dir, workload, args.seed,
                                 args.seconds, args.trace,
                                 (deadline if i == 0 else
                                  time.monotonic() + RUN_LIMIT_S))
        if result is None:
            return 1
        sys.stdout.write(stdout)
        all_correct &= result["correct"]
        attempted[workload] = result["attempted"]
        failed[workload] = result["failed"]
        detail = os.path.join(out_dir, "results", "%s-seed%d-trace%d.json" %
                              (workload, args.seed, args.trace))
        with open(detail) as f:
            key = "per_layer" if args.trace else "end_to_end"
            table[workload] = json.load(f)[key]
    names = list(table[WORKLOADS[0]])
    print("\nsummary (value / samples)")
    print("%-36s %-5s" % ("metric", "unit") +
          "".join("%24s" % w for w in WORKLOADS))
    for name in names:
        unit = table[WORKLOADS[0]][name]["unit"]
        cells = "".join("%15.4f / %6d" % (table[w][name]["value"],
                                          table[w][name]["samples"])
                        for w in WORKLOADS)
        print("%-36s %-5s %s" % (name, unit, cells))
    print("%-36s %-5s %s" % ("failed_op_ratio", "ratio", "".join(
        "%15.4f / %6d" % (failed[w] / max(1, attempted[w]), attempted[w])
        for w in WORKLOADS)))
    print("all correct: %s" % ("yes" if all_correct else "no"))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
