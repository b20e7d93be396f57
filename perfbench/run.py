#!/usr/bin/env python3
"""Builds and runs the LEAD benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <online_long|fleet_dense> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds the library and the benchmark with
CMake under .bench_build/perfbench (Release); later calls rebuild
incrementally. The benchmark's last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. Traced runs also write
a Chrome trace-event file under .bench_build/perfbench/traces/, checked
here to parse as trace-event JSON, and every run writes its full result
(provenance, parameters, metrics, self-time table) under
.bench_build/perfbench/results/. The exit status is non-zero, with no
result line, when the sources cannot be built.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
# A run must end within 180 s; the benchmark itself caps its loops well
# below this, so hitting the limit means it hung.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        fail("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build(targets):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "lead.h")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("LEAD sources not found (%s missing); run from the root "
                 "of a source checkout" % needed)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", here, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] +
              targets, BUILD_TIMEOUT_S)


def check_trace(path):
    """Returns an error string unless `path` holds trace-event JSON."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return "trace %s does not load: %s" % (path, e)
    events = doc.get("traceEvents") if isinstance(doc, dict) else doc
    if not isinstance(events, list) or not events:
        return "trace %s has no trace events" % path
    for event in events:
        if not isinstance(event, dict) or "ph" not in event:
            return "trace %s has a malformed event" % path
        if event["ph"] == "X" and not ("ts" in event and "dur" in event):
            return "trace %s has a complete event without ts/dur" % path
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        build(["lead_bench_test"])
        sys.exit(subprocess.run(
            [os.path.join(BUILD_DIR, "lead_bench_test")], check=False,
            timeout=RUN_TIMEOUT_S * 4).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        fail("--workload, --seed and --seconds are required")

    build(["lead_bench"])
    results = os.path.join(BUILD_DIR, "results")
    traces = os.path.join(BUILD_DIR, "traces")
    os.makedirs(results, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [os.path.join(BUILD_DIR, "lead_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--result-out", os.path.join(results, tag + ".json"),
           "--work-dir", BUILD_DIR]
    trace_path = os.path.join(traces, tag + ".json")
    if args.trace:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=False,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("benchmark printed no result (exit %d)" % proc.returncode)
    code = proc.returncode
    if args.trace and code == 0:
        problem = check_trace(trace_path)
        if problem is not None:
            print("perfbench: " + problem, file=sys.stderr)
            result["correct"] = False
            code = 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
