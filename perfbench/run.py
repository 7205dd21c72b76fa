#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload sweep|dag|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of the checkout. The build goes to .bench_build/ there
(CMake + Ninja, Release). The binary's standard output is passed through;
its last line is the JSON result. Build output goes to standard error.
The serve workload's fixed open-loop rate is read from
perfbench/workloads.json, so it never moves with the code under test.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    sources = os.path.join(ROOT, "src")
    if not os.path.isdir(sources) or not any(
        name.endswith(".cpp") for _, _, files in os.walk(sources) for name in files
    ):
        fail("no library sources under %s; run from a full checkout" % sources)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def config():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


def binary_args(workload, seed, seconds, trace, extra=()):
    rate = config()["serve"]["open_loop_rate_per_s"]
    return [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--serve-rate", str(rate), "--out-dir", BUILD] + list(extra)


def run_once(argv, capture):
    try:
        return subprocess.run(argv, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


def result_of(out):
    """The JSON result line of a captured run."""
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail("run exited %d without a result" % out.returncode)
    return json.loads(lines[-1])


def self_test():
    """Every workload at tiny sizes: it runs, prints every metric named in
    BENCHMARK.json with its unit, and the checker catches a planted wrong
    answer."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    # serve runs here too although BENCHMARK.json does not list it.
    workloads = [w["name"] for w in bench["workloads"]]
    workloads += [w for w in ("sweep", "dag", "serve") if w not in workloads]
    for workload in workloads:
        for trace in (0, 1):
            out = run_once(binary_args(workload, 7, 1, trace, ["--tiny"]), True)
            result = result_of(out)
            metrics = result["metrics"]
            if not result["correct"] or result["failed"]:
                problems.append("%s trace %d: not a clean run" % (workload, trace))
            for name, unit in expected[trace].items():
                if name not in metrics or metrics[name]["unit"] != unit:
                    problems.append("%s trace %d: %s missing or not in %s"
                                    % (workload, trace, name, unit))
            extra = set(metrics) - set(expected[trace])
            if extra:
                problems.append("%s trace %d: unlisted %s" % (workload, trace, sorted(extra)))
            print("self-test %s trace %d: %d metrics, attempted %d"
                  % (workload, trace, len(metrics), result["attempted"]))
        out = run_once(binary_args(workload, 7, 1, 0, ["--tiny", "--plant-wrong"]), True)
        result = result_of(out)
        if result["correct"] or result["failed"] < 1:
            problems.append("%s: planted wrong answer was not caught" % workload)
        else:
            print("self-test %s: planted wrong answer caught (%d failed)"
                  % (workload, result["failed"]))
    for problem in problems:
        print("SELF-TEST FAIL " + problem)
    print(json.dumps({"self_test": "fail" if problems else "pass"}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)
    if args.self_test:
        return self_test()
    if not args.workload:
        fail("--workload is required")
    out = run_once(binary_args(args.workload, args.seed, args.seconds, args.trace), False)
    return out.returncode


if __name__ == "__main__":
    sys.exit(main())
