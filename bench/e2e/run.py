#!/usr/bin/env python3
"""Entry point of the end-to-end campaign benchmark named in BENCHMARK.json.

Usage, from the repository root:

    python3 bench/e2e/run.py --workload paper-flat --seed 1 --seconds 15 --trace 0

Builds refine-bench (Release, configuring again when the build directory holds
another build type) into .bench_build/e2e on first use, runs one
workload in one refine-bench process, and prints as the last line of stdout
one JSON object with the keys correct, attempted, failed and metrics. The
metrics are BENCHMARK.json's end-to-end metrics with --trace 0 and its
per-layer metrics with --trace 1. Build output and refine-bench's own table go
to stderr. Exits 1, printing no result, when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")


def jobs():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def build_type():
    """CMAKE_BUILD_TYPE of the configured build directory, or None."""
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    # A configure that failed leaves a cache but no build files behind; a
    # directory configured by hand may hold another build type.
    if build_type() != "Release" or not any(
            os.path.exists(os.path.join(BUILD_DIR, f))
            for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        # An existing cache keeps its generator; naming another one fails.
        if shutil.which("ninja") and build_type() is None:
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "refine-bench",
                    "-j", jobs()], stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "bench", "refine-bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    work = os.path.join(BUILD_DIR, "work-" + args.workload)
    os.makedirs(work, exist_ok=True)
    result_path = os.path.join(work, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", args.seed,
         "--seconds", args.seconds, "--trace", args.trace,
         "--golden-dir", os.path.join(BENCH_DIR, "golden"),
         "--work-dir", work, "--json", result_path],
        stdout=sys.stderr)
    if not os.path.exists(result_path):
        print(f"run.py: refine-bench exited {run.returncode} without a result",
              file=sys.stderr)
        return 1
    with open(result_path) as f:
        result = json.load(f)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            print(f"run.py: refine-bench did not report {m['name']}",
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
