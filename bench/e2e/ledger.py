#!/usr/bin/env python3
"""Records a ledger entry of the end-to-end benchmark.

Usage, from the repository root:

    python3 bench/e2e/ledger.py --out bench/e2e/results/NAME.json

Makes two sets of runs through run.py, exactly as BENCHMARK.json's command
runs them: in each set, every workload runs untraced once per seed (seeds
1..10) and traced once (seed 1). Records per set and workload the
end-to-end medians and their spread (distance between the first and third
quartile over the median), every run's values, and the traced run's
per-layer metrics, together with nproc, the CPU model and the build type.
"""
import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

from run import BENCH_DIR, ROOT, build_type

SETS = 2
SEEDS = 10


def run(workload, seed, seconds, trace):
    start = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         trace], cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed")
    result = json.loads(lines[-1])
    return {"seed": seed, "wall_s": round(wall, 2),
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--note", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    sets = []
    for s in range(SETS):
        entry = {}
        for w in spec["workloads"]:
            name = w["name"]
            runs = []
            for seed in range(1, SEEDS + 1):
                runs.append(run(name, seed, seconds, "0"))
                print(f"set {s + 1} {name} seed {seed}: {runs[-1]['wall_s']}s "
                      f"{runs[-1]['metrics']}", flush=True)
            medians, spreads = {}, {}
            for m in spec["end_to_end"]:
                values = [r["metrics"][m["name"]] for r in runs]
                medians[m["name"]] = statistics.median(values)
                q = statistics.quantiles(values, n=4)
                spreads[m["name"]] = (q[2] - q[0]) / medians[m["name"]]
            traced = run(name, 1, seconds, "1")
            print(f"set {s + 1} {name} traced: {traced['wall_s']}s", flush=True)
            entry[name] = {"median": medians, "iqr_over_median": spreads,
                           "runs": runs, "traced": traced}
        sets.append(entry)

    ledger = {
        "note": args.note,
        "recorded": datetime.date.today().isoformat(),
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "cpu_model": cpu_model(), "build_type": build_type()},
        "run_seconds": seconds,
        "seeds_per_set": SEEDS,
        "sets": sets,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
