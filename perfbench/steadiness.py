#!/usr/bin/env python3
"""Is the benchmark steady enough to carry its own bounds?

Runs BENCHMARK.json's command on ten seeds per workload, twice over (seeds
1-10, then 11-20), and prints for each end-to-end metric the distance between
the first and third quartile of the ten values as a share of their median
(statistics.quantiles(n=4)), for both sets, and how much worse the second
set's median is than the first's. Exits 1 when a spread (other than
setup_s's) or a worsening exceeds the metric's bound; spreads above a third
of the bound are marked.

Run from the repository root, with CARGO_TARGET_DIR set as the driver sets it:

    CARGO_TARGET_DIR=.bench_build python3 perfbench/steadiness.py
"""

import json
import statistics
import subprocess
import sys
import time

SEEDS = 10


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    wall = time.time() - started
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first, second, better):
    """How much worse the second median is than the first, as a share of the first."""
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    print(f"# {' '.join(bench['command'])}", flush=True)

    runs = {}
    walls = []
    for workload in workloads:
        runs[workload] = [[], []]
        for which in (0, 1):
            for i in range(SEEDS):
                seed = 1 + which * SEEDS + i
                values, wall = run_once(bench["command"], workload, seed, bench["run_seconds"])
                walls.append(wall)
                runs[workload][which].append(values)
            print(f"# {workload}: set {which + 1} done", flush=True)

    failed = False
    print(f"{'workload':<17} {'metric':<14} {'bound':>5}  {'median 1':>11} {'spread 1':>8}  "
          f"{'median 2':>11} {'spread 2':>8}  {'worse by':>8}")
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = ([r[name] for r in runs[workload][w]] for w in (0, 1))
            spreads = [spread(first), spread(second)]
            worse = worsening(first, second, metric["better"])
            marks = []
            if name != "setup_s" and max(spreads) > bound:
                marks.append("SPREAD OVER BOUND")
                failed = True
            elif name != "setup_s" and max(spreads) > bound / 3:
                marks.append("spread over a third of the bound")
            if worse > bound:
                marks.append("SECOND SET WORSE THAN BOUND")
                failed = True
            print(f"{workload:<17} {name:<14} {bound:>5.2f}  {statistics.median(first):>11.5g} "
                  f"{spreads[0]:>8.2%}  {statistics.median(second):>11.5g} {spreads[1]:>8.2%}  "
                  f"{worse:>+8.2%}  {' '.join(marks)}")
    print(f"# first run (builds): {walls[0]:.1f} s wall; slowest later run: {max(walls[1:]):.1f} s")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
