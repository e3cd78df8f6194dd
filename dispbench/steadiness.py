#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs the benchmark command on each workload once per seed and prints, for
every end-to-end metric, the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, which is the distance
between the quartiles as a share of the median, beside the metric's bound.
Every run must report correct=true; the script exits 1 otherwise.

Run it from the repository root:

    python3 dispbench/steadiness.py --runs 10 --seed0 1000
    python3 dispbench/steadiness.py --runs 5 --workloads trials-sync --json out.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, ((q3 - q1) / med if med else float("nan"))


def cpu_jiffies():
    """(busy, steal) jiffies of all CPUs from /proc/stat; steal is time the
    hypervisor ran something else on this guest's vCPUs."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return (0, 0)
    return (fields[0] + fields[1] + fields[2], fields[7] if len(fields) > 7 else 0)


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000,
                        help="seeds are seed0, seed0+1, ...")
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default every workload")
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--json", default="",
                        help="also write every run's result to this file")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {}
    ok = True
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            before = cpu_jiffies()
            result = run_once(bench["command"], workload, args.seed0 + i, seconds)
            after = cpu_jiffies()
            result["busy_jiffies"] = after[0] - before[0]
            result["steal_jiffies"] = after[1] - before[1]
            ok &= result["correct"] and result["failed"] == 0
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {args.seed0 + i}: correct={result['correct']} {values} "
                  f"busy={result['busy_jiffies']} steal={result['steal_jiffies']}", flush=True)
        results[workload] = runs

    print()
    print(f"{'workload':<16} {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for workload, runs in results.items():
        for name, bound in bounds.items():
            q1, med, q3, s = spread([r["metrics"][name]["value"] for r in runs])
            flag = "" if name == "setup_s" or s <= bound / 3 else \
                ("  > bound/3" if s <= bound else "  > BOUND")
            print(f"{workload:<16} {name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{s:>8.4f} {bound:>6}{flag}")

    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)
    if not ok:
        raise SystemExit("some run was not correct")


if __name__ == "__main__":
    main()
