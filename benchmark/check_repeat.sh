#!/usr/bin/env bash
# Repeatability self-check: do two sets of runs of the *same* code agree
# within the benchmark's own bounds?
#
#   benchmark/check_repeat.sh [N]        (default N = 5; the driver uses 10)
#
# Runs two sets of N runs of every workload — workloads alternating
# within a set, every run on another seed, as the driver does — with the
# command, run length and bounds read from BENCHMARK.json. For each
# (workload, end-to-end metric) it prints both sets' medians and
# quartiles, each set's spread (Q3 - Q1 over the median, quartiles as
# Python's statistics.quantiles(n=4) gives them) and how much worse the
# second median is than the first, against the metric's bound. Exits
# non-zero if a spread (setup_s excepted) or a median shift breaches its
# bound, or if any run is incorrect. Raw results land in
# benchmark/out/repeat/.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-5}" <<'PY'
import json, os, statistics, subprocess, sys, time

runs = int(sys.argv[1])
if runs < 2:
    sys.exit("check_repeat.sh: N must be at least 2")
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]
out_dir = "benchmark/out/repeat"
os.makedirs(out_dir, exist_ok=True)

def run(workload, seed):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    started = time.time()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect ({result['failed']} of {result['attempted']} failed)")
    with open(f"{out_dir}/{workload}-{seed}.json", "w") as f:
        json.dump(result, f)
    print(f"  {workload} seed {seed}: {time.time() - started:.1f} s", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}

values = {}  # (set, workload, metric) -> [values]
for which in (0, 1):
    print(f"set {which + 1} of 2: {runs} runs of each of {len(workloads)} workloads", file=sys.stderr)
    for i in range(runs):
        seed = 1 + which * runs + i
        for workload in workloads:
            for name, value in run(workload, seed).items():
                values.setdefault((which, workload, name), []).append(value)

def summary(sample):
    q1, median, q3 = statistics.quantiles(sample, n=4)
    return median, q1, q3, (q3 - q1) / median

breaches = 0
header = f"{'workload':<16} {'metric':<22} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'shift':>8} {'bound':>6}"
print(header)
print("-" * len(header))
for workload in workloads:
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        first = summary(values[(0, workload, name)])
        second = summary(values[(1, workload, name)])
        worse = (second[0] - first[0]) / first[0]
        if metric["better"] == "higher":
            worse = -worse
        for which, (median, q1, q3, spread) in enumerate((first, second)):
            flags = []
            if name != "setup_s" and spread > bound:
                flags.append("SPREAD")
            if which == 1 and worse > bound:
                flags.append("SHIFT")
            breaches += len(flags)
            shift = f"{worse:>+8.4f}" if which == 1 else " " * 8
            print(f"{workload:<16} {name:<22} {which + 1:>3} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.4f} {shift} {bound:>6.2f} {' '.join(flags)}")
print()
if breaches:
    print(f"{breaches} breach(es): the benchmark does not repeat within its own bounds")
    sys.exit(1)
print("every spread and every median shift is within its bound")
PY
