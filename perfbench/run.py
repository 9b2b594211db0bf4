#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

One run, as listed in BENCHMARK.json:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 the last line of standard output is the workload's
end-to-end metrics. With --trace 1 the traced run of every workload the
binary has is made (serve-cold too, which BENCHMARK.json does not list), the
named one first, each in its own process for an equal share of the run
length, and the last line holds every
per-layer metric: each layer is measured on the workload that exercises it.

Steadiness check, made before a change is measured:

    python3 perfbench/run.py --steady 10 [--workloads a,b] [--traced]

repeats each workload listed in BENCHMARK.json (or each named one) for
run_seconds on seeds 1..10 and prints, for every end-to-end metric, the median, the
quartiles and their spread against the metric's bound in BENCHMARK.json;
with --traced it adds one traced run per workload and prints the tracing
overhead (traced over untraced median).

Everything is built from source into $CARGO_TARGET_DIR (default
.bench_build) under the repository root; no file outside it is written.
The workloads run on one CPU (see pin_to_one_cpu).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["compile-table1", "serve-hot", "serve-cold"]
# One workload run must end well inside the 180 s a run is given.
CHILD_TIMEOUT_S = 170


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if result.returncode != 0:
        sys.exit(f"perfbench: build failed ({result.returncode})")
    return target / "release" / "perfbench"


def pin_to_one_cpu():
    """Keeps this process and the workloads it starts on one CPU.

    On the 2-vCPU guest this benchmark was tuned on, the hypervisor stole
    up to half of the guest's time in busy spells, and a workload whose
    threads hand work to each other across both vCPUs paid for it on every
    hand-off: unpinned, `serve-hot` fell from about 360 to 150 jobs/s and
    its p99 rose from 3.5 to 21 ms, while on one CPU it held 280 jobs/s and
    a p99 of 7.5 ms in the same spell. No workload needs a second CPU:
    `compile-table1` runs one thread and `serve-hot` keeps one request in
    flight. The build runs before this and uses every CPU.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_once(binary, workload, seed, seconds, trace, timeout=CHILD_TIMEOUT_S):
    """Runs one workload in its own process; returns its parsed JSON line."""
    result = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} seed {seed} exited with {result.returncode}")
    return json.loads(lines[-1])


def print_result(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def single(args):
    binary = build()
    pin_to_one_cpu()
    if not args.trace:
        out = run_once(binary, args.workload, args.seed, args.seconds, False)
        print_result(out["correct"], out["attempted"], out["failed"], out["metrics"])
        return
    order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    # The children share the run's length and its time limit.
    seconds = args.seconds / len(order)
    budget = CHILD_TIMEOUT_S // len(order)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in order:
        out = run_once(binary, workload, args.seed, seconds, True, timeout=budget)
        correct &= out["correct"]
        attempted += out["attempted"]
        failed += out["failed"]
        print(f"{workload} per-layer (traced, seed {args.seed}):")
        for name, m in out["metrics"].items():
            print(f"  {name:<34} {m['value']:>16.4f} {m['unit']}")
        print(f"{workload} end-to-end while traced:")
        for name, m in out["traced_end_to_end"].items():
            print(f"  {name:<34} {m['value']:>16.4f} {m['unit']}")
        metrics.update(out["metrics"])
    print_result(correct, attempted, failed, metrics)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args):
    binary = build()
    pin_to_one_cpu()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    listed = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else listed
    seeds = range(1, args.steady + 1)
    worst = 0.0
    for workload in workloads:
        runs = [run_once(binary, workload, seed, seconds, False) for seed in seeds]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs of {seconds} s, seeds {seeds.start}..{seeds.stop - 1}, "
              f"correct={correct}, failed share(s)={shares}, "
              f"attempted {min(r['attempted'] for r in runs)}..{max(r['attempted'] for r in runs)}")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
        medians = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            medians[name] = med
            worst = max(worst, spread / bound)
            print(f"  {name:<18} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.2%} {bound:>6.2f} {spread / bound:>12.2f}")
        if args.traced:
            traced = run_once(binary, workload, seeds.start, seconds, True)["traced_end_to_end"]
            print("  tracing overhead (traced run over untraced median):")
            for name, med in medians.items():
                value = traced[name]["value"]
                print(f"    {name:<18} {value:>12.4f} / {med:>12.4f} = {value / med:.2f}x")
    print(f"\nlargest spread/bound over the end-to-end metrics: {worst:.2f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS")
    parser.add_argument("--workloads")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    if args.steady:
        steady(args)
    elif args.workload and args.seconds:
        single(args)
    else:
        parser.error("give --workload and --seconds, or --steady RUNS")


if __name__ == "__main__":
    main()
