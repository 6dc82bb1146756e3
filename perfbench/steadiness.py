#!/usr/bin/env python3
"""Measures how steady the benchmark is.

    python3 perfbench/steadiness.py

From the root of a checkout, runs perfbench/run.py ten times per
workload, with seeds 1 to 10, for BENCHMARK.json's run_seconds.  For
every metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, and
marks an end-to-end spread at or above a third of the metric's bound
(setup_s is bounded on its median only).
"""

import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        per_metric = {}
        for seed in SEEDS:
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last)
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{w} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout}{proc.stderr}")
                sys.exit(1)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()),
                flush=True)
        print(f"\n{w}: {'metric':<28} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8}")
        for name, vs in per_metric.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            flag = ""
            if name in bounds and name != "setup_s" and not spread < bounds[name] / 3:
                flag = f"  >= bound/3 ({bounds[name] / 3:.4f})"
                ok = False
            print(f"{w}: {name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f}{flag}")
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
