#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the `BENCHMARK.json` command once per seed on each named workload,
then prints, per metric, the median and the distance between the first
and third quartiles as a share of the median, next to the metric's
bound. A spread under a third of its bound is steady.

    python3 perfbench/spread.py [--runs N] [--first-seed S] [workload ...]

Run from the repository root. Each run's last stdout line is kept in
`.bench_work/spread/<workload>.jsonl`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    os.makedirs(".bench_work/spread", exist_ok=True)
    worst = 0.0
    for wl in workloads:
        values = {}
        log = open(f".bench_work/spread/{wl}.jsonl", "w")
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{wl} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            log.write(json.dumps(result) + "\n")
            log.flush()
            if not result["correct"]:
                print(f"{wl} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {wl} ({args.runs} runs)")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print(f"  {name:<16} median {med:>14.6g}  spread {spread:7.2%}  bound {bound}  {flag}")
    print(f"worst spread/bound: {worst:.2f}")


if __name__ == "__main__":
    main()
