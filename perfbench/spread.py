#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workloads kernel,campaign,serve]
        [--seeds 1-10] [--seconds S]

Runs each workload once per seed (untraced) and prints, per metric, the
median, the interquartile range as a share of the median (the spread the
bounds in BENCHMARK.json are judged against) and that share as a fraction
of the metric's bound. Exits 1 if a run fails or reports failed operations.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                print("%s seed %d: exit %d" % (workload, seed, out.returncode))
                ok = False
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print("%s seed %d: %d of %d operations failed"
                      % (workload, seed, result["failed"], result["attempted"]))
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            share = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name, 1.0)
            print("%-9s %-12s n=%-2d median=%-12.6g iqr/median=%.4f (%.2f of bound %.2f) [%s]"
                  % (workload, name, len(vs), med, share, share / bound, bound,
                     " ".join("%.4g" % v for v in vs)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
