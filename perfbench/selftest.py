#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at self-test size (--tiny, 1 s) untraced and traced and
checks: exit code 0; the last stdout line is the JSON result with exactly
the keys correct/attempted/failed/metrics; no operation failed; the metric
names and units are exactly BENCHMARK.json's end_to_end (untraced) or
per_layer (traced) lists; end-to-end values are positive; the traced run
wrote a Chrome trace. It also checks that the simulated results (the
printed digest) repeat for one seed, and are the same at 1 and at 4
workers, and that a directory holding only BENCHMARK.json and perfbench/
makes the benchmark fail without printing a result.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what)


def run(root, workload, trace, extra=(), env=None):
    cmd = ["python3", os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"] + list(extra)
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, env=env)


def result_of(out, workload, trace, expected):
    label = "%s trace=%d" % (workload, trace)
    expect(out.returncode == 0, "%s: exit %d\n%s" % (label, out.returncode, out.stderr[-2000:]))
    if out.returncode != 0:
        return None
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], label + ": result keys")
    expect(result["correct"] is True and result["failed"] == 0, label + ": failed operations")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, label + ": attempted")
    names = [(m["name"], m["unit"]) for m in expected]
    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    expect(got == names, label + ": metric names/units differ from BENCHMARK.json")
    for k, v in result["metrics"].items():
        expect(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]),
               "%s: %s is not a finite number" % (label, k))
        if trace == 0:
            expect(v["value"] > 0, "%s: %s is not positive" % (label, k))
    digest = re.search(r"digest=([0-9a-f]+)", out.stdout)
    return digest.group(1) if digest else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        trace_file = os.path.join(BUILD, "trace_%s.json" % name)
        if os.path.exists(trace_file):
            os.remove(trace_file)
        d0 = result_of(run(ROOT, name, 0), name, 0, bench["end_to_end"])
        d1 = result_of(run(ROOT, name, 1), name, 1, bench["per_layer"])
        expect(d0 is not None and d0 == d1, name + ": digest differs between two runs of seed 1")
        expect(os.path.exists(trace_file), name + ": no Chrome trace written")
        if os.path.exists(trace_file):
            with open(trace_file) as f:
                expect("traceEvents" in json.load(f), name + ": Chrome trace has no traceEvents")
        if name != "kernel":
            d_one = result_of(run(ROOT, name, 0, ["--workers", "1"]), name, 0, bench["end_to_end"])
            expect(d_one == d0, name + ": results differ between 1 and 4 workers")

    # A directory with only BENCHMARK.json and perfbench/ cannot build.
    bare = os.path.join(BUILD, "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    out = run(bare, "kernel", 0, env=env)
    expect(out.returncode != 0, "bare directory: benchmark exited 0")
    expect('"correct"' not in out.stdout, "bare directory: benchmark printed a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures else "ok"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
