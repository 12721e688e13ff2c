#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload kernel|campaign|serve --seed N \
        --seconds S --trace 0|1 [--workers N] [--tiny]

Builds the library and the benchmark harness from source (Release) into
$CARGO_TARGET_DIR, or .bench_build when unset, relative to the repository
root, then runs one workload. Build output goes to stderr; the harness's
stdout is passed through, and its last line is the JSON result. A traced run
also writes its Chrome trace to <build dir>/trace_<workload>.json.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ):
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(result.returncode or 1)


def main():
    args = sys.argv[1:]
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    extra = ["--root", ROOT]
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        workload = os.path.basename(args[args.index("--workload") + 1])
        extra += ["--trace-out", os.path.join(build_dir, "trace_%s.json" % workload)]
    sys.stdout.flush()
    result = subprocess.run([binary] + args + extra)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
