#!/usr/bin/env python3
"""Builds the SQL-to-rows benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload mix-sf10 --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) and spill files
to a private directory under .perfbench_tmp that is removed afterwards.
Build output and progress go to stderr; the last line of stdout is the
result JSON. The exit code is non-zero when the build fails, a query fails
or returns wrong rows, or the reported metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    spill_dir = tempfile.mkdtemp(prefix="spill-", dir=tmp_root)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--spill-dir", spill_dir],
            stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"perfbench: no result (exit code {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
