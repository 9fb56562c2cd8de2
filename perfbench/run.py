#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Run from the repository root.  Configures and builds perfbench/ (which
compiles the library from src/) under $CARGO_TARGET_DIR, default
.bench_build, then runs the benchmark binary, whose last stdout line is the JSON
result.  Build output goes to stderr.  --test builds and runs the
benchmark's own tests instead.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: run from the repository root (src/ not found)")
    steps = [["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))]]
    # Configure once; later builds re-run CMake themselves when a
    # CMakeLists.txt changes.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    args = sys.argv[1:]
    build(build_dir)
    if args == ["--test"]:
        cmd = [os.path.join(build_dir, "perfbench_test")]
    else:
        cmd = [os.path.join(build_dir, "perfbench")] + args
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
