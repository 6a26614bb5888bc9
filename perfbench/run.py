#!/usr/bin/env python3
"""Builds the outside-in benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload hierarchy-512 --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles src/) into .bench_build/perfbench with
CMake, then runs the binary with the same arguments. The build log goes to
stderr; stdout is the benchmark's report, whose last line is the JSON
result. Exits non-zero, printing no result, when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
OUT = os.path.join(".bench_build", "perfbench-out")


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in [configure, ["cmake", "--build", BUILD, "-j", jobs]]:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return False
    return True


def main():
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return 1
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "perfbench")
    sys.stdout.flush()
    r = subprocess.run([binary, "--out", OUT] + sys.argv[1:])
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
