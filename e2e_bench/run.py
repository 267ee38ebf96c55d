#!/usr/bin/env python3
"""Builds and runs the real-model end-to-end benchmark.

Usage (from the repository root):

    python3 e2e_bench/run.py --workload clean-online --seed 1 --seconds 10 --trace 0

Configures and builds e2e_bench/CMakeLists.txt into .bench_build (the
first run compiles the RPT library and takes a few minutes), then runs the
benchmark binary with the same arguments and a private work directory under
.bench_build for the weight blob and CSV files. The binary's last stdout
line is the JSON result. Build output goes to stderr. Any failure exits
non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2e_bench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2e_bench",
                    "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2e_bench: build failed: {err}", file=sys.stderr)
        return 1
    work = os.path.join(BUILD, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        proc = subprocess.run([BINARY, *sys.argv[1:], "--workdir", work],
                              timeout=170)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print("e2e_bench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
