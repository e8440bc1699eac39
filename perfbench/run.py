#!/usr/bin/env python3
"""Builds the GES end-to-end benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Workloads: short-reads, complex-reads, write-churn, census (see
perfbench/README.md). The first call configures and compiles the engine's
libraries plus the benchmark into .bench_build/perfbench (Release); later
calls only rebuild what changed. Build output goes to stderr; the last line
of stdout is the benchmark's JSON result. Exits non-zero, without a result,
when the build or the run fails.
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ges_perfbench")


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout, even if runs are started together.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cfg = subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr)
            if cfg.returncode != 0:
                # Leave no half-configured tree behind for the next call.
                cache = os.path.join(BUILD, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        made = subprocess.run(
            ["cmake", "--build", BUILD, "--target", "ges_perfbench", "-j", jobs],
            stdout=sys.stderr, stderr=sys.stderr)
        return made.returncode == 0 and os.path.exists(BINARY)


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # The benchmark writes its temporary data and traces under the checkout
    # root, so run it from there. exec keeps one process: signals sent to
    # this command reach the benchmark itself, and nothing is left behind.
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(ROOT)
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
