#!/usr/bin/env python3
"""Build the serving benchmark from source, then run one workload.

    python3 perfbench/run.py --workload wire_small --seed 1 --seconds 30 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench
(configured once, rebuilt incrementally). Build output goes to stderr, so
the last line on stdout is the benchmark's JSON result. The exit code is
the benchmark binary's: 0 when every answer was bit-exact, non-zero
otherwise or when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "nacu_perfbench")
RUN_TIMEOUT_S = 175


def run_quiet(cmd):
    """Run a build step with its output on stderr; return its exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if _have("ninja") else []
        code = run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        if code != 0:
            return code
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target",
                      "nacu_perfbench", "-j", "4"])


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def main():
    code = build()
    if code != 0:
        print(f"perfbench: build failed (exit {code})", file=sys.stderr)
        return code or 1
    try:
        return subprocess.run([BINARY] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
