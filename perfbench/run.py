#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library and the benchmark are built in Release mode under the build root
(``$CARGO_TARGET_DIR`` when set, else ``.bench_build``); the first run of a
checkout compiles, later runs only check that the build is up to date. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Every argument is passed through to the binary.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
# The benchmark itself must finish within 180 s; leave room for the exit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_root():
    root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout); returns its exit code."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("perfbench: no repository sources next to perfbench/ "
              "(CMakeLists.txt and src/ are required)", file=sys.stderr)
        return None
    build_dir = build_root() / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if run(step, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("perfbench: build failed", file=sys.stderr)
            return None
    return build_dir / "perfbench"


def main(argv):
    binary = build()
    if binary is None:
        return 2
    out_dir = build_root() / "perfbench-out"
    sys.stdout.flush()
    return run([str(binary), *argv, "--out-dir", str(out_dir)], RUN_TIMEOUT_S,
               cwd=str(ROOT))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
