#!/usr/bin/env python3
"""Builds and runs the esdbench end-to-end benchmark.

    python3 esdbench/run.py --workload triage|patch-check|service-stream \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark package (esdbench/CMakeLists.txt, which compiles the library from
src/) into $CARGO_TARGET_DIR/esdbench, or .bench_build/esdbench when that is
unset; later runs rebuild only what changed. Build output goes to stderr.
The benchmark's last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Traces and the service's cache
directories go to .bench_out/.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "esdbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    binary = os.path.join(out, "esdbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "esdbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "esdbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            print("esdbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return binary if os.path.exists(binary) else None


def main(argv):
    try:
        binary = build()
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"esdbench: build failed: {e}", file=sys.stderr)
        return 2
    if binary is None:
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    done = subprocess.run([binary, *argv, "--out-dir", out_dir], cwd=ROOT,
                          check=False)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
