#!/usr/bin/env python3
"""Build and run the BREW end-to-end benchmark.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: stencil_solve, cold_specialize, hot_reuse, warm_start.

The first run configures and builds the BREW libraries and the driver
(e2ebench/CMakeLists.txt) into .bench_build/e2ebench; later runs rebuild
only what changed. Build output goes to stderr. The driver's stdout is
passed through: its last line is the JSON result, and the full result file
lands in .bench_build/results/. Exits with the driver's code (1 on a wrong
output), or 2 when the build fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("stencil_solve", "cold_specialize", "hot_reuse", "warm_start")


def source_hash(root):
    """Digest of the BREW sources the driver is built from."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_id(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "e2ebench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(".bench_build", "e2ebench")
    if not build(root, build_dir):
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "brew_e2ebench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit_id(root), "--source-hash", source_hash(root),
               "--out-dir", os.path.join(".bench_build", "results")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
