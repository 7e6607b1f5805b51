#!/usr/bin/env python3
"""Builds qssd and the benchmark program from source, then runs one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload compile_mixed --seed 1 --seconds 10 --trace 0

Every argument is forwarded to the benchmark program (see
perfbench/README.md). Cargo builds into $CARGO_TARGET_DIR, `.bench_build` by
default; build output goes to stderr, so the result line stays the last line
of stdout.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "qss_server", "--bin", "qssd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ]
    for command in builds:
        status = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        if status != 0:
            print(f"run.py: `{' '.join(command)}` failed with status {status}", file=sys.stderr)
            return 2
    bench = os.path.join(target, "release", "perfbench")
    qssd = os.path.join(target, "release", "qssd")
    return subprocess.run([bench, "--qssd", qssd, *sys.argv[1:]], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
