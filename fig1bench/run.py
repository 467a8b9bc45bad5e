#!/usr/bin/env python3
"""Build and run the Fig. 1 benchmark.

    python3 fig1bench/run.py --workload compress|explore|serve_zipf \
        --seed N --seconds S --trace 0|1

Run from the repository root. Both builds (plain, and traced with the
program's telemetry on) go under $CARGO_TARGET_DIR (default
.bench_build), each in its own directory so neither rebuilds the other;
the first run builds both. The last line of standard output is the
result JSON of the chosen build; cargo's output goes to standard error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def target_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(traced):
    """Build one variant; returns the path of its binary."""
    target = os.path.join(target_root(), "fig1bench-trace" if traced else "fig1bench-plain")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if traced:
        cmd += ["--features", "trace"]
    subprocess.run(cmd, env=dict(os.environ, CARGO_TARGET_DIR=target),
                   stdout=sys.stderr, check=True)
    return os.path.join(target, "release", "fig1bench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    a = p.parse_args()
    try:
        binaries = {False: build(False), True: build(True)}
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"fig1bench: build failed: {e}", file=sys.stderr)
        return 1
    traced = a.trace == "1"
    work = os.path.join(target_root(), "fig1bench-work")
    cmd = [binaries[traced], "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace, "--work", work]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"fig1bench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
