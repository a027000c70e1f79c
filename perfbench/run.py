#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is its own cargo workspace
(perfbench/Cargo.toml) with path dependencies on crates/ and vendor/; it is
built in release mode, offline, into $CARGO_TARGET_DIR (default
.bench_build). Durable store directories and trace files go to .bench_out/.
The last line of standard output is the run's JSON result; a failed build
exits non-zero without printing one.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run([binary, *sys.argv[1:], "--out-dir", ".bench_out"])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
