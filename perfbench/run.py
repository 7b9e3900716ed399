#!/usr/bin/env python3
"""Builds the repository and the benchmark from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload table1_fast|serve_warm|route_churn \
        --seed N --seconds S --trace 0|1 [--out PATH]

Both builds go to $CARGO_TARGET_DIR (default: .bench_build). The release
`pvplan` binary comes from the repository workspace; the `perfbench`
binary from perfbench/Cargo.toml, a workspace of its own. Everything the
run writes stays inside the current directory. The last line of stdout
is the JSON result; on any build or run error the script exits non-zero
without printing one.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "pvplan"],
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
        ],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    scratch = os.path.join(target, "perfbench-scratch")
    cmd = [
        os.path.join(release, "perfbench"),
        "--pvplan", os.path.abspath(os.path.join(release, "pvplan")),
        "--scratch", scratch,
    ] + sys.argv[1:]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
