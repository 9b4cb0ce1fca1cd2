#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The untraced variant (``--trace 0``) uses
the engines' default configuration; the traced variant (``--trace 1``)
adds the ``obs`` feature so the explorer's barrier span is measured.
Each variant is built in its own directory under ``$CARGO_TARGET_DIR``
(default ``.bench_build``). Cargo's output goes to standard error, so
the last line of standard output is the benchmark's JSON result. Exits
non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(target: str, features: list) -> bool:
    """Builds one variant into `target`; Cargo's output goes to stderr."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ] + features
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(cmd, env=env, stdout=sys.stderr, check=False).returncode == 0


def main() -> int:
    args = sys.argv[1:]
    traced = any(a == "--trace" and b == "1" for a, b in zip(args, args[1:]))
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    plain = os.path.join(root, "perfbench")
    obs = os.path.join(root, "perfbench-traced")
    # Both variants are built on every call (a no-op once fresh), so the
    # first run pays for every build and later runs build nothing.
    if not (build(plain, []) and build(obs, ["--features", "obs"])):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(obs if traced else plain, "release", "perfbench")
    ran = subprocess.run([binary] + args, check=False)
    return ran.returncode if ran.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
