#!/usr/bin/env python3
"""Build and run the xlac benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <mc_sweep|certify|serve> --seed <n> \\
        --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml) in release mode,
offline, into $CARGO_TARGET_DIR (default: .bench_build), then runs it with
the given arguments. The build's output goes to standard error, so the
last line of standard output is the benchmark's JSON summary. The exit
code is the build's when it fails, otherwise the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_describe():
    """`git describe` of the checkout, or "none" outside a git work tree
    rooted here."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=False,
        )
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "none"
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, check=False,
        )
        return out.stdout.strip() or "none"
    except OSError:
        return "none"


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: the xlac sources (crates/) are missing next to perfbench/",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "xlac-perfbench")
    cmd = [binary, *sys.argv[1:],
           "--work-dir", os.path.join(target, "perfbench-work"),
           "--git-describe", git_describe()]
    return subprocess.run(cmd, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
