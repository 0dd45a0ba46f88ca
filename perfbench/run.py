#!/usr/bin/env python3
"""Builds the MobiVine wall-clock benchmark and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a cargo package of its own (perfbench/Cargo.toml, outside
the repository workspace) that depends on the repository's crates by path.
This script builds it in release mode, offline, into $CARGO_TARGET_DIR (or
perfbench/target), then runs `perfbench` for --trace 0 or `perfbench-traced`
for --trace 1 with the same arguments. The binary's last line on stdout is
the result JSON; its exit code is this script's exit code.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def main(args):
    trace = "0"
    for flag, value in zip(args, args[1:]):
        if flag == "--trace":
            trace = value
    # Without the repository's crates and vendored stand-ins there is
    # nothing to build; stop before cargo goes looking for them.
    for needed in ("crates/apps/Cargo.toml", "stubs/serde_json/Cargo.toml"):
        if not os.path.isfile(os.path.join(REPO, needed)):
            print(f"perfbench: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    binary = "perfbench-traced" if trace == "1" else "perfbench"
    return subprocess.run([os.path.join(target, "release", binary)] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
