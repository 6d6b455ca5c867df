#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. `--trace 0` runs the untraced binary
(end-to-end metrics, system allocator); `--trace 1` runs the traced binary
(per-layer metrics, the benchmark's spans and an allocation-counting
allocator). Cargo's target directory is `$CARGO_TARGET_DIR`, or
`perfbench/target` when that is unset. The last line of standard output is
the result JSON; the exit code is the benchmark's, or Cargo's when the build
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    traced = False
    for i, arg in enumerate(argv[:-1]):
        if arg == "--trace":
            traced = argv[i + 1] == "1"
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
         "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release",
                          "perfbench-traced" if traced else "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
