#!/usr/bin/env python3
"""Build the CCF benchmark harness from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload inproc_read --seed 1 --seconds 8 --trace 0

The harness binary prints one line per metric and, as its last line, a JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`. This
wrapper builds it with cargo (offline; `CARGO_TARGET_DIR` defaults to
`.bench_build`), forwards every argument, and exits with the harness's code.
Build output goes to standard error so standard output carries only results.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY = "ccf-perfbench"


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
            "--bin",
            BINARY,
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed (exit {build.returncode})", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", BINARY)
    return subprocess.run([exe, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
