#!/usr/bin/env python3
"""Build and run the flo benchmark.

    python3 perfbench/run.py --workload <batch-suite|serve-zipf|store-rw> \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package (perfbench/)
and the `flod` daemon in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark with the given arguments. The
last line of standard output is the result object; a failed build or run
exits non-zero without printing one. Scratch files (stores, sockets,
result records, spans) go under `.bench_work/`.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
if not TARGET.is_absolute():
    TARGET = ROOT / TARGET


def build() -> bool:
    env = dict(os.environ, CARGO_TARGET_DIR=str(TARGET))
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "Cargo.toml"), "-p", "flo-serve", "--bin", "flod"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main() -> int:
    if not build():
        return 1
    binary = TARGET / "release" / "perfbench"
    cmd = [str(binary), *sys.argv[1:],
           "--flod", str(TARGET / "release" / "flod"),
           # Relative to the repository root (the working directory), which
           # keeps the daemon's Unix socket path short.
           "--work-dir", ".bench_work"]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
