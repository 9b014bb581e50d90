#!/usr/bin/env python3
"""Builds the `repro` CLI and the benchmark driver from source, then runs the driver.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper|sweep-wide|storm-shards|all \
        [--seed N] [--seconds S] [--trace 0|1]

Every argument is passed through to the driver (`perfbench/src/main.rs`),
which prints the result as one JSON object on the last line of stdout.
Build output goes to stderr. Artifacts land in `$CARGO_TARGET_DIR`
(default `.bench_build` at the repository root).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def build(args):
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        sys.exit(f"perfbench: `cargo build {' '.join(args)}` failed")


def main():
    for needed in ("Cargo.toml", "crates/bench/Cargo.toml"):
        if not (ROOT / needed).is_file():
            sys.exit(f"perfbench: {needed} is missing; run from a full checkout of the repository")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    os.environ["CARGO_TARGET_DIR"] = str(target)
    build(["-p", "idca-bench", "--bin", "repro"])
    build(["--manifest-path", "perfbench/Cargo.toml"])
    driver = target / "release" / "perfbench"
    repro = target / "release" / "repro"
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(driver, [str(driver), *sys.argv[1:], "--repro", str(repro)])


if __name__ == "__main__":
    main()
