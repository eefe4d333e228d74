#!/usr/bin/env python3
"""Builds the server and the benchmark client from source, then runs one
benchmark run.

    python3 perfbench/run.py --workload <pv|sr> --seed <n> \
        --seconds <s> --trace <0|1>

Builds land in $CARGO_TARGET_DIR (default: .bench_build at the repository
root); trace files land in .perfbench/. The last line of
stdout is the run's JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cargo_build(*args):
    # Cargo's own output goes to stderr so stdout stays the result alone.
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        stdout=sys.stderr,
        check=True,
    )


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    try:
        cargo_build("--manifest-path", os.path.join(ROOT, "Cargo.toml"),
                    "-p", "opprentice-server", "--bin", "opprentice-serve")
        cargo_build("--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"))
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "opprentice-perfbench"),
        *sys.argv[1:],
        "--server", os.path.join(release, "opprentice-serve"),
        "--out", os.path.join(ROOT, ".perfbench"),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
