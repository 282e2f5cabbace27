#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fw-diurnal --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and the run artifacts (result record,
Chrome trace, self-time table) all live under .bench_build/ in the
checkout. The program's standard output is passed through; its last
line is the JSON result. The exit code is the program's: 0 when every
output checked out, non-zero on a correctness failure or when the
program cannot be built (for instance when the library sources are
missing).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no library sources beside perfbench/ (missing go.mod)", file=sys.stderr)
        return 2
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env())
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = [BINARY, "--out", os.path.join(BUILD, "perfbench", "runs")] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
