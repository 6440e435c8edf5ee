#!/usr/bin/env python3
"""Build ncdrf from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-spill --seed 1 --seconds 10 --trace 0

The program and the benchmark runner are built with dune into the
checkout's _build directory; the runner (perfbench/main.exe) then runs
the workload and prints its metrics.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and
metrics.  Any further options (--jobs, --suite-seed, --request-seed)
are passed through to the runner.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["sweep-spill", "sweep-unbounded", "store-warm", "serve-mixed"]
# Every run must end within this many seconds of its start; the first
# run in a fresh checkout builds and may take longer.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 850


def source_stamp():
    """The commit, or a digest of the sources where there is no git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.md5()
    for top in ["lib", "bin", "perfbench"]:
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    for needed in ["dune-project", "lib", "bin"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}: not an ncdrf checkout",
                  file=sys.stderr)
            return 2

    started = time.monotonic()
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe", "./bin/ncdrf.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_LIMIT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    built_s = time.monotonic() - started

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ncdrf", os.path.join("_build", "default", "bin", "ncdrf.exe"),
           "--commit", source_stamp()] + extra
    # A new process group, so a run cut at the limit takes its daemon along.
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    limit = RUN_LIMIT_S + (built_s if built_s > 30 else 0)
    try:
        return child.wait(timeout=max(10.0, limit - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
