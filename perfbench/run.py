#!/usr/bin/env python3
"""Repository benchmark: build the program from source and run one workload.

usage: python3 perfbench/run.py --workload <wine|gimp>
                                --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
libraries under src/ plus the benchmark program (perfbench/src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build. The program's result, one JSON object, is the last
line of standard output; build and progress output go to standard error.
Generated inputs and sockets live in perfbench/work/, traced-run span files
in perfbench/results/.

Exit status: 0 with a result printed; 2 on bad arguments; 1 otherwise
(missing sources, failed build, failed or timed-out run), with no result.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("wine", "gimp")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources at %s/src; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            fail("cmake configure failed (exit %d)" % rc)
    rc = subprocess.call(["cmake", "--build", out, "-j", "4"],
                         stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        fail("build failed (exit %d)" % rc)
    binary = os.path.join(out, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no %s" % binary)
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")

    binary = build(build_dir())
    for sub in ("work", "results"):
        os.makedirs(os.path.join(HERE, sub), exist_ok=True)
    rel = os.path.relpath(HERE, ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(rel, "work"),
           "--result-dir", os.path.join(rel, "results"),
           # Set-up time counts from here, just before the process starts.
           "--start-ns", str(time.monotonic_ns())]
    # One malloc arena: with per-thread arenas (the server's workers) the
    # peak RSS of identical runs differs by which thread allocated first.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("run failed (exit %d)" % proc.returncode)
    lines = out.decode().strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("run printed no result")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
