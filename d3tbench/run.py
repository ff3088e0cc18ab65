#!/usr/bin/env python3
"""Build the d3t benchmark program and run one workload.

    python3 d3tbench/run.py --workload paper_sweep --seed 1 \
        --seconds 35 --trace 0

Run from the root of a d3t checkout. The program (d3tbench/, linking the
checkout's libd3t) is built into .bench_build/ on first use. The last
line of standard output is the JSON result object; build output goes to
standard error. See d3tbench/README.md.
"""

import argparse
import os
import subprocess
import sys
import time

WORKLOADS = ("paper_sweep", "large_world", "wire_serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one d3t benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int,
                        help="workload seed (unsigned 64-bit)")
    parser.add_argument("--seconds", type=int, default=35,
                        help="seconds of repeated timed work (1..60)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in 1..60")
    return args


def run_logged(cmd, cwd, timeout):
    """Runs a build step with its output on standard error."""
    return subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False).returncode


def build(root, build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", os.path.join(root, "d3tbench"),
                       "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                      root, BUILD_TIMEOUT_S) != 0:
            return False
    return run_logged(["cmake", "--build", build_dir, "--target", "d3tbench",
                       "-j", jobs], root, BUILD_TIMEOUT_S) == 0


def main(argv):
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        print("run.py: %s is not a d3t checkout (no CMakeLists.txt and src/ "
              "to build libd3t from)" % root, file=sys.stderr)
        return 1
    build_dir = os.path.join(root, ".bench_build")
    try:
        if not build(root, build_dir):
            print("run.py: build failed", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "d3tbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    started = time.monotonic()
    # The program runs in its own process, so each workload starts with a
    # fresh heap and its own peak RSS.
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("run.py: %s timed out after %.0f s"
                  % (args.workload, time.monotonic() - started),
                  file=sys.stderr)
            return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
