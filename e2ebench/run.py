#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

    python3 e2ebench/run.py --workload policy-stream|epoch-110k|lp-round \
        --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

The program's libraries (../src) and the benchmark (cc/) are compiled in
Release into $CARGO_TARGET_DIR, or .bench_build at the checkout root when it
is unset; later runs only re-link what changed. Build output goes to stderr;
the benchmark's JSON result is the last line of stdout. --self-test builds
and runs the checkers' negative controls instead.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # one run must end well within 180 s


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build step failed: " + " ".join(cmd))
    return os.path.join(out, target)


def main(argv):
    if argv == ["--self-test"]:
        return subprocess.run([build("e2ebench_checks_test")]).returncode
    binary = build("e2ebench")
    try:
        return subprocess.run([binary] + argv, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.exit("run.py: the benchmark overran %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
