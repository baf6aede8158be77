#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload campaign|executor|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test

Run from the repository root.  Configures and builds the perfbench CMake
package (Release) into .bench_build/perfbench — the first call compiles the
krad libraries from src/, later calls are no-op builds — then runs one
workload and passes its output through.  The last line of standard output
is the result JSON.  Build output goes to standard error.  --test builds
and runs the benchmark's own tests instead.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_checked(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("krad sources (src/CMakeLists.txt) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    generated = [os.path.join(BUILD_DIR, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.isfile(f) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        run_checked(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", BUILD_DIR, "--target", target,
                 "-j", jobs])
    return os.path.join(BUILD_DIR, target)


def run_child(cmd):
    """Run cmd in the foreground; forward SIGTERM/SIGINT and always reap."""
    child = subprocess.Popen(cmd, cwd=ROOT)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["campaign", "executor", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.test:
        sys.exit(run_child([build("perfbench_tests")]))
    if args.workload is None:
        fail("--workload is required")

    binary = build("krad_perfbench")
    sys.stdout.flush()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.join(BUILD_DIR, "scratch")]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.exit(run_child(cmd))


if __name__ == "__main__":
    main()
