#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload ward|holter|leads3 --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout. The library and the perfbench program
are configured with CMake in Release and built into .bench_build/ (or the
directory named by $CARGO_TARGET_DIR, relative to the checkout). The
program's stdout is passed through unchanged; its last line is the JSON
result. Traced runs write their span dump under the build directory.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "3"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the library sources are missing next to perfbench/ "
             "(expected CMakeLists.txt and src/ at the checkout root)")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_root, "build.log")
    # One build at a time per checkout.
    with open(os.path.join(build_root, "build.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "--target", "perfbench",
             "-j", BUILD_JOBS],
        ]
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as built:
                    sys.stderr.write("".join(built.readlines()[-40:]))
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    args = sys.argv[1:] + ["--trace-dir", os.path.join(build_root, "trace")]
    sys.stdout.flush()
    sys.exit(subprocess.call([binary] + args, cwd=ROOT))


if __name__ == "__main__":
    main()
