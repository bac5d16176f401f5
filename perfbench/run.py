#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs it.

    python3 perfbench/run.py --workload entropy_2m --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and the generated datasets to
$CARGO_TARGET_DIR/perfbench-data. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    build_dir = os.path.join(build_root(), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, target)


def main(argv):
    try:
        if argv == ["--selftest"]:
            return subprocess.run([build("perfbench_test")]).returncode
        binary = build("perfbench")
    except (subprocess.CalledProcessError, OSError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1
    data_dir = os.path.join(build_root(), "perfbench-data")
    return subprocess.run([binary] + argv + ["--data-dir", data_dir]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
