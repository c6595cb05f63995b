#!/usr/bin/env python3
"""Build and run the fenceless performance benchmark.

    python3 perfbench/run.py --workload lock4 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test

Run from the repository root.  The first call configures and builds
perfbench/ (RelWithDebInfo) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only
rebuild what changed.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  --test builds and runs the
benchmark's own tests instead.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(target):
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, target)


def main():
    args = sys.argv[1:]
    target = "perfbench_test" if args == ["--test"] else "perfbench"
    try:
        binary = build(target)
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + ([] if target == "perfbench_test"
                                      else args)).returncode


if __name__ == "__main__":
    sys.exit(main())
