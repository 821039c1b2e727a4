#!/usr/bin/env python3
"""Build the adacheck benchmark, then run one workload of it.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a CMake project of its own (perfbench/CMakeLists.txt)
that builds the library from the sources one directory up, in Release
mode, under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
Later runs only rebuild what changed.  Every argument goes to the
perfbench binary, which prints usage and exits 2 on a bad flag, and
whose last line of stdout is the JSON result.  Build output goes to
stderr; a failed build exits 1 without a result.
"""

import os
import subprocess
import sys
from pathlib import Path


def main():
    source = Path(__file__).resolve().parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = (build_root / "perfbench").resolve()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(source), "-B", str(build),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build), "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 1
    binary = build / "perfbench"
    args = [str(binary)] + sys.argv[1:] + ["--work-dir", str(build / "work")]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
