#!/usr/bin/env python3
"""Build distill_e2e from this checkout, then run it.

Usage: python3 bench/e2e/run.py [distill_e2e arguments...]
  e.g. python3 bench/e2e/run.py --workload sweep-cold --seed 7 \
           --seconds 20 --trace 0

Configures bench/e2e as a standalone CMake project in build-e2e/ at the
repository root (Release), builds the distill_e2e target, and replaces
this process with the benchmark, passing every argument through. Build
output goes to standard error, so the last line of standard output is
the benchmark's JSON result. A failed build exits non-zero without one.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")


def main():
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            sys.exit("run.py: configure failed")
    build = ["cmake", "--build", BUILD, "--target", "distill_e2e",
             "--parallel", "4"]
    if subprocess.run(build, stdout=sys.stderr, env=env).returncode:
        sys.exit("run.py: build failed")
    exe = os.path.join(BUILD, "distill_e2e")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
