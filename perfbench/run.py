#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library and the benchmark binary from this checkout's sources under
.bench_build/perfbench (CMake, Release, -O2); later runs only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Every other argument is passed to the binary
unchanged (see perfbench/README.md).

Exit status: the binary's (0 ok, 1 wrong output, 3 workload unsupported on
this host), 2 for a build failure or bad usage, 124 on timeout.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# A run must end within 180 s; leave room to report the timeout.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no library sources at %s/src; run from "
                         "a checkout of the repository\n" % ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return True


def main(argv):
    if not build():
        return 2
    env = dict(os.environ)
    # Library knobs read from the environment would change what is measured
    # (IR verification, fault injection, a persistent cache directory).
    for name in ("LGEN_VERIFY_IR", "LGEN_VERIFY_INJECT", "LGEN_CACHE_DIR"):
        env.pop(name, None)
    # Native kernels are compiled into a per-process directory under
    # $TMPDIR: keep it inside the checkout.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    try:
        return subprocess.run([BINARY] + argv, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 124


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
