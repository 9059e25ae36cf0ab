#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Checks, in about two minutes:
  1. the same seed gives the same draw and identical deterministic metrics
     (model_fpc.geomean, emitted_c_kb, and absint.versions of a traced run);
  2. a different seed gives a different draw;
  3. a kernel fault (Options::InjectFault = flip-add) is caught by the output
     oracle: failed > 0, correct false, exit status 1, on every workload;
     on serve-mixed the never-seen requests fail too;
  4. a host without a C compiler still runs the traced serve-warm, with
     the native runtime metrics left at 0.
Exits non-zero if any check fails.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(args, env=None, cmd=None):
    p = subprocess.run((cmd or RUN) + args, cwd=ROOT, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=600)
    return p.returncode, p.stdout.splitlines()


def result(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def metric(res, name):
    return res["metrics"][name]["value"]


def main():
    # 1 + 2: draws.
    _, d1 = run(["--print-draw", "--seed", "1"])
    _, d1again = run(["--print-draw", "--seed", "1"])
    _, d2 = run(["--print-draw", "--seed", "2"])
    check(len(d1) > 0 and d1 == d1again, "same seed, same draw")
    check(d1 != d2, "different seed, different draw")

    short = ["--workload", "compile-cold", "--seconds", "0.1", "--trace"]
    runs = [result(run(short + ["0", "--seed", "7"])[1]) for _ in range(2)]
    check(all(runs), "compile-cold prints a result line")
    if all(runs):
        for name in ("model_fpc.geomean", "emitted_c_kb"):
            check(metric(runs[0], name) == metric(runs[1], name),
                  "same seed, identical " + name)
    traced = [result(run(short + ["1", "--seed", "7"])[1]) for _ in range(2)]
    check(all(traced) and all(t["failed"] == 0 for t in traced),
          "traced compile-cold passes the replica check")
    if all(traced):
        check(metric(traced[0], "absint.versions") ==
              metric(traced[1], "absint.versions") > 0,
              "same seed, identical absint.versions")

    # 3: the oracle is live. serve-mixed runs 2 s so that every traffic
    # segment holds never-seen requests.
    for workload, seconds in (("compile-cold", "0.5"), ("serve-warm", "0.5"),
                              ("serve-mixed", "2")):
        rc, lines = run(["--workload", workload, "--seed", "1", "--seconds",
                         seconds, "--trace", "0", "--inject-fault", "flip-add"])
        res = result(lines)
        check(rc == 1 and res is not None and res["failed"] > 0 and
              not res["correct"],
              "flip-add fault drives %s's error rate above 0" % workload)
        if workload == "serve-mixed":
            cold = [re.search(r"(\d+) cold failed", l) for l in lines
                    if l.startswith("serve-mixed:")]
            check(bool(cold) and cold[0] is not None and
                  int(cold[0].group(1)) > 0,
                  "flip-add fault fails serve-mixed's never-seen requests")

    # 4: no toolchain leaves the native metrics at 0 and fails nothing. The
    # binary is called directly: run.py itself needs the build tools on PATH.
    env = {k: v for k, v in os.environ.items() if k != "LGEN_CC"}
    env["PATH"] = os.path.join(ROOT, ".bench_build", "no-such-dir")
    rc, lines = run(["--workload", "serve-warm", "--seed", "1",
                     "--seconds", "0.5", "--trace", "1"], env=env,
                    cmd=[BINARY])
    res = result(lines)
    check(rc == 0 and res is not None and res["failed"] == 0 and
          metric(res, "runtime.toolchain_ms") == 0,
          "traced serve-warm without a C compiler skips the native layer")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
