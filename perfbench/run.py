#!/usr/bin/env python3
"""Build and run the admission-service benchmark from the root of a checkout.

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds e2e-serve, e2e-dispatch and perfbench.exe from source into
.bench_build (dune's shared cache off, so nothing is written outside the
checkout), then runs perfbench.exe in its own process group and passes its
output through: the last line of standard output is the result object.
Every process perfbench.exe starts is stopped before this script exits.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
SOURCES = ["dune-project", "bin/serve.ml", "bin/dispatch.ml", "lib/serve/admission.ml"]
TARGETS = ["./perfbench/perfbench.exe", "./bin/serve.exe", "./bin/dispatch.exe"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    missing = [p for p in SOURCES if not os.path.isfile(p)]
    if missing:
        fail("run from the root of an e2e_sched checkout (missing %s)" % ", ".join(missing))
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
           "--display", "quiet"] + TARGETS
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(args):
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    child = subprocess.Popen([exe] + args + ["--bin", os.path.join(BUILD_DIR, "default", "bin")],
                             start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 124
    finally:
        # perfbench.exe stops its servers itself; this catches one that
        # died or timed out before it could.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        deadline = time.time() + 5
        while time.time() < deadline:
            try:
                os.killpg(child.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    build()
    if a.selftest:
        sys.exit(run(["selftest"]))
    sys.exit(run(["run", "--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", str(a.seconds), "--trace", str(a.trace)]))


if __name__ == "__main__":
    main()
