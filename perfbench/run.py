#!/usr/bin/env python3
"""Build and run the cocheck benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/main.exe (release profile)
with dune in the tree it is run from, then runs it, pinned to one CPU, with
the same arguments; the last line of standard output is the result as one
JSON object. Extra arguments (--trace-out, --record-reference) pass
through.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    env = dict(os.environ)
    # Keep every build artefact inside the tree: no shared dune cache.
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # The benchmark runs on one domain. Keeping it on one CPU hands each
    # request from the load generator to the service thread on that CPU,
    # instead of waking an idle vCPU, which a busy host may be slow to run.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
