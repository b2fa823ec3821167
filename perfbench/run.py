#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

Run from the root of a checkout.  The script builds perfbench/perfbench.exe
with dune (inside the checkout's _build), points temporary files at
.perfbench_tmp/ in the checkout, runs the benchmark with the given flags,
and passes its output and exit code through.  The benchmark's last stdout
line is the JSON result.

serve-mixed runs pinned to one CPU: its work runs on the server's domain
while the host-speed reference runs on the main one, and on a shared host
the two CPUs' speeds differ and drift apart; on one core the reference
measures the core the work ran on.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
ONE_CPU = {"serve-mixed"}


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        print("perfbench: no dune-project here; run from the repository root", file=sys.stderr)
        return 2
    if shutil.which("dune") is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    tmp = os.path.join(root, ".perfbench_tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, DUNE_CACHE="disabled", XDG_CACHE_HOME=os.path.join(tmp, "cache"))
    build = subprocess.run(
        ["dune", "build", "--root", root, "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")
    args = sys.argv[1:]
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else None
    pin = None
    if workload in ONE_CPU and hasattr(os, "sched_setaffinity"):
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    try:
        run = subprocess.run([exe] + args, env=env, timeout=RUN_TIMEOUT_S, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
