#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny run of every workload.

    python3 perfbench/smoke.py

Run from the repository root.  For every workload in BENCHMARK.json, and
for serve-mixed, it runs perfbench/run.py at --size tiny with tracing off
and on, and checks that every end-to-end and per-layer metric named in
BENCHMARK.json is printed with its unit, and no other, and that the
workload reports correct results.  It also runs each traced workload a
second time with the same seed and checks that sim.digest is identical.
Exits 1 on any failure.

serve-mixed is not listed in BENCHMARK.json because its one-shot check
fails on the current program whenever its sample holds a pruned-search
tune served on a warm memo (see perfbench/README.md).  This test still
runs it; at this test's seed the check fails, so the test fails until
that defect is fixed.
"""

import json
import subprocess
import sys

# Workloads left out of BENCHMARK.json while their output check fails.
UNLISTED = ["serve-mixed"]


def run(workload, trace, seed=7):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(out.stdout + out.stderr)
        return out.returncode, None
    return out.returncode, result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    workloads = [w["name"] for w in bench["workloads"]]
    workloads += [w for w in UNLISTED if w not in workloads]
    for workload in workloads:
        for trace in (0, 1):
            want = expected[trace]
            code, result = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{tag}: no JSON result line (exit {code})")
                continue
            got = result["metrics"]
            for name, unit in want.items():
                if name not in got:
                    problems.append(f"{tag}: metric {name} missing")
                elif got[name].get("unit") != unit:
                    problems.append(f"{tag}: metric {name} has unit {got[name].get('unit')}, want {unit}")
            for name in got:
                if name not in want:
                    problems.append(f"{tag}: unexpected metric {name}")
            print(f"{tag}: {len(got)} metrics, correct={result['correct']}, exit {code}")
            if not (result["correct"] and code == 0):
                problems.append(f"{tag}: incorrect result (exit {code}, failed {result['failed']})")
            if trace == 1:
                _, again = run(workload, 1)
                digests = [r["metrics"].get("sim.digest", {}).get("value") for r in (result, again) if r]
                if len(digests) != 2 or digests[0] != digests[1]:
                    problems.append(f"{tag}: sim.digest differs between two runs of one seed: {digests}")
    for p in problems:
        print("SMOKE FAILED:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
