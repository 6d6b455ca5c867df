#!/usr/bin/env python3
"""Smoke test of the benchmark: runs every workload of BENCHMARK.json for a
short window, untraced and traced, and checks that every correctness check
passes and that every named metric is present, finite and in its unit.

    python3 perfbench/smoke.py [--seconds 2]

Run from the root of the repository; exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    seconds = argv[argv.index("--seconds") + 1] if "--seconds" in argv else "2"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        for trace, metrics in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            cmd = spec["command"] + ["--workload", workload["name"], "--seed", "1",
                                     "--seconds", seconds, "--trace", trace]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            label = f"{workload['name']} trace={trace}"
            if run.returncode != 0:
                sys.exit(f"{label}: exit {run.returncode}\n{run.stdout}{run.stderr}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                sys.exit(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                sys.exit(f"{label}: checks failed\n{run.stdout}")
            want = {m["name"]: m["unit"] for m in metrics}
            got = result["metrics"]
            if set(got) != set(want):
                sys.exit(f"{label}: metrics differ: missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                value = got[name]["value"]
                if got[name]["unit"] != unit or not math.isfinite(value):
                    sys.exit(f"{label}: {name} = {got[name]}")
            print(f"ok {label}: {len(got)} metrics, {result['attempted']} operations")


if __name__ == "__main__":
    main(sys.argv[1:])
