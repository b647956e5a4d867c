#!/usr/bin/env python3
"""Fast self-test of the benchmark itself (about half a minute).

For each workload, runs its cheapest query once through `run.py`, first
against the true values (it must pass) and then against a deliberately
wrong expected value (it must count as failed, so failed_frac = 1 and the
run is not correct).  Also checks that BENCHMARK.json names exactly the
metrics run.py prints.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from queries import SMALLEST, WORKLOADS  # noqa: E402
from tracer import metric_units  # noqa: E402


def run(workload, query, wrong):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", "0", "--query", query]
    if wrong:
        cmd.append("--wrong-expected")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != metric_units():
        problems.append("BENCHMARK.json per_layer differs from tracer.metric_units()")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from queries.WORKLOADS")

    for workload in WORKLOADS:
        query = SMALLEST[workload]
        for wrong in (False, True):
            out = run(workload, query, wrong)
            frac = out["metrics"]["pass_frac"]["value"]
            want = (0.0, False, out["attempted"]) if wrong else (1.0, True, 0)
            got = (frac, out["correct"], out["failed"])
            verdict = "ok" if got == want and out["attempted"] == 1 else "WRONG"
            print(f"{workload:14s} {query:14s} wrong expected={wrong!s:5s} "
                  f"attempted {out['attempted']} failed {out['failed']} "
                  f"failed_frac {1 - frac:.1f} correct {out['correct']}: {verdict}")
            if verdict != "ok":
                problems.append(f"{workload} {query} wrong={wrong}: got {got}")
    for p in problems:
        print(f"FAIL: {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
