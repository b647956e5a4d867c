#!/usr/bin/env python3
"""Steadiness evidence: spread of every end-to-end metric over repeated runs.

Runs `run.py --trace 0` on every workload of BENCHMARK.json with seeds
1..10, one run at a time, and records per metric the ten values, their
median and quartiles (`statistics.quantiles(values, n=4)`) and the spread
(q3 - q1) / median, next to the metric's bound, the Python version and the
processor count.  The benchmark is steady when every spread, setup_s's too,
is below a third of its bound.

Next to the normalized times it keeps each run's raw figures: pass times,
set-up probes and calibration kernel samples, and the median and spread of
the raw `wall_s` and `setup_s` they give.

    python3 perfbench/steadiness.py [--out perfbench/steadiness.json]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(BENCH / "steadiness.json"))
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "machine": platform.machine(), "run_seconds": spec["run_seconds"],
              "runs": RUNS, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        raw_runs = []
        for seed in range(1, RUNS + 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True, cwd=ROOT,
                check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            raw_runs.append(next(json.loads(line[4:]) for line in lines
                                 if line.startswith("raw ")))
        rows = {}
        for name, vals in values.items():
            rows[name] = summary(vals)
            ok = rows[name]["spread"] < bounds[name] / 3
            steady &= ok
            rows[name].update(bound=bounds[name], below_third_of_bound=ok)
            print(f"{workload:14s} {name:12s} median {rows[name]['median']:10.4f} "
                  f"spread {rows[name]['spread']:.4f} bound {bounds[name]} "
                  f"{'ok' if ok else 'NOT STEADY'}", flush=True)
        raw = {"wall_s": summary([statistics.median(r["pass_s"])
                                  for r in raw_runs]),
               "setup_s": summary([statistics.median(r["setup_s"])
                                   for r in raw_runs]),
               "runs": raw_runs}
        for name in ("wall_s", "setup_s"):
            print(f"{workload:14s} raw {name:8s} median "
                  f"{raw[name]['median']:10.4f} spread "
                  f"{raw[name]['spread']:.4f}", flush=True)
        rows["raw"] = raw
        report["workloads"][workload] = rows
    pathlib.Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
