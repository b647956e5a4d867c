#!/usr/bin/env python3
"""secat benchmark: closed-loop workloads with exact-value checks.

    python3 perfbench/run.py --workload cat-cap --seed 1 --seconds 20 --trace 0

One client in one process runs the workload's queries back to back, each
waiting for the previous one, in an order drawn from the seed.  CLI queries
go through `secat.cli.main(argv)` with `--json`; the `verify-corpus`
workload calls `verify_certificate` on a frozen certificate corpus.  Every
answer is checked against known mathematical values (see queries.py).

With `--trace 0` the last line reports the end-to-end metrics of an
untraced run: `wall_s` (median pass), `setup_s` (median over several fresh
interpreters, from spawn until the first query is ready), both normalized
for machine speed by calibrate.py (raw pass times are printed), `peak_rss_mb`
and `pass_frac` (queries that passed every check over queries attempted;
`failed_frac` = 1 - `pass_frac` is printed above it).  With `--trace 1` it
reports the per-layer metrics of a traced run (tracer.py), next to an
untraced run of the same length for `trace.overhead_frac`; spans are
written to `.perfbench_out/`.

A query listed in `queries.KNOWN_DEFECTS` still counts as failed, but does
not make the run incorrect.  Exit code 0 only with a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 15
WORKER_TIMEOUT = 150

sys.path.insert(0, str(BENCH))
from calibrate import kernel_pair, scale  # noqa: E402
from queries import WORKLOADS  # noqa: E402
from tracer import metric_units  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--query", default=None,
                    help="run only the query with this id (self-test)")
    ap.add_argument("--wrong-expected", action="store_true",
                    help="check against deliberately wrong values (self-test)")
    return ap.parse_args(argv)


def spawn(args, seconds, *extra):
    """Run one worker interpreter; its last stdout line as a dict."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--t0", repr(time.monotonic()), *extra]
    if args.query:
        cmd += ["--query", args.query]
    if args.wrong_expected:
        cmd.append("--wrong-expected")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT, cwd=ROOT)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(args, runs):
    """Print the per-query lines; return (attempted, failed, correct)."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    results = runs[0]["results"]
    for qid, r in results.items():
        if r["problems"] or len(results) <= 8:
            status = "; ".join(r["problems"]) or "ok"
            print(f"  {qid}: median {statistics.median(r['seconds']):.4f} s "
                  f"over {len(r['seconds'])}: {status}")
    passes = ", ".join(f"{p:.3f}" for p in runs[0]["pass_s"])
    kernel = [k for pair in runs[0]["kernel_s"] for k in pair]
    print(f"{args.workload} seed {args.seed}: {len(results)} queries, "
          f"raw passes [{passes}] s, calibration kernel median "
          f"{statistics.median(kernel):.4f} s in [{min(kernel):.4f}, "
          f"{max(kernel):.4f}], failed_frac {failed / attempted:.4f}")
    if args.workload == "verify-corpus":
        corpus = json.loads((BENCH / "corpus" / "corpus.json").read_text())
        print(f"corpus: {corpus['pristine']} pristine, {corpus['corruptions']} "
              f"corruptions, repeated context recipes "
              f"{corpus['repeat_recipe_share']:.1%}")
    digests = {qid: r["digest"] for qid, r in sorted(results.items())}
    combined = hashlib.sha256(json.dumps(digests).encode()).hexdigest()[:16]
    print(f"output digest {combined} (information only)")
    return attempted, failed, not any(r["unexpected"] for r in runs)


def setup_probes(args, count, raw, kernels):
    """Normalized set-up times of `count` fresh interpreters."""
    probes = []
    for _ in range(count):
        before = kernel_pair()
        raw.append(spawn(args, 0, "--setup-only")["setup_s"])
        kernels.append((before, kernel_pair()))
        probes.append(raw[-1] * scale(*kernels[-1]))
    return probes


def end_to_end(args):
    # Set-up probes before and after the measured run sample more host states.
    raw, kernels = [], []
    probes = setup_probes(args, SETUP_PROBES // 2, raw, kernels)
    run = spawn(args, args.seconds)
    probes += setup_probes(args, SETUP_PROBES - len(probes), raw, kernels)
    # Raw figures before normalization, for steadiness.py.
    print("raw " + json.dumps({
        "pass_s": run["pass_s"], "norm_s": run["norm_s"],
        "kernel_s": run["kernel_s"], "setup_s": raw, "setup_kernel_s": kernels,
    }))
    metrics = {
        "wall_s": (statistics.median(run["norm_s"]), "s"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "pass_frac": ((run["attempted"] - run["failed"]) / run["attempted"],
                      "ratio"),
    }
    return [run], metrics


def per_layer(args):
    half = args.seconds / 2
    plain = spawn(args, half)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    traced = spawn(args, half, "--trace", "1", "--spans", str(spans))
    layers = traced["layers"]
    layers["trace.overhead_frac"] = (statistics.median(traced["norm_s"])
                                     / statistics.median(plain["norm_s"]) - 1)
    units = metric_units()
    return [plain, traced], {k: (layers[k], unit) for k, unit in units.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "secat" / "cli.py").is_file():
        print(f"error: no secat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runs, metrics = (per_layer if args.trace else end_to_end)(args)
    attempted, failed, correct = summarize(args, runs)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
