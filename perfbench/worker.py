"""One benchmark process: set up, run closed-loop passes, check every answer.

Started by `run.py` in a fresh interpreter so that no import, parse or
per-presentation cache carries over between runs.  One client issues the
workload's queries one after another, each waiting for the previous one;
every query re-parses its input.  Passes repeat until `--seconds` have
elapsed (at least one pass).  The last line of standard output is one JSON
object with the timings, the per-query verdicts and, when traced, the
per-layer statistics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import random
import resource
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS = BENCH / "corpus" / "corpus.json"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="report the set-up time and exit")
    ap.add_argument("--query", default=None,
                    help="run only the query with this id (self-test)")
    ap.add_argument("--wrong-expected", action="store_true",
                    help="check against deliberately wrong values (self-test)")
    ap.add_argument("--spans", default=None,
                    help="write the traced spans to this file")
    return ap.parse_args(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_queries(args, queries_mod):
    """[(query id, runner)] in the seed's order; runner() -> (problems, digest)."""
    from secat import cli, invariants, lang
    from secat.core import CdgaError

    wrong = queries_mod.wrong_expectation if args.wrong_expected else (lambda e: e)
    names = queries_mod.WORKLOADS[args.workload]
    out = []
    if names is not None:
        for qid in names:
            argv, expect = queries_mod.CLI_QUERIES[qid]
            argv = [str(ROOT / a) if a.startswith(queries_mod.MODELS) else a
                    for a in argv] + ["--json"]
            expect = wrong(expect)

            def run_cli(argv=argv, expect=expect):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                text = buf.getvalue()
                if code != 0:
                    return [f"exit code {code}"], digest(text)
                return queries_mod.check_cli(json.loads(text), expect), digest(text)

            out.append((qid, run_cli))
    else:
        corpus = json.loads(CORPUS.read_text())
        documents = {name: (BENCH / "models" / name).read_text()
                     for name in {e["doc"] for e in corpus["entries"]}}
        for entry in corpus["entries"]:
            expect = wrong(entry["expect"])

            def run_verify(entry=entry, expect=expect):
                doc = lang.parse_document(documents[entry["doc"]])
                presentations, morphisms = lang.realize_document(doc, entry["cap"])
                cert = invariants.certificate_from_dict(entry["cert"])
                try:
                    accepted, detail = invariants.verify_certificate(
                        cert, presentations, morphisms)
                except CdgaError as exc:
                    accepted, detail = False, f"structural error: {exc}"
                verdict = json.dumps([accepted, detail])
                if accepted != expect:
                    return [f"{'accepted' if accepted else 'rejected'}: "
                            f"{detail}"], digest(verdict)
                return [], digest(verdict)

            out.append((entry["id"], run_verify))
    random.Random(args.seed).shuffle(out)
    return [q for q in out if args.query in (None, q[0])]


def run_query(runner):
    try:
        return runner()
    except Exception as exc:  # a raising query is a failed query
        return [f"raised {type(exc).__name__}: {exc}"], None


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import queries as queries_mod
    from calibrate import SpeedClock
    import secat.cli  # noqa: F401  (loads every layer)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    work = build_queries(args, queries_mod)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    timings, results = [], {}
    attempted = failed = unexpected = passes = 0
    with SpeedClock() as clock:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            for qid, runner in work:
                if tracer is not None:
                    tracer.query = qid
                t0 = time.perf_counter()
                problems, dig = run_query(runner)
                timings.append((passes, qid, t0, time.perf_counter()))
                attempted += 1
                if problems:
                    failed += 1
                    unexpected += qid not in queries_mod.KNOWN_DEFECTS
                results.setdefault(qid, {"problems": problems, "digest": dig,
                                         "seconds": []})
            passes += 1
    pass_s, norm_s = [0.0] * passes, [0.0] * passes
    for i, qid, t0, t1 in timings:
        measured, normalized = clock.normalize(t0, t1)
        pass_s[i] += measured
        norm_s[i] += normalized
        results[qid]["seconds"].append(measured)

    report = {"setup_s": setup_s, "pass_s": pass_s, "norm_s": norm_s,
              "kernel_s": clock.kernels, "attempted": attempted,
              "failed": failed, "unexpected": unexpected,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "results": results}
    if tracer is not None:
        report["layers"] = tracer.metrics(clock, len(pass_s))
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
