#!/usr/bin/env python3
"""Time one secat query against two source trees, in the order A, B, B, A.

    python3 scripts/time_cli.py SRC_A SRC_B -- tc models/truncated_mix.cdga --n 3 --json

SRC_A and SRC_B are directories that hold the `secat` package, such as the
`src` of this checkout and the `src` of a checkout of the parent commit.
Each run is a fresh interpreter started in the current directory, so
relative model paths resolve there.  One line is printed per run: the
tree, the wall time from spawn to exit, the child's peak RSS (from
`os.wait4`), its exit code and the sha256 of its stdout.  The last line
says whether all four runs agreed, with the same stdout and the same exit
code.  The child's stderr passes through.  The script exits 0 when the
runs agree and 1 when they do not, so a byte-identity check can rest on
it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import time

RUN = "import sys; from secat.cli import main; sys.exit(main(sys.argv[1:]))"


def run_once(src: str, argv: list[str]) -> tuple[float, float, int, str]:
    """(wall s, peak RSS MB, exit code, stdout sha256) of one secat run."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", RUN, *argv],
                            stdout=subprocess.PIPE, env=env)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here
    return (wall, usage.ru_maxrss / 1024, proc.returncode,
            hashlib.sha256(out).hexdigest())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src_a", help="source tree A (holds the secat package)")
    ap.add_argument("src_b", help="source tree B (holds the secat package)")
    ap.add_argument("query", nargs=argparse.REMAINDER,
                    help="-- and the secat arguments")
    args = ap.parse_args(argv)
    query = args.query[1:] if args.query[:1] == ["--"] else args.query
    if not query:
        ap.error("give the secat arguments after --")
    outcomes = set()
    for label, src in (("A", args.src_a), ("B", args.src_b),
                       ("B", args.src_b), ("A", args.src_a)):
        wall, rss, code, digest = run_once(src, query)
        outcomes.add((code, digest))
        print(f"{label} {src}: wall {wall:.3f} s, peak RSS {rss:.1f} MB, "
              f"exit {code}, stdout sha256 {digest}", flush=True)
    if len(outcomes) == 1:
        print("stdout identical in all runs")
        return 0
    print("stdout or exit code DIFFERS between runs")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
