#!/usr/bin/env python3
"""Reproduce the worked-example tables: category and tc bounds per model.

Deterministic end to end; run from the repository root:

    python3 scripts/run_worked_examples.py [--json] [--timings]

Every number is computed from scratch with exact rational arithmetic, so
the output doubles as a regression table for the bound pipeline.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from secat.homology import homology
from secat.invariants import Bound, cat_bounds, tc_bounds
from secat.lang import parse_document, realize_document

MODELS = ROOT / "models"
# (label, n) pairs for the tc table; labels must appear in the cat sweep
TC_CASES = (("S3", 2), ("S3", 3), ("S2", 2), ("CP2", 2), ("P", 2), ("C", 2),
            ("W", 2))


def load_all():
    presentations = {}
    origin = {}
    for path in sorted(MODELS.glob("*.cdga")):
        pres, _ = realize_document(parse_document(path.read_text()))
        for label, P in pres.items():
            presentations[label] = P
            origin[label] = path.name
    return presentations, origin


def fmt(bound: Bound) -> str:
    marks = ("" if bound.lower_absolute else "?",
             "" if bound.upper_absolute else "?")
    if bound.exact and all(m == "" for m in marks):
        return str(bound.lower)
    lo = "-inf" if bound.lower is None else f"{bound.lower}{marks[0]}"
    hi = "+inf" if bound.upper is None else f"{bound.upper}{marks[1]}"
    return f"[{lo}, {hi}]"


def betti_string(P, hi: int) -> str:
    table = homology(P, 0, min(hi, P.homology_hi)).betti_table()
    return " ".join(f"{d}:{b}" for d, b in sorted(table.items()) if b)


def category_sweep(presentations, origin):
    rows = []
    for label in sorted(presentations):
        start = time.perf_counter()
        rep = cat_bounds(presentations[label], label=label)
        elapsed = time.perf_counter() - start
        rows.append({
            "label": label,
            "file": origin[label],
            "betti": betti_string(presentations[label], 12),
            "cup": rep.cup.nil,
            "toomer": fmt(rep.toomer),
            "mcat": fmt(rep.mcat),
            "cat": fmt(rep.cat),
            "notes": list(rep.notes),
            "_bounds": [rep.toomer, rep.mcat, rep.cat],
            "_elapsed": elapsed,
        })
    return rows


def tc_sweep(presentations):
    rows = []
    for label, n in TC_CASES:
        start = time.perf_counter()
        rep = tc_bounds(presentations[label], n, label=label)
        elapsed = time.perf_counter() - start
        rows.append({
            "label": label,
            "n": n,
            "htc": fmt(rep.htc),
            "mtc": fmt(rep.mtc) if rep.mtc is not None else "-",
            "tc": fmt(rep.tc),
            "nil_ker_h": rep.surjection.nil_kernel_h.nil,
            "nil_ker": rep.surjection.nil_kernel,
            "pedigree": rep.diagonal.pedigree,
            "_bounds": [rep.htc, rep.mtc, rep.tc],
            "_elapsed": elapsed,
        })
    return rows


def print_table(rows, columns, title):
    print(title)
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in columns))
    print()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", action="store_true", dest="as_json",
                    help="emit one JSON document instead of tables")
    ap.add_argument("--timings", action="store_true",
                    help="print per-row wall time to stderr")
    args = ap.parse_args(argv)

    presentations, origin = load_all()
    cat_rows = category_sweep(presentations, origin)
    tc_rows = tc_sweep(presentations)

    if args.timings:
        for r in cat_rows:
            print(f"[timing] cat {r['label']}: {r['_elapsed']:.3f}s",
                  file=sys.stderr)
        for r in tc_rows:
            print(f"[timing] tc  {r['label']} n={r['n']}: "
                  f"{r['_elapsed']:.3f}s", file=sys.stderr)

    if args.as_json:
        doc = {
            "category": [{k: v for k, v in r.items()
                          if not k.startswith("_") and k != "betti"}
                         | {"bounds": [b.as_dict() for b in r["_bounds"]]}
                         for r in cat_rows],
            "tc": [{k: v for k, v in r.items() if not k.startswith("_")}
                   | {"bounds": [b.as_dict() for b in r["_bounds"]
                                 if b is not None]}
                   for r in tc_rows],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0

    print_table(cat_rows,
                ["label", "file", "betti", "cup", "toomer", "mcat", "cat"],
                "category bounds (exact rational arithmetic; ? marks a "
                "range-qualified endpoint)")
    for r in cat_rows:
        for note in r["notes"]:
            print(f"  note [{r['label']}]: {note}")
    print()
    print_table(tc_rows,
                ["label", "n", "htc", "mtc", "tc", "nil_ker_h", "nil_ker",
                 "pedigree"],
                "topological-complexity bounds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
