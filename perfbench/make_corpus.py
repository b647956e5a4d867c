#!/usr/bin/env python3
"""Regenerate the frozen certificate corpus of the `verify-corpus` workload.

The corpus holds the pristine certificates of the bundled sweep (the
category and tc reports of `scripts/fuzz_certificates.py`, its frozen
retraction certificate and its handcrafted containment certificate), the
certificates of the three heavy queries of the other workloads, and every
targeted corruption that `scripts/fuzz_certificates.corruptions` derives
from them.  Pristine certificates must be accepted, corruptions rejected.

Each entry names the model document and cap it is verified against, so a
benchmark run re-parses every input per query.  The share of entries whose
context recipe (document, cap, context) repeats an earlier one is the
workload's "shared work" property; it is written next to the corpus.

Run from the repository root after a change to the certificate format:

    python3 perfbench/make_corpus.py
"""

from __future__ import annotations

import json
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

from fuzz_certificates import FuzzConfig, corpus, corruptions, load_all  # noqa: E402
from secat.invariants import cat_bounds, tc_bounds  # noqa: E402
from secat.lang import parse_document, realize_document  # noqa: E402

MODELS = BENCH / "models"
OUT = BENCH / "corpus" / "corpus.json"

# the certificate-emitting queries of the cat-cap and tc-diagonal workloads
HEAVY = (("cat", "truncated_mix.cdga", "T", 15, None),
         ("tc", "truncated_mix.cdga", "T", None, 2),
         ("tc", "wedge.cdga", "W", None, 3))


def defining_file(label: str) -> str:
    for path in sorted(MODELS.glob("*.cdga")):
        if label in parse_document(path.read_text()).cdgas:
            return path.name
    raise SystemExit(f"no bundled model defines cdga {label!r}")


def heavy_certificates():
    """Yield (document, cap, certificate, nil of the kernel ideal)."""
    for command, doc, label, cap, n in HEAVY:
        pres, _ = realize_document(parse_document((MODELS / doc).read_text()),
                                   cap)
        P = pres[label]
        rep = (cat_bounds(P, label=label) if command == "cat"
               else tc_bounds(P, n, label=label))
        for bound in rep.bounds():
            for cert in bound.certificates:
                yield doc, cap, cert, rep.surjection.nil_kernel


def build_entries():
    cfg = FuzzConfig(models_dir=MODELS)
    presentations, _ = load_all(cfg)
    sources = [("sweep", defining_file(cert.context["cdga"]), None, cert, nil)
               for cert, nil in corpus(cfg, presentations)]
    sources += [("heavy", doc, cap, cert, nil)
                for doc, cap, cert, nil in heavy_certificates()]
    entries = []
    for i, (origin, doc, cap, cert, nil) in enumerate(sources):
        base = {"doc": doc, "cap": cap}
        entries.append(dict(base, id=f"{origin}-{i:03d}", expect=True,
                            corruption=None, cert=cert.to_dict()))
        for j, (desc, bad) in enumerate(corruptions(cert, nil)):
            entries.append(dict(base, id=f"{origin}-{i:03d}-c{j}",
                                expect=False, corruption=desc,
                                cert=bad.to_dict()))
    return entries


def recipe(entry) -> str:
    return json.dumps([entry["doc"], entry["cap"], entry["cert"]["context"]],
                      sort_keys=True)


def repeat_share(entries) -> float:
    """Share of entries whose context recipe repeats an earlier entry's."""
    return 1 - len({recipe(e) for e in entries}) / len(entries)


def main() -> int:
    entries = build_entries()
    share = repeat_share(entries)
    doc = {"entries": entries,
           "pristine": sum(e["expect"] for e in entries),
           "corruptions": sum(not e["expect"] for e in entries),
           "repeat_recipe_share": round(share, 4)}
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}: {doc['pristine']} pristine, "
          f"{doc['corruptions']} corruptions, repeated recipes {share:.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
