#!/usr/bin/env python3
"""Certificate soundness sweep: every targeted corruption must be rejected.

Builds the full certificate corpus from the bundled models (category and
tc reports plus the frozen retraction certificate), checks that each
pristine certificate verifies, then applies every guaranteed-falsifying
single-field corruption and demands a 100% rejection rate.

Pure rescalings of witnesses are deliberately NOT applied: a scalar
multiple of a nonzero class is still nonzero, so the rescaled certificate
remains genuinely valid.  Likewise, zero values in retraction
certificates can be genuinely free (their chain equation may sit beyond
the verified window), so only forced coordinates are corrupted there: the
unit, and every nonzero value, whose sign flip breaks the in-range
equation that determined it.

Run from the repository root:

    python3 scripts/fuzz_certificates.py [-v]

Exit code 0 only when every corruption is rejected.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from collections import Counter
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from secat.core import CdgaError
from secat.invariants import (
    Certificate, cat_bounds, certificate_from_json, tc_bounds,
    verify_certificate,
)
from secat.lang import parse_document, realize_document


@dataclass
class FuzzConfig:
    models_dir: pathlib.Path = ROOT / "models"
    cat_labels: tuple = ("C", "T", "CP2", "P", "S3", "S4", "Q", "G", "W")
    tc_cases: tuple = (("S3", 2), ("S3", 3), ("P", 2), ("W", 2))
    frozen: tuple = ("stanley_retraction.cert",)
    verbose: bool = False


def load_all(cfg: FuzzConfig):
    presentations, morphisms = {}, {}
    for path in sorted(cfg.models_dir.glob("*.cdga")):
        pres, mors = realize_document(parse_document(path.read_text()))
        presentations.update(pres)
        morphisms.update(mors)
    return presentations, morphisms


def corpus(cfg: FuzzConfig, presentations):
    """Yield (certificate, nil of the report's kernel ideal)."""
    for label in cfg.cat_labels:
        rep = cat_bounds(presentations[label], label=label)
        for bound in rep.bounds():
            for cert in bound.certificates:
                yield cert, rep.surjection.nil_kernel
    for label, n in cfg.tc_cases:
        rep = tc_bounds(presentations[label], n, label=label)
        for bound in rep.bounds():
            for cert in bound.certificates:
                yield cert, rep.surjection.nil_kernel
    for name in cfg.frozen:
        cert = certificate_from_json((cfg.models_dir / name).read_text())
        yield cert, 0
    # a handcrafted containment certificate so every kind appears in the sweep
    yield Certificate("acyclic-ideal-containment",
                      {"construction": "presentation", "cdga": "S2"},
                      {"hi": 8, "generators": ["a^2", "x"],
                       "contained": ["a^2", "a^3*x"]}), 0


def corruptions(cert, kernel_nil):
    """Yield (description, corrupted certificate), each provably false."""
    kind, ctx, data = cert.kind, cert.context, cert.data
    if kind == "nil-witness":
        yield "factor count exceeds the claimed level", Certificate(
            kind, ctx, dict(data,
                            factors=list(data["factors"]) + [data["factors"][0]]))
        yield "factor index out of range", Certificate(
            kind, ctx, dict(data,
                            factors=[len(data["generators"]) + 5] * data["level"]))
    elif kind == "kernel-power-vanishes":
        if data["m"] >= 1:
            yield "claimed power too small", Certificate(
                kind, ctx, dict(data, m=data["m"] - 1))
        # each listed generator is new modulo the ideal of the others, so
        # without one the list no longer generates the kernel
        yield "kernel generator dropped", Certificate(
            kind, ctx, dict(data, generators=data["generators"][1:]))
    elif kind == "rho-injectivity-range":
        if data["m"] >= 1:
            yield "injectivity claimed one level early", Certificate(
                kind, ctx, dict(data, m=data["m"] - 1))
    elif kind == "rho-noninjectivity-witness":
        if kernel_nil > data["m"]:
            yield "level where the witness survives", Certificate(
                kind, ctx, dict(data, m=kernel_nil))
        yield "witness replaced by zero", Certificate(
            kind, ctx, dict(data, witness="0"))
    elif kind == "module-retraction":
        yield "unit coordinate zeroed", Certificate(
            kind, ctx, dict(data, values=dict(data["values"], **{"1": "0"})))
        for g, v in sorted(data["values"].items()):
            if g != "1" and v != "0":
                yield f"forced value at {g} negated", Certificate(
                    kind, ctx,
                    dict(data, values=dict(data["values"], **{g: f"-({v})"})))
    elif kind == "odd-generated":
        yield "generator dropped from the census", Certificate(
            kind, ctx, dict(data, generators=data["generators"][:-1]))
        name, deg = data["generators"][0]
        yield "generator degree shifted", Certificate(
            kind, ctx,
            dict(data, generators=[[name, deg + 1]] + data["generators"][1:]))
    elif kind == "pd-collapse":
        yield "claimed top degree raised", Certificate(
            kind, ctx, dict(data, top=data["top"] + 1))
        yield "claimed top degree lowered", Certificate(
            kind, ctx, dict(data, top=data["top"] - 1))
    elif kind == "acyclic-ideal-containment":
        # the unit is a cycle with nonzero class, so it can never lie in a
        # d-stable acyclic ideal
        yield "unit claimed as a member", Certificate(
            kind, ctx, dict(data, contained=list(data["contained"]) + ["1"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="print one line per corruption")
    args = ap.parse_args(argv)
    cfg = FuzzConfig(verbose=args.verbose)

    presentations, morphisms = load_all(cfg)
    pristine = Counter()
    tried = Counter()
    accepted = []

    for cert, nil_k in corpus(cfg, presentations):
        ok, detail = verify_certificate(cert, presentations, morphisms)
        if not ok:
            print(f"FATAL: pristine {cert.kind} certificate rejected: "
                  f"{detail}", file=sys.stderr)
            return 1
        pristine[cert.kind] += 1
        for desc, bad in corruptions(cert, nil_k):
            tried[bad.kind] += 1
            try:
                ok, detail = verify_certificate(bad, presentations, morphisms)
            except CdgaError as exc:
                # malformed enough to raise a structural error: a rejection
                ok, detail = False, f"structural error: {exc}"
            if ok:
                accepted.append((bad.kind, desc))
                verdict = "ACCEPTED (soundness bug!)"
            else:
                verdict = "rejected"
            if cfg.verbose or ok:
                print(f"  {bad.kind:28s} {desc:42s} {verdict}: {detail}")

    total = sum(tried.values())
    print("certificate fuzzing summary")
    print(f"{'kind':30s} {'pristine ok':>11s} {'corruptions':>11s}")
    for kind in sorted(set(pristine) | set(tried)):
        print(f"{kind:30s} {pristine[kind]:>11d} {tried[kind]:>11d}")
    print(f"{'total':30s} {sum(pristine.values()):>11d} {total:>11d}")
    if accepted:
        print(f"RESULT: {len(accepted)}/{total} corruptions ACCEPTED — "
              "the verifier is unsound", file=sys.stderr)
        return 1
    print(f"RESULT: all {total} corruptions rejected (100%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
