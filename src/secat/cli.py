"""Command line interface.

    secat homology model.cdga --range 0..8
    secat minimal-model model.cdga
    secat cat model.cdga [--no-m] [--emit-certs DIR]
    secat tc model.cdga --n 2
    secat secat maps.cdga --map F
    secat verify-cert cert.json --against model.cdga

Exit codes: 0 success, 2 malformed input, 3 a rejected certificate or a
computation that cannot be completed under the degree cap.  All output is
deterministic; wall-clock timings go to stderr and only under --timings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .core import CdgaError, RangeExceedsCap
from .homology import homology
from .construct import sullivan_model_of
from .invariants import (cat_bounds, certificate_from_json, certificate_to_json,
                         surjection_bounds, tc_bounds, verify_certificate)
from .lang import (default_cap, make_presentation, parse_document, print_presentation,
                   realize_document)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _pick_cdga(doc, name):
    if not doc.cdgas:
        raise CdgaError("the document defines no cdga")
    if name is None:
        for kind, label in doc.order:
            if kind == "cdga":
                name = label
                break
    if name not in doc.cdgas:
        raise CdgaError(f"the document does not define cdga {name!r}")
    return name, doc.cdgas[name]


def _build(args):
    """(label, presentation, cap_origin) for the requested cdga."""
    doc = parse_document(_read(args.file))
    label, spec = _pick_cdga(doc, getattr(args, "name", None))
    P = make_presentation(spec, args.cap)
    if args.cap is not None:
        origin = "from --cap"
    elif spec.cap is not None:
        origin = "from the file"
    elif P.cap == default_cap(spec.gens):
        origin = ("default rule: 2 * max generator degree + 2, or the sum "
                  "of the degrees + 1 if larger and all are odd")
    else:
        origin = ("default rule: the largest relation degree + 1, above "
                  "2 * max generator degree + 2")
    return label, P, origin


def _emit(args, lines, payload):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _report_lines(label, P, origin, bounds, notes):
    lines = [f"cdga {label} (cap {P.cap}, {origin})"]
    lines += ["  " + b.summary() for b in bounds]
    lines += [f"  note: {n}" for n in dict.fromkeys(notes)]
    ncerts = sum(len(b.certificates) for b in bounds)
    lines.append(f"  certificates: {ncerts}")
    return lines


def _finish_bounds(args, lines, rep, payload):
    """Write the report's certificates, then emit it with its bounds and notes."""
    bounds = rep.bounds()
    if args.emit_certs:
        for f in _write_certs(args.emit_certs, bounds):
            lines.append(f"  wrote {f}")
    payload.update(bounds=[b.as_dict() for b in bounds], notes=rep.notes)
    _emit(args, lines, payload)
    return 0


def _write_certs(dirpath, bounds):
    import os
    os.makedirs(dirpath, exist_ok=True)
    written = []
    for b in bounds:
        for i, cert in enumerate(b.certificates):
            fname = os.path.join(dirpath, f"{b.name}-{cert.kind}-{i:02d}.json")
            with open(fname, "w", encoding="utf-8") as fh:
                fh.write(certificate_to_json(cert))
            written.append(fname)
    return written


def _parse_range(text, P):
    if text is None:
        return 0, P.cap if P.is_free else P.cap - 1
    lo, sep, hi = text.partition("..")
    if not sep:
        raise CdgaError("--range expects the form a..b")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise CdgaError("--range expects integers a..b") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_homology(args):
    label, P, origin = _build(args)
    lo, hi = _parse_range(args.range, P)
    H = homology(P, lo, hi)
    lines = [f"cdga {label} (cap {P.cap}, {origin})",
             f"homology in degrees {lo}..{hi}"]
    table = {}
    reps = {}
    for d in range(lo, hi + 1):
        b = H.betti(d)
        table[str(d)] = b
        rep_strs = [str(r) for r in H.representatives(d)]
        if rep_strs:
            reps[str(d)] = rep_strs
        if b:
            lines.append(f"  H^{d}: dim {b}   [{', '.join(rep_strs)}]")
    lines.append(f"total dim {sum(table.values())}")
    _emit(args, lines, {"command": "homology", "cdga": label, "cap": P.cap,
                        "range": [lo, hi], "betti": table,
                        "representatives": reps})
    return 0


def cmd_minimal_model(args):
    label, P, origin = _build(args)
    model_cap = P.cap if P.is_free else P.cap - 1
    res = sullivan_model_of(P, model_cap)
    M = res.model
    census = [[g.name, g.degree] for g in M.generators]
    lines = [f"cdga {label} (cap {P.cap}, {origin})",
             f"model valid in degrees <= {res.valid_up_to}"]
    presentation = print_presentation(M, f"{label}_model")
    lines.append(presentation)
    for n in res.notes:
        lines.append(f"  note: {n}")
    _emit(args, lines, {"command": "minimal-model", "cdga": label,
                        "cap": P.cap, "valid_up_to": res.valid_up_to,
                        "generators": census,
                        "presentation": presentation,
                        "notes": res.notes})
    return 0


def cmd_cat(args):
    label, P, origin = _build(args)
    rep = cat_bounds(P, with_m=not args.no_m, label=label)
    lines = _report_lines(label, P, origin, rep.bounds(), rep.notes)
    return _finish_bounds(args, lines, rep,
                          {"command": "cat", "cdga": label, "cap": P.cap})


def cmd_tc(args):
    label, P, origin = _build(args)
    rep = tc_bounds(P, n=args.n, with_m=not args.no_m, label=label)
    lines = _report_lines(label, P, origin, rep.bounds(), rep.notes)
    return _finish_bounds(args, lines, rep, {"command": "tc", "cdga": label,
                                             "n": args.n, "cap": P.cap})


def cmd_secat(args):
    doc = parse_document(_read(args.file))
    presentations, morphisms = realize_document(doc, args.cap)
    if not morphisms:
        raise CdgaError("the document defines no morphism")
    name = args.map
    if name is None:
        if len(morphisms) > 1:
            raise CdgaError("several morphisms defined; pick one with --map")
        name = next(iter(morphisms))
    if name not in morphisms:
        raise CdgaError(f"the document does not define morphism {name!r}")
    phi = morphisms[name]
    rep = surjection_bounds(phi, with_m=not args.no_m,
                            context={"construction": "morphism",
                                     "morphism": name})
    lines = [f"morphism {name} (source cap {phi.source.cap})"]
    lines += ["  " + b.summary() for b in rep.bounds()]
    lines += [f"  note: {n}" for n in rep.notes]
    return _finish_bounds(args, lines, rep, {"command": "secat", "morphism": name})


def cmd_verify_cert(args):
    cert = certificate_from_json(_read(args.cert))
    doc = parse_document(_read(args.against))
    presentations, morphisms = realize_document(doc, args.cap)
    ok, detail = verify_certificate(cert, presentations, morphisms)
    verdict = "ACCEPTED" if ok else "REJECTED"
    _emit(args, [f"{verdict}: {detail}", f"kind: {cert.kind}",
                 f"claim: {cert.claim}"],
          {"command": "verify-cert", "accepted": ok, "detail": detail,
           "kind": cert.kind, "claim": cert.claim})
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and then shared:
    its actions and help formatters form reference cycles, which a parser
    per call would leave to the cycle collector."""
    parser = argparse.ArgumentParser(
        prog="secat",
        description="sectional-category invariants of finitely presented "
                    "differential graded algebras over the rationals")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_name=True):
        p.add_argument("--cap", type=int, default=None,
                       help="degree cap (default: 2 * max generator degree + "
                            "2, or the sum of the degrees + 1 if larger and "
                            "all are odd)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.add_argument("--timings", action="store_true",
                       help="print wall-clock timing to stderr")
        if with_name:
            p.add_argument("--name", default=None,
                           help="which cdga of the document to use")

    p = sub.add_parser("homology", help="betti numbers and representatives")
    p.add_argument("file")
    p.add_argument("--range", default=None, help="degree range a..b")
    common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("minimal-model", help="minimal Sullivan presentation")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_minimal_model)

    def bound_command(name, help_text, func, with_name=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        p.add_argument("--no-m", action="store_true",
                       help="skip the module-retraction invariant")
        p.add_argument("--emit-certs", default=None, metavar="DIR",
                       help="write certificates as JSON files")
        common(p, with_name)
        p.set_defaults(func=func)
        return p

    bound_command("cat", "category-style bounds", cmd_cat)
    p = bound_command("tc", "topological-complexity style bounds", cmd_tc)
    p.add_argument("--n", type=int, default=2, help="number of factors")
    p = bound_command("secat", "sectional bounds for a file morphism",
                      cmd_secat, with_name=False)
    p.add_argument("--map", default=None, help="which morphism to use")

    p = sub.add_parser("verify-cert", help="re-check a certificate")
    p.add_argument("cert")
    p.add_argument("--against", required=True, metavar="FILE",
                   help="document defining the cdgas the certificate refers to")
    common(p, with_name=False)
    p.set_defaults(func=cmd_verify_cert)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        code = args.func(args)
    except RangeExceedsCap as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CdgaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.timings:
        print(f"timing: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
