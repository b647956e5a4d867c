"""Sectional-category style invariants with machine-checkable certificates.

Every verdict is an interval [lower, upper].  A side is *absolute* when it is
backed by evidence valid in all degrees (a nonzero witness, an infeasible
linear system, a vanishing ideal power together with a certified top degree);
otherwise it is qualified by the degree range it was verified in.

For a surjection phi with kernel ideal I the bounds follow the chain

    nil ker H(phi)  <=  h-invariant  <=  m-invariant  <=  sectional invariant

where the h-invariant is the least m with H(S) -> H(S/I^{m+1}) injective, the
m-invariant the least m whose quotient resolution admits a module retraction,
and the sectional invariant of the map itself is bounded above by the least m
with I^{m+1} = 0.  Specializing phi to the augmentation of a minimal Sullivan
presentation gives cup length <= toomer <= mcat <= cat <= nil of positives;
specializing to a diagonal surjection gives the topological-complexity chain.
One `SurjectionReport` holds the three ends under their names; its `settle`
lifts lower ends to the map bound and descends that bound's upper end to h and
m.  A `Bound` refuses a crossed interval: an internal error when both ends are
absolute, RangeExceedsCap when one is range-qualified.

Certificates are small JSON documents ("secat-cert/1"): a context recipe that
rebuilds the construction deterministically plus the data needed to re-check
the claim independently.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

from .core import (AlgebraElement, CdgaError, CdgaMorphism, NotSurjective,
                   Presentation, RangeExceedsCap, quotient_by_ideal,
                   sub_presentation)
from .homology import (HomologyReport, HomologyView, IdealPowers,
                       NilpotencyResult, PresentationView, homology,
                       induced_kernel, kernel_ideal_generators, nil_ideal,
                       poincare_duality_check, positive_part_generators,
                       span_complex_homology)
from .linalg import solve_combo
from .construct import (DiagonalModel, SullivanModelResult, diagonal_model,
                        multiplication_morphism, sullivan_model_of)
from .semifree import (UNIT, find_module_retraction, resolve_and_retract,
                       resolve_quotient, semifree_from_relative,
                       verify_module_retraction)
from .lang import parse_element, parse_expression

CERT_FORMAT = "secat-cert/1"

CERT_KINDS = (
    "nil-witness",
    "rho-noninjectivity-witness",
    "rho-injectivity-range",
    "kernel-power-vanishes",
    "acyclic-ideal-containment",
    "odd-generated",
    "module-retraction",
    "pd-collapse",
)


# ---------------------------------------------------------------------------
# certificates and bounds


@dataclass
class Certificate:
    kind: str
    context: dict
    data: dict
    claim: str = ""

    def to_dict(self) -> dict:
        return {"format": CERT_FORMAT, "kind": self.kind, "claim": self.claim,
                "context": self.context, "data": self.data}


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(cert.to_dict(), indent=2, sort_keys=True) + "\n"


def certificate_from_dict(d: dict) -> Certificate:
    if not isinstance(d, dict):
        raise CdgaError("certificate must be a JSON object")
    if d.get("format") != CERT_FORMAT:
        raise CdgaError(f"unsupported certificate format {d.get('format')!r}")
    kind = d.get("kind")
    if kind not in CERT_KINDS:
        raise CdgaError(f"unknown certificate kind {kind!r}")
    ctx = d.get("context")
    data = d.get("data")
    if not isinstance(ctx, dict) or not isinstance(data, dict):
        raise CdgaError("certificate needs 'context' and 'data' objects")
    return Certificate(kind, ctx, data, d.get("claim", ""))


def certificate_from_json(text: str) -> Certificate:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CdgaError(f"certificate is not valid JSON: {exc}") from exc
    return certificate_from_dict(d)


@dataclass
class Bound:
    """An interval verdict; merge_* only ever tightens it and refuses a cross."""
    name: str
    lower: int | None = None
    upper: int | None = None
    lower_absolute: bool = False
    upper_absolute: bool = False
    verified_up_to: int | None = None
    certificates: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def merge_lower(self, value, absolute=False, cert=None, note=None):
        self._merge("lower", value, absolute, cert, note)

    def merge_upper(self, value, absolute=False, cert=None, note=None):
        self._merge("upper", value, absolute, cert, note)

    def _merge(self, side, value, absolute, cert, note):
        """Take `value` for one end if it is tighter, or equal and absolute
        where the end was not; refuse an interval whose ends cross."""
        if value is None:
            return
        old = getattr(self, side)
        tighter = old is None or (value > old if side == "lower" else value < old)
        upgraded = (value == old and absolute
                    and not getattr(self, f"{side}_absolute"))
        if not tighter and not upgraded:
            return
        setattr(self, side, value)
        setattr(self, f"{side}_absolute", absolute)
        if cert is not None:
            self.certificates.append(cert)
        if note:
            self.notes.append(note)
        if (self.lower is not None and self.upper is not None
                and self.lower > self.upper):
            if self.lower_absolute and self.upper_absolute:
                raise AssertionError(f"{self.name}: absolute ends cross at "
                                     f"[{self.lower}, {self.upper}]")
            raise RangeExceedsCap(
                f"{self.name} in [{self.lower}, {self.upper}] crosses: its "
                "range-qualified end holds only in degrees <= "
                f"{self.verified_up_to}; raise the cap")

    @property
    def exact(self) -> bool:
        return self.lower is not None and self.lower == self.upper

    def summary(self) -> str:
        rng = (f" (verified in degrees <= {self.verified_up_to})"
               if self.verified_up_to is not None
               and not (self.lower_absolute and self.upper_absolute) else "")
        if self.exact:
            return f"{self.name} = {self.lower}{rng}"
        lo = "?" if self.lower is None else str(self.lower)
        hi = "?" if self.upper is None else str(self.upper)
        return f"{self.name} in [{lo}, {hi}]{rng}"

    def as_dict(self) -> dict:
        return {"name": self.name, "lower": self.lower, "upper": self.upper,
                "lower_absolute": self.lower_absolute,
                "upper_absolute": self.upper_absolute,
                "verified_up_to": self.verified_up_to,
                "notes": list(self.notes),
                "certificates": [c.to_dict() for c in self.certificates]}


# ---------------------------------------------------------------------------
# small helpers


def augmentation_morphism(M: Presentation) -> CdgaMorphism:
    """M -> Q killing every generator."""
    unit = Presentation((), M.cap)
    images = {g.name: unit.zero() for g in M.generators}
    return CdgaMorphism(M, unit, images, check=True, name="aug")


def _injectivity_failure(phi: CdgaMorphism, H_src: HomologyReport,
                         H_tgt: HomologyReport, lo: int, hi: int):
    """(degree, nonzero source class killed by H(phi)), or None if injective."""
    for d in range(lo, hi + 1):
        kernel = induced_kernel(phi, H_src, H_tgt, d)
        if kernel:
            return d, kernel[0]
    return None


def _into_kernel(phi: CdgaMorphism, z: AlgebraElement, d: int) -> AlgebraElement:
    """Adjust a cycle whose image class vanishes so that phi(z) = 0 exactly."""
    img = phi.apply(z)
    if not img.terms:
        return z
    B = phi.target
    combo = solve_combo(B.differential_vectors(d - 1), B.dim(d), B.to_sparse(img, d))
    if combo is None:
        raise CdgaError("image class does not bound; kernel adjustment failed")
    S = phi.source
    phimgs = [B.to_sparse(phi.apply(S.element({m: 1})), d - 1)
              for m in S.basis(d - 1)]
    lift = solve_combo(phimgs, B.dim(d - 1), combo)
    if lift is None:
        raise CdgaError("surjection failed to lift a boundary")
    z2 = z - S.from_vector(d - 1, lift).d()
    if phi.apply(z2).terms:
        raise CdgaError("kernel adjustment did not land in the kernel")
    return z2


def homology_kernel_classes(phi: CdgaMorphism, H_src: HomologyReport,
                            H_tgt: HomologyReport, hi: int):
    """Cycles spanning ker H(phi) in degrees <= hi, adjusted into ker phi."""
    return [_into_kernel(phi, z, d) for d in range(1, hi + 1)
            for z in induced_kernel(phi, H_src, H_tgt, d)]


# ---------------------------------------------------------------------------
# the surjection engine


@dataclass
class SurjectionReport:
    morphism: CdgaMorphism
    hi: int                              # degrees the verdicts were checked in
    source_homology: HomologyReport      # H(source) in degrees 0..hi
    kernel_generators: list
    kernel_complete: bool
    h_bound: Bound
    m_bound: Bound | None
    map_bound: Bound
    nil_kernel_h: NilpotencyResult | None
    nil_kernel: int
    notes: list = field(default_factory=list)

    def bounds(self):
        """The chain h <= m <= map, without m when it was skipped."""
        return [b for b in (self.h_bound, self.m_bound, self.map_bound)
                if b is not None]

    def settle(self, with_notes: bool = False):
        """Enforce the chain: the highest lower end lifts to the map bound and
        the map bound's upper end descends to h and m."""
        top = self.m_bound if self.m_bound is not None else self.h_bound
        self.map_bound.merge_lower(
            top.lower, top.lower_absolute,
            note="lower bounds lift along the chain" if with_notes else None)
        for b in self.bounds()[:-1]:
            b.merge_upper(
                self.map_bound.upper, self.map_bound.upper_absolute,
                note="upper bounds descend along the chain"
                if with_notes else None)


def surjection_bounds(phi: CdgaMorphism, *, hi: int | None = None,
                      kernel_gens=None, kernel_complete: bool | None = None,
                      context: dict | None = None, pedigree: str | None = None,
                      with_m: bool = True, pd_space=None,
                      content_top: int | None = None,
                      names=("h-invariant", "m-invariant", "sectional")
                      ) -> SurjectionReport:
    """Run the full chain of bounds for a degree-wise surjection.

    `names` names the three ends of the chain h <= m <= map in the report.
    `kernel_gens` must generate ker phi as an ideal when given; set
    `kernel_complete` accordingly.  When omitted they are derived degree by
    degree, which is complete exactly when the source has a certified top
    degree inside the range.  `pd_space` is an optional (HomologyReport, top,
    label) triple for the space the surjection is about; a verified duality
    pairing there collapses the m-invariant onto the h-invariant.

    `content_top` asserts that H(source) vanishes absolutely above that
    degree for reasons the source presentation cannot see on its own,
    typically a verified quasi-iso to a finite-dimensional algebra.  When it
    sits inside the range, injectivity verdicts extend to all degrees: the
    quotient complexes in degrees <= hi are insensitive to generators above
    hi, and above content_top the source homology is zero.

    Each level m is the quotient S/I^{m+1} with its homology in degrees <=
    hi.  The h-loop tries levels upward from nil ker H(phi) and stops at the
    h-invariant's upper end; the m-loop starts at that same level, so it
    resolves the quotient the h-loop built last and builds only the levels
    above.
    """
    S, B = phi.source, phi.target
    cap = S.cap
    if hi is None:
        hi = cap - 1
    if not S.is_free and hi + 1 > cap:
        raise RangeExceedsCap("surjection bounds need hi + 1 <= source cap")
    hi = min(hi, cap - 1, B.cap if B.is_free else B.cap - 1)
    bad = phi.is_surjective_up_to(hi)
    if bad is not None:
        raise NotSurjective(bad)

    htop = S.top_degree_if_finite()
    view_hi = min(cap, hi + 1)
    if kernel_gens is None:
        kernel_gens = kernel_ideal_generators(phi, view_hi)
        kernel_complete = htop is not None and htop <= view_hi
    elif kernel_complete is None:
        kernel_complete = False
    finite_range = (htop is not None and htop <= hi) or \
                   (content_top is not None and content_top <= hi)

    ctx = dict(context) if context else {"construction": "morphism"}
    notes = []
    if pedigree:
        notes.append(f"pedigree: {pedigree}")
    else:
        notes.append("model-relative: verdicts describe this surjection; no "
                     "pedigree ties it to an underlying map")

    H_S = homology(S, 0, hi)
    H_B = homology(B, 0, hi)

    h_bound, m_bound, map_bound = (
        Bound(name, lower=0, lower_absolute=True, verified_up_to=hi)
        for name in names)
    if not with_m:
        m_bound = None

    # nil of the kernel of the induced map on homology: a lower bound
    kclasses = homology_kernel_classes(phi, H_S, H_B, hi)
    nil_h = nil_ideal(HomologyView(H_S), kclasses,
                      range_relative=not finite_range)
    if nil_h.nil > 0:
        cert = Certificate(
            "nil-witness", ctx,
            {"level": nil_h.nil, "view": "homology", "hi": hi,
             "generators": [str(g) for g in nil_h.generators],
             "factors": list(nil_h.witness_factors)},
            claim=f"nil ker H >= {nil_h.nil}, so the h-invariant is >= {nil_h.nil}")
        h_bound.merge_lower(nil_h.nil, True, cert,
                            note=f"nil of ker H(phi) is {nil_h.nil}")

    # powers of the kernel ideal drive everything else
    powers = IdealPowers(PresentationView(S, view_hi), kernel_gens)
    nil_k, _ = powers.nil()
    kernel_absolute = kernel_complete and htop is not None and htop <= view_hi
    cert = Certificate(
        "kernel-power-vanishes", ctx,
        {"m": nil_k, "hi": view_hi,
         "generators": [str(g) for g in kernel_gens]},
        claim=f"(ker phi)^{nil_k + 1} = 0, so the sectional invariant is <= {nil_k}")
    map_bound.merge_upper(
        nil_k, kernel_absolute, cert,
        note=f"(ker phi)^{nil_k + 1} = 0 with certified top degree {htop}"
        if kernel_absolute else
        f"(ker phi)^{nil_k + 1} has no nonzero part in degrees <= {view_hi}")

    def level_quotient(level):
        """S -> S/I^{level+1} and the quotient's homology in degrees <= hi."""
        Q, proj = quotient_by_ideal(S, [p.element for p in powers.level(level + 1)])
        return proj, homology(Q, 0, hi)

    # h-invariant: least m with H(S) -> H(S / I^{m+1}) injective on the range
    m = h_bound.lower or 0
    while True:
        proj, H_Q = level_quotient(m)
        fail = _injectivity_failure(proj, H_S, H_Q, 1, hi)
        if fail is None:
            cert = Certificate(
                "rho-injectivity-range", ctx,
                {"m": m, "hi": hi},
                claim=f"H(S) -> H(S/I^{m + 1}) is injective in degrees <= {hi}")
            h_bound.merge_upper(m, finite_range, cert)
            break
        d, z = fail
        cert = Certificate(
            "rho-noninjectivity-witness", ctx,
            {"m": m, "degree": d, "witness": str(z),
             "kernel_generators": [str(g) for g in kernel_gens]},
            claim=f"a nonzero degree-{d} class dies in H(S/I^{m + 1})")
        h_bound.merge_lower(m + 1, True, cert)
        m += 1
        if m > nil_k + 1:
            raise CdgaError("h-invariant loop failed to terminate")

    # m-invariant: least m whose quotient resolution admits a retraction
    if with_m:
        m_bound.merge_lower(h_bound.lower, h_bound.lower_absolute,
                            note="h-invariant <= m-invariant")
        E = hi
        mm = m_bound.lower or 0
        while True:
            # the first level is the h-loop's last: its quotient is reused
            if mm != m:
                proj, H_Q = level_quotient(mm)
            module, ret = resolve_and_retract(proj, H_Q, E)
            if ret is not None:
                check = verify_module_retraction(module, ret.values, E)
                if check is not None:
                    raise CdgaError(f"retraction failed its re-check: {check}")
                cert = Certificate(
                    "module-retraction", ctx,
                    {"m": mm, "E": E,
                     "values": {g: str(v) for g, v in sorted(ret.values.items())},
                     "kernel_generators": [str(g) for g in kernel_gens]},
                    claim=f"the resolution of S/I^{mm + 1} retracts onto S up to degree {E}")
                m_bound.merge_upper(mm, False, cert)
                break
            m_bound.merge_lower(
                mm + 1, True,
                note=f"no retraction exists at level {mm}: the chain equations are infeasible")
            mm += 1
            if mm > nil_k + 1:
                notes.append(f"no retraction found up to level {nil_k + 1}")
                break

    # duality collapse: a verified pairing makes the two invariants agree
    if pd_space is not None and with_m:
        H_X, top, label = pd_space
        try:
            dual = poincare_duality_check(H_X, top)
        except RangeExceedsCap:
            dual = None
        if dual is not None and dual.satisfied:
            cert = Certificate(
                "pd-collapse", {"construction": "presentation", "cdga": label},
                {"top": top},
                claim="the duality pairing is nondegenerate, so the "
                      "m-invariant equals the h-invariant")
            m_bound.merge_upper(h_bound.upper, h_bound.upper_absolute, cert,
                                note="duality collapse")
            h_bound.merge_lower(m_bound.lower, m_bound.lower_absolute,
                                note="duality collapse")

    report = SurjectionReport(phi, hi, H_S, list(kernel_gens),
                              bool(kernel_complete), h_bound, m_bound,
                              map_bound, nil_h, nil_k, notes)
    report.settle(with_notes=True)
    return report


# ---------------------------------------------------------------------------
# augmentation specialization: toomer / mcat / cat


@dataclass
class CatReport:
    presentation: Presentation
    model: SullivanModelResult
    hi: int
    cup: NilpotencyResult
    toomer: Bound
    mcat: Bound | None
    cat: Bound
    surjection: SurjectionReport
    notes: list = field(default_factory=list)

    def bounds(self):
        return self.surjection.bounds()


def cat_bounds(A: Presentation, cap: int | None = None, *,
               with_m: bool = True, label: str = "A") -> CatReport:
    """Category-style bounds through the augmentation of a minimal model."""
    if cap is None:
        cap = A.cap if A.is_free else A.cap - 1
    model_res = sullivan_model_of(A, cap)
    M = model_res.model
    hi = min(model_res.valid_up_to, M.cap - 1)
    htop = A.top_degree_if_finite()
    ctx = {"construction": "augmentation", "cdga": label, "cap": cap}
    notes = []
    if not A.simply_connected:
        notes.append("the input is not flagged simply connected: verdicts "
                     "describe the model built from this presentation")
    if not any(A._diff_raw.values()):
        notes.append("the differential is zero, so homology equals the "
                     "algebra and the bounds meet when the range suffices")

    pd_space = None
    if htop is not None and htop <= (A.cap if A.is_free else A.cap - 1):
        H_A = homology(A, 0, htop)
        pd_space = (H_A, htop, label)

    rep = surjection_bounds(
        augmentation_morphism(M), hi=hi,
        kernel_gens=[M.gen(g.name) for g in M.generators],
        kernel_complete=True, context=ctx, pedigree="augmentation",
        with_m=with_m, pd_space=pd_space, content_top=htop,
        names=("toomer", "mcat", "cat"))
    cat = rep.map_bound

    # cup length: nil of the positive part of homology, H(M) in degrees
    # <= hi as the surjection report built it (its hi is this one, since
    # the augmentation's target is free at M's cap)
    view = HomologyView(rep.source_homology)
    finite_range = htop is not None and htop <= hi
    cup = nil_ideal(view, positive_part_generators(view),
                    range_relative=not finite_range)
    if cup.nil > 0:
        cert = Certificate(
            "nil-witness", ctx,
            {"level": cup.nil, "view": "homology", "hi": hi,
             "generators": [str(g) for g in cup.generators],
             "factors": list(cup.witness_factors)},
            claim=f"a {cup.nil}-fold cup product is nonzero")
        cat.merge_lower(cup.nil, True, cert,
                        note=f"cup length is {cup.nil}")

    # all-odd free minimal models have cat = number of generators
    gens = [(g.name, g.degree) for g in M.generators]
    if M.is_minimal_sullivan and gens and all(d % 2 for _, d in gens):
        cert = Certificate(
            "odd-generated", ctx,
            {"generators": sorted(gens), "cap": cap},
            claim=f"minimal model with {len(gens)} odd generators: cat = {len(gens)}")
        cat.merge_lower(len(gens), True)
        cat.merge_upper(len(gens), True)
        cat.certificates.append(cert)

    # nil of the positive part of the input algebra bounds cat above; the
    # bound is absolute only from a window that reaches the certified top
    if htop is not None and htop <= A.cap:
        pgens = [A.gen(g.name) for g in A.generators]
        nilA, _ = IdealPowers(PresentationView(A, htop), pgens).nil()
        cert = Certificate(
            "kernel-power-vanishes",
            {"construction": "input-augmentation", "cdga": label},
            {"m": nilA, "hi": htop, "generators": [str(g) for g in pgens]},
            claim=f"the positive part of the input satisfies (A+)^{nilA + 1} = 0")
        cat.merge_upper(nilA, True, cert,
                        note=f"nil of the input positive part is {nilA}")

    rep.settle()
    return CatReport(A, model_res, hi, cup, rep.h_bound, rep.m_bound, cat,
                     rep, notes + rep.notes)


def toomer(A: Presentation, cap: int | None = None, *, label: str = "A") -> Bound:
    """Least m with H injecting into the homology of the length-m quotient."""
    return cat_bounds(A, cap, with_m=False, label=label).toomer


# ---------------------------------------------------------------------------
# diagonal specialization: htc / mtc / tc


@dataclass
class TCReport:
    presentation: Presentation
    n: int
    cap: int
    hi: int
    diagonal: DiagonalModel
    surjection: SurjectionReport
    htc: Bound
    mtc: Bound | None
    tc: Bound
    notes: list = field(default_factory=list)

    def bounds(self):
        return self.surjection.bounds()


def tc_bounds(A: Presentation, n: int = 2, cap: int | None = None, *,
              with_m: bool = True, label: str = "A") -> TCReport:
    """Topological-complexity style bounds through a diagonal surjection."""
    if A.d_unknown:
        raise CdgaError("the input has generators with unrepresentable "
                        "differentials; raise the cap first")
    htop = A.top_degree_if_finite()
    maxgen = max((g.degree for g in A.generators), default=1)
    if cap is None:
        cap = n * htop + maxgen + 1 if htop is not None else A.cap
    dm = diagonal_model(A, n, cap)
    ctx = {"construction": "diagonal", "cdga": label, "n": n, "cap": cap}

    pd_space = None
    if htop is not None and htop <= (A.cap if A.is_free else A.cap - 1):
        pd_space = (homology(A, 0, htop), htop, label)

    suffix = "" if n == 2 else str(n)
    rep = surjection_bounds(dm.morphism, kernel_gens=dm.kernel_generators,
                            kernel_complete=True, context=ctx,
                            pedigree=dm.pedigree, with_m=with_m,
                            pd_space=pd_space,
                            content_top=n * htop if htop is not None else None,
                            names=(f"htc{suffix}", f"mtc{suffix}", f"tc{suffix}"))
    tc = rep.map_bound
    notes = list(dm.notes)
    if not A.simply_connected:
        notes.append("the input is not flagged simply connected: verdicts "
                     "describe the model built from this presentation")

    # when the diagonal went through a substituted model, the plain
    # multiplication surjection of the input can still certify an absolute
    # upper bound: its source is finite whenever the input is
    if dm.pedigree != "diagonal-tensor" and htop is not None:
        mcap = n * htop + maxgen + 1
        mult = multiplication_morphism(A, n, cap=mcap)
        T = mult.power.pres
        ttop = T.top_degree_if_finite()
        if ttop is not None:
            mview = min(T.cap, ttop + 1)
            kg = kernel_ideal_generators(mult.morphism, mview,
                                         {g.degree for g in A.generators})
            nil_mult, _ = IdealPowers(PresentationView(T, mview), kg).nil()
            mctx = {"construction": "multiplication", "cdga": label,
                    "n": n, "cap": mcap}
            cert = Certificate(
                "kernel-power-vanishes", mctx,
                {"m": nil_mult, "hi": mview,
                 "generators": [str(g) for g in kg]},
                claim=f"(ker mult)^{nil_mult + 1} = 0 with certified top degree {ttop}")
            tc.merge_upper(nil_mult, True, cert,
                           note=f"multiplication kernel has nil {nil_mult}")

    rep.settle()
    return TCReport(A, n, cap, rep.hi, dm, rep, rep.h_bound, rep.m_bound, tc,
                    notes + rep.notes)


# ---------------------------------------------------------------------------
# certificate verification


# the context fields each construction reads and the data fields each kind
# reads, as name:type with JSON-shaped types; a trailing "?" marks an
# optional field
_CONTEXT_FIELDS = {
    "morphism": "morphism:str", "diagonal": "cdga:str n:int cap:int",
    "augmentation": "cdga:str cap:int", "input-augmentation": "cdga:str",
    "multiplication": "cdga:str n:int cap:int?",
    "presentation": "cdga:str", "relative-split": "cdga:str base:[str]"}
_SURJECTIONS = ("morphism", "diagonal", "augmentation", "input-augmentation",
                "multiplication")
_DATA_FIELDS = {
    "nil-witness": "level:int hi:int view:str? generators:[str] factors:[int]",
    "rho-noninjectivity-witness":
        "m:int degree:int witness:str kernel_generators:[str]?",
    "rho-injectivity-range": "m:int hi:int",
    "kernel-power-vanishes": "m:int hi:int generators:[str]",
    "acyclic-ideal-containment": "hi:int generators:[str] contained:[str]?",
    "odd-generated": "cap:int generators:[[str,int]]",
    "module-retraction": "m:int E:int values:{str:str}",
    "relative-split": "E:int values:{str:str}",
    "pd-collapse": "top:int"}


def _has_type(v, typ: str) -> bool:
    if typ == "int":
        return type(v) is int            # a JSON integer: no float, no bool
    if typ == "str":
        return isinstance(v, str)
    if typ == "{str:str}":
        return isinstance(v, dict) and all(
            isinstance(x, str) for x in [*v, *v.values()])
    if typ == "[str,int]":               # a tuple when built in Python
        return (isinstance(v, (list, tuple)) and len(v) == 2
                and _has_type(v[0], "str") and _has_type(v[1], "int"))
    return isinstance(v, list) and all(_has_type(x, typ[1:-1]) for x in v)


def _check_payload(cert: Certificate, presentations: dict, morphisms: dict):
    """Step 1: type-check every field the kind reads, then look up its names."""
    kind, ctx = cert.kind, cert.context
    c = ctx.get("construction")
    if kind not in CERT_KINDS:
        raise CdgaError(f"unknown certificate kind {kind!r}")
    if kind == "module-retraction" and c == "relative-split":
        kind = c
    elif kind in ("acyclic-ideal-containment", "odd-generated", "pd-collapse") \
            or (kind == "nil-witness" and c == "presentation"):
        c = "presentation"
    elif c not in _SURJECTIONS:
        raise CdgaError(f"unknown certificate construction {c!r}")
    for part, obj, spec in (("context", ctx, _CONTEXT_FIELDS[c]),
                            ("data", cert.data, _DATA_FIELDS[kind])):
        for key, _, typ in (f.partition(":") for f in spec.split()):
            if key not in obj:
                if not typ.endswith("?"):
                    raise CdgaError(f"certificate {part} field {key!r} is missing")
            elif not _has_type(obj[key], typ.rstrip("?")):
                raise CdgaError(f"certificate {part} field {key!r} must be "
                                f"{typ.rstrip('?')}")
    if c == "morphism":
        _ctx_surjection(ctx, presentations, morphisms)      # a lookup only
    else:
        _ctx_presentation(ctx, presentations)


def _constant(node):
    """The value of an expression tree that names no generator, else None.
    The other node kinds (neg, add, sub, mul, pow) are `operator` names."""
    if node[0] in ("num", "gen"):
        return node[1] if node[0] == "num" else None
    args = [_constant(a) if isinstance(a, tuple) else a for a in node[1:]]
    return None if None in args else getattr(operator, node[0])(*args)


def _data_rejection(kind: str, data: dict):
    """Step 2: the rebuild's (False, detail) for a fault in the data alone."""
    if kind == "nil-witness":
        factors, level = data["factors"], data["level"]
        if len(factors) != level:
            return False, f"witness has {len(factors)} factors, claim says {level}"
        if any(i < 0 or i >= len(data["generators"]) for i in factors):
            return False, "witness factor index out of range"
    if kind == "module-retraction" and UNIT in data["values"]:
        if _constant(parse_expression(data["values"][UNIT])) not in (None, 1):
            return False, "retraction equations fail at 1: unit is not sent to 1"
    if kind == "rho-noninjectivity-witness" and data["degree"] >= 1:
        if _constant(parse_expression(data["witness"])) is not None:
            return False, f"witness is not homogeneous of degree {data['degree']}"
    return None


def _ctx_presentation(ctx: dict, presentations: dict) -> Presentation:
    name = ctx.get("cdga")
    if name not in presentations:
        raise CdgaError(f"certificate context needs cdga {name!r}, "
                        f"which the document does not define")
    return presentations[name]


def _ctx_surjection(ctx: dict, presentations: dict, morphisms: dict):
    """(phi, pedigreed kernel generators or None) from a context recipe."""
    c = ctx.get("construction")
    if c == "morphism":
        name = ctx.get("morphism")
        if not morphisms or name not in morphisms:
            raise CdgaError(f"certificate context needs morphism {name!r}")
        return morphisms[name], None
    P = _ctx_presentation(ctx, presentations)
    if c == "diagonal":
        dm = diagonal_model(P, ctx["n"], ctx["cap"])
        return dm.morphism, dm.kernel_generators
    if c == "augmentation":
        M = sullivan_model_of(P, ctx["cap"]).model
        return augmentation_morphism(M), [M.gen(g.name) for g in M.generators]
    if c == "input-augmentation":
        return augmentation_morphism(P), [P.gen(g.name) for g in P.generators]
    if c == "multiplication":
        mult = multiplication_morphism(P, ctx["n"], cap=ctx.get("cap"))
        return mult.morphism, None
    raise CdgaError(f"unknown certificate construction {c!r}")


def _split_module(total: Presentation, base_names, cap: int):
    """Semifree module over the named base for a relation-free total."""
    if not total.is_free:
        raise CdgaError("relative splits need a relation-free total")
    base_set = set(base_names)
    hat_names = [g.name for g in total.generators if g.name not in base_set]
    base, _ = sub_presentation(total, base_names)
    module = semifree_from_relative(total, base_names, hat_names, base, cap=cap)
    return module, base


def split_retraction_certificate(label: str, total: Presentation, base_names,
                                 E: int):
    """Certificate that (base ox Lambda(rest), D) retracts onto base below E.

    Returns None when the retraction equations are infeasible in range.
    """
    module, base = _split_module(total, list(base_names),
                                 min(total.cap, E + 1))
    ret = find_module_retraction(module, E)
    if ret is None:
        return None
    check = verify_module_retraction(module, ret.values, E)
    if check is not None:
        raise CdgaError(f"retraction failed its re-check: {check}")
    return Certificate(
        "module-retraction",
        {"construction": "relative-split", "cdga": label,
         "base": sorted(base_names)},
        {"E": E, "values": {g: str(v) for g, v in sorted(ret.values.items())}},
        claim=("the relative extension retracts onto its base "
               f"up to degree {E}"))


def _parse_over(exprs, pres: Presentation):
    return [parse_element(e, pres) for e in exprs]


def _checked_kernel_gens(phi: CdgaMorphism, exprs) -> list[AlgebraElement]:
    gens = _parse_over(exprs, phi.source)
    for g, e in zip(gens, exprs):
        if phi.apply(g).terms:
            raise CdgaError(f"claimed kernel generator {e!r} does not map to zero")
    return gens


def _first_outside(powers: IdealPowers, listed, needed):
    """The lowest degree of an element of `needed` outside the ideal that
    `powers` spans from the `listed` generators, or None.

    An element listed word for word is in the ideal with no elimination;
    the others need the level-1 span echelon of their degree.
    """
    words = {frozenset(g.terms.items()) for g in listed}
    for g in sorted(needed, key=lambda g: g.degree()):
        if frozenset(g.terms.items()) in words:
            continue
        d = g.degree()
        if not powers.contains(1, g, d):
            return d
    return None


def _kernel_power(phi: CdgaMorphism, listed, pedigreed, m: int, view_hi: int):
    """Spanning elements of (ker phi)^(m+1) in degrees <= view_hi.

    The kernel generators are the `listed` expressions, checked to map to
    zero, else the pedigreed ones, else those derived up to view_hi.  Only a
    lower-bound claim may pass `listed`: listed elements need not generate
    the whole kernel, and a smaller ideal only makes such a claim harder.
    """
    if listed is not None:
        kgens = _checked_kernel_gens(phi, listed)
    elif pedigreed is not None:
        kgens = pedigreed
    else:
        kgens = kernel_ideal_generators(phi, view_hi)
    powers = IdealPowers(PresentationView(phi.source, view_hi), kgens)
    return [p.element for p in powers.level(m + 1)]


def verify_certificate(cert: Certificate, presentations: dict,
                       morphisms: dict | None = None):
    """Re-check a certificate from scratch; returns (accepted, detail).

    Checks run in cost order.  (1) Every context and data field the kind
    reads is type-checked (integers must be JSON integers) and its cdga or
    morphism looked up: a missing or ill-typed field or an unknown name
    raises CdgaError.  (2) A fault in the data alone returns (False, detail)
    before anything is rebuilt: a nil-witness factor count or index, a
    retraction unit set to a constant other than 1, a rho witness of positive
    degree naming no generator.  (3) The construction is rebuilt and the
    claim re-checked.  With several faults the earliest step wins, so a data
    rejection is returned even where the rebuild would raise.
    """
    morphisms = morphisms or {}
    _check_payload(cert, presentations, morphisms)
    return (_data_rejection(cert.kind, cert.data)
            or _verify_rebuilt(cert, presentations, morphisms))


def _verify_rebuilt(cert: Certificate, presentations: dict, morphisms: dict):
    """Step 3 of `verify_certificate` alone: rebuild, then re-check."""
    kind, ctx, data = cert.kind, cert.context, cert.data

    if kind == "nil-witness":
        level, hi = data["level"], data["hi"]
        viewname = data.get("view", "homology")
        if ctx.get("construction") == "presentation":
            P = _ctx_presentation(ctx, presentations)
            gens = _parse_over(data["generators"], P)
        else:
            phi, _ = _ctx_surjection(ctx, presentations, morphisms)
            P = phi.source
            gens = _checked_kernel_gens(phi, data["generators"])
        factors = data["factors"]
        if len(factors) != level:
            return False, f"witness has {len(factors)} factors, claim says {level}"
        if any(i < 0 or i >= len(gens) for i in factors):
            return False, "witness factor index out of range"
        if viewname == "homology":
            H = homology(P, 0, hi)
            view = HomologyView(H)
            for i, g in enumerate(gens):
                if g.d().terms:
                    return False, f"generator {i} is not a cycle"
            prod = view.one()
            for i in factors:
                prod = view.mul(prod, gens[i])
                if not prod.terms:
                    return False, "witness product vanishes in homology"
            deg = prod.degree()
            if deg is None or deg > hi or H.is_zero_class(prod, deg):
                return False, "witness product is a zero class"
            return True, f"{level}-fold product is a nonzero class in degree {deg}"
        prod = P.one()
        for i in factors:
            prod = prod * gens[i]
            if not prod.terms:
                return False, "witness product vanishes"
        return True, f"{level}-fold product is nonzero in degree {prod.degree()}"

    if kind == "rho-noninjectivity-witness":
        m, deg = data["m"], data["degree"]
        phi, pedigreed = _ctx_surjection(ctx, presentations, morphisms)
        S = phi.source
        if deg + 1 > S.cap:
            raise RangeExceedsCap("witness degree does not fit under the cap")
        z = parse_element(data["witness"], S)
        if not z.terms or z.degree() != deg:
            return False, f"witness is not homogeneous of degree {deg}"
        if z.d().terms:
            return False, "witness is not a cycle"
        if homology(S, deg, deg).is_zero_class(z, deg):
            return False, "witness class is zero before passing to the quotient"
        elements = _kernel_power(phi, data.get("kernel_generators"),
                                 pedigreed, m, deg + 1)
        Q, proj = quotient_by_ideal(S, elements)
        if not homology(Q, deg, deg).is_zero_class(proj.apply(z), deg):
            return False, "witness class survives in the quotient"
        return True, (f"nonzero degree-{deg} class dies in the level-{m} "
                      f"quotient: h-invariant >= {m + 1}")

    if kind == "rho-injectivity-range":
        m, hi = data["m"], data["hi"]
        phi, pedigreed = _ctx_surjection(ctx, presentations, morphisms)
        S = phi.source
        elements = _kernel_power(phi, None, pedigreed, m, min(S.cap, hi + 1))
        Q, proj = quotient_by_ideal(S, elements)
        fail = _injectivity_failure(proj, homology(S, 0, hi),
                                    homology(Q, 0, hi), 1, hi)
        if fail is not None:
            return False, f"injectivity fails in degree {fail[0]}"
        return True, f"injective in degrees <= {hi}: h-invariant <= {m}"

    if kind == "kernel-power-vanishes":
        m, hi = data["m"], data["hi"]
        phi, pedigreed = _ctx_surjection(ctx, presentations, morphisms)
        S = phi.source
        view = min(S.cap, hi)
        kgens = _checked_kernel_gens(phi, data["generators"])
        powers = IdealPowers(PresentationView(S, view), kgens)
        if powers.level(m + 1):
            w = powers.level(m + 1)[0]
            return False, (f"a nonzero {m + 1}-fold product exists "
                           f"in degree {w.degree}")
        htop = S.top_degree_if_finite()
        absolute = htop is not None and htop <= hi
        # a smaller ideal has smaller powers, so the listed generators must
        # generate the kernel in the window: the pedigreed generators there,
        # or those derived as the producer derived them
        if pedigreed is not None:
            needed = [g for g in pedigreed if g.terms and g.degree() <= view]
        else:
            needed = kernel_ideal_generators(phi, min(S.cap, htop) if absolute
                                             else view)
        missing = _first_outside(powers, kgens, needed)
        if missing is not None:
            return False, (f"listed generators miss a kernel element "
                           f"in degree {missing}")
        if not absolute:
            return True, (f"accepted within degrees <= {hi}; no certified top "
                          "degree, so the bound stays range-qualified")
        return True, f"the kernel power vanishes absolutely (top degree {htop})"

    if kind == "acyclic-ideal-containment":
        hi = data["hi"]
        P = _ctx_presentation(ctx, presentations)
        gens = _parse_over(data["generators"], P)
        powers = IdealPowers(PresentationView(P, min(P.cap, hi + 1)), gens)
        for i, g in enumerate(gens):
            dg = g.d()
            if dg.terms and not powers.contains(1, dg, dg.degree()):
                return False, f"the ideal is not d-stable: d(generator {i}) escapes"
        spans = {d: powers.span_echelon(1, d) for d in range(0, hi + 2)}
        betti = span_complex_homology(P, spans, 1, hi)
        bad = {d: b for d, b in betti.items() if b}
        if bad:
            return False, f"the ideal is not acyclic: homology {bad}"
        for e in data.get("contained", []):
            el = parse_element(e, P)
            if el.terms and not powers.contains(1, el, el.degree()):
                return False, f"claimed member {e!r} is not in the ideal"
        return True, f"d-stable ideal, acyclic in degrees <= {hi}"

    if kind == "odd-generated":
        P = _ctx_presentation(ctx, presentations)
        M = sullivan_model_of(P, data["cap"]).model
        census = sorted((g.name, g.degree) for g in M.generators)
        claimed = sorted(map(tuple, data["generators"]))
        if census != claimed:
            return False, f"model generators {census} do not match the claim"
        if not census or not all(d % 2 for _, d in census):
            return False, "the model has even-degree generators"
        if not M.is_minimal_sullivan:
            return False, "the model is not minimal"
        return True, f"minimal model with {len(census)} odd generators: cat = {len(census)}"

    if kind == "module-retraction":
        E = data["E"]
        if ctx.get("construction") == "relative-split":
            total = _ctx_presentation(ctx, presentations)
            module, base = _split_module(total, ctx["base"],
                                         min(total.cap, E + 1))
            done = f"the relative extension retracts onto its base up to degree {E}"
        else:
            phi, pedigreed = _ctx_surjection(ctx, presentations, morphisms)
            base, m = phi.source, data["m"]
            elements = _kernel_power(phi, None, pedigreed, m, min(base.cap, E + 1))
            module = resolve_quotient(base, elements, E).module
            done = f"retraction verified up to degree {E}: m-invariant <= {m}"
        values = {g: parse_element(e, base) for g, e in data["values"].items()}
        values.setdefault(UNIT, base.one())
        check = verify_module_retraction(module, values, E)
        if check is not None:
            return False, f"retraction equations fail at {check[0]}: {check[1]}"
        return True, done

    if kind == "pd-collapse":
        top = data["top"]
        P = _ctx_presentation(ctx, presentations)
        htop = P.top_degree_if_finite()
        if htop is None:
            return False, "no certified top degree, duality cannot be absolute"
        if top > htop:
            return False, f"claimed top {top} exceeds the certified top {htop}"
        H = homology(P, 0, min(htop, P.cap if P.is_free else P.cap - 1))
        for d in range(top + 1, H.hi + 1):
            if H.betti(d):
                return False, f"homology does not vanish above {top} (degree {d})"
        dual = poincare_duality_check(H, top)
        if not dual.satisfied:
            return False, f"duality fails: {dual.reason}"
        return True, f"duality pairing nondegenerate with top degree {top}"

    raise CdgaError(f"unknown certificate kind {kind!r}")
