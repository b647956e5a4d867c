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
the claim independently.  Each surjection is a `construct.Surjection` value
built from its recipe by `surjection_of`: the pipelines, which write the
recipes, and the verifier, which reads them, build it the same way, and the
value carries its recipe, so `surjection_bounds` reads the window, the space
and the names of the chain's ends off it.
"""

from __future__ import annotations

import json
import operator
from typing import NamedTuple

from .core import (AlgebraElement, CdgaError, CdgaMorphism, IdealNotClosed,
                   NotSurjective, Presentation, RangeExceedsCap,
                   quotient_by_ideal, sub_presentation)
from .homology import (HomologyReport, HomologyView, IdealPowers,
                       NilpotencyResult, PresentationView, homology,
                       ideal_generators, induced_kernel,
                       kernel_ideal_generators, nil_ideal,
                       poincare_duality_check, quotient_kernel)
from .linalg import Echelon, solve_combo
from .construct import (Surjection, diagonal_model, multiplication_morphism,
                        sullivan_model_of)
from .semifree import (UNIT, resolve_and_retract, resolve_quotient,
                       semifree_from_relative, verify_module_retraction)
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


class Certificate(NamedTuple):
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


class Bound:
    """An interval verdict; merge_* only ever tightens it and refuses a cross."""

    __slots__ = ("name", "lower", "upper", "lower_absolute", "upper_absolute",
                 "verified_up_to", "certificates", "notes")

    def __init__(self, name: str, lower: int | None = None,
                 upper: int | None = None, lower_absolute: bool = False,
                 upper_absolute: bool = False,
                 verified_up_to: int | None = None):
        self.name = name
        self.lower = lower
        self.upper = upper
        self.lower_absolute = lower_absolute
        self.upper_absolute = upper_absolute
        self.verified_up_to = verified_up_to
        self.certificates: list[Certificate] = []
        self.notes: list[str] = []

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


def _injectivity_failure(H_S: HomologyReport, powers: IdealPowers, m: int,
                         hi: int):
    """(degree, nonzero class of H(S) that dies in H(S/I^{m+1})), or None
    when H(S) -> H(S/I^{m+1}) is injective in degrees 1..hi; I is the ideal
    of `powers`, and no quotient is built (see quotient_kernel)."""
    for d in range(1, hi + 1):
        if H_S.betti(d):
            kernel = quotient_kernel(H_S, powers.span_echelon(m + 1, d), d)
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
    """Cycles generating ker H(phi) in degrees <= hi as an ideal of H(source),
    each adjusted into ker phi."""
    gens = ideal_generators(HomologyView(H_src), range(1, hi + 1),
                            lambda d: induced_kernel(phi, H_src, H_tgt, d))
    return [_into_kernel(phi, z, z.degree()) for z in gens]


# ---------------------------------------------------------------------------
# the surjection engine


class SurjectionReport(NamedTuple):
    morphism: CdgaMorphism
    hi: int                              # degrees the verdicts were checked in
    h_bound: Bound
    m_bound: Bound | None
    map_bound: Bound
    nil_kernel_h: NilpotencyResult       # nil ker H(phi) in degrees <= hi
    nil_kernel: int
    notes: list

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


def _vanishing_power(surjection: Surjection, hi: int, claim,
                     witness_at: int | None = None):
    """(m, powers, certificate): the least m with no nonzero (m+1)-fold
    product of the surjection's kernel generators in degrees <= hi of its
    source, the powers of their ideal there, and the kernel-power-vanishes
    certificate of its recipe, whose claim is claim(m).

    `witness_at` is a level k that a theorem bounds the nil by: a nonzero
    product of k generators, when IdealPowers.reaches finds one, fixes m = k
    with no level of the powers built.
    """
    gens = surjection.kernel_generators
    powers = IdealPowers(PresentationView(surjection.morphism.source, hi), gens)
    if witness_at is not None and powers.reaches(witness_at):
        m = witness_at
    else:
        m = powers.nil()[0]
    return m, powers, Certificate(
        "kernel-power-vanishes", surjection.context,
        {"m": m, "hi": hi, "generators": [str(g) for g in gens]}, claim=claim(m))


# the names of the chain's ends h <= m <= map, by construction
_CHAIN_NAMES = {"augmentation": ("toomer", "mcat", "cat"),
                "diagonal": ("htc", "mtc", "tc")}


def _chain_names(ctx: dict) -> tuple[str, ...]:
    """The names of the ends of the chain a recipe builds; a diagonal's
    carry its n when n is not 2."""
    c = ctx.get("construction")
    suffix = str(ctx["n"]) if c == "diagonal" and ctx["n"] != 2 else ""
    return tuple(name + suffix for name in _CHAIN_NAMES.get(
        c, ("h-invariant", "m-invariant", "sectional")))


def surjection_bounds(surjection: Surjection, *, with_m: bool = True,
                      settled_upper: tuple[int, Certificate] | None = None
                      ) -> SurjectionReport:
    """Run the full chain of bounds for a degree-wise surjection.

    `surjection` is a construct.Surjection; without a recipe it is read as
    an unnamed morphism.  Its kernel generators must generate the kernel as
    an ideal when named; else they are derived degree by degree, which is
    complete exactly when the source has a certified top degree inside the
    range.  Its recipe names the three ends of the chain h <= m <= map in
    the report (`_chain_names`).

    The window is hi = min(cap, S.cap - 1, B.homology_hi) for the source S
    and target B, where cap is the recipe's cap when it has one: the degree
    up to which its construction is valid.

    The surjection's `space` is the cdga it is about, or None.  When that
    cdga has a certified top degree t, H(S) vanishes absolutely above n * t,
    n the recipe's n (1 when it has none), since H(S) is H(space)^{ox n}.
    When n * t sits inside the window, injectivity verdicts extend to all
    degrees: the quotient complexes in degrees <= hi are insensitive to
    generators above hi, and above n * t the source homology is zero.  When
    the m-loop runs and t lies inside the space's faithful range, its
    homology is built up to t; a nondegenerate duality pairing there
    collapses the m-invariant onto the h-invariant.

    `settled_upper` is an optional (value, certificate) pair: an absolute
    upper end of the map bound that needs no m-search.  The m-loop settles
    before solving: once its lower end is absolute and reaches that value,
    the chain m <= map fixes the m-invariant there, so the value becomes its
    absolute upper end and no further level is built.

    Level m is the quotient S/I^{m+1}.  The h-loop tries levels upward from
    nil ker H(phi) and stops at the h-invariant's upper end.  It builds no
    quotient: quotient_kernel decides each degree where H(S) is nonzero
    from the span of I^{m+1} there.  The m-loop starts at the h-loop's last
    level and builds S/I^{m+1}, with its homology in degrees <= hi, only
    for the levels it resolves.
    """
    phi = surjection.morphism
    S, B = phi.source, phi.target
    ctx = surjection.context or {"construction": "morphism"}
    names = _chain_names(ctx)
    hi = min(ctx.get("cap", S.cap), S.cap - 1, B.homology_hi)
    bad = phi.is_surjective_up_to(hi)
    if bad is not None:
        raise NotSurjective(f"morphism {phi.name or '?'} is not surjective "
                            f"in degree {bad}", degree=bad)

    htop = S.top_degree_if_finite()
    view_hi = hi + 1
    kernel_gens = surjection.kernel_generators
    if kernel_gens is None:
        kernel_gens = kernel_ideal_generators(phi, view_hi)
    surjection = surjection._replace(kernel_generators=kernel_gens, context=ctx)
    X = surjection.space
    top = X.top_degree_if_finite() if X is not None else None
    finite_range = (htop is not None and htop <= hi) or \
                   (top is not None and ctx.get("n", 1) * top <= hi)

    notes = []
    if surjection.pedigree:
        notes.append(f"pedigree: {surjection.pedigree}")
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
    nil_h = nil_ideal(HomologyView(H_S), kclasses)
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
    nil_k, powers, cert = _vanishing_power(
        surjection, view_hi,
        lambda m: f"(ker phi)^{m + 1} = 0, so the sectional invariant is <= {m}")
    # the generators are complete: named, or derived through a certified top
    kernel_absolute = htop is not None and htop <= view_hi
    map_bound.merge_upper(
        nil_k, kernel_absolute, cert,
        note=f"(ker phi)^{nil_k + 1} = 0 with certified top degree {htop}"
        if kernel_absolute else
        f"(ker phi)^{nil_k + 1} has no nonzero part in degrees <= {view_hi}")

    # h-invariant: least m with H(S) -> H(S / I^{m+1}) injective on the range
    m = h_bound.lower or 0
    while True:
        fail = _injectivity_failure(H_S, powers, m, hi)
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
            if (settled_upper is not None and m_bound.lower_absolute
                    and m_bound.lower >= settled_upper[0]):
                value, cert = settled_upper
                m_bound.merge_upper(
                    value, True, cert,
                    note=f"settled before solving level {mm}: {names[1]} <= "
                         f"{names[2]} <= {value} meets its absolute lower end")
                break
            module, ret = resolve_and_retract(
                S, [p.element for p in powers.level(mm + 1)], E)
            if ret is not None:
                check = verify_module_retraction(module, ret.values, E)
                if check is not None:
                    raise CdgaError(f"retraction failed its re-check: {check}")
                cert = Certificate(
                    "module-retraction", ctx,
                    {"m": mm, "E": E,
                     "values": {g: str(v) for g, v in sorted(ret.values.items())}},
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
    if X is not None and with_m:
        if (top is not None and top <= X.homology_hi
                and poincare_duality_check(homology(X, 0, top), top).satisfied):
            cert = Certificate(
                "pd-collapse", {"construction": "presentation", "cdga": ctx["cdga"]},
                {"top": top},
                claim="the duality pairing is nondegenerate, so the "
                      "m-invariant equals the h-invariant")
            m_bound.merge_upper(h_bound.upper, h_bound.upper_absolute, cert,
                                note="duality collapse")
            h_bound.merge_lower(m_bound.lower, m_bound.lower_absolute,
                                note="duality collapse")

    report = SurjectionReport(phi, hi, h_bound, m_bound, map_bound, nil_h,
                              nil_k, notes)
    report.settle(with_notes=True)
    return report


# ---------------------------------------------------------------------------
# augmentation specialization: toomer / mcat / cat


class CatReport(NamedTuple):
    hi: int
    cup: NilpotencyResult
    toomer: Bound
    mcat: Bound | None
    cat: Bound
    surjection: SurjectionReport
    notes: list

    def bounds(self):
        return self.surjection.bounds()


# the note of cat_bounds and tc_bounds on an input with degree-1 generators
_NOT_SIMPLY_CONNECTED = ("the input is not flagged simply connected: verdicts "
                         "describe the model built from this presentation")


def _input_nil(A: Presentation, htop: int, label: str) -> tuple[int, Certificate]:
    """nil(A+), from the window up to A's certified top degree `htop`, and
    its certificate: A+ is the kernel of the input's augmentation."""
    aug = surjection_of({"construction": "input-augmentation", "cdga": label},
                        {label: A}, {})
    m, _, cert = _vanishing_power(
        aug, htop,
        lambda m: f"the positive part of the input satisfies (A+)^{m + 1} = 0")
    return m, cert


def cat_bounds(A: Presentation, *, with_m: bool = True,
               label: str = "A") -> CatReport:
    """Category-style bounds through the augmentation of a minimal model."""
    cap = A.homology_hi
    ctx = {"construction": "augmentation", "cdga": label, "cap": cap}
    aug = surjection_of(ctx, {label: A}, {})
    M = aug.morphism.source
    htop = A.top_degree_if_finite()
    notes = []
    if not A.simply_connected:
        notes.append(_NOT_SIMPLY_CONNECTED)
    if not any(A._diff_raw.values()):
        notes.append("the differential is zero, so homology equals the "
                     "algebra and the bounds meet when the range suffices")

    # nil of the positive part of the input algebra bounds cat above; the
    # bound is absolute only from a window that reaches the certified top,
    # and then it also settles mcat before the m-loop solves past it
    input_nil = (_input_nil(A, htop, label)
                 if htop is not None and htop <= A.cap else None)

    rep = surjection_bounds(aug, with_m=with_m, settled_upper=input_nil)
    cat = rep.map_bound

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

    if input_nil is not None:
        nilA, cert = input_nil
        cat.merge_upper(nilA, True, cert,
                        note=f"nil of the input positive part is {nilA}")

    rep.settle()
    # cup length: nil of the positive part of H(M) in degrees <= hi.  The
    # report's nil ker H(aug) is exactly that: ker H(aug) is all of H+(M).
    # It already lifted, absolute, along the chain to cat.
    return CatReport(rep.hi, rep.nil_kernel_h, rep.h_bound, rep.m_bound, cat,
                     rep, notes + rep.notes)


# ---------------------------------------------------------------------------
# diagonal specialization: htc / mtc / tc


class TCReport(NamedTuple):
    n: int
    cap: int
    hi: int
    diagonal: Surjection
    surjection: SurjectionReport
    htc: Bound
    mtc: Bound | None
    tc: Bound
    notes: list

    def bounds(self):
        return self.surjection.bounds()


def tc_bounds(A: Presentation, n: int = 2, *, with_m: bool = True,
              label: str = "A") -> TCReport:
    """Topological-complexity style bounds through a diagonal surjection."""
    if A.d_unknown:
        raise CdgaError("the input has generators with unrepresentable "
                        "differentials; raise the cap first")
    htop = A.top_degree_if_finite()
    maxgen = max((g.degree for g in A.generators), default=1)
    cap = n * htop + maxgen + 1 if htop is not None else A.cap
    ctx = {"construction": "diagonal", "cdga": label, "n": n, "cap": cap}
    dm = surjection_of(ctx, {label: A}, {})
    rep = surjection_bounds(dm, with_m=with_m)
    tc = rep.map_bound
    notes = list(dm.notes)
    if not A.simply_connected:
        notes.append(_NOT_SIMPLY_CONNECTED)

    # when the diagonal went through a substituted model, the plain
    # multiplication surjection of the input can still certify an absolute
    # upper bound: its source is finite whenever the input is
    if dm.pedigree != "diagonal-tensor" and htop is not None:
        mult = surjection_of({"construction": "multiplication", "cdga": label,
                              "n": n, "cap": cap}, {label: A}, {})
        T = mult.morphism.source
        ttop = T.top_degree_if_finite()
        if ttop is not None:
            # ker mu lies in the augmentation ideal, so (ker mu)^k lies in
            # the sum of the (A+)^{i_1} ox ... ox (A+)^{i_n} with
            # i_1 + ... + i_n >= k, which is 0 for k > n.nil(A+): a nonzero
            # product of n.nil(A+) generators fixes the nil with no level built
            k = n * _input_nil(A, htop, label)[0] if htop <= A.cap else None
            nil_mult, _, cert = _vanishing_power(
                mult, min(T.cap, ttop + 1),
                lambda m: f"(ker mult)^{m + 1} = 0 with certified top degree {ttop}",
                witness_at=k)
            tc.merge_upper(nil_mult, True, cert,
                           note=f"multiplication kernel has nil {nil_mult}")

    rep.settle()
    return TCReport(n, cap, rep.hi, dm, rep, rep.h_bound, rep.m_bound, tc,
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
    elif kind in ("acyclic-ideal-containment", "odd-generated", "pd-collapse"):
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
        surjection_of(ctx, presentations, morphisms)      # a lookup only
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


def surjection_of(context: dict, presentations: dict,
                  morphisms: dict) -> Surjection:
    """The surjection a context recipe builds, as a construct.Surjection
    that carries the recipe: the one construction path of the pipelines and
    the verifier."""
    c = context.get("construction")
    if c == "morphism":
        name = context.get("morphism")
        if not morphisms or name not in morphisms:
            raise CdgaError(f"certificate context needs morphism {name!r}")
        return Surjection(morphisms[name], context=context)
    P = _ctx_presentation(context, presentations)
    if c == "diagonal":
        return diagonal_model(P, context["n"], context["cap"])._replace(
            context=context, space=P)
    if c == "augmentation":
        M = sullivan_model_of(P, context["cap"]).model
        return Surjection(augmentation_morphism(M),
                          [M.gen(g.name) for g in M.generators], "augmentation",
                          context, P)
    if c == "input-augmentation":
        return Surjection(augmentation_morphism(P),
                          [P.gen(g.name) for g in P.generators], context=context)
    if c == "multiplication":
        mult = multiplication_morphism(P, context["n"], cap=context.get("cap"))
        return mult._replace(context=context)
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


def _kernel_powers(surjection, listed, m: int, view_hi: int) -> IdealPowers:
    """Powers of the kernel ideal in degrees <= view_hi, with the spanning
    products of (ker phi)^(m+1) built.

    The kernel generators are the `listed` expressions, checked to map to
    zero, else those the construction names, else those derived up to
    view_hi.  Only a lower-bound claim may pass `listed`: listed elements
    need not generate the whole kernel, and a smaller ideal only makes such
    a claim harder.  Nor need they generate a d-stable ideal, and without
    one there is no quotient complex: as a quotient presentation checks its
    relations, d of each spanning product must lie in the power's span one
    degree up, unless that degree is above the cap.  (A generator whose d is
    unknown lies above cap - 1, so a product that holds one is skipped as
    well.)  A power of ker phi itself is d-stable.
    """
    phi = surjection.morphism
    S = phi.source
    if listed is not None:
        kgens = _checked_kernel_gens(phi, listed)
    elif surjection.kernel_generators is not None:
        kgens = surjection.kernel_generators
    else:
        kgens = kernel_ideal_generators(phi, view_hi)
    powers = IdealPowers(PresentationView(S, view_hi), kgens)
    level = powers.level(m + 1)  # refuses m < 0 before any verdict
    if listed is None:
        return powers
    for p in level:
        if p.degree + 1 > S.cap:
            continue
        dp = p.element.d()
        if dp.terms and not powers.contains(m + 1, dp, p.degree + 1):
            raise IdealNotClosed("differential of a relation is not in the ideal")
    return powers


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
        phi = surjection_of(ctx, presentations, morphisms).morphism
        P = phi.source
        gens = _checked_kernel_gens(phi, data["generators"])
        factors = data["factors"]
        if len(factors) != level:
            return False, f"witness has {len(factors)} factors, claim says {level}"
        if any(i < 0 or i >= len(gens) for i in factors):
            return False, "witness factor index out of range"
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

    if kind == "rho-noninjectivity-witness":
        m, deg = data["m"], data["degree"]
        surj = surjection_of(ctx, presentations, morphisms)
        S = surj.morphism.source
        if deg + 1 > S.cap:
            raise RangeExceedsCap("witness degree does not fit under the cap")
        z = parse_element(data["witness"], S)
        if not z.terms or z.degree() != deg:
            return False, f"witness is not homogeneous of degree {deg}"
        if z.d().terms:
            return False, "witness is not a cycle"
        H = homology(S, deg, deg)
        if H.is_zero_class(z, deg):
            return False, "witness class is zero before passing to the quotient"
        powers = _kernel_powers(surj, data.get("kernel_generators"), m, deg + 1)
        dead = Echelon()
        for k in quotient_kernel(H, powers.span_echelon(m + 1, deg), deg):
            dead.add(H.class_coords(k, deg))
        if not dead.contains(H.class_coords(z, deg)):
            return False, "witness class survives in the quotient"
        return True, (f"nonzero degree-{deg} class dies in the level-{m} "
                      f"quotient: h-invariant >= {m + 1}")

    if kind == "rho-injectivity-range":
        m, hi = data["m"], data["hi"]
        surj = surjection_of(ctx, presentations, morphisms)
        S = surj.morphism.source
        powers = _kernel_powers(surj, None, m, min(S.cap, hi + 1))
        if hi + 1 > S.cap:  # the quotient's homology would be refused
            raise RangeExceedsCap(
                f"homology up to degree {hi} needs cap >= {hi + 1}, have {S.cap}")
        fail = _injectivity_failure(homology(S, 0, hi), powers, m, hi)
        if fail is not None:
            return False, f"injectivity fails in degree {fail[0]}"
        return True, f"injective in degrees <= {hi}: h-invariant <= {m}"

    if kind == "kernel-power-vanishes":
        m, hi = data["m"], data["hi"]
        surj = surjection_of(ctx, presentations, morphisms)
        phi = surj.morphism
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
        # generate the kernel in the window: the generators the construction
        # names there, or, for a morphism, those derived as the producer
        # derived them
        if surj.kernel_generators is not None:
            needed = [g for g in surj.kernel_generators
                      if g.terms and g.degree() <= view]
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
        # H(J) off the long exact sequence of J -> P -> P/J: dim H^d(J) is
        # dim ker(H^d P -> H^d(P/J)) + dim coker(H^{d-1} P -> H^{d-1}(P/J))
        H = homology(P, 0, hi)
        H_Q = homology(quotient_by_ideal(P, powers.generators)[0], 0, hi - 1)
        dead = [len(quotient_kernel(H, powers.span_echelon(1, d), d))
                for d in range(hi + 1)]
        betti = {d: dead[d] + H_Q.betti(d - 1) - H.betti(d - 1) + dead[d - 1]
                 for d in range(1, hi + 1)}
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
            surj = surjection_of(ctx, presentations, morphisms)
            base, m = surj.morphism.source, data["m"]
            powers = _kernel_powers(surj, None, m, min(base.cap, E + 1))
            module = resolve_quotient(base, [p.element for p in powers.level(m + 1)],
                                      E).module
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
        H = homology(P, 0, min(htop, P.homology_hi))
        for d in range(top + 1, H.hi + 1):
            if H.betti(d):
                return False, f"homology does not vanish above {top} (degree {d})"
        dual = poincare_duality_check(H, top)
        if not dual.satisfied:
            return False, f"duality fails: {dual.reason}"
        return True, f"duality pairing nondegenerate with top degree {top}"

    raise CdgaError(f"unknown certificate kind {kind!r}")
