"""Sullivan-model constructions: the model and the surjections that the
invariant pipelines build on.

* build_minimal_model returns a free minimal presentation M together with a
  quasi-iso M -> A whose homology is matched exactly in degrees <= cap; it
  is built by homology.hit_and_kill.  sullivan_model_of returns A itself
  when it is already free Sullivan.
* A Surjection is the value the bound chain reads: the morphism, plus what
  its construction knows (the ideal generators of its kernel, its pedigree,
  notes) and what its recipe adds (the recipe itself and the space it is
  about).  invariants.surjection_of builds every one from its recipe.
* multiplication_morphism is the n-fold multiplication A^{ox n} -> A, as a
  Surjection with the ideal generators of its kernel.
* diagonal_model is the surjection A ox M^{ox (n-1)} -> A standing in for
  the n-fold diagonal, as a Surjection with the ideal generators of its
  kernel and its pedigree.

Free presentations never lose information, so the constructions prefer to
carry frees and push caps onto homology requests.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (CdgaError, CdgaMorphism, NotQuasiIso, NotSimplyConnected,
                   Presentation, RangeExceedsCap, _build_combined,
                   identity_morphism, tensor_power)
from .homology import hit_and_kill, homology, quasi_iso_failure


# ---------------------------------------------------------------------------
# minimal models


class SullivanModelResult(NamedTuple):
    model: Presentation
    morphism: CdgaMorphism          # model -> target, quasi-iso on the range
    valid_up_to: int                # homology matched exactly in degrees <= this
    notes: tuple[str, ...] = ()


def build_minimal_model(A: Presentation, cap: int) -> SullivanModelResult:
    """Minimal Sullivan presentation quasi-isomorphic to A in degrees <= cap.

    Needs H^0(A) = Q and H^1(A) = 0; for a presentation with relations the
    cap must satisfy cap + 1 <= A.cap so that H^{cap}(A) is computable.
    New generators are named v{degree}_{i} (cocycle step, hitting cokernel
    classes) and w{degree}_{i} (with dw killing kernel classes one degree up).
    """
    if cap < 2:
        raise CdgaError("minimal model cap must be >= 2")
    if not A.is_free and cap > A.homology_hi:
        raise RangeExceedsCap(
            f"minimal model up to {cap} needs target cap >= {cap + 1}, have {A.cap}")
    HA = homology(A, 0, cap)
    if HA.betti(0) != 1:
        raise NotSimplyConnected("H^0 is not Q")
    if HA.betti(1) != 0:
        raise NotSimplyConnected("H^1 does not vanish")

    # each adjoin keeps the old generators' images, so the successive chain
    # maps share one memo of monomial images, as the sources share d's memo
    memo: dict = {}
    powers: dict = {}

    def chain_map(X, images):
        phi = CdgaMorphism(X, A, images, check=False)
        phi._memo, phi._powers = memo, powers
        return phi

    for M, images in hit_and_kill(HA, 2, cap, Presentation((), cap + 2), chain_map,
                                  ("v", "w"), {}):
        pass  # the whole model: keep the last degree's
    # hit_and_kill adjoins without validating; check d*d = 0 once on the result
    M._validate()
    phi = CdgaMorphism(M, A, images, check=True, name="minimal-model")
    if not M.is_minimal_sullivan:
        raise CdgaError("construction produced a non-minimal differential")
    failure = quasi_iso_failure(phi, 0, cap, H_tgt=HA)
    if failure is not None:
        raise NotQuasiIso(f"minimal model check failed: {failure[1]}")
    return SullivanModelResult(M, phi, cap)


def sullivan_model_of(A: Presentation, cap: int) -> SullivanModelResult:
    """A itself when it is already free Sullivan, else a fresh minimal model."""
    if A.is_free and A.is_sullivan:
        return SullivanModelResult(A, identity_morphism(A), cap,
                                   notes=("input is already a Sullivan presentation",))
    return build_minimal_model(A, cap)


# ---------------------------------------------------------------------------
# multiplication / diagonal surjections


class Surjection(NamedTuple):
    """A surjection as its recipe builds it.  `kernel_generators` generate
    the kernel as an ideal, and `pedigree` records why verdicts on it apply
    to an underlying map; None where the construction does not name them.
    `context` is the recipe, `space` the cdga whose invariants the chain
    bounds (the augmentation's and the diagonal's input, else None), and
    `notes` what the construction left out."""
    morphism: CdgaMorphism
    kernel_generators: list | None = None
    pedigree: str | None = None
    context: dict | None = None
    space: Presentation | None = None
    notes: tuple[str, ...] = ()


def multiplication_morphism(A: Presentation, n: int, *,
                            cap: int | None = None) -> Surjection:
    """The multiplication A^{ox n} -> A sending every copy v_i of a
    generator v of A to v.

    Its kernel is the ideal generated by the differences of copies: the
    quotient of A^{ox n} by them identifies the copies and is A again.  The
    kernel generators are, for each generator v of A in (degree, name)
    order, v_c - v_last for each copy v_c of v but the last, the copies in
    the source's rank order (by name, as they share a degree); a difference
    that a relation makes zero is left out.
    """
    power = tensor_power(A, n, cap=cap)
    P = power.pres
    images = {}
    for rn in power.renames:
        for orig, copy in rn.items():
            images[copy] = A.gen(orig)
    mu = CdgaMorphism(P, A, images, check=True, name=f"mu{n}")
    kernel_gens = []
    for g in sorted(A.generators, key=lambda g: (g.degree, g.name)):
        *copies, last = sorted(rn[g.name] for rn in power.renames)
        for copy in copies:
            el = P.gen(copy) - P.gen(last)
            if el.terms:
                kernel_gens.append(el)
    return Surjection(mu, kernel_gens)


# ---------------------------------------------------------------------------
# the diagonal surjection through a Sullivan model


def diagonal_model(A: Presentation, n: int, cap: int) -> Surjection:
    """The surjection source -> A standing in for the n-fold diagonal of A.

    source = A ox (Sullivan model)^{ox (n-1)}; the morphism multiplies the
    A-slot with the images of the model slots.  Its kernel generators are
    theta(v) - v_i over all model generators v and copies i; they generate
    the kernel as an ideal.
    """
    if n < 2:
        raise CdgaError("diagonal model needs n >= 2")
    model = sullivan_model_of(A, cap if A.is_free else min(cap, A.homology_hi))
    S = model.model
    theta = model.morphism

    parts = [(A, {g.name: g.name for g in A.generators})]
    used = {g.name for g in A.generators}
    renames = []
    for i in range(2, n + 1):
        rn = {}
        for g in S.generators:
            cand = f"{g.name}_{i}"
            while cand in used:
                cand += "_"
            used.add(cand)
            rn[g.name] = cand
        renames.append(rn)
        parts.append((S, rn))

    source = _build_combined(parts, cap,
                             A.simply_connected and S.simply_connected)
    images = {g.name: A.gen(g.name) for g in A.generators}
    for rn in renames:
        for orig, copy in rn.items():
            images[copy] = theta.image_of(orig)
    mu = CdgaMorphism(source, A, images, check=True, name=f"diag{n}")

    kernel_gens = []
    skipped = 0
    include = CdgaMorphism(A, source, {g.name: source.gen(g.name) for g in A.generators},
                           check=False)
    for rn in renames:
        for g in S.generators:
            if g.degree > cap:
                skipped += 1
                continue
            lifted = include.apply(theta.apply(S.gen(g.name)))
            el = lifted - source.gen(rn[g.name])
            if el.terms:
                kernel_gens.append(el)
    notes = (f"{skipped} kernel generators beyond cap omitted",) if skipped else ()
    for el in kernel_gens:
        if mu.apply(el).terms:
            raise CdgaError("claimed kernel generator does not map to zero")
    pedigree = ("diagonal-tensor" if (A.is_free and A.is_sullivan)
                else "diagonal-model-substitution")
    return Surjection(mu, kernel_gens, pedigree, notes=notes)

