"""Sullivan-model constructions: the model and the surjections that the
invariant pipelines build on.

* build_minimal_model returns a free minimal presentation M together with a
  quasi-iso M -> A whose homology is matched exactly in degrees <= cap; it
  is built by homology.hit_and_kill.  sullivan_model_of returns A itself
  when it is already free Sullivan.
* multiplication_morphism is the n-fold multiplication A^{ox n} -> A.
* diagonal_model is the surjection A ox M^{ox (n-1)} -> A standing in for
  the n-fold diagonal, with the ideal generators of its kernel.

Free presentations never lose information, so the constructions prefer to
carry frees and push caps onto homology requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (CdgaError, CdgaMorphism, NotQuasiIso, NotSimplyConnected,
                   Presentation, RangeExceedsCap, _build_combined,
                   identity_morphism, tensor_power, transport_element)
from .homology import hit_and_kill, homology, quasi_iso_failure


# ---------------------------------------------------------------------------
# minimal models


@dataclass
class SullivanModelResult:
    model: Presentation
    morphism: CdgaMorphism          # model -> target, quasi-iso on the range
    valid_up_to: int                # homology matched exactly in degrees <= this
    notes: list[str] = field(default_factory=list)


def build_minimal_model(A: Presentation, cap: int) -> SullivanModelResult:
    """Minimal Sullivan presentation quasi-isomorphic to A in degrees <= cap.

    Needs H^0(A) = Q and H^1(A) = 0; for a presentation with relations the
    cap must satisfy cap + 1 <= A.cap so that H^{cap}(A) is computable.
    New generators are named v{degree}_{i} (cocycle step, hitting cokernel
    classes) and w{degree}_{i} (with dw killing kernel classes one degree up).
    """
    if cap < 2:
        raise CdgaError("minimal model cap must be >= 2")
    if not A.is_free and cap + 1 > A.cap:
        raise RangeExceedsCap(
            f"minimal model up to {cap} needs target cap >= {cap + 1}, have {A.cap}")
    HA = homology(A, 0, cap)
    if HA.betti(0) != 1:
        raise NotSimplyConnected("H^0 is not Q")
    if HA.betti(1) != 0:
        raise NotSimplyConnected("H^1 does not vanish")

    for M, images in hit_and_kill(
            HA, 2, cap, Presentation((), cap + 2),
            lambda X, images: CdgaMorphism(X, A, images, check=False),
            ("v", "w"), {}, NotQuasiIso):
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
                                   notes=["input is already a Sullivan presentation"])
    return build_minimal_model(A, cap)


# ---------------------------------------------------------------------------
# multiplication / diagonal surjections


@dataclass
class MultiplicationModel:
    power: object                   # TensorPowerResult
    morphism: CdgaMorphism          # A^{ox n} -> A, every copy to the original


def multiplication_morphism(A: Presentation, n: int, *, cap: int | None = None):
    power = tensor_power(A, n, cap=cap)
    images = {}
    for rn in power.renames:
        for orig, copy in rn.items():
            images[copy] = A.gen(orig)
    mu = CdgaMorphism(power.pres, A, images, check=True, name=f"mu{n}")
    return MultiplicationModel(power, mu)


# ---------------------------------------------------------------------------
# the diagonal surjection through a Sullivan model


@dataclass
class DiagonalModel:
    """Surjection source -> A standing in for the n-fold diagonal.

    source = A ox (Sullivan model)^{ox (n-1)}; the morphism multiplies the
    A-slot with the images of the model slots.  kernel_generators lists
    theta(v) - v_i over all model generators v and copies i; they generate the
    kernel as an ideal.  `pedigree` records why verdicts computed through this
    surjection apply to the underlying map rather than just this model.
    """
    source: Presentation
    morphism: CdgaMorphism
    kernel_generators: list
    n: int
    pedigree: str
    model: SullivanModelResult
    notes: list[str] = field(default_factory=list)


def diagonal_model(A: Presentation, n: int, cap: int,
                   model: SullivanModelResult | None = None) -> DiagonalModel:
    """Build the standard surjection used for the n-fold diagonal of A."""
    if n < 2:
        raise CdgaError("diagonal model needs n >= 2")
    if model is None:
        model = sullivan_model_of(A, min(cap, A.cap - 1) if not A.is_free else cap)
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
            images[copy] = theta.image_of(orig) if theta.images.get(orig) is not None \
                else theta.apply(S.gen(orig))
    mu = CdgaMorphism(source, A, images, check=True, name=f"diag{n}")

    kernel_gens = []
    skipped = 0
    a_side = {g.name: source.gen(g.name) for g in A.generators}
    for rn in renames:
        for g in S.generators:
            if g.degree > cap:
                skipped += 1
                continue
            lifted = transport_element(theta.apply(S.gen(g.name)), source, a_side)
            el = lifted - source.gen(rn[g.name])
            if el.terms:
                kernel_gens.append(el)
    notes = []
    if skipped:
        notes.append(f"{skipped} kernel generators beyond cap omitted")
    for el in kernel_gens:
        if mu.apply(el).terms:
            raise CdgaError("claimed kernel generator does not map to zero")
    pedigree = ("diagonal-tensor" if (A.is_free and A.is_sullivan)
                else "diagonal-model-substitution")
    return DiagonalModel(source, mu, kernel_gens, n, pedigree, model, notes)

