"""Sullivan-model constructions.

Everything here is built degreewise with an explicit validity bound:

* build_minimal_model returns a free minimal presentation M together with a
  quasi-iso M -> A whose homology is matched exactly in degrees <= cap; it
  is built by homology.hit_and_kill.
* path_fibration_model doubles a Sullivan algebra and adjoins a degree-shifted
  hat generator per original generator, with the hat differential produced by
  the contraction series; the series is evaluated recursively with a re-entry
  guard so circular differentials fail loudly instead of looping.
* acyclic_closure kills homology classes degree by degree with hat generators
  one degree below the class.
* cofiber_model presents Q + ker(phi) by a multiplication table on a kernel
  basis, cross-checked dimension by dimension.

Free presentations never lose information, so the constructions prefer to
carry frees and push caps onto homology requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import Echelon, kernel_combos, solve_combo
from .core import (AlgebraElement, CdgaError, CdgaMorphism, Derivation, Generator,
                   NotFree, NotQuasiIso, NotSimplyConnected, NotSurjective,
                   Presentation, RangeExceedsCap, SeriesNonterminating,
                   _build_combined, identity_morphism, quotient_by_ideal,
                   tensor, tensor_power, transport_element)
from .homology import hit_and_kill, homology, kernel_basis, quasi_iso_failure


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

    M, images = hit_and_kill(
        HA, 2, cap, Presentation((), cap + 2),
        lambda X, images: CdgaMorphism(X, A, images, check=False),
        ("v", "w"), {}, NotQuasiIso)
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
# path fibration model


@dataclass
class RelativeModel:
    """A free extension base -> total with the added generators listed."""
    base: Presentation
    total: Presentation
    inclusion: CdgaMorphism         # base -> total
    added: tuple[str, ...]          # names of the adjoined generators
    comparison: CdgaMorphism | None = None
    notes: list[str] = field(default_factory=list)

    def fiber_model(self, cap: int | None = None) -> Presentation:
        """Quotient of the total by the positive part of the base image.

        Concretely: keep only the adjoined generators and kill every monomial
        that contains a non-adjoined generator.
        """
        total = self.total
        added = set(self.added)
        gens = [g for g in total.generators if g.name in added]
        diffs = {}
        for g in gens:
            raw = total._diff_raw.get(g.name)
            if not raw:
                continue
            kept = {m: c for m, c in raw.items()
                    if all(n in added for n, _ in m)}
            if kept:
                diffs[g.name] = kept
        return Presentation(gens, cap if cap is not None else total.cap,
                            differentials=diffs,
                            simply_connected=all(g.degree >= 2 for g in gens))


def _hat_name(name: str, used: set[str], layer: int | None = None) -> str:
    cand = name + "_h" + ("" if layer is None else str(layer))
    while cand in used:
        cand += "_"
    used.add(cand)
    return cand


def path_fibration_model(S: Presentation, n: int = 2, *,
                         series_bound: int = 64) -> RelativeModel:
    """n copies of a Sullivan algebra with contracted hats, modelling paths.

    For each generator v the total algebra has copies v1 .. vn and, for each
    adjacent pair (vi, v(i+1)), a hat of degree |v| - 1.  With s_i the degree
    -1 derivation sending both vi and v(i+1) to that hat, the hat differential
    is

        D(v_hat_i) = v(i+1) - vi - sum_{k>=1} (s_i D)^k / k!  applied to vi.

    The series needs D on the same layer's hats of the generators occurring in
    d(v), which is resolved recursively; circular differentials raise
    SeriesNonterminating.  For n=2 the hats are named v_h; for larger n they
    carry the layer index (v_h1, v_h2, ...).
    """
    if n < 2:
        raise CdgaError("path fibration model needs n >= 2")
    if not S.is_free:
        raise NotFree("path fibration model needs a free presentation")
    if S.sullivan_order() is None:
        raise SeriesNonterminating(
            "differential dependencies are circular; the contraction series "
            "cannot terminate")
    if any(g.degree < 2 for g in S.generators):
        raise CdgaError("path fibration model needs generators of degree >= 2")

    base = tensor_power(S, n)
    used = {g.name for g in base.pres.generators}
    hat_layers = [{g.name: _hat_name(g.name, used, None if n == 2 else i)
                   for g in S.generators} for i in range(1, n)]
    gens = [Generator(g.name, g.degree) for g in base.pres.generators]
    for layer in hat_layers:
        gens += [Generator(layer[g.name], g.degree - 1) for g in S.generators]

    # workspace with zero differential; D is applied through explicit values
    work = Presentation(gens, S.cap, simply_connected=all(g.degree >= 2 for g in gens),
                        validate=False)

    dvals: dict[str, AlgebraElement] = {}
    for g in S.generators:
        raw = S._diff_raw.get(g.name, {})
        for rn in base.renames:
            sub = {nm: work.gen(rn[nm]) for nm in S._ctx.degree_of}
            dvals[rn[g.name]] = transport_element(raw, work, sub)

    for i in range(1, n):
        copy_lo = base.renames[i - 1]
        copy_hi = base.renames[i]
        hat_of = hat_layers[i - 1]
        svals = {}
        for g in S.generators:
            svals[copy_lo[g.name]] = work.gen(hat_of[g.name])
            svals[copy_hi[g.name]] = work.gen(hat_of[g.name])
        s_der = Derivation(work, -1, svals, check=True)

        in_progress: set[str] = set()

        def ensure_hat(name: str):
            hat = hat_of[name]
            if hat in dvals:
                return
            if name in in_progress:
                raise SeriesNonterminating(
                    f"hat differential of {name} depends on itself")
            in_progress.add(name)
            raw = S._diff_raw.get(name, {})
            for m in raw:
                for dep, _ in m:
                    ensure_hat(dep)
            v1 = work.gen(copy_lo[name])
            v2 = work.gen(copy_hi[name])
            series = work.zero()
            p = v1
            factorial = 1
            terminated = False
            for k in range(1, series_bound + 1):
                der = Derivation(work, 1, dvals, check=False)
                p = s_der.apply(der.apply(p))
                if not p.terms:
                    terminated = True
                    break
                factorial *= k
                series = series + p * Fraction(1, factorial)
            if not terminated:
                raise SeriesNonterminating(
                    f"contraction series for {name} did not terminate "
                    f"within {series_bound} steps")
            dvals[hat] = v2 - v1 - series
            in_progress.discard(name)

        for g in S.generators:
            ensure_hat(g.name)

    diffs = {nm: dict(el.terms) for nm, el in dvals.items() if el.terms}
    total = Presentation(gens, S.cap, differentials=diffs,
                         simply_connected=all(g.degree >= 2 for g in gens))
    inclusion = CdgaMorphism(base.pres, total,
                             {g.name: total.gen(g.name) for g in base.pres.generators},
                             check=True, name="base-inclusion")
    comp_images = {}
    for g in S.generators:
        for rn in base.renames:
            comp_images[rn[g.name]] = S.gen(g.name)
    comparison = CdgaMorphism(total, S, comp_images, check=True, name="contraction")
    added = tuple(layer[g.name] for layer in hat_layers for g in S.generators)
    return RelativeModel(base.pres, total, inclusion, added,
                         comparison=comparison)


# ---------------------------------------------------------------------------
# acyclic closure


def acyclic_closure(A: Presentation, up_to: int) -> RelativeModel:
    """Adjoin hat generators killing all homology classes in degrees 2..up_to.

    Each class of H^k gets a hat of degree k-1 whose differential is the
    canonical representative.  Representatives are required to contain no
    pure-hat monomials; that part is representative-independent, so a failure
    would mean the closure cannot stay a free extension.
    """
    if any(g.degree < 2 for g in A.generators):
        raise CdgaError("acyclic closure needs generators of degree >= 2")
    if not A.is_free and up_to + 1 > A.cap:
        raise RangeExceedsCap(
            f"acyclic closure up to {up_to} needs cap >= {up_to + 1}, have {A.cap}")
    base_names = {g.name for g in A.generators}
    gens = [(g.name, g.degree) for g in A.generators]
    diffs = {n: dict(raw) for n, raw in A._diff_raw.items()}
    hats: list[str] = []
    used = set(base_names)
    counter: dict[int, int] = {}

    def build():
        return Presentation(gens, A.cap, relations=A.relations, differentials=diffs,
                            simply_connected=all(d >= 2 for _, d in gens),
                            validate=False)

    total = build()
    for k in range(2, up_to + 1):
        while True:
            H = homology(total, k, k)
            reps = H.representatives(k)
            if not reps:
                break
            for rep in reps:
                pure_hat = {m: c for m, c in rep.terms.items()
                            if m and all(n not in base_names for n, _ in m)}
                if pure_hat:
                    raise CdgaError(
                        f"degree-{k} class has an irremovable pure-hat part; "
                        "the extension cannot be contracted")
                i = counter.get(k - 1, 0)
                counter[k - 1] = i + 1
                name = f"h{k - 1}_{i}"
                while name in used:
                    name += "_"
                used.add(name)
                gens.append((name, k - 1))
                hats.append(name)
                diffs[name] = dict(rep.terms)
            total = build()
    total = Presentation(gens, A.cap, relations=A.relations, differentials=diffs,
                         simply_connected=all(d >= 2 for _, d in gens))
    inclusion = CdgaMorphism(A, total, {g.name: total.gen(g.name) for g in A.generators},
                             check=True, name="closure-inclusion")
    return RelativeModel(A, total, inclusion, tuple(hats),
                         notes=[f"homology killed in degrees 2..{up_to}"])


def loop_space_model(A: Presentation, up_to: int) -> Presentation:
    """Fiber of the acyclic closure: the model of the based loop space."""
    closure = acyclic_closure(A, up_to)
    return closure.fiber_model()


# ---------------------------------------------------------------------------
# cofiber model: Q + ker(phi) presented by a multiplication table


@dataclass
class CofiberModel:
    pres: Presentation
    inclusion: CdgaMorphism         # cofiber -> source, kernel basis elements
    kernel_elements: dict           # generator name -> element of the source
    valid_up_to: int


def cofiber_model(phi: CdgaMorphism, cap: int) -> CofiberModel:
    """Present Q + ker(phi) with one generator per kernel basis element.

    Generators k{d}_{i} in degrees d <= cap; every pairwise product within the
    cap is a relation expressing it in the kernel basis again, and the
    presented dimensions are asserted to match the kernel dimensions.
    """
    A = phi.source
    if not A.is_free and cap > A.cap:
        raise RangeExceedsCap(f"cofiber cap {cap} exceeds source cap {A.cap}")
    missed = phi.is_surjective_up_to(min(cap, phi.target.cap if not phi.target.is_free
                                         else cap))
    if missed is not None:
        raise NotSurjective(f"map misses the target in degree {missed}",
                            degree=missed)
    basis_by_degree: dict[int, list[AlgebraElement]] = {}
    gen_names: dict[int, list[str]] = {}
    gens: list[tuple[str, int]] = []
    kernel_elements: dict[str, AlgebraElement] = {}
    for d in range(1, cap + 1):
        kb = kernel_basis(phi, d)
        basis_by_degree[d] = kb
        names = []
        for i, el in enumerate(kb):
            name = f"k{d}_{i}"
            names.append(name)
            gens.append((name, d))
            kernel_elements[name] = el
        gen_names[d] = names

    free = Presentation(gens, cap, simply_connected=all(d >= 2 for _, d in gens),
                        validate=False)

    def expand_in_kernel(el: AlgebraElement, d: int) -> AlgebraElement:
        """Rewrite an element of ker(phi) in degree d as a sum of generators."""
        kb = basis_by_degree.get(d, [])
        ech = Echelon(A.dim(d))
        order = []
        for name, b in zip(gen_names[d], kb):
            row = ech.add(A.to_sparse(b, d))
            if row is None:
                raise CdgaError("kernel basis is not independent")
            order.append(name)
        coords = ech.coordinates(A.to_sparse(el, d))
        if coords is None:
            raise CdgaError("product of kernel elements left the kernel")
        out = free.zero()
        for c, name in zip(coords, order):
            if c:
                out = out + free.gen(name) * c
        return out

    relations = []
    for d1, names1 in gen_names.items():
        for d2, names2 in gen_names.items():
            if d2 < d1 or d1 + d2 > cap:
                continue
            for i, n1 in enumerate(names1):
                for j, n2 in enumerate(names2):
                    if d1 == d2 and j < i:
                        continue
                    prod = free.gen(n1) * free.gen(n2)
                    if not prod.terms:
                        continue  # odd square, already zero
                    target = kernel_elements[n1] * kernel_elements[n2]
                    rel = prod - expand_in_kernel(target, d1 + d2)
                    if rel.terms:
                        relations.append(dict(rel.terms))

    diffs = {}
    unknown = []
    for d, names in gen_names.items():
        for name in names:
            img = kernel_elements[name].d() if d + 1 <= A.cap or A.is_free else None
            if img is None:
                unknown.append(name)
                continue
            if not img.terms:
                continue
            if d + 1 > cap:
                if img.terms:
                    unknown.append(name)
                continue
            diffs[name] = dict(expand_in_kernel(img, d + 1).terms)

    pres = Presentation(gens, cap, relations=relations, differentials=diffs,
                        simply_connected=all(d >= 2 for _, d in gens),
                        extra_d_unknown=unknown)
    for d in range(1, cap + 1):
        if pres.dim(d) != len(gen_names[d]):
            raise CdgaError(
                f"presented dimension {pres.dim(d)} != kernel dimension "
                f"{len(gen_names[d])} in degree {d}")
    inclusion = CdgaMorphism(pres, A, kernel_elements, check=False, name="kernel-inclusion")
    return CofiberModel(pres, inclusion, kernel_elements, cap)


# ---------------------------------------------------------------------------
# pushouts


def pushout_model(phi: CdgaMorphism, psi: CdgaMorphism, *, cap: int | None = None):
    """A ox_C B for phi: C -> A, psi: C -> B, with both injections."""
    if phi.source is not psi.source:
        raise CdgaError("pushout legs must share their source")
    t = tensor(phi.target, psi.target, cap=cap)
    ideal = []
    for g in phi.source.generators:
        el = t.include_left.apply(phi.image_of(g.name)) \
            - t.include_right.apply(psi.image_of(g.name))
        if el.terms:
            ideal.append(el)
    pushed, proj = quotient_by_ideal(t.pres, ideal)
    inj_a = CdgaMorphism(phi.target, pushed,
                         {g.name: pushed.gen(t.rename_left[g.name])
                          for g in phi.target.generators}, check=False, name="pushout-left")
    inj_b = CdgaMorphism(psi.target, pushed,
                         {g.name: pushed.gen(t.rename_right[g.name])
                          for g in psi.target.generators}, check=False, name="pushout-right")
    return pushed, inj_a, inj_b


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


# ---------------------------------------------------------------------------
# isomorphism search between free Sullivan presentations


def find_isomorphism(M1: Presentation, M2: Presentation, hi: int | None = None):
    """Best-effort isomorphism M1 -> M2 between free Sullivan presentations.

    Works degree by degree: the image of each generator solves the chain
    condition linearly; cycle adjustments are tried one at a time until the
    word-length-one part is invertible.  Returns the morphism, or None when
    the search fails (which is not a proof that none exists).
    """
    if not (M1.is_free and M2.is_free):
        raise NotFree("isomorphism search needs free presentations")
    degrees1: dict[int, list[str]] = {}
    for g in M1.generators:
        degrees1.setdefault(g.degree, []).append(g.name)
    degrees2: dict[int, list[str]] = {}
    for g in M2.generators:
        degrees2.setdefault(g.degree, []).append(g.name)
    if {d: len(v) for d, v in degrees1.items()} != {d: len(v) for d, v in degrees2.items()}:
        return None
    if hi is None:
        hi = max(degrees1, default=2)

    images: dict[str, AlgebraElement] = {}

    def partial():
        return CdgaMorphism(M1, M2, images, check=False)

    for k in sorted(degrees1):
        names = sorted(degrees1[k])
        basis = M2.basis(k)
        width = len(basis)
        dvecs = M2.differential_vectors(k)
        cycles = kernel_combos(dvecs, M2.dim(k + 1))
        phi = partial()
        lin_positions = [i for i, m in enumerate(basis)
                         if len(m) == 1 and m[0][1] == 1]
        lin_ech = Echelon(width)
        for name in names:
            rhs_el = phi.apply_raw(M1._diff_raw.get(name, {}))
            target = M2.to_sparse(rhs_el, k + 1)
            part = solve_combo(dvecs, M2.dim(k + 1), target)
            if part is None:
                return None

            def lin_row(vec):
                return {i: vec[i] for i in lin_positions if i in vec}

            def shifted(z, sign):
                cols = sorted(part.keys() | z.keys())
                out = {j: part.get(j, 0) + sign * z.get(j, 0) for j in cols}
                return {j: c for j, c in out.items() if c}

            candidates = [part]
            for z in cycles:
                candidates.append(shifted(z, 1))
                candidates.append(shifted(z, -1))
            chosen = None
            for cand in candidates:
                if not lin_ech.contains(lin_row(cand)):
                    chosen = cand
                    break
            if chosen is None:
                return None
            lin_ech.add(lin_row(chosen))
            images[name] = M2.from_vector(k, chosen)
    try:
        iso = CdgaMorphism(M1, M2, images, check=True, name="iso")
    except CdgaError:
        return None
    # invertibility: word-length-one parts must be bijective degree by degree
    for k, names in degrees1.items():
        ech = Echelon(len(degrees2.get(k, [])))
        order = {n: i for i, n in enumerate(sorted(degrees2.get(k, [])))}
        for name in names:
            row = {}
            for m, c in iso.image_of(name).terms.items():
                if len(m) == 1 and m[0][1] == 1 and M2._ctx.degree_of[m[0][0]] == k:
                    row[order[m[0][0]]] = c
            ech.add(row)
        if ech.rank != len(names):
            return None
    if quasi_iso_failure(iso, 0, min(hi, M1.cap, M2.cap)) is not None:
        return None
    return iso
