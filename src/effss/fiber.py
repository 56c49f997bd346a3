"""Fiber of psi^3 - 1 over the base theories: first page and d1.

psi^3 acts on a base first page by fixing every torsion letter and scaling
the free v-power towers, v^k going to 9^k v^k.  The first page of the fiber
therefore splits additively as

    E1(fiber) = K + iota * C

with K the kernel and C the cokernel of psi^3 - 1 on the base page, and
iota a square-zero class in degree (-1, 1, 0) carrying the connecting map.
K is spanned by the letter monomials together with the bare tau powers; C
is the base page with each free tower on v^k cut down to the 2-primary
part of 9^k - 1.  Everything here is 2-local, so only that 2-primary part
is kept.

Rather than shipping this as a fixed table, the construction materializes
it from the base presentation for whatever window is requested:

* one carrier generator per (letter, v-power) pair and one per
  iota * v-power, encoding the normal form "at most one v-carrier per
  monomial" as a shared exclusion slot, so the generic basis search takes
  the carriers as one "none or one of these" level;
* products taken in the base ring and renormalized, so the product
  structure is inherited, not typed in: the rule for a non-normal carrier
  pair is made the first time rewriting meets the pair, and kept;
* the d1 table, by running the base Leibniz rule on each carrier's
  underlying monomial and pushing the value through the splitting.

The presentation records the box it was materialized for (the window
widened as the engine widens it), and basis enumeration refuses boxes
outside it.

The letter absorbed into a carrier is the highest-priority letter present,
priority being reverse declaration order of the base letters.  Any fixed
choice labels the same groups; this one keeps printed classes close to the
usual way of writing them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from .engine import ObjectSpec, Window, derive, widened_box
from .eta import ETA_UNIT, eta_el_mul, eta_el_pow
from .grading import (
    Element,
    EffssError,
    GeneratorSpec,
    Monomial,
    PresentationError,
    RewriteRule,
    RingPresentation,
    TriDegree,
    mono_mul,
)
from .intlinalg import smith_normal_form, two_adic_valuation
from .objects import load_data, spec_from_dict, window_from_dict


class FiberError(EffssError):
    """The materialized fiber data failed one of its own consistency checks."""


#: degree of the connecting class iota in the fiber sequence
IOTA_DEGREE = TriDegree(-1, 1, 0)

#: iota's eta-local image
_ETA_IOTA = frozenset({(0, 0, 0, 1)})

#: short stems for carrier names; anything unlisted keeps its full name
_PREFIX = {"rho": "r", "h1": "h", "th1": "th"}


def val_3_pow_minus_1(n: int) -> int:
    """2-adic valuation of 3^n - 1, in closed form.

    3 generates the units of Z/2^k up to sign, which pins the valuation to
    1 for odd n and v2(n) + 2 for even n.  The construction below does not
    use this shortcut; it computes the actual big-integer valuations, and
    the test suite checks the two against each other.

    >>> val_3_pow_minus_1(2)
    3
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n % 2:
        return 1
    return two_adic_valuation(n) + 2


def _diag_scalar(pres: RingPresentation, image: Element, g: int) -> int:
    """The psi^3 data must send each generator to an integer multiple of itself."""
    if len(image) != 1:
        raise PresentationError(
            "psi^3 image of %s is not a scalar multiple" % pres.gen_name(g)
        )
    ((m, c),) = tuple(image.items())
    if m != ((g, 1),):
        raise PresentationError(
            "psi^3 image of %s involves a different monomial" % pres.gen_name(g)
        )
    return c


@dataclass
class FiberLayout:
    """Bookkeeping between a base presentation and its materialized fiber.

    ``back[i]`` is fiber generator i as (base monomial, iota count): a
    letter or the tail is its base generator, a carrier is its letter times
    a v-power, and an iota carrier is iota times a v-power.  ``gen_of`` is
    the inverse, keyed by the same tuples.  ``debase`` expands a fiber
    monomial through ``back``; ``translate_mono`` renormalizes a base
    monomial into the fiber basis through ``gen_of``, absorbing the v-power
    into the highest-priority letter present (or into iota on the cokernel
    side).  ``pair_rule`` is the fiber presentation's rule source.  The
    fiber presentation is passed to the methods that rewrite in it rather
    than held here, so the presentation, its rule source and this layout
    make no reference cycle.
    """

    base: RingPresentation
    b_v: int
    v_scale: int
    priority: Tuple[int, ...]
    back: Tuple[Tuple[Monomial, int], ...]
    gen_of: Dict[Tuple[Monomial, int], int]
    family_max: int
    v_slack: int

    def debase(self, m: Monomial) -> Tuple[Monomial, int]:
        """The base monomial under fiber monomial m, and its iota count."""
        bm: Monomial = ()
        iota = 0
        for g, e in m:
            gm, gi = self.back[g]
            if e > 1:
                gm = tuple([(h, x * e) for h, x in gm])
            bm = mono_mul(bm, gm)
            iota += gi * e
        return bm, iota

    def translate_mono(self, m: Monomial, iota: bool) -> Monomial:
        gen_of = self.gen_of
        exps = dict(m)
        k = exps.pop(self.b_v, 0)
        vk: Monomial = ((self.b_v, k),) if k else ()
        parts: List[Tuple[int, int]] = []
        if iota:
            carrier = gen_of.get((vk, 1))
            if carrier is None:
                raise PresentationError(
                    "iota carrier for v^%d is beyond the materialized window" % k
                )
            parts.append((carrier, 1))
        elif k:
            for bl in self.priority:
                if exps.get(bl):
                    exps[bl] -= 1
                    carrier = gen_of.get((mono_mul(((bl, 1),), vk), 0))
                    if carrier is None:
                        raise PresentationError(
                            "carrier %sv^%d is beyond the materialized window"
                            % (self.base.gen_name(bl), k)
                        )
                    parts.append((carrier, 1))
                    break
            else:
                raise PresentationError(
                    "free monomial with a v-power is not in the kernel of psi^3 - 1"
                )
        for bl, e in exps.items():
            if e:
                parts.append((gen_of[((bl, 1),), 0], e))
        return tuple(sorted(parts))

    def translate(self, pres: RingPresentation, e: Element, iota: bool = False) -> Element:
        """A base element renormalized into the fiber presentation pres."""
        out: Element = {}
        for m, c in e.items():
            t = self.translate_mono(m, iota)
            out[t] = out.get(t, 0) + c
        return pres.reduce(out)

    def times_v(self, pres: RingPresentation, e: Element, k: int) -> Element:
        """e times v^k, for k >= 1, renormalized into pres.

        The fiber carries no bare v generator, so each monomial is expanded
        over the base, shifted and translated back.  A monomial with no
        letter to absorb the v-power raises PresentationError.
        """
        vk = ((self.b_v, k),)
        out: Element = {}
        for m, c in e.items():
            bm, iota = self.debase(m)
            t = self.translate_mono(mono_mul(bm, vk), bool(iota))
            out[t] = out.get(t, 0) + c
        return pres.reduce(out)

    def product_via_base(self, pres: RingPresentation, ma: Monomial, mb: Monomial) -> Element:
        """Multiply two fiber monomials of pres through the base ring.

        This is the fiber's one product route: the presentation's pair
        rules are this product of the two generators, made on first
        lookup and kept.
        """
        ba, ia = self.debase(ma)
        bb, ib = self.debase(mb)
        if ia + ib >= 2:
            return {}
        bel = self.base.reduce({mono_mul(ba, bb): 1})
        return self.translate(pres, bel, iota=bool(ia + ib))

    def pair_rule(self, pres: RingPresentation, lhs: Monomial) -> Optional[RewriteRule]:
        """The rule for a carrier-pair violation: the pair's product in the
        base.  Every violation here is a square over a cap of 1 or a pair
        sharing a slot.  iota squares to zero; pairs too far out get none,
        and rewriting refuses them."""
        bm, iota = self.debase(lhs)
        k = next((e for g, e in bm if g == self.b_v), 0)
        if iota < 2 and k > self.family_max - self.v_slack:
            return None
        prod = self.product_via_base(pres, lhs, ())
        return RewriteRule(lhs, tuple((prod[m], m) for m in sorted(prod, key=pres.mono_key)))


def _carrier_order(v_scale: int, k: int) -> int:
    """Additive order of the cokernel class on v^k: the 2-part of 9^k - 1."""
    return 1 << two_adic_valuation(v_scale**k - 1)


def build_fiber_object(
    data: Dict[str, object],
    window: Optional[Window] = None,
    r_max: Optional[int] = None,
) -> ObjectSpec:
    """Materialize a fiber object from its manifest.

    ``window`` decides how many v-power families are generated; the
    presentation covers ``engine.widened_box`` of the window, so a run over
    that window never falls off the generator list.
    """
    base = spec_from_dict(load_data(str(data["base"])))
    bpres = base.pres
    if window is None:
        window = window_from_dict(data["defaultWindow"])
    if r_max is None:
        r_max = int(data.get("defaultRMax", 2))
    cover = widened_box(window, r_max)

    psi3 = base.meta.get("psi3")
    if psi3 is None:
        raise PresentationError("fiber construction needs the base psi^3 action")
    scalars = {g: _diag_scalar(bpres, img, g) for g, img in psi3.items()}
    scaled = [g for g, c in scalars.items() if c != 1]
    if len(scaled) != 1:
        raise PresentationError("expected exactly one psi^3-scaled generator")
    b_v = scaled[0]
    v_scale = scalars[b_v]
    if v_scale % 2 == 0:
        raise PresentationError("psi^3 scale must be odd for a 2-local cokernel")
    vdeg = bpres.generators[b_v].degree

    b_tail = bpres.tail
    if b_tail is None:
        raise PresentationError("base needs a pure-weight generator")
    letters = tuple(
        i for i in range(len(bpres.generators)) if i not in (b_tail, b_v)
    )
    priority = tuple(reversed(letters))

    # families that can appear on the covered box, then headroom so that
    # any product of two covered monomials still has a carrier and a rule
    k_box = (cover.s[1] + cover.f[1]) // vdeg.s + 1
    family_max = 2 * k_box + 2

    # exclusion slots: a carrier may sit next to letters of strictly lower
    # priority than the one it absorbed (and next to its own letter when
    # that letter is uncapped), nothing else
    def letter_slot(bl: int) -> Optional[str]:
        p = priority.index(bl)
        lower = len(priority) - 1 - p
        capped = bpres.generators[bl].cap is not None
        if lower or capped:
            return "x" + bpres.generators[bl].name
        return None

    def carrier_slots(bl: int) -> Tuple[str, ...]:
        p = priority.index(bl)
        names = ["fam"]
        for higher in priority[:p]:
            sl = letter_slot(higher)
            if sl:
                names.append(sl)
        if bpres.generators[bl].cap is not None:
            sl = letter_slot(bl)
            if sl:
                names.append(sl)
        return tuple(names)

    gens: List[GeneratorSpec] = []
    back: List[Tuple[Monomial, int]] = []

    def add(spec: GeneratorSpec, bm: Monomial, iota: int) -> None:
        gens.append(spec)
        back.append((bm, iota))

    single = {i: ((i, 1),) for i in range(len(bpres.generators)) if i != b_v}
    for i, g in enumerate(bpres.generators):
        if i == b_v:
            continue
        if i != b_tail:
            sl = letter_slot(i)
            g = replace(g, slots=(sl,) if sl else ())
        add(g, single[i], 0)

    add(GeneratorSpec(name="iv0", degree=IOTA_DEGREE, torsion=0, cap=1, slots=("fam",)), (), 1)

    for k in range(1, family_max + 1):
        vk = ((b_v, k),)
        for bl in letters:
            spec = bpres.generators[bl]
            add(
                GeneratorSpec(
                    name="%sv%d" % (_PREFIX.get(spec.name, spec.name), 2 * k),
                    degree=spec.degree + vdeg.scaled(k),
                    torsion=spec.torsion,
                    cap=1,
                    slots=carrier_slots(bl),
                ),
                mono_mul(single[bl], vk),
                0,
            )
        add(
            GeneratorSpec(
                name="iv%d" % (2 * k),
                degree=IOTA_DEGREE + vdeg.scaled(k),
                torsion=_carrier_order(v_scale, k),
                cap=1,
                slots=("fam",),
            ),
            vk,
            1,
        )

    # Rewriting in the base can raise the v-power (th1 squared picks one
    # up); leave that much headroom when deciding which carrier pairs get
    # a rule.  The +2 in family_max keeps every product of two covered
    # monomials inside the guarded range regardless.
    v_slack = 0
    for rule in bpres.rules:
        lhs_k = next((e for g, e in rule.lhs if g == b_v), 0)
        for _, rm in rule.rhs:
            rhs_k = next((e for g, e in rm if g == b_v), 0)
            v_slack = max(v_slack, rhs_k - lhs_k)

    rows = tuple(back)
    layout = FiberLayout(
        base=bpres,
        b_v=b_v,
        v_scale=v_scale,
        priority=priority,
        back=rows,
        gen_of={row: i for i, row in enumerate(rows)},
        family_max=family_max,
        v_slack=v_slack,
    )
    name = str(data["name"])
    pres = RingPresentation(name, gens, rule_source=layout.pair_rule)
    pres.cover = cover

    base_d1 = base.schedule.get(1, {})
    images = {
        fi: layout.translate(pres, derive(bpres, bm, base_d1), iota=bool(iota))
        for fi, (bm, iota) in enumerate(rows)
    }

    meta: Dict[str, object] = {
        "base": base.name,
        "layout": layout,
    }

    base_eta = base.meta.get("etaImage")
    if base_eta is not None:
        # each generator localizes to the product of its base parts' images,
        # iota staying iota
        table = {}
        for fi, (bm, iota) in enumerate(rows):
            img = _ETA_IOTA if iota else ETA_UNIT
            for g, e in bm:
                img = eta_el_mul(img, eta_el_pow(base_eta[g], e))
            table[fi] = img
        meta["etaImage"] = table

    return ObjectSpec(
        name=name,
        pres=pres,
        schedule={1: images},
        has_pattern=bool(data.get("pattern", True)),
        image_gens=frozenset(i for i, (_, iota) in enumerate(rows) if iota),
        stable_page=int(data.get("stablePage", 2)),
        default_window=window,
        default_r_max=r_max,
        meta=meta,
    )


def splitting_report(obj: ObjectSpec, snf_budget: int = 256) -> Dict[str, int]:
    """Check the kernel/cokernel splitting of a fiber first page on its
    default window.

    Route one is structural: the letter-absorption bijection must carry the
    non-image basis onto the kernel of psi^3 - 1 degree by degree and the
    image basis onto the cokernel one connecting degree over, preserving
    every additive order (2-locally).  Route two ignores the construction's
    own normal forms: at up to ``snf_budget`` degrees, psi^3 - 1 is written
    down as a plain integer matrix and the 2-parts of its Smith invariant
    factors are compared against the image-part orders.

    Returns counters; raises FiberError on the first mismatch.
    """
    layout: FiberLayout = obj.meta["layout"]  # type: ignore[assignment]
    pres = obj.pres
    bpres = layout.base
    window = obj.default_window
    base_box = Window(
        s=(window.s[0], window.s[1] + 1),
        f=(max(0, window.f[0] - 1), window.f[1]),
        w=window.w,
    )
    base_bases = bpres.basis_window(base_box.s, base_box.f, base_box.w).monomials
    fiber_bases = pres.basis_window(window.s, window.f, window.w).monomials

    def chi(bm: Monomial) -> int:
        k = 0
        for g, e in bm:
            if g == layout.b_v:
                k = e
        return layout.v_scale**k

    def coker_order(bm: Monomial) -> int:
        o = bpres.order_of(bm)
        if o:
            return o
        k = next((e for g, e in bm if g == layout.b_v), 0)
        if k == 0:
            return 0
        return _carrier_order(layout.v_scale, k)

    kernel_classes = 0
    image_classes = 0
    snf_done = 0
    degrees = list(window.degrees())
    stride = max(1, len(degrees) // max(1, snf_budget))

    for n_deg, d in enumerate(degrees):
        fmonos = fiber_bases.get(d, [])
        kern_side = [m for m in fmonos if obj.part_of(m) == "cokernel"]
        img_side = [m for m in fmonos if obj.part_of(m) == "image"]

        base_here = base_bases.get(d, [])
        base_over = base_bases.get(d - IOTA_DEGREE, [])

        expect_kern = set()
        for bm in base_here:
            o = bpres.order_of(bm)
            c = chi(bm) - 1
            in_kernel = (c == 0) if o == 0 else (c % o == 0)
            if in_kernel:
                expect_kern.add(layout.translate_mono(bm, iota=False))
        if expect_kern != set(kern_side):
            raise FiberError("kernel side disagrees at %s" % (d,))
        for m in kern_side:
            bm, it = layout.debase(m)
            if it or pres.order_of(m) != bpres.order_of(bm):
                raise FiberError("kernel class %s has the wrong order" % (m,))
        kernel_classes += len(kern_side)

        expect_img = {layout.translate_mono(bm, iota=True): bm for bm in base_over}
        if set(expect_img) != set(img_side):
            raise FiberError("image side disagrees at %s" % (d,))
        for m in img_side:
            if pres.order_of(m) != coker_order(expect_img[m]):
                raise FiberError("image class %s has the wrong order" % (m,))
        image_classes += len(img_side)

        if n_deg % stride == 0 and (base_over or img_side):
            n = len(base_over)
            cols = []
            for idx, bm in enumerate(base_over):
                col = [0] * n
                col[idx] = chi(bm) - 1
                cols.append(col)
            for idx, bm in enumerate(base_over):
                o = bpres.order_of(bm)
                if o:
                    col = [0] * n
                    col[idx] = o
                    cols.append(col)
            dia = smith_normal_form(cols, n)
            got = []
            for i in range(n):
                v = dia[i] if i < len(dia) else 0
                if v == 0:
                    got.append(0)
                else:
                    two_part = 1 << two_adic_valuation(v) if v % 2 == 0 else 1
                    if two_part > 1:
                        got.append(two_part)
            want = sorted(pres.order_of(m) for m in img_side)
            if sorted(got) != want:
                raise FiberError(
                    "Smith form of psi^3 - 1 disagrees with image orders at %s"
                    % (d,)
                )
            snf_done += 1

    return {
        "degrees": len(degrees),
        "kernelClasses": kernel_classes,
        "imageClasses": image_classes,
        "snfDegrees": snf_done,
    }
