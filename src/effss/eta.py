"""Eta-periodic pages, graded by coweight alone.

Inverting h1 flattens the tri-graded picture.  Every class becomes
h1-periodic, the coefficient field is F_2, and following the usual
convention the unit h1 is suppressed from all formulas, so a class is
a monomial

    tau^a * rho^b * v2^m * iota^e        (v2 = v1^2, e in {0, 1})

of coweight a + 2m - e.  rho is absent over the complex base and iota
is absent before taking the fiber; which of the two survive is all
that distinguishes the four eta-local objects.

The differentials have closed forms.  d1 is the Leibniz extension of
d1(v2) = tau.  Where rho and iota coexist there is in addition one
family per odd page,

    d_{n+1}(v1^{2^n}) = rho^{n+1} * iota * v1^{2^n}      (n >= 2),

and nothing else ever fires.  Page membership therefore also has a
closed form, and that is how this module stores the whole spectral
sequence: no matrices, just predicates on exponents.

``localize`` maps tri-graded elements into this world by substituting
the recorded image of each generator (the one non-monomial value is
tau2 |-> tau^2 + rho^2 * v2) and reducing coefficients mod 2.
``compare`` then replays a tri-graded run page by page and checks that
localization commutes with every differential.

Monomial images are keyed by their int codes (``grading.Coding``).  A
new code's image is its prefix's image times one generator power, which
``Coding.split`` peels off the code's least significant field, so no
code is decoded and each new monomial costs one product.  ``compare``
localizes each summand once through its own images, page 1 straight
from its code and a later page's lift monomial by monomial, and reads
the localized d_r as the XOR of the target summands' images over the odd
entries of its column; that is sound because every monomial order is 0
or a power of 2, so reducing a coefficient mod its order keeps its
parity.  The images live for one ``compare`` call and no longer, and
``localize`` of one element keeps none; it keeps only its coding, one
per generator count and field width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .engine import collection_paused, page_shift
from .grading import Coding, EffssError, Element
from .intlinalg import two_adic_valuation
from .objects import load_data

#: exponents of (tau, rho, v2, iota)
EtaMonomial = Tuple[int, int, int, int]

#: an F_2 sum of monomials
EtaElement = FrozenSet[EtaMonomial]

ETA_ONE: EtaMonomial = (0, 0, 0, 0)
ETA_UNIT: EtaElement = frozenset({ETA_ONE})
ETA_ZERO: EtaElement = frozenset()

_GEN_NAMES = ("tau", "rho", "v2", "iota")
_GEN_COWEIGHT = {"tau": 1, "rho": 0, "v2": 2, "iota": -1}

#: eta-local companion of each tri-graded object
ETA_TARGET = {"ko": "ko_eta", "ko_C": "ko_C_eta", "L": "L_eta", "L_C": "L_C_eta"}


class EtaError(EffssError):
    pass


# -- monomial arithmetic over F_2 -----------------------------------------


def eta_el_mul(a: Iterable[EtaMonomial], b: Iterable[EtaMonomial]) -> EtaElement:
    """Product of two F_2 sums of monomials, with iota^2 = 0."""
    out: set = set()
    b = tuple(b)
    for a0, a1, a2, a3 in a:
        for b0, b1, b2, b3 in b:
            if a3 + b3 < 2:  # iota^2 = 0
                z = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                if z in out:
                    out.remove(z)
                else:
                    out.add(z)
    return frozenset(out)


def eta_el_pow(a: EtaElement, k: int) -> EtaElement:
    if k < 0:
        raise ValueError("negative power")
    acc = ETA_UNIT
    for _ in range(k):
        acc = eta_el_mul(acc, a)
    return acc


def render_eta(m: EtaMonomial) -> str:
    if m == ETA_ONE:
        return "1"
    parts = []
    for name, e in zip(_GEN_NAMES, m):
        if e == 0:
            continue
        parts.append(name if e == 1 else "%s^%d" % (name, e))
    return "*".join(parts)


def render_eta_element(el: EtaElement) -> str:
    if not el:
        return "0"
    # highest tau power first, so tau2 prints as "tau^2 + rho^2*v2"
    return " + ".join(render_eta(m) for m in sorted(el, reverse=True))


def parse_eta(text: str) -> EtaElement:
    """Inverse of render_eta_element for well-formed input."""
    text = text.strip()
    if text == "0":
        return ETA_ZERO
    out: set = set()
    for term in text.split("+"):
        term = term.strip()
        exps = dict.fromkeys(_GEN_NAMES, 0)
        if term != "1":
            for chunk in term.split("*"):
                name, _, pw = chunk.strip().partition("^")
                if name not in exps:
                    raise EtaError("unknown eta generator %r" % name)
                exps[name] += int(pw) if pw else 1
        out ^= {tuple(exps[n] for n in _GEN_NAMES)}
    return frozenset(out)


# -- the four eta-local objects --------------------------------------------


@dataclass(frozen=True)
class EtaObject:
    """One eta-periodic spectral sequence, stored as closed forms.

    ``alive`` is page membership, ``differential`` the value of d_r on a
    basis monomial, ``reduce`` passes an E_1 cycle to its class on a
    later page.  All three agree with turning pages by hand: E_2 keeps
    the monomials with a = 0 and m even (everything with an odd v2
    power supports a d1, everything with a positive tau power is hit by
    one), after which only the rho-iota family moves anything.
    """

    name: str
    has_rho: bool
    has_iota: bool

    @property
    def has_family(self) -> bool:
        return self.has_rho and self.has_iota

    def valid(self, m: EtaMonomial) -> bool:
        a, b, mm, e = m
        if min(a, b, mm, e) < 0 or e > 1:
            return False
        if b and not self.has_rho:
            return False
        if e and not self.has_iota:
            return False
        return True

    def alive(self, r: int, m: EtaMonomial) -> bool:
        """Does the monomial survive as a basis class of E_r?"""
        if r < 1:
            raise ValueError("pages start at 1")
        a, b, mm, e = m
        if r == 1:
            return True
        if a or mm % 2:
            return False
        if not self.has_family or mm == 0:
            return True
        stop = two_adic_valuation(mm) + 2  # page where its pair cancels
        if e == 0:
            return r <= stop
        return b < stop or r <= stop

    def differential(self, r: int, m: EtaMonomial) -> EtaElement:
        """d_r on a page-r basis monomial; empty when it is a cycle."""
        if not self.alive(r, m):
            return ETA_ZERO
        a, b, mm, e = m
        if r == 1:
            if mm % 2 == 0:
                return ETA_ZERO
            return frozenset({(a + 1, b, mm - 1, e)})
        if not self.has_family or e == 1 or mm == 0:
            return ETA_ZERO
        if two_adic_valuation(mm) != r - 2:
            return ETA_ZERO
        return frozenset({(0, b + r, mm, 1)})

    def d_element(self, r: int, el: Iterable[EtaMonomial]) -> EtaElement:
        out: set = set()
        for m in el:
            out ^= self.differential(r, m)
        return frozenset(out)

    def reduce(self, r: int, el: Iterable[EtaMonomial]) -> EtaElement:
        """Class of an E_1 element on page r.

        Boundaries of earlier pages are dropped; a monomial that is not
        a cycle for some earlier differential (or that already died as
        the source of one) means the element carries no page-r class at
        all, and that raises.
        """
        out: set = set()
        for m in el:
            if not self.valid(m):
                raise EtaError("%s is not a monomial of %s" % (render_eta(m), self.name))
            if self.alive(r, m):
                out ^= {m}
                continue
            a, b, mm, e = m
            if r >= 2 and a >= 1 and mm % 2 == 0:
                continue  # d1 boundary
            if (
                self.has_family
                and e == 1
                and a == 0
                and mm >= 2
                and mm % 2 == 0
                and b >= two_adic_valuation(mm) + 2
            ):
                continue  # boundary of the rho-iota family
            raise EtaError(
                "%s does not define a class on page %d of %s"
                % (render_eta(m), r, self.name)
            )
        return frozenset(out)


def get_eta(name: str) -> EtaObject:
    """Load an eta-local object from its shipped presentation file."""
    if name not in ETA_TARGET.values():
        raise EtaError(
            "unknown eta-local object %r (expected one of %s)"
            % (name, ", ".join(sorted(ETA_TARGET.values())))
        )
    data = load_data(name)
    if data.get("construction") != "eta_local":
        raise EtaError("%s is not an eta-local presentation" % name)
    if int(data.get("globalTorsion", 0)) != 2:
        raise EtaError("eta-local objects are vector spaces over F_2")
    names = []
    for g in data["generators"]:
        gname = str(g["name"])
        if gname not in _GEN_COWEIGHT:
            raise EtaError("unknown eta generator %r in %s" % (gname, name))
        if int(g["coweight"]) != _GEN_COWEIGHT[gname]:
            raise EtaError("wrong coweight for %s in %s" % (gname, name))
        names.append(gname)
    if "tau" not in names or "v2" not in names:
        raise EtaError("%s must contain tau and v2" % name)
    return EtaObject(str(data["name"]), "rho" in names, "iota" in names)


# -- the comparison map -----------------------------------------------------


def eta_image_table(obj) -> Dict[int, EtaElement]:
    table = obj.meta.get("etaImage")
    if table is None:
        raise EtaError("object %s carries no eta image data" % obj.name)
    return table


class _Images:
    """Eta images of monomials, keyed by their codes under one ``Coding``.

    ``code(k)`` reads the image of code k.  A new code's image is the
    image of the rest of the code times one generator power, both read
    off ``Coding.split``, so no code is decoded.  Generator powers are
    kept by (g, e), and every image is built from one interned copy of
    each eta monomial.  An instance lives for one ``compare`` call, or
    for one ``localize`` call.
    """

    __slots__ = ("table", "encode", "split", "by_code", "powers", "terms")

    def __init__(self, table: Dict[int, EtaElement], coding: Coding) -> None:
        self.table = table
        self.encode = coding.encode
        self.split = coding.split
        self.by_code: Dict[int, EtaElement] = {0: ETA_UNIT}
        self.powers: Dict[Tuple[int, int], EtaElement] = {}
        self.terms: Dict[EtaMonomial, EtaMonomial] = {}

    def code(self, k: int) -> EtaElement:
        img = self.by_code.get(k)
        if img is None:
            g, e, rest = self.split(k)
            power = self.powers.get((g, e))
            if power is None:
                power = self.powers[g, e] = eta_el_pow(self.table[g], e)
            terms = self.terms
            img = self.by_code[k] = frozenset(
                [terms.setdefault(z, z) for z in eta_el_mul(self.code(rest), power)]
            )
        return img

    def element(self, e: Element) -> EtaElement:
        out: set = set()
        for m, c in e.items():
            if c & 1:
                out ^= self.code(self.encode(m))
        return frozenset(out)


def localize(obj, e: Element) -> EtaElement:
    """Image of a tri-graded element under inverting h1.

    Generator-wise substitution with h1 powers dropped; coefficients
    are read mod 2 since the target is an F_2 vector space.  Each
    monomial's image is looked up by its code (``_Images``) under a
    coding of one field per generator, wide enough for e's exponents
    (``_lone_fields``); the call keeps no image.  ``compare`` localizes
    through images of its own and does not come here.
    """
    n = len(obj.pres.generators)
    width = max([x for m in e for _g, x in m], default=0).bit_length() or 1
    return _Images(eta_image_table(obj), _lone_fields(n, width)).element(e)


@lru_cache(maxsize=16)
def _lone_fields(n: int, width: int) -> Coding:
    """The coding of n generators with one field each, kept per (n,
    width): building it costs nearly all of a ``localize`` call, and a
    coding does not change once built."""
    return Coding([(g,) for g in range(n)], width)


def eta_schedule(name: str = "L_eta", r_max: int = 9) -> Dict[int, Dict[EtaMonomial, EtaElement]]:
    """Differentials on multiplicative generators, page by page.

    d1(v2) = tau everywhere.  For the fiber object the rho-iota family
    adds d_{n+1}(v1^{2^n}) = rho^{n+1} * iota * v1^{2^n} for n >= 2;
    every other generator is a cycle on every page, so those are the
    only entries.  The closed forms in EtaObject are the Leibniz
    extension of this schedule, which the tests replay.
    """
    eo = get_eta(name)
    out: Dict[int, Dict[EtaMonomial, EtaElement]] = {
        1: {(0, 0, 1, 0): frozenset({(1, 0, 0, 0)})}
    }
    if not eo.has_family:
        return out
    n = 2
    while n + 1 <= r_max:
        mm = 1 << (n - 1)  # v1^(2^n) = v2^(2^(n-1))
        out[n + 1] = {(0, 0, mm, 0): frozenset({(0, n + 1, mm, 1)})}
        n += 1
    return out


def compare(ss, pages: Optional[int] = None) -> Dict:
    """Check localize . d_r = d_r . localize, summand by summand.

    ``ss`` is a tri-graded run (it is run() if it has not been); the
    eta-local side is looked up from the object's name.
    Every certified summand in the user window is localized, reduced to
    its page-r class, and its differential is chased both ways.  The
    report lists each mismatch with both sides rendered, so a failure
    points at the exact class that moved.

    Each group's summands are localized once, when the walk first meets
    the group as a source or a target, through one set of images keyed
    by the run's codes: page-1 summands by their codes, later ones by
    their lifts' monomials, which are page-1 basis monomials.  A group
    carried to the next page is the same object there and keeps its
    images; the rest are dropped at each turn, and all of them when the
    call returns.  The localized d_r of a summand is the XOR of the
    images of the target summands whose column coefficient is odd.  That
    is localize applied to
    ``differential_value``, which reduces each coefficient mod its
    monomial's order, only because every such order is 0 or a power of
    2 and so keeps the coefficient's parity; an object with a generator
    of odd torsion above 1 is refused.
    """
    obj = ss.obj
    target = ETA_TARGET.get(obj.name)
    if target is None:
        raise EtaError("no eta-local companion for %s" % obj.name)
    pres = obj.pres
    odd = [pres.gen_name(g) for g, t in enumerate(pres.torsions) if t > 1 and t % 2]
    if odd:
        raise EtaError(
            "%s has generators of odd torsion (%s); the comparison reads "
            "coefficients mod 2, which needs every order 0 or a power of 2"
            % (obj.name, ", ".join(odd))
        )
    eta_obj = get_eta(target)
    ss.run()
    r_hi = ss.r_max if pages is None else min(pages, ss.r_max)
    checked = 0
    skipped = 0
    per_page: Dict[int, int] = {}
    mismatches: List[Dict] = []

    def note(r, d, i, G, kind, lhs, rhs):
        mismatches.append(
            {
                "page": r,
                "degree": (d.s, d.f, d.w),
                "coweight": d.coweight,
                "index": i,
                "class": ss.pres.render(G.lift(i)),
                "kind": kind,
                "localized d_r": lhs,
                "d_r localized": rhs,
            }
        )

    images = _Images(eta_image_table(obj), ss.coding)
    held: Dict[object, List[EtaElement]] = {}  # group -> its summands' images

    def images_of(G) -> List[EtaElement]:
        imgs = held.get(G)
        if imgs is None:
            if G.codes is not None:  # page 1
                imgs = [images.code(k) for k in G.codes]
            else:
                imgs = [images.element(G.lift(i)) for i in range(len(G))]
            held[G] = imgs
        return imgs

    fates: Dict[EtaMonomial, Tuple[bool, EtaElement, str]] = {}  # on the page walked

    def page_class(r: int, el: Iterable[EtaMonomial]) -> Tuple[set, set]:
        """(class of el on page r, its d_r): EtaObject.reduce and
        d_element, which are sums over monomials, read monomial by
        monomial off a memo of the page."""
        cls: set = set()
        dr: set = set()
        for m in el:
            fate = fates.get(m)
            if fate is None:
                try:
                    cm = eta_obj.reduce(r, (m,))
                except EtaError as ex:
                    fate = (False, ETA_ZERO, str(ex))
                else:
                    fate = (bool(cm), eta_obj.d_element(r, cm) or ETA_ZERO, "")
                fates[m] = fate
            kept, dm, err = fate
            if err:
                raise EtaError(err)
            if kept:
                cls.add(m)
                dr ^= dm
        return cls, dr

    with collection_paused():  # the walk makes no cycles
        for r in range(1, r_hi + 1):
            page, shift = ss.pages[r], page_shift(r)
            fates.clear()
            for d, G in ss.groups(r):
                if not ss.differential_known(r, d):
                    # the box certifies the classes but not their outgoing
                    # d_r; nothing to compare against
                    skipped += len(G)
                    continue
                M = ss.diffs[r].get(d)
                if M is not None:
                    ptr, rows, vals = M.ptr, M.rows, M.vals
                    tgt = images_of(page[d + shift])
                for i, lx in enumerate(images_of(G)):
                    try:
                        _lxr, want = page_class(r, lx)
                    except EtaError as ex:
                        note(r, d, i, G, "source does not localize to a page class",
                             str(ex), render_eta_element(lx))
                        continue
                    lv: set = set()
                    if M is not None:
                        for k in range(ptr[i], ptr[i + 1]):
                            if vals[k] & 1:
                                lv ^= tgt[rows[k]]
                    try:
                        lvr, _dv = page_class(r, lv)
                    except EtaError as ex:
                        note(r, d, i, G, "value does not localize to a page class",
                             str(ex), render_eta_element(lv))
                        continue
                    checked += 1
                    per_page[r] = per_page.get(r, 0) + 1
                    if lvr != want:
                        note(r, d, i, G, "differentials disagree",
                             render_eta_element(lvr), render_eta_element(want))
            if r < r_hi:
                nxt = ss.pages[r + 1]
                held = {G: imgs for G, imgs in held.items() if nxt.get(G.degree) is G}

    return {
        "object": obj.name,
        "eta": eta_obj.name,
        "pages": r_hi,
        "checked": checked,
        "skipped": skipped,
        "checked_per_page": per_page,
        "mismatches": mismatches,
    }
