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
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .grading import EffssError, Element
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


def eta_mul(x: EtaMonomial, y: EtaMonomial) -> Optional[EtaMonomial]:
    if x[3] + y[3] > 1:  # iota^2 = 0
        return None
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def eta_el_mul(a: Iterable[EtaMonomial], b: Iterable[EtaMonomial]) -> EtaElement:
    out: set = set()
    for x in a:
        for y in b:
            z = eta_mul(x, y)
            if z is not None:
                out ^= {z}
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


#: object -> {monomial: its image}; a memo lives as long as its object
_LOCALIZED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def localize(obj, e: Element) -> EtaElement:
    """Image of a tri-graded element under inverting h1.

    Generator-wise substitution with h1 powers dropped; coefficients
    are read mod 2 since the target is an F_2 vector space.  Monomial
    images are memoized per object, since indices mean different
    generators on different objects.  A new monomial's image is the
    product of the images of its generator powers, which live in the
    same memo.
    """
    table = eta_image_table(obj)
    memo = _LOCALIZED.setdefault(obj, {})
    out: set = set()
    for mono, c in e.items():
        if c % 2 == 0:
            continue
        img = memo.get(mono)
        if img is None:
            img = ETA_UNIT
            for ge in mono:
                power = memo.get((ge,))
                if power is None:
                    power = memo[(ge,)] = eta_el_pow(table[ge[0]], ge[1])
                img = eta_el_mul(img, power)
            memo[mono] = img
        out ^= img
    return frozenset(out)


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
    """
    obj = ss.obj
    target = ETA_TARGET.get(obj.name)
    if target is None:
        raise EtaError("no eta-local companion for %s" % obj.name)
    eta_obj = get_eta(target)
    ss.run()
    r_hi = ss.r_max if pages is None else min(pages, ss.r_max)
    checked = 0
    skipped = 0
    per_page: Dict[int, int] = {}
    mismatches: List[Dict] = []

    def note(r, d, i, lift, kind, lhs, rhs):
        mismatches.append(
            {
                "page": r,
                "degree": (d.s, d.f, d.w),
                "coweight": d.coweight,
                "index": i,
                "class": ss.pres.render(lift),
                "kind": kind,
                "localized d_r": lhs,
                "d_r localized": rhs,
            }
        )

    for r in range(1, r_hi + 1):
        for d, i, _o, lift, _part in ss.summands(r):
            if not ss.differential_known(r, d):
                # the box certifies the class but not its outgoing d_r;
                # nothing to compare against
                skipped += 1
                continue
            lx = localize(obj, lift)
            try:
                lxr = eta_obj.reduce(r, lx)
            except EtaError as ex:
                note(r, d, i, lift, "source does not localize to a page class",
                     str(ex), render_eta_element(lx))
                continue
            value = ss.differential_value(r, d, i)
            lv = localize(obj, value)
            try:
                lvr = eta_obj.reduce(r, lv)
            except EtaError as ex:
                note(r, d, i, lift, "value does not localize to a page class",
                     str(ex), render_eta_element(lv))
                continue
            want = eta_obj.d_element(r, lxr)
            checked += 1
            per_page[r] = per_page.get(r, 0) + 1
            if lvr != want:
                note(r, d, i, lift, "differentials disagree",
                     render_eta_element(lvr), render_eta_element(want))

    return {
        "object": obj.name,
        "eta": eta_obj.name,
        "pages": r_hi,
        "checked": checked,
        "skipped": skipped,
        "checked_per_page": per_page,
        "mismatches": mismatches,
    }
