"""Tri-graded monomial algebras with exact integer coefficients.

Every page of every spectral sequence in this package is, additively, a direct
sum of cyclic groups indexed by monomials in a fixed generator list.  This
module holds the shared machinery for that picture:

* ``TriDegree`` is a degree (s, f, w) = (stem, filtration, weight).  The
  combination s - w, the coweight, grades everything on the eta-periodic side
  and controls which classes a higher differential can touch.

* A ``Monomial`` is a sorted sparse exponent tuple ``((gen_index, exp), ...)``
  and an element is a dict mapping monomials to integer coefficients.

* ``RingPresentation`` bundles generators (each with a degree, an additive
  torsion, an optional exponent cap and optional exclusion slots) together
  with monomial rewrite rules.  Products are computed by rewriting to normal
  form; the rule lists used here are confluent and terminating, which the test
  suite checks on random products.  Caps and slots alone define the normal
  forms.  Each rule repairs exactly one cap or slot violation and is looked
  up by it; a violation that no rule repairs is refused.

* ``Coding`` is the int code of monomials that page 1 keeps in place of
  them.  It alone knows the field layout: ``decode`` walks every field,
  and ``split``, which peels one generator power off a code, is the one
  walk of the layout that other modules use.

* ``render_terms`` is the one text format of a sum of terms: ``render``
  and the engine's page 1 dump, which renders from codes, both call it.

Coefficients are reduced modulo the additive order of the monomial they sit
on.  The order of a monomial is the gcd of the torsions of the generators
appearing in it (torsion 0 means a free summand).
"""

from __future__ import annotations

import math
from typing import (
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)


class EffssError(Exception):
    """Base class for errors raised by this package."""


class PresentationError(EffssError):
    """A generator list or rule list violates an invariant we rely on."""


# The read side's errors live here too, so that the command line maps
# them to exit statuses without loading the read side.


class AssembleError(EffssError):
    """A column could not be assembled inside the certified region."""


class LedgerError(EffssError):
    """A hidden extension row failed validation."""


class ChartError(EffssError):
    """Bad chart specification."""


def record_repr(self) -> str:
    """``Name(field=value, ...)`` of a plain record, its fields in the
    order its ``__init__`` sets them."""
    return "%s(%s)" % (type(self).__name__, ", ".join("%s=%r" % kv for kv in vars(self).items()))


class TriDegree(NamedTuple):
    """Degree triple (stem, filtration, weight) with componentwise arithmetic."""

    s: int
    f: int
    w: int

    @property
    def coweight(self) -> int:
        return self.s - self.w

    def __add__(self, other: "TriDegree") -> "TriDegree":  # type: ignore[override]
        return TriDegree(self.s + other.s, self.f + other.f, self.w + other.w)

    def __sub__(self, other: "TriDegree") -> "TriDegree":
        return TriDegree(self.s - other.s, self.f - other.f, self.w - other.w)

    def scaled(self, n: int) -> "TriDegree":
        return TriDegree(n * self.s, n * self.f, n * self.w)

    def __str__(self) -> str:
        return "({}, {}, {})".format(self.s, self.f, self.w)


def lam(degree: TriDegree) -> int:
    """The enumeration weight 2f + s - w.

    Each presentation we ship has lam >= 1 on every generator, so lam bounds
    the total exponent of a monomial and makes basis enumeration finite.

    >>> lam(TriDegree(-1, 1, -1))
    2
    """
    return 2 * degree.f + degree.s - degree.w


# ---------------------------------------------------------------------------
# monomials and elements
# ---------------------------------------------------------------------------

#: Sparse exponent vector, sorted by generator index, exponents positive.
Monomial = Tuple[Tuple[int, int], ...]

#: The unit monomial.
MONE: Monomial = ()

#: Sparse linear combination of monomials.
Element = Dict[Monomial, int]


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Merge two sorted exponent tuples.

    >>> mono_mul(((0, 1), (2, 3)), ((0, 2),))
    ((0, 3), (2, 3))
    """
    if not a:
        return b
    if not b:
        return a
    out: List[Tuple[int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        ga, ea = a[i]
        gb, eb = b[j]
        if ga == gb:
            out.append((ga, ea + eb))
            i += 1
            j += 1
        elif ga < gb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_div(a: Monomial, b: Monomial) -> Optional[Monomial]:
    """Exact quotient a / b, or None when b does not divide a."""
    quot: List[Tuple[int, int]] = []
    i = 0
    for gb, eb in b:
        while i < len(a) and a[i][0] < gb:
            quot.append(a[i])
            i += 1
        if i >= len(a) or a[i][0] != gb or a[i][1] < eb:
            return None
        ea = a[i][1]
        if ea > eb:
            quot.append((gb, ea - eb))
        i += 1
    quot.extend(a[i:])
    return tuple(quot)


def render_terms(terms: Iterable[Tuple[int, str]]) -> str:
    """(coefficient, monomial text) terms joined as ``RingPresentation.render``
    prints an element, "" for no terms.  A later term follows " + " or " - "
    by its sign, a coefficient of 1 or -1 prints as its sign alone, and a
    term on the unit monomial, whose text is "1", prints as its coefficient.

    >>> render_terms([(-1, "v2"), (3, "tau2"), (-2, "1")])
    '-v2 + 3*tau2 - 2'
    """
    out: List[str] = []
    for c, text in terms:
        if out:
            out.append(" - " if c < 0 else " + ")
            c = abs(c)
        if text == "1":
            out.append(str(c))
        elif c == 1:
            out.append(text)
        elif c == -1:
            out.append("-" + text)
        else:
            out.append("%d*%s" % (c, text))
    return "".join(out)


def el_iadd(acc: Element, other: Element, scale: int = 1) -> Element:
    """Accumulate ``scale * other`` into ``acc`` in place and return it."""
    for m, c in other.items():
        acc[m] = acc.get(m, 0) + scale * c
    return acc


def el_scale(e: Element, scale: int) -> Element:
    return {m: scale * c for m, c in e.items()}


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


class GeneratorSpec(NamedTuple):
    """One generator of a presentation.

    torsion   additive order of the generator (0 for a free class); the
              order of a monomial is the gcd of the torsions present.
    cap       largest exponent the generator carries in a normal-form
              monomial, or None when powers are unbounded.
    slots     exclusion groups.  A normal monomial contains at most one
              generator from each named slot.  Used for the single
              v-power carrier in the fiber presentations.
    """

    name: str
    degree: TriDegree
    torsion: int = 0
    cap: Optional[int] = None
    slots: Tuple[str, ...] = ()


class Coding:
    """The order-preserving int code of monomials at one field width,
    code(m) = sum of offset[g] + e * unit[g] over g^e in m, and its inverse.

    A lone generator's field holds its exponent in ``width`` bits.  A run
    of R > 1 consecutive generators g_0 < ... < g_(R-1) sharing a slot
    holds at most one of them, so it is one field, holding
    (R - k) * 2^width + e for g_k^e and 0 when no member is present.
    Fields follow generator index, generator 0 most significant.

    While every exponent stays below 2^width no field carries, so
    ``decode`` inverts ``encode`` and codes compare as the dense exponent
    vectors do (the order of ``RingPresentation.mono_key``): fields compare
    most significant first, and within a run a present member outranks
    every later one and an absent run.  For the same reason, for a product
    S of lone generators, code(S X) = code(S) + code(X), and code(S X)
    masked to S's fields (``field_mask``) is code(S).

    The layout is known here alone: ``decode`` walks every field, and
    ``split`` peels one power off a code, which is the one walk of the
    layout outside this class.
    """

    __slots__ = ("width", "unit", "offset", "_fields", "_by_bit")

    def __init__(self, runs: Sequence[Tuple[int, ...]], width: int) -> None:
        n = sum(map(len, runs))
        unit = [0] * n
        offset = [0] * n
        fields = []  # (run, field mask, field bits), least significant first
        by_bit = []  # per bit: its field's lowest bit, mask, and members by value
        at = 0
        for run in reversed(runs):
            r = len(run)
            for k, g in enumerate(run):
                unit[g] = 1 << at
                if r > 1:
                    offset[g] = (r - k) << (at + width)
            bits = width + (r.bit_length() if r > 1 else 0)
            fields.append((run, (1 << bits) - 1, bits))
            members = {(r - k) << width if r > 1 else 0: g for k, g in enumerate(run)}
            by_bit.extend([(at, (1 << bits) - 1, members)] * bits)
            at += bits
        self.width = width
        self.unit: Tuple[int, ...] = tuple(unit)
        self.offset: Tuple[int, ...] = tuple(offset)
        self._fields = tuple(fields)
        self._by_bit = tuple(by_bit)

    def encode(self, m: Monomial) -> int:
        return sum([self.offset[g] + e * self.unit[g] for g, e in m])

    def decode(self, k: int) -> Monomial:
        """The monomial whose code is k."""
        width = self.width
        low = (1 << width) - 1
        out = []
        for run, mask, bits in self._fields:
            if not k:
                break
            v = k & mask
            k >>= bits
            if v:
                out.append((run[0], v) if len(run) == 1 else (run[len(run) - (v >> width)], v & low))
        out.reverse()
        return tuple(out)

    def split(self, k: int) -> Tuple[int, int, int]:
        """(g, e, rest) for a nonzero code k: g^e is the power in k's least
        significant field present, and rest the code of the other powers,
        k with that field cleared."""
        at, mask, members = self._by_bit[(k & -k).bit_length() - 1]
        v = (k >> at) & mask
        e = v & ((1 << self.width) - 1)
        return members[v - e], e, k - (v << at)

    def field_mask(self, gens: Iterable[int]) -> int:
        """The bits of the fields of the given lone generators."""
        low = (1 << self.width) - 1
        return sum([low * self.unit[g] for g in gens])


class Basis(dict):
    """``RingPresentation.basis_window``'s result, by non-empty degree.

    Each degree holds three parallel tuples in basis order: its normal
    monomials' orders, whether a marked generator divides each, and their
    codes under ``coding``, the one form in which the monomials are kept.
    A plain tuple per degree, as a record type would cost more to build
    than the rest of a degree on windows of one-monomial degrees.
    """

    def __init__(self, coding: Coding) -> None:
        super().__init__()
        self.coding = coding

    @property
    def monomials(self) -> Dict[TriDegree, List[Monomial]]:
        """Each degree's monomials, decoded."""
        decode = self.coding.decode
        return {d: list(map(decode, codes)) for d, (_o, _k, codes) in self.items()}


class RewriteRule(NamedTuple):
    """lhs -> sum of (coeff, monomial), lhs being one cap or slot violation."""

    lhs: Monomial
    rhs: Tuple[Tuple[int, Monomial], ...]


class RingPresentation:
    """A tri-graded algebra given by generators and monomial rewrite rules.

    Invariant: caps and slots alone define the normal forms.  Every rule
    lhs is exactly one violation (a generator one over its cap, or two
    generators sharing a slot), and no two rules share one.  Each rule is
    checked as it enters the rule dict: given rules at construction, and
    rules from ``rule_source`` (presentation, violation -> rule or None) on
    first lookup.  The source is handed the presentation rather than
    holding it, so a presentation and its source make no reference cycle.
    The monomials without violations form an additive basis; ``multiply``
    and ``reduce`` rewrite products onto it with exact coefficients, and
    refuse a violation that no rule repairs.
    """

    def __init__(
        self,
        name: str,
        generators: Sequence[GeneratorSpec],
        rules: Sequence[RewriteRule] = (),
        rule_source: Optional[Callable[["RingPresentation", Monomial], Optional[RewriteRule]]] = None,
    ) -> None:
        self.name = name
        self._generators: Tuple[GeneratorSpec, ...] = tuple(generators)
        self._torsions: Tuple[int, ...] = tuple(g.torsion for g in self._generators)

        self._index: Dict[str, int] = {}
        for i, g in enumerate(self._generators):
            if g.name in self._index:
                raise PresentationError("duplicate generator name %r" % g.name)
            self._index[g.name] = i

        for g in self._generators:
            if lam(g.degree) < 1:
                raise PresentationError(
                    "generator %s has 2f + s - w = %d < 1; basis enumeration "
                    "would not terminate" % (g.name, lam(g.degree))
                )
            if g.degree.f < 0:
                raise PresentationError(
                    "generator %s lowers the filtration; basis enumeration "
                    "prunes on filtrations that never decrease" % g.name
                )
            if g.torsion < 0 or g.cap is not None and g.cap < 1:
                raise PresentationError("bad torsion or cap on %s" % g.name)

        # Given rules are checked here, so that a bad one is refused at
        # construction; rule_source answers the rest.
        self._rules: Dict[Monomial, Optional[RewriteRule]] = {}
        for r in rules:
            if r.lhs in self._rules:
                raise PresentationError(
                    "two rules rewrite %s" % self.render_monomial(r.lhs)
                )
            self._rules[r.lhs] = self._checked(r.lhs, r)
        self._source = rule_source

        tails = [
            i
            for i, g in enumerate(self._generators)
            if g.degree.s == 0 and g.degree.f == 0
        ]
        if len(tails) > 1:
            raise PresentationError(
                "at most one pure-weight generator is supported, got %s"
                % [self._generators[i].name for i in tails]
            )
        self._tail: Optional[int] = tails[0] if tails else None
        t = self._generators[self._tail] if tails else None
        # basis_window emits every power of the tail in range at its leaves,
        # which needs a weight-lowering tail with no cap or slot; it is the
        # free tau tower on every shipped object
        if t is not None and (t.degree.w >= 0 or t.torsion or t.cap is not None or t.slots):
            raise PresentationError(
                "pure-weight generator %s must lower the weight and be free, "
                "with no cap or slot" % t.name
            )

        # A maximal run of consecutive generators sharing a slot admits at
        # most one of its members.  Each run is one field of a monomial's
        # code (Coding) and, but for the tail, one search level of
        # basis_window.  The longer runs go outermost; the rest follow in
        # reverse declaration order, which puts rho, the one letter that
        # lowers the stem, innermost and halves the search on L and ko.
        runs: List[List[int]] = []
        shared: set = set()
        for i, g in enumerate(self._generators):
            if runs and shared & set(g.slots):
                runs[-1].append(i)
                shared &= set(g.slots)
            else:
                runs.append([i])
                shared = set(g.slots)
        self._runs: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, runs))
        self._levels: List[Tuple[int, ...]] = sorted(
            (run for run in reversed(self._runs) if run != (self._tail,)),
            key=len,
            reverse=True,
        )
        # basis_window builds the powers of generator 0 as towers when it
        # is free (no cap, no slot) and alone on the innermost level, which
        # also means it is not the tail: rho on L and ko
        g0 = self._generators[0] if self._levels[-1:] == [(0,)] else None
        self._tower: bool = g0 is not None and g0.cap is None and not g0.slots

        # Stem pruning.  With f >= 0 on every generator, _reach[pos] bounds
        # |stem change| per unit of filtration over the levels from pos on
        # (None when a level can change the stem at no filtration cost).
        reach: Optional[int] = 0
        self._reach: List[Optional[int]] = [reach]
        for level in reversed(self._levels):
            for d in (self._generators[i].degree for i in level):
                ok = reach is not None and d.f > 0
                reach = max(reach, -(-abs(d.s) // d.f)) if ok else None
            self._reach.append(reach)
        self._reach.reverse()

        self._reduce_memo: Dict[Monomial, Element] = {}

        #: the box a materialized generator list covers; basis_window
        #: refuses boxes outside it.  None when the list is complete.
        self.cover = None

    @property
    def generators(self) -> Tuple[GeneratorSpec, ...]:
        """The generators, read-only: the name index, search levels, stem
        reach and tail above are derived from them at construction."""
        return self._generators

    @property
    def torsions(self) -> Tuple[int, ...]:
        """Each generator's torsion, by index."""
        return self._torsions

    @property
    def tail(self) -> Optional[int]:
        """Index of the pure-weight (tau power) generator, if there is one."""
        return self._tail

    @property
    def rules(self) -> Tuple[RewriteRule, ...]:
        """Every rule, sorted by the first and then the last generator of its lhs.

        This asks the source about every violation the generators can
        form, so only serialization reads it; rewriting never does.
        """
        top = tuple((i, (g.cap or 0) + 1) for i, g in enumerate(self._generators))
        lhss = sorted(set(self._violations(top)), key=lambda v: (v[0][0], v[-1][0]))
        return tuple(r for r in map(self._rule, lhss) if r is not None)

    # -- bookkeeping --------------------------------------------------

    def gen(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PresentationError("no generator named %r in %s" % (name, self.name))

    def gen_name(self, i: int) -> str:
        return self._generators[i].name

    def monomial(self, exps: Dict[str, int]) -> Monomial:
        """Build a monomial from a name -> exponent dict."""
        pairs = sorted((self.gen(n), e) for n, e in exps.items() if e)
        for _, e in pairs:
            if e < 0:
                raise PresentationError("negative exponent")
        return tuple(pairs)

    def degree_of(self, m: Monomial) -> TriDegree:
        s = f = w = 0
        for g, e in m:
            d = self._generators[g].degree
            s += e * d.s
            f += e * d.f
            w += e * d.w
        return TriDegree(s, f, w)

    def order_of(self, m: Monomial) -> int:
        """Additive order of the cyclic summand on monomial m (0 = free)."""
        t = self._torsions
        o = 0
        for g, _ in m:
            o = math.gcd(o, t[g])
        return o

    def degree_of_element(self, e: Element) -> Optional[TriDegree]:
        """Common degree of a homogeneous element, None for the zero element.

        Raises PresentationError when terms of mixed degree are present;
        every element handled by the page machinery is homogeneous.
        """
        deg: Optional[TriDegree] = None
        for m in e:
            d = self.degree_of(m)
            if deg is None:
                deg = d
            elif d != deg:
                raise PresentationError(
                    "inhomogeneous element: %s vs %s" % (deg, d)
                )
        return deg

    # -- reduction and products ----------------------------------------

    def _violations(self, m: Monomial) -> Iterator[Monomial]:
        """The minimal non-normal divisors of m, in support order.

        These are g^(cap+1) for a generator over its cap, and g*h for two
        generators sharing a slot (once per shared slot).  m is normal
        exactly when there are none.
        """
        seen: Dict[str, List[int]] = {}
        for g, e in m:
            spec = self._generators[g]
            if spec.cap is not None and e > spec.cap:
                yield ((g, spec.cap + 1),)
            for sl in spec.slots:
                members = seen.setdefault(sl, [])
                for h in members:
                    yield ((h, 1), (g, 1))
                members.append(g)

    def _checked(self, v: Monomial, rule: Optional[RewriteRule]) -> Optional[RewriteRule]:
        """rule, refused unless it is None or its lhs is exactly violation v."""
        # a pair sharing two slots yields itself twice, hence the set
        if rule is not None and (rule.lhs != v or set(self._violations(v)) != {v}):
            raise PresentationError(
                "rule lhs %s is not exactly one cap or slot violation"
                % self.render_monomial(rule.lhs)
            )
        return rule

    def _rule(self, v: Monomial) -> Optional[RewriteRule]:
        """The rule repairing violation v; the source is asked once per v."""
        if v not in self._rules:
            source = self._source
            self._rules[v] = self._checked(v, source(self, v) if source else None)
        return self._rules[v]

    def reduce_monomial(self, m: Monomial) -> Element:
        """Rewrite a single monomial to a combination of normal monomials.

        The first violation of m that has a rule is rewritten.  When none
        has one, m lies beyond the materialized window and is refused.
        Coefficients are reduced modulo torsion by ``reduce``, not here.
        Results of nontrivial rewrites are memoized.
        """
        hit = self._reduce_memo.get(m)
        if hit is not None:
            return hit
        violations = list(self._violations(m))
        if not violations:
            return {m: 1}
        rule = next((r for r in map(self._rule, violations) if r is not None), None)
        if rule is None:
            raise PresentationError(
                "%s: no rule rewrites %s, which lies beyond the materialized "
                "window" % (self.name, self.render_monomial(m))
            )
        quot = mono_div(m, rule.lhs)
        assert quot is not None
        acc: Element = {}
        for coeff, rm in rule.rhs:
            part = self.reduce_monomial(mono_mul(rm, quot))
            el_iadd(acc, part, coeff)
        acc = {mm: c for mm, c in acc.items() if c}
        self._reduce_memo[m] = acc
        return acc

    def _norm_coeff(self, m: Monomial, c: int) -> int:
        o = self.order_of(m)
        return c % o if o else c

    def reduce(self, e: Element) -> Element:
        """Normal form of an element; coefficients reduced mod torsion."""
        acc: Element = {}
        for m, c in e.items():
            if not c:
                continue
            el_iadd(acc, self.reduce_monomial(m), c)
        return self.reduce_coefficients(acc)

    def reduce_coefficients(self, e: Element) -> Element:
        """Normal form of an element whose monomials are all normal, such as
        a sum of lifts: each coefficient reduced mod its monomial's order."""
        out: Element = {}
        for m, c in e.items():
            c = self._norm_coeff(m, c)
            if c:
                out[m] = c
        return out

    def multiply(self, a: Element, b: Element) -> Element:
        raw: Element = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = mono_mul(ma, mb)
                raw[m] = raw.get(m, 0) + ca * cb
        return self.reduce(raw)

    def is_normal(self, m: Monomial) -> bool:
        """True when m is a basis monomial: it has no cap or slot violation.

        Tests are its only callers.  They check that ``multiply`` returns
        only normal monomials.
        """
        return next(self._violations(m), None) is None

    # -- basis enumeration ----------------------------------------------

    def basis_window(
        self,
        s_range: Tuple[int, int],
        f_range: Tuple[int, int],
        w_range: Tuple[int, int],
        marked: Collection[int] = frozenset(),
        headroom: int = 0,
    ) -> Basis:
        """All normal monomials with degree in the closed box, by degree,
        as each one's order, whether a ``marked`` generator divides it, and
        its code.

        Runs a depth-first search over exponent vectors, one level per
        generator, except that a run of consecutive generators sharing a
        slot is one "none or one of these" level, searched outermost.
        Normal forms are exactly the monomials passing caps and slots, so
        nothing emitted needs a rule lookup.  Total exponents are bounded
        because 2f + s - w is at least 1 on every generator, and partial
        stems are pruned by the stem reach per unit of filtration left,
        since no generator lowers the filtration.  The pure-weight
        generator (the tau power) is peeled off into a closed-form range at
        the leaves.

        Each path carries the gcd of its torsions, whether a marked
        generator has appeared, and the code of its monomial under the
        result's ``Coding``; a step adds a generator's offset and its unit
        times the exponent, and the leaf adds e * unit(tail).  No monomial
        is spelled out.  width is the bit length of the box's top
        2f + s - w plus ``headroom``, so no field carries for a monomial up
        to ``headroom`` above the box either.  Codes are distinct within a
        degree and ordered as ``mono_key`` orders monomials, so each degree
        is sorted by code.

        Where generator 0 (g) is free and alone on the innermost level, as
        rho is on L and ko, g is a tower: g^e X is normal exactly when X
        is, and lies |g| above X.  The search then stops at g's level and
        emits only each path's g-free monomials and its face monomials,
        those whose degree's lower neighbour, |g| below, lies outside the
        box (past the top stem or weight, or under the bottom filtration);
        g's exponent on a face is found in closed form.  Every other
        degree is built bottom up, in increasing 2f + s - w: its sorted
        g-free monomials, then g times each monomial of the degree below,
        with the code plus unit(g), the order gcd'd with g's torsion and
        the mark or'ed with g's.  Codes stay sorted, as g is the most
        significant field.  Degrees come in the order in which the search
        without towers first reaches them, which is the least (path rank,
        g exponent, tail exponent) among their monomials: a search key for
        what the search emits, and the key of the degree below with one g
        more for a translate.
        """
        s0, s1 = s_range
        f0, f1 = f_range
        w0, w1 = w_range
        lam_max = 2 * f1 + s1 - w0
        coding = Coding(self._runs, max(lam_max + headroom, 0).bit_length())
        if s0 > s1 or f0 > f1 or w0 > w1:
            return Basis(coding)
        c = self.cover
        if c is not None and not (
            c.s[0] <= s0 and s1 <= c.s[1] and f1 <= c.f[1] and c.w[0] <= w0 and w1 <= c.w[1]
        ):
            raise PresentationError(
                "%s was materialized for a smaller window; rebuild the object "
                "with the window you want to enumerate" % self.name
            )

        gens = self._generators
        levels = self._levels
        reach = self._reach
        torsion = self._torsions
        unit, offset = coding.unit, coding.offset
        tail = self._tail
        tail_w = -gens[tail].degree.w if tail is not None else 0
        tail_unit = unit[tail] if tail is not None else 0
        tail_marked = tail in marked
        tower = self._tower
        # (s, f, w) -> code, order and mark of each monomial in turn: one
        # flat list per degree, since on thin windows most degrees hold one
        # monomial, and a list per array would outweigh it.
        out: Dict[Tuple[int, int, int], list] = {}

        def leaf(s: int, f: int, w: int, code: int, o: int, mk: bool) -> None:
            if not (s0 <= s <= s1 and f0 <= f <= f1):
                return
            if tail is None:
                lo = hi = 0
                if not w0 <= w <= w1:
                    return
            else:
                # solve w - e * tail_w in [w0, w1] for e >= 0
                lo = -(-(w - w1) // tail_w)  # ceil
                hi = (w - w0) // tail_w
                if lo < 0:
                    lo = 0
                tmk = mk or tail_marked
            for e in range(lo, hi + 1):
                d = (s, f, w - e * tail_w)
                flat = out.get(d)
                if flat is None:
                    flat = out[d] = []
                if e:
                    flat += (code + e * tail_unit, o, tmk)
                else:
                    flat += (code, o, mk)

        if tower:
            gs, gf, gw = gens[0].degree
            g_unit, g_torsion, g_marked = unit[0], torsion[0], 0 in marked
            # The towers' first reach: the plain search meets each monomial
            # at (rank of its path to generator 0's level, exponent of g,
            # exponent of the tail), so a degree's place is its least such
            # key, packed as one int in base `big`, above every exponent.
            first: Dict[Tuple[int, int, int], int] = {}
            big = max(lam_max, 0) + 2
            rank = 0
            # the weights whose neighbour |g| lower lies past the box's
            # weight edge: above w1 when g lowers the weight, below w0 when
            # it raises it
            b0, b1 = (max(w0, w1 + gw + 1), w1) if gw < 0 else (w0, min(w1, w0 + gw - 1)) if gw else (1, 0)

            def tails(w: int) -> Tuple[int, int]:
                """The first and last e >= 0 with w - e * tail_w in [w0, w1]."""
                if tail is None:
                    return (0, 0) if w0 <= w <= w1 else (1, 0)
                lo = -(-(w - w1) // tail_w)
                return (lo if lo > 0 else 0), (w - w0) // tail_w

            def steps(x: int, c: int, lo: int, hi: int) -> Tuple[int, int]:
                """The first and last e >= 0 with x + e * c in [lo, hi]."""
                if c > 0:
                    return max(0, -((x - lo) // c)), (hi - x) // c
                if c < 0:
                    return max(0, -((hi - x) // -c)), (x - lo) // -c
                return (0, lam_max) if lo <= x <= hi else (1, 0)

            def emit(s: int, f: int, w: int, code: int, o: int, mk: bool, key: int, lo: int, hi: int) -> None:
                """The monomials code * tail^e for e in lo..hi."""
                tmk = mk or tail_marked
                for e in range(lo, hi + 1):
                    d = (s, f, w - e * tail_w)
                    flat = out.get(d)
                    if flat is None:
                        flat = out[d] = []
                        first[d] = key + e
                    if e:
                        flat += (code + e * tail_unit, o, tmk)
                    else:
                        flat += (code, o, mk)

            def towers(s: int, f: int, w: int, code: int, o: int, mk: bool) -> None:
                """Generator 0's level: the g-free monomials of this path,
                and its face monomials, those g^e X whose degree's lower
                neighbour, |g| below, lies outside the box.  The pass
                below finds every other g^e X among the translates."""
                nonlocal rank
                rank += 1
                key = rank * big * big
                a, b = steps(s, gs, s0, s1)
                af, bf = steps(f, gf, f0, f1)
                if af > a:
                    a = af
                if bf < b:
                    b = bf
                if a > b:
                    return
                go = math.gcd(o, g_torsion)
                gmk = mk or g_marked
                if a:
                    # the stem or filtration face: g^a is g's first power in the box
                    w_a = w + a * gw
                    emit(s + a * gs, f + a * gf, w_a, code + a * g_unit, go, gmk, key + a * big, *tails(w_a))
                else:
                    emit(s, f, w, code, o, mk, key, *tails(w))
                if a == b or b0 > b1:
                    return
                # the weight face, one e for each tail power t: the e in
                # a + 1..b with w + e * gw - t * tail_w in b0..b1
                if tail is None:
                    ts = range(1)
                else:
                    lo_w, hi_w = sorted(((a + 1) * gw, b * gw))
                    ts = range(max(0, -((b1 - w - lo_w) // tail_w)), (w + hi_w - b0) // tail_w + 1)
                for t in ts:
                    x = w - t * tail_w
                    e = -((b1 - x) // -gw) if gw < 0 else -((x - b0) // gw)
                    if a < e <= b and b0 <= x + e * gw <= b1:
                        emit(s + e * gs, f + e * gf, w + e * gw, code + e * g_unit, go, gmk, key + e * big, t, t)

        bottom = towers if tower else leaf
        stop = len(levels) - tower  # the level the search ends on

        def rec(
            pos: int, s: int, f: int, w: int, lam_used: int, slots: frozenset, code: int, o: int, mk: bool
        ) -> None:
            lam_rem = lam_max - lam_used
            if lam_rem < 0:
                return
            if f > f1:
                return
            r = reach[pos]
            if r is not None and (s - r * (f1 - f) > s1 or s + r * (f1 - f) < s0):
                return
            if pos == stop:
                bottom(s, f, w, code, o, mk)
                return
            rec(pos + 1, s, f, w, lam_used, slots, code, o, mk)
            for gi in levels[pos]:
                spec = gens[gi]
                if slots and not slots.isdisjoint(spec.slots):
                    continue
                d = spec.degree
                gl = lam(d)
                emax = lam_rem // gl
                if spec.cap is not None and emax > spec.cap:
                    emax = spec.cap
                if d.f > 0:
                    e_by_f = (f1 - f) // d.f
                    if emax > e_by_f:
                        emax = e_by_f
                new_slots = slots | frozenset(spec.slots) if spec.slots else slots
                go = math.gcd(o, torsion[gi])
                gmk = mk or gi in marked
                u = unit[gi]
                k = code + offset[gi]
                for e in range(1, emax + 1):
                    k += u
                    rec(pos + 1, s + e * d.s, f + e * d.f, w + e * d.w, lam_used + e * gl,
                        new_slots, k, go, gmk)

        try:
            rec(0, 0, 0, 0, 0, frozenset(), 0, 0, False)
        finally:
            del rec  # rec reaches itself through its closure; unbind it to free both
        # one orders tuple and one marks tuple per distinct value; a
        # one-monomial degree finds its two by its one value
        shared_orders: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        shared_marks: Dict[Tuple[bool, ...], Tuple[bool, ...]] = {}
        one_order: Dict[int, Tuple[int, ...]] = {}
        one_mark: Dict[bool, Tuple[bool, ...]] = {}

        def arrays(flat: list) -> Tuple[Tuple[int, ...], Tuple[bool, ...], Tuple[int, ...]]:
            """A degree's orders, marks and codes from its flat list, in code
            order, which is basis order (codes are distinct in a degree)."""
            if len(flat) == 3:
                code, o, mk = flat
                os = one_order.get(o)
                if os is None:
                    os = one_order[o] = shared_orders.setdefault((o,), (o,))
                ms = one_mark.get(mk)
                if ms is None:
                    ms = one_mark[mk] = shared_marks.setdefault((mk,), (mk,))
                return os, ms, (code,)
            flat = [x for row in sorted(zip(*[iter(flat)] * 3)) for x in row]
            os = tuple(flat[1::3])
            ms = tuple(flat[2::3])
            return shared_orders.setdefault(os, os), shared_marks.setdefault(ms, ms), tuple(flat[0::3])

        basis = Basis(coding)
        new = tuple.__new__
        if not tower:
            for d in list(out):
                basis[new(TriDegree, d)] = arrays(out.pop(d))  # freed as its arrays are made
            return basis

        # Bottom up along g, one walk up each run of non-empty degrees: a
        # degree holds its own g-free and face monomials, then g times each
        # monomial of the degree below, and is first reached at the lesser
        # of its own key and the key below with one g more.
        made: Dict[Tuple[int, int, int], Tuple[Tuple[int, ...], Tuple[bool, ...], Tuple[int, ...]]] = {}
        moved: Dict[Tuple[int, ...], Tuple[int, ...]] = {}  # orders below -> orders of their g multiples
        for d in sorted(out, key=lambda d: 2 * d[1] + d[0] - d[2]):
            below = None
            while d not in made:
                flat = out.pop(d, None)
                os, ms, cs = arrays(flat) if flat else ((), (), ())
                key = first.get(d)
                if below is not None:
                    if key is None or up < key:
                        key = up
                    bos, bms, bcs = below
                    mos = moved.get(bos)
                    if mos is None:
                        mos = tuple([math.gcd(x, g_torsion) for x in bos])
                        mos = moved[bos] = shared_orders.setdefault(mos, mos)
                    if g_marked:
                        bms = (True,) * len(bms)
                        bms = shared_marks.setdefault(bms, bms)
                    cs += tuple([x + g_unit for x in bcs])
                    if os:
                        os += mos
                        ms += bms
                        os = shared_orders.setdefault(os, os)
                        ms = shared_marks.setdefault(ms, ms)
                    else:
                        os, ms = mos, bms
                if not cs:
                    break
                made[d] = below = (os, ms, cs)
                first[d] = key
                up = key + big
                d = (d[0] + gs, d[1] + gf, d[2] + gw)
                if not (s0 <= d[0] <= s1 and f0 <= d[1] <= f1 and w0 <= d[2] <= w1):
                    break
        for d in sorted(made, key=first.__getitem__):
            basis[new(TriDegree, d)] = made.pop(d)
        return basis

    # -- printing and serialization ---------------------------------------

    def mono_key(self, m: Monomial):
        """The canonical sort key: it orders monomials as their dense
        exponent vectors do, as a lower generator outranks every higher one."""
        return tuple([(-g, e) for g, e in m])

    def render_monomial(self, m: Monomial) -> str:
        if not m:
            return "1"
        parts = []
        for g, e in m:
            name = self._generators[g].name
            parts.append(name if e == 1 else "%s^%d" % (name, e))
        return "*".join(parts)

    def render(self, e: Element) -> str:
        if not e:
            return "0"
        items = sorted(e.items(), key=lambda mc: self.mono_key(mc[0]))
        return render_terms([(c, self.render_monomial(m)) for m, c in items])

    def parse_monomial(self, text: str) -> Monomial:
        """Inverse of render_monomial for well-formed input.

        >>> # doctest helper lives in the test suite; format is g1^e1*g2
        """
        text = text.strip()
        if text == "1":
            return MONE
        exps: Dict[str, int] = {}
        for chunk in text.split("*"):
            chunk = chunk.strip()
            if "^" in chunk:
                name, _, pw = chunk.partition("^")
                exps[name.strip()] = exps.get(name.strip(), 0) + int(pw)
            else:
                exps[chunk] = exps.get(chunk, 0) + 1
        return self.monomial(exps)

    def parse(self, text: str) -> Element:
        """Inverse of render: sums of terms like ``8*tau2*iv4``.

        The reduced element is returned, so the input does not have to be
        in normal form ("th1^2" parses fine).
        """
        text = text.strip()
        if text in ("0", ""):
            return {}
        out: Element = {}
        for term in text.replace("- ", "+ -").split("+"):
            term = term.strip()
            coeff = 1
            if term.startswith("-"):
                coeff = -1
                term = term[1:].strip()
            chunks = [c.strip() for c in term.split("*")]
            names = []
            for chunk in chunks:
                if chunk.lstrip("-").isdigit():
                    coeff *= int(chunk)
                else:
                    names.append(chunk)
            m = self.parse_monomial("*".join(names)) if names else MONE
            out[m] = out.get(m, 0) + coeff
        return self.reduce(out)

    def mono_to_dict(self, m: Monomial) -> Dict[str, int]:
        return {self._generators[g].name: e for g, e in m}

    def element_to_list(self, e: Element) -> List[List[object]]:
        items = sorted(e.items(), key=lambda mc: self.mono_key(mc[0]))
        return [[c, self.mono_to_dict(m)] for m, c in items]

    def element_from_list(self, data: Iterable[Sequence[object]]) -> Element:
        out: Element = {}
        for coeff, exps in data:
            m = self.monomial(dict(exps))  # type: ignore[arg-type]
            out[m] = out.get(m, 0) + int(coeff)  # type: ignore[call-overload]
        return self.reduce(out)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "globalTorsion": 0,
            "generators": [
                {
                    "name": g.name,
                    "degree": [g.degree.s, g.degree.f, g.degree.w],
                    "torsion": g.torsion,
                    "cap": g.cap,
                    "slots": list(g.slots),
                }
                for g in self._generators
            ],
            "rules": [
                {
                    "lhs": self.mono_to_dict(r.lhs),
                    "rhs": [[c, self.mono_to_dict(m)] for c, m in r.rhs],
                }
                for r in self.rules
            ],
        }


def presentation_from_dict(data: Dict[str, object]) -> RingPresentation:
    """Rebuild a RingPresentation from its ``to_dict`` form."""
    if int(data.get("globalTorsion", 0)) != 0:  # type: ignore[arg-type]
        raise PresentationError(
            "globalTorsion must be 0; orders come from the generators' torsions"
        )
    gens = []
    for g in data["generators"]:  # type: ignore[index]
        s, f, w = g["degree"]
        gens.append(
            GeneratorSpec(
                name=g["name"],
                degree=TriDegree(s, f, w),
                torsion=int(g.get("torsion", 0)),
                cap=g.get("cap"),
                slots=tuple(g.get("slots", ())),
            )
        )
    name = str(data["name"])
    mono = RingPresentation(name, gens).monomial
    rules = []
    for r in data.get("rules", ()):  # type: ignore[attr-defined]
        rhs = tuple((int(c), mono(dict(m))) for c, m in r["rhs"])
        rules.append(RewriteRule(lhs=mono(dict(r["lhs"])), rhs=rhs))
    return RingPresentation(name, gens, rules=rules)
