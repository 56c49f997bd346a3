"""Spectral sequence pages over a tri-graded monomial presentation.

The first page of each object is the graded algebra described by its
presentation.  The d_1 differential is given on generators and extended as a
derivation, once per orbit of the free generators (no cap, no slot): for a
product S of them, d1(S X) = S d1(X) + sum over g in S of e_g (S/g) d1(g) X
exactly, once each coefficient is reduced modulo its monomial's order.
Where generator 0 is free with d1 = 0 (rho on ``ko`` and ``L``, tau on
``ko_C`` and ``L_C``), d1(g m) = g d1(m), so most of each d1 block is the
block |g| below it translated, and only the columns of g-free monomials are
expanded.
Higher differentials, where an object has them, follow a coweight pattern: on
page r exactly the non-image classes whose coweight has 2-adic valuation
r - 1 support a differential, and the value is the generator of the target
group, which the pattern requires to be a single Z/2.

Differentials lower the stem by one, raise the filtration by 2r + 1 and
preserve the weight, and so does every step of the certified-region
bookkeeping below.  Once the presentation is built, each weight is
therefore its own spectral sequence: a run on a band of weights equals the
run on the whole window restricted to that band, which lets a caller turn
only the weights it reads.

Page turning is integer homology, done blockwise over the image/non-image
splitting so that every summand of every page stays on one side of it.
Differential blocks are compressed sparse columns (``ColMat``: column
offsets, rows and coefficients in three tuples) from the moment they are
built, and a turn reads only their nonzero entries.

The turn rests on one invariant: on every page, each part (cokernel or
image) of each group is either all order 2 or a single summand.  Every
generator torsion is 0 or a power of 2, so a monomial with a torsion-2
letter has order 2.  The others are tau^a v2^c (``ko_C``), tau2^a v2^c
(``ko``), and tau2^a, tau2^a iv(2k) (``L``) or tau^a, tau^a iv(2k)
(``L_C``); a degree holds at most one of them, alone in its part.  The
invariant carries from page to page: an all order 2 part turns into order
2 summands, a single summand into at most one, and a carried group does
not change.  So a part that is all order 2, almost every one, goes to the
bitset ``F2Homology``, a single summand to the closed-form ``homology``,
and a turn refuses any other part.

A group is either a page 1 basis or such a homology group.  A turn
re-turns only the degrees its differentials touch, their sources and
targets; every other group is carried to the next page as the same object.
Within one turn, degrees with equal local complexes (the group, and the
blocks into and out of it with their end groups' orders) share one
homology: the first is turned, and each other one is a new group, with
its own degree and previous group, over the same orders, parts and blocks.
A group's orders and parts are tuples, and page 1 shares one tuple between
groups whose orders or parts are equal; the turn splits each distinct
tuple of parts into its parts once per run.

Page 1 comes straight from the basis search, ``basis_window``, which
carries each monomial's order, whether an image generator divides it, and
its code down each search path.  Where generator 0 is free and alone on
the innermost search level (rho on ``ko`` and ``L``), the search emits
only the g-free monomials and the face ones, whose degree's neighbour |g|
below lies outside the box, and builds every other degree bottom up as
its own monomials followed by the degree |g| below translated, so most of
page 1 is never searched.  The code is the int of the presentation's
``Coding``: one field per generator or slot run, generator 0 most
significant, so int order is basis order and multiplying by a free
generator adds its unit without a carry.  A page 1 group keeps its
monomials as these codes alone.  The d1 build keys its row maps, orbits and
shifts by them and finds a degree's multiples of generator 0 after all its
other codes, ``project_element`` finds a monomial by its code, and a
page 1 lift is decoded only when it is read.  A run keeps one ``CodeTexts``, so
each code is rendered once per run, and ``SliceSS.labels`` labels a page 1
group by its codes on every page that carries it; ``dump_lines(1)`` reads
each d1 value straight off its column.

Every lift is a normal element with each coefficient reduced modulo its
monomial's order: a page 1 lift is a basis monomial, and a later one is an
integer combination of the previous page's lifts.  Such a combination has
only normal monomials, so it (a homology generator's lift, or the value of
a differential) is normalized by its coefficients alone, with
``RingPresentation.reduce_coefficients`` and no rewriting.  Lifts are
built on first read: a turn builds none, and a homology group builds all
of its lifts from its blocks the first time one is read, so the groups
no reader asks for, most of them outside the user window, never build
theirs.

A window is widened internally to a box and a certified region is tracked page
by page: a degree stays certified only while every differential that could
reach it or leave it connects two certified degrees, and once lost it stays
lost.  Every page loses its degrees by one rule: ``unknown_out[r]`` holds
each degree whose d_r may fire and whose target is uncertified (on page 1,
every group whose d1 target leaves the box, when the object has a d1, with
no d1 computed there), and the turn loses it, its target when that is in
the box, the target of each uncertified degree and the top stem column.
The region is stored once per run, as one map from each uncertified
degree of the box to the first page on which it is uncertified; a turn adds
only the degrees it newly loses and copies nothing.  ``SliceSS.valid[r]`` is
a view of the box, the map and the page supporting ``in``, ``len`` and
iteration.  Results are only reported on the certified part, so boundary
effects are visible instead of silent.

A run builds hundreds of thousands of small containers and no reference
cycles, so the page 1 build, the matrix builds and the turns run with
automatic cyclic garbage collection paused (``collection_paused``); the
collector would only rescan them.  That is safe because a run is acyclic
by construction, which ``tests/test_engine.py`` holds it to: an object
built, run and dropped with collection paused leaves nothing for the
collector.  The pause is process-global, which is sound for this
single-threaded library, and the caller's state comes back on every exit.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from contextlib import contextmanager
from itertools import accumulate
from math import gcd
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .grading import (
    Basis,
    Coding,
    Element,
    EffssError,
    Monomial,
    RingPresentation,
    TriDegree,
    el_iadd,
    lam,
    record_repr,
    render_terms,
)
from .intlinalg import (
    ColMat,
    CyclicHomology,
    F2Homology,
    LinearAlgebraError,
    homology,
    two_adic_valuation,
)


#: coded d1 terms (code, coefficient, order)
Part = List[Tuple[int, int, int]]


class EngineError(EffssError):
    """Structural failure while running a spectral sequence."""


class NotCertifiedError(EngineError):
    """A degree outside the certified region was queried."""


@contextmanager
def collection_paused() -> Iterator[None]:
    """Pause automatic cyclic garbage collection for the body.

    Collection is switched off only if it was on at entry and switched
    back on at every exit, so a nested pause changes nothing and a caller
    that disabled collection keeps it disabled.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def page_shift(r: int) -> TriDegree:
    """Degree shift of d_r."""
    return TriDegree(-1, 2 * r + 1, 0)


class _WindowFields(NamedTuple):
    s: Tuple[int, int]
    f: Tuple[int, int]
    w: Tuple[int, int]


class Window(_WindowFields):
    """Closed tri-degree box, each component as (lo, hi) inclusive."""

    __slots__ = ()

    def __new__(cls, s: Tuple[int, int], f: Tuple[int, int], w: Tuple[int, int]) -> "Window":
        for lo, hi in (s, f, w):
            if lo > hi:
                raise EngineError("empty window range (%d, %d)" % (lo, hi))
        return super().__new__(cls, s, f, w)

    def contains(self, d: TriDegree) -> bool:
        return (
            self.s[0] <= d.s <= self.s[1]
            and self.f[0] <= d.f <= self.f[1]
            and self.w[0] <= d.w <= self.w[1]
        )

    def degrees(self) -> Iterator[TriDegree]:
        for s in range(self.s[0], self.s[1] + 1):
            for f in range(self.f[0], self.f[1] + 1):
                for w in range(self.w[0], self.w[1] + 1):
                    yield TriDegree(s, f, w)


def widened_box(window: Window, r_max: int, f_margin=None) -> Window:
    """The box a run over ``window`` up to page ``r_max`` computes on.

    The margins are r_max stems on each side and, by default, 2 r_max + 2
    filtrations above.  Fiber objects materialize their generators for
    this same box.
    """
    fm = 2 * r_max + 2 if f_margin is None else f_margin
    s = (window.s[0] - r_max, window.s[1] + r_max)
    return Window(s=s, f=(0, window.f[1] + fm), w=window.w)


class Certified:
    """The certified degrees of one page: a box minus the degrees that
    ``uncertified_from``, one map shared by every page of a run, sends to
    this page or an earlier one.  The map sends a degree of the box to the
    first page on which it is uncertified."""

    __slots__ = ("box", "uncertified_from", "page")

    def __init__(self, box: Window, uncertified_from: Dict[TriDegree, int], page: int) -> None:
        self.box = box
        self.uncertified_from = uncertified_from
        self.page = page

    def __contains__(self, d: TriDegree) -> bool:
        return self.uncertified_from.get(d, self.page + 1) > self.page and self.box.contains(d)

    def __len__(self) -> int:
        (s0, s1), (f0, f1), (w0, w1) = self.box.s, self.box.f, self.box.w
        lost = sum(1 for r in self.uncertified_from.values() if r <= self.page)
        return (s1 - s0 + 1) * (f1 - f0 + 1) * (w1 - w0 + 1) - lost

    def __iter__(self) -> Iterator[TriDegree]:
        since, r = self.uncertified_from, self.page
        return (d for d in self.box.degrees() if since.get(d, r + 1) > r)


class ObjectSpec:
    """Everything the engine needs to run one object's spectral sequence.

    Hashed by identity, so per-object memos can key on it."""

    def __init__(
        self,
        name: str,
        pres: RingPresentation,
        schedule: Optional[Dict[int, Dict[int, Element]]] = None,
        has_pattern: bool = False,
        image_gens: FrozenSet[int] = frozenset(),
        stable_page: int = 2,
        default_window: Optional[Window] = None,
        default_r_max: Optional[int] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.pres = pres
        self.schedule = {} if schedule is None else schedule
        self.has_pattern = has_pattern
        self.image_gens = image_gens
        self.stable_page = stable_page
        self.default_window = default_window
        self.default_r_max = default_r_max
        self.meta = {} if meta is None else meta

    __repr__ = record_repr

    def part_of(self, m: Monomial) -> str:
        for g, _ in m:
            if g in self.image_gens:
                return "image"
        return "cokernel"


PART_ORDER = ("cokernel", "image")


def render_orders(orders: Sequence[int]) -> str:
    """A direct sum of cyclic groups, 0 standing for Z: "Z/4 + Z"."""
    if not orders:
        return "0"
    return " + ".join("Z" if o == 0 else "Z/%d" % o for o in orders)


def validate_schedule(pres: RingPresentation, images: Dict[int, Element], r: int) -> None:
    """Degree and torsion checks for a generator-level differential table.

    Every value must sit in the right degree and consist of order 2
    monomials; the latter is what makes the sign-free Leibniz rule exact,
    since any sign discrepancy is a multiple of 2.
    """
    shift = page_shift(r)
    for g, img in images.items():
        if not img:
            continue
        want = pres.generators[g].degree + shift
        got = pres.degree_of_element(img)
        if got != want:
            raise EngineError(
                "d%d(%s) has degree %s, expected %s"
                % (r, pres.gen_name(g), got, want)
            )
        for m in img:
            if pres.order_of(m) != 2:
                raise EngineError(
                    "d%d(%s) hits a monomial of order != 2; the derivation "
                    "extension would be sign-sensitive" % (r, pres.gen_name(g))
                )


def derive(pres: RingPresentation, m: Monomial, images: Dict[int, Element]) -> Element:
    """Extend the generator table to the monomial m by the Leibniz rule.

    The table holds normal elements, as every schedule does.  Each term is
    a product that ``multiply`` has already made normal, so the sum is
    normalized by its coefficients alone and the result is normal.
    """
    acc: Element = {}
    for i, (g, e) in enumerate(m):
        img = images.get(g)
        if not img:
            continue
        if e == 1:
            rest = m[:i] + m[i + 1 :]
        else:
            rest = m[:i] + ((g, e - 1),) + m[i + 1 :]
        term = pres.multiply({rest: 1}, img)
        el_iadd(acc, term, e)
    return pres.reduce_coefficients(acc)


class PageGroup:
    """The group at one tri-degree of one page, with lifts back to page 1.

    Two kinds of group share the class: page 1 groups carry their basis
    monomials' codes, sorted, and the run's one ``Coding``, and homology
    groups carry the previous page's group, the blockwise subquotient data
    and the presentation.  Orders, parts and codes are tuples.  A group
    that no differential touched is carried to the next page as the same
    object.  A degree whose group died on an earlier page reads as an
    empty group with neither.

    Lifts are built on first read: a page 1 lift is decoded on each call,
    and a homology group builds all of its lifts, and keeps them, the
    first time one is asked for, reading its previous page's lifts the
    same way.  A hand-built group may pass its ``lifts``.
    """

    __slots__ = ("degree", "orders", "parts", "prev", "codes", "coding", "blocks", "pres", "_lifts")

    def __init__(self, degree, orders, parts, prev=None, codes=None, coding=None, blocks=None, pres=None,
                 lifts=None):
        self.degree = degree
        self.orders: Tuple[int, ...] = orders
        self.parts: Tuple[str, ...] = tuple(parts)  # the turn keys its splits by value
        self.prev: Optional[PageGroup] = prev
        self.codes: Optional[Tuple[int, ...]] = codes
        self.coding: Optional[Coding] = coding
        self.blocks = blocks
        self.pres: Optional[RingPresentation] = pres
        self._lifts: Optional[List[Element]] = lifts

    def __len__(self) -> int:
        return len(self.orders)

    def lift(self, i: int) -> Element:
        lifts = self._lifts
        if lifts is None:
            if self.blocks is None:
                return {self.coding.decode(self.codes[i]): 1}
            lifts = self._lifts = self._build_lifts()
        return lifts[i]

    def _build_lifts(self) -> List[Element]:
        """Each homology generator's lift: the sum, in index order, of the
        previous page's lifts it combines, normalized by its coefficients
        alone."""
        lift, norm = self.prev.lift, self.pres.reduce_coefficients
        lifts: List[Element] = []
        for _part, idx, H in self.blocks:
            if isinstance(H, CyclicHomology):
                (i,) = idx
                for (c,) in H.gens:
                    acc: Element = {}
                    el_iadd(acc, lift(i), c)
                    lifts.append(norm(acc))
                continue
            for gen in H.gen_masks:
                acc = {}
                while gen:
                    low = gen & -gen
                    el_iadd(acc, lift(idx[low.bit_length() - 1]))
                    gen ^= low
                lifts.append(norm(acc))
        return lifts

    def project_element(self, pres: RingPresentation, e: Element) -> List[int]:
        """Coefficients of a reduced page 1 element over this page's
        summands.

        On page 1 each monomial is found by its code.  A monomial outside
        the basis can share a basis monomial's code only if an exponent
        overflows its field, so a code found must also decode back to the
        monomial that was encoded.
        """
        if self.prev is None:
            codes, coding = self.codes, self.coding
            if codes is None:  # died on an earlier page
                return []
            vec = [0] * len(codes)
            for m, c in e.items():
                k = coding.encode(m)
                i = bisect_left(codes, k)
                if i == len(codes) or codes[i] != k or coding.decode(k) != m:
                    raise EngineError(
                        "element %s not supported on the window basis at %s"
                        % (pres.render(e), self.degree)
                    )
                vec[i] = c
            return vec
        vec = self.prev.project_element(pres, e)
        out: List[int] = []
        for _part, idx, H in self.blocks:
            out.extend(H.project([vec[i] for i in idx]))
        return out


def _f2_out_cols(M: ColMat, col_idx: Sequence[int], tgt_orders: Sequence[int]) -> Tuple[List[int], int]:
    """Translate the columns col_idx of M into bit masks over the target,
    and return them with the mask of every row the columns hold an entry in.

    A map from an order 2 class into Z/o factors through the order 2
    subgroup, so each entry must be 0 or o/2 modulo o; into a free class it
    must vanish.
    """
    ptr, rows, vals = M.ptr, M.rows, M.vals
    masks = []
    hit = 0
    for j in col_idx:
        mask = 0
        for k in range(ptr[j], ptr[j + 1]):
            i = rows[k]
            bit = 1 << i
            hit |= bit
            o = tgt_orders[i]
            if o == 0:
                raise LinearAlgebraError(
                    "order 2 class maps nontrivially to a free class"
                )
            em = vals[k] % o
            if em == 0:
                continue
            if o % 2 or em != o // 2:
                raise LinearAlgebraError("map from order 2 class is ill defined")
            mask |= bit
        masks.append(mask)
    return masks, hit


#: a group's parts split as the turn reads them: the summands of each part,
#: each summand's place in its part, and the parts present in PART_ORDER
Split = Tuple[Dict[str, Tuple[int, ...]], List[int], List[str]]


def _split(parts: Tuple[str, ...]) -> Split:
    part_idx: Dict[str, List[int]] = {}
    pos: List[int] = []
    for i, p in enumerate(parts):
        idx = part_idx.setdefault(p, [])
        pos.append(len(idx))
        idx.append(i)
    return {p: tuple(idx) for p, idx in part_idx.items()}, pos, [p for p in PART_ORDER if p in part_idx]


class SliceSS:
    """Run one object's slice spectral sequence on a window."""

    def __init__(
        self,
        obj: ObjectSpec,
        window: Optional[Window] = None,
        r_max: Optional[int] = None,
        f_margin: Optional[int] = None,
    ) -> None:
        if window is None:
            window = obj.default_window
        if window is None:
            raise EngineError("object %s has no default window" % obj.name)
        self.obj = obj
        self.pres = obj.pres
        self.window = window
        self.r_max = r_max or obj.default_r_max or obj.stable_page + 1
        self.box = widened_box(window, self.r_max, f_margin)

        for r, images in obj.schedule.items():
            validate_schedule(self.pres, images, r)

        with collection_paused():
            basis = self.pres.basis_window(
                self.box.s, self.box.f, self.box.w, marked=obj.image_gens, headroom=lam(page_shift(1))
            )
            self.pages: Dict[int, Dict[TriDegree, PageGroup]] = {1: self._first_page(basis)}
        self._coding: Coding = basis.coding  # page 1's, shared by its groups
        self._texts = CodeTexts(self.pres, self._coding)
        self._in_window: Optional[List[TriDegree]] = None  # page 1's degrees in the window, sorted
        self.valid: Dict[int, Certified] = {1: Certified(self.box, {}, 1)}
        self.diffs: Dict[int, Dict[TriDegree, ColMat]] = {}  # nonzero d_r only
        self.unknown_out: Dict[int, Set[TriDegree]] = {}
        self._by_valuation: Optional[Dict[int, List[TriDegree]]] = None  # page 1 degrees by v2(coweight)
        self._splits: Dict[Tuple[str, ...], Split] = {}  # by parts, for the turn
        self._ran_to = 1

    def _first_page(self, basis: Basis) -> Dict[TriDegree, PageGroup]:
        """Page 1 straight from the basis search, which hands out each
        monomial's order, whether an image generator divides it, and its
        code.  Groups with equal orders or parts share one tuple."""
        parts_of: Dict[Tuple[bool, ...], Tuple[str, ...]] = {}
        first = {}
        coding = basis.coding
        for d, (orders, marks, codes) in basis.items():
            parts = parts_of.get(marks)
            if parts is None:
                parts = parts_of[marks] = tuple(["image" if mk else "cokernel" for mk in marks])
            # positional, with no prev: a call with keywords costs more, once per degree
            first[d] = PageGroup(d, orders, parts, None, codes, coding)
        return first

    # -- running --------------------------------------------------------

    def run(self, r_to: Optional[int] = None) -> "SliceSS":
        r_to = r_to or self.r_max
        if r_to > self.r_max:
            raise EngineError("run beyond r_max; rebuild with a larger r_max")
        with collection_paused():
            while self._ran_to < r_to:
                self._turn(self._ran_to)
        return self

    def _ensure_diffs(self, r: int) -> Dict[TriDegree, ColMat]:
        if r not in self.diffs:
            with collection_paused():
                if r > self._ran_to:
                    raise EngineError("page %d has not been reached yet" % r)
                mats, unknown = self._d1_matrices() if r == 1 else self._pattern_matrices(r)
            self.diffs[r] = mats
            self.unknown_out[r] = unknown
        return self.diffs[r]

    def _d1_matrices(self) -> Tuple[Dict[TriDegree, ColMat], Set[TriDegree]]:
        """d1 at every page 1 degree whose target is in the box, one
        Leibniz expansion per orbit, and the degrees where d1 is unknown:
        every degree whose target leaves the box, when the object has a d1,
        with no d1 computed there (the loss rule of every page).

        Each monomial splits as S X, where S is a product of the free
        generators (no cap, no slot) and X holds the rest.  Multiplying by a
        free generator keeps a monomial normal and commutes with rewriting;
        only the order can shrink, to gcd(o(m), torsion).  Hence
        d1(S X) = S d1(X) + sum over g in S of e_g (S/g) d1(g) X, exactly once
        each coefficient is reduced modulo the order of its monomial, and
        derive(X) and each d1(g) X are computed once per X.

        Monomials are page 1's codes, under the run's ``Coding``.  A free
        generator has a field of its own holding its exponent, so a source's
        code masked to the free fields is S's code, the rest is X's, and
        multiplying by S adds S's code.  No field carries: every monomial
        coded here or placed in its group by ``project_element`` (which
        refuses any other), and every sum of codes formed, has degree in
        the box or divides a monomial of degree d + shift for some d in the
        box, so its 2f + s - w is at most the box's top plus the shift's,
        which the width was chosen to hold, and every generator has
        2f + s - w >= 1.  A target degree's row map is its codes, and X and
        S are decoded only when an orbit or a shift is new.

        Most columns are not expanded at all but translated along g,
        generator 0, when g is free and d1(g) = 0.  Let d and d - |g| both
        have their targets in the box.  Multiplying by the free g is a
        bijection from the basis at d - |g| onto the g-divisible basis at d:
        it keeps a monomial normal, and a normal g m has a normal m.  Its
        field is the most significant, so it adds ``unit[g]`` to each code,
        keeps their order, and puts the g-divisible codes after the a
        g-free ones; likewise at the target, after b g-free codes.  Since
        d1(g) = 0, d1(g m) = g d1(m): column a + j of the block at d is
        column j of the block at d - |g| with each row moved up by b and
        each coefficient reduced modulo its row's order, which is the gcd
        of the old order and g's torsion (2 for rho, so a coefficient can
        vanish; 0 for tau, so none changes).  Coefficients, reduced modulo
        the old order, reduce alike modulo its divisor, and a column keeps
        its entry order.  Where a = b = 0 and no coefficient changes, the
        block at d is the block below it, one object.  Degrees are built
        in one pass in increasing 2f + s - w, which |g| raises, so the
        block at d - |g| is built before d; a degree whose block below is
        zero or out of the box, and every degree of a presentation whose
        generator 0 is capped, slotted or moving, take the Leibniz route
        alone.  The blocks are returned in page 1's order.
        """
        images = self.obj.schedule.get(1, {})
        shift = page_shift(1)
        unknown: Set[TriDegree] = set()
        pres = self.pres
        box = self.box
        page1 = self.pages[1]
        coding = self._coding
        unit, encode, decode = coding.unit, coding.encode, coding.decode
        free = {g for g, spec in enumerate(pres.generators) if spec.cap is None and not spec.slots}
        free_mask = coding.field_mask(free)
        rest_mask = ~free_mask
        moving = {g for g in free if images.get(g)}  # free generators with d1 != 0
        orbits: Dict[int, Tuple[Monomial, Part, Dict[int, Part]]] = {}  # code of X -> X, d1(X), {g: d1(g) X}
        shifts: Dict[int, Tuple[int, list]] = {}  # code of S -> by_shift(S)

        def coded(e: Element) -> Part:
            return [(encode(m), c, pres.order_of(m)) for m, c in e.items()]

        def add(val: Dict[int, int], part: Part, sh: int, e: int, t: int) -> None:
            """val += e * (part shifted by sh), where sh is the code of a
            monomial of order t."""
            for k, c, o in part:
                k += sh
                o = gcd(o, t)
                c = val.pop(k, 0) + e * c
                c = c % o if o else c
                if c:
                    val[k] = c

        torsion = pres.torsions

        def by_shift(S: Monomial, s: int) -> Tuple[int, list]:
            """The order of S, whose code is s, and (g, the code of S/g, e_g,
            the order of S/g) for each g in S with d1(g) != 0, from the
            generators' torsions: S/g has the order of S unless e_g = 1."""
            o = 0
            for g, _e in S:
                o = gcd(o, torsion[g])
            moved = []
            for g, e in S:
                if g in moving:
                    if e > 1:
                        og = o
                    else:
                        og = gcd(*[torsion[h] for h, _ in S if h != g])
                    moved.append((g, s - unit[g], e, og))
            return o, moved

        def d1(k: int) -> Dict[int, int]:
            """d1 of the monomial coded k, as {code: nonzero coefficient}."""
            x = k & rest_mask
            orbit = orbits.get(x)
            if orbit is None:
                X = decode(x)
                orbit = orbits[x] = (X, coded(derive(pres, X, images)), {})
            X, dX, dgX = orbit
            if not (dX or moving):
                return {}
            s = k & free_mask
            info = shifts.get(s)
            if info is None:
                info = shifts[s] = by_shift(decode(s), s)
            t, moved = info
            val: Dict[int, int] = {}
            if dX:
                add(val, dX, s, 1, t)
            for g, sh, e, tg in moved:
                if g not in dgX:
                    dgX[g] = coded(pres.multiply({X: 1}, images[g]))
                add(val, dgX[g], sh, e, tg)
            return val

        # blocks translate along generator 0 when it is free with d1 = 0
        step = pres.generators[0].degree if 0 in free and 0 not in moving else None
        g_torsion, g_unit = torsion[0], unit[0]
        sh_s, sh_f, sh_w = shift

        def block(d: Tuple[int, int, int], codes: Tuple[int, ...], src: Optional[ColMat]) -> Optional[ColMat]:
            """The block at d, or None where d1 vanishes there.  Given src,
            the nonzero block at d - |g|, only the g-free codes, which come
            first, take the Leibniz route, and the rest are src's columns
            translated; src itself where nothing changes."""
            if src is None:
                vals = list(map(d1, codes))
                if not any(vals):
                    return None
            else:
                vals = list(map(d1, codes[: bisect_left(codes, g_unit)]))
            s, f, w = d
            T = page1.get((s + sh_s, f + sh_f, w + sh_w))
            if T is None:
                raise EngineError(
                    "nonzero d1 value lands in an empty degree %s" % (TriDegree(s + sh_s, f + sh_f, w + sh_w),)
                )
            tgt_codes = T.codes
            m = len(tgt_codes)
            ptr, rows, coeffs = [0], [], []
            if any(vals):
                row = dict(zip(tgt_codes, range(m)))
                for v in vals:
                    rows.extend(map(row.__getitem__, v))
                    coeffs.extend(v.values())
                    ptr.append(len(rows))
            else:
                ptr *= len(vals) + 1
            if src is None:
                return ColMat(ptr, rows, coeffs, m)
            # each row moves up past the b g-free target codes, and each
            # coefficient is reduced modulo its row's order, gcd(o, torsion)
            b = m - src.m
            sptr, srows, svals = src.ptr, src.rows, src.vals
            if b:
                srows = [i + b for i in srows]
            if g_torsion:
                orders = T.orders
                tvals = [c % orders[i] for i, c in zip(srows, svals)]
                if not all(tvals):  # drop the coefficients that vanish
                    at = 0
                    for end in sptr[1:]:
                        for k in range(at, end):
                            if tvals[k]:
                                rows.append(srows[k])
                                coeffs.append(tvals[k])
                        ptr.append(len(rows))
                        at = end
                    return ColMat(ptr, rows, coeffs, m) if rows else None
                if not (vals or b) and tvals == list(svals):
                    return src
                svals = tvals
            elif not (vals or b):  # gcd(o, 0) = o: nothing changes
                return src
            off = len(rows)
            ptr.extend([p + off for p in sptr[1:]])
            rows.extend(srows)
            coeffs.extend(svals)
            return ColMat(ptr, rows, coeffs, m)

        into_box = Window(*((lo - x, hi - x) for (lo, hi), x in zip((box.s, box.f, box.w), shift)))
        (s0, s1), (f0, f1), (w0, w1) = into_box.s, into_box.f, into_box.w
        inside = []  # the degrees whose target is in the box, in page 1's order
        for d in page1:
            s, f, w = d
            if s0 <= s <= s1 and f0 <= f <= f1 and w0 <= w <= w1:
                inside.append(d)
            elif images:  # d1 may fire here, into an uncertified degree
                unknown.add(d)
        built: Dict[Tuple[int, int, int], Optional[ColMat]] = {}  # each block so far, None for 0
        for d in sorted(inside, key=lam):  # d - |g| comes before d
            s, f, w = d
            src = None if step is None else built.get((s - step.s, f - step.f, w - step.w))
            built[d] = block(d, page1[d].codes, src)
        return {d: built[d] for d in inside if built[d] is not None}, unknown

    def _pattern_matrices(self, r: int) -> Tuple[Dict[TriDegree, ColMat], Set[TriDegree]]:
        """The pattern's d_r blocks on page r >= 2, and the degrees where
        d_r may be nonzero but cannot be certified: every firing degree
        whose target is uncertified, and one whose target is ambiguous
        outside the user window."""
        shift = page_shift(r)
        mats: Dict[TriDegree, ColMat] = {}
        unknown: Set[TriDegree] = set()
        if not self.obj.has_pattern:
            return mats, unknown
        if self._by_valuation is None:
            # each later page keeps page 1's degree order, so each list
            # walks a page in its own order
            self._by_valuation = {}
            for d in self.pages[1]:
                cw = d.s - d.w  # the coweight, read once
                v = two_adic_valuation(cw) if cw else 0
                if 0 < v < self.r_max:
                    self._by_valuation.setdefault(v, []).append(d)
        page = self.pages[r]
        # the pattern's d_r can leave only a group with a cokernel part at a
        # degree whose coweight has 2-adic valuation r - 1; _ensure_diffs
        # builds each page once, so its list is handed over, not kept
        for d in self._by_valuation.pop(r - 1, ()):
            G = page.get(d)
            if G is None or "cokernel" not in G.parts:
                continue
            tgt = d + shift
            if tgt not in self.valid[r]:
                unknown.add(d)
                continue
            T = page.get(tgt)
            if T is None or not T.orders:
                continue
            if len(T.orders) != 1 or T.orders[0] != 2:
                # the pattern has no single candidate here
                if self.window.contains(d):
                    raise EngineError(
                        "pattern differential d%d at %s is ambiguous: target "
                        "group is not a single Z/2" % (r, d)
                    )
                unknown.add(d)
                continue
            # one row: a 1 in each cokernel column
            ptr = list(accumulate((p == "cokernel" for p in G.parts), initial=0))
            mats[d] = ColMat(ptr, [0] * ptr[-1], [1] * ptr[-1], 1)
        return mats, unknown

    def _turn(self, r: int) -> None:
        mats = self._ensure_diffs(r)
        unknown = self.unknown_out[r]
        shift = page_shift(r)
        valid = self.valid[r]
        page = self.pages[r]

        # Only three kinds of degree can lose certification: a degree whose
        # differential cannot be certified, with its target when that is in
        # the box, the target of an uncertified degree, and the top stem
        # column, whose sources lie outside the box.  On every page the
        # first kind is unknown_out[r], which holds every degree whose d_r
        # may fire (on page 1, every group, when the object has a d1) and
        # whose target is uncertified.  The last two kinds are kept inside
        # the box by their fields.
        box = self.box
        top = box.f[1] - shift.f  # a target above this leaves the box
        lost: Set[TriDegree] = set()
        for d in unknown:
            lost.add(d)
            if box.contains(d + shift):
                lost.add(d + shift)
        # Later pages are not made yet, so every degree of the map is
        # uncertified on this one.
        since = valid.uncertified_from
        lost.update(u + shift for u in since if u.f <= top and u.s > box.s[0])
        lost.update(
            TriDegree(box.s[1], f, w)
            for f in range(shift.f, box.f[1] + 1)
            for w in range(box.w[0], box.w[1] + 1)
        )
        lost.difference_update(since)
        since.update(dict.fromkeys(lost, r + 1))
        self.valid[r + 1] = Certified(box, since, r + 1)

        # Only the ends of a differential turn; every other group is
        # carried as the same object, in the page's order.  Each local
        # complex is keyed by everything _turn_group reads but the degree,
        # which only its refusals name: the first degree with a key is
        # turned, and each later one shares that group's homology, which
        # nothing changes once built.  A refusal is never stored, so it is
        # raised at the same degree.  The memo is this turn's alone: across
        # turns it would find next to nothing.
        pres = self.pres
        turned: Dict[tuple, PageGroup] = {}
        newpage = {d: G for d, G in page.items() if G.orders and d not in lost}
        for d in dict.fromkeys(e for src in mats for e in (src, src + shift)):
            G = newpage.get(d)
            if G is None:
                continue
            Mout = mats.get(d)
            Min = mats.get(d - shift)
            srcG = page.get(d - shift) if Min is not None else None
            tgtG = page.get(d + shift) if Mout is not None else None
            key = (
                G.orders,
                G.parts,
                None if Min is None else (Min.ptr, Min.rows, Min.vals, srcG.orders),
                None if Mout is None else (Mout.ptr, Mout.rows, Mout.vals, tgtG.orders),
            )
            H = turned.get(key)
            if H is None:
                newpage[d] = turned[key] = self._turn_group(G, Min, srcG, Mout, tgtG)
            else:
                newpage[d] = PageGroup(d, H.orders, H.parts, G, None, None, H.blocks, pres)
        self.pages[r + 1] = newpage
        self._ran_to = r + 1

    def _turn_group(
        self,
        G: PageGroup,
        Min: Optional[ColMat],
        srcG: Optional[PageGroup],
        Mout: Optional[ColMat],
        tgtG: Optional[PageGroup],
    ) -> PageGroup:
        gparts = G.parts
        split = self._splits.get(gparts)
        if split is None:
            split = self._splits[gparts] = _split(gparts)
        part_idx, pos, parts_present = split

        # incoming columns must live in a single part each; each is kept
        # by its index, with its source order and its odd entries as a mask
        # over the part
        in_by_part: Dict[str, List[Tuple[int, int, int]]] = {p: [] for p in parts_present}
        if Min is not None:
            ptr, rows, vals = Min.ptr, Min.rows, Min.vals
            for j, o in enumerate(srcG.orders):
                a, b = ptr[j], ptr[j + 1]
                if a == b:
                    continue
                p = gparts[rows[a]]
                mask = 0
                for k in range(a, b):
                    i = rows[k]
                    if gparts[i] != p:
                        raise EngineError(
                            "incoming differential at %s mixes the image splitting" % (G.degree,)
                        )
                    if vals[k] & 1:
                        mask |= 1 << pos[i]
                in_by_part[p].append((j, o, mask))

        tgt_orders = tgtG.orders if Mout is not None else []
        blocks = []
        orders: List[int] = []
        parts: List[str] = []
        hits = []  # per part, the target rows its outgoing columns touch
        for p in parts_present:
            idx = part_idx[p]
            sub_orders = [G.orders[i] for i in idx]
            cols_p = in_by_part[p]
            if sub_orders.count(2) == len(idx):
                if Mout is not None:
                    out_masks, hit = _f2_out_cols(Mout, idx, tgt_orders)
                    hits.append(hit)
                else:
                    out_masks = [0] * len(idx)
                H = F2Homology(len(idx), [mask for _j, _o, mask in cols_p], out_masks)
            elif len(idx) == 1:
                (i,) = idx
                out = []
                if Mout is not None:
                    hit = 0
                    for k, c in Mout.col(i):
                        hit |= 1 << k
                        out.append((c, tgt_orders[k]))
                    hits.append(hit)
                H = homology(sub_orders[0], [(c, o) for j, o, _m in cols_p for _i, c in Min.col(j)], out)
            else:
                raise EngineError(
                    "%s part at %s has orders %s: neither all order 2 nor one summand"
                    % (p, G.degree, sub_orders)
                )
            blocks.append((p, idx, H))
            orders.extend(H.orders)
            parts.extend([p] * len(H.orders))
        # outgoing blocks may not share target rows
        if len(hits) == 2 and hits[0] & hits[1]:
            raise EngineError(
                "outgoing differential at %s mixes the image splitting" % (G.degree,)
            )

        return PageGroup(G.degree, tuple(orders), tuple(parts), prev=G, blocks=blocks, pres=self.pres)

    # -- reading results --------------------------------------------------

    @property
    def coding(self) -> Coding:
        """Page 1's code layout, which every page-1 group shares."""
        return self._coding

    def group(self, r: int, d: TriDegree) -> PageGroup:
        if r not in self.pages:
            raise EngineError("page %d not computed" % r)
        if d not in self.valid[r]:
            raise NotCertifiedError(
                "degree %s is not certified on page %d for this window" % (d, r)
            )
        g = self.pages[r].get(d)
        return g if g is not None else PageGroup(d, (), (), lifts=[])

    def infinity(self, d: TriDegree) -> PageGroup:
        self.run()
        return self.group(self.r_max, d)

    def certified(self, d: TriDegree, r: Optional[int] = None) -> bool:
        return d in self.valid[r or self._ran_to]

    def certified_user_degrees(self, r: Optional[int] = None) -> List[TriDegree]:
        valid = self.valid[r or self._ran_to]
        return [d for d in self.window.degrees() if d in valid]

    def differential_known(self, r: int, d: TriDegree) -> bool:
        """False when d_r out of this degree cannot be certified in the box.

        That is each degree whose d_r may fire into an uncertified degree:
        on page 1, every degree whose d1 target leaves the box when the
        object has a d1, whatever d1 is there, and on a pattern page each
        firing degree whose target is uncertified or ambiguous.  Page 1's
        lie on the box's first stem or in its top three filtrations, so
        outside the user window whenever the filtration margin is at least 3.

        differential_value returns zero there; callers that care about
        the difference between certified-zero and not-computable must
        check this first.
        """
        self._ensure_diffs(r)
        return d not in self.unknown_out[r]

    def differential_value(self, r: int, d: TriDegree, i: int) -> Element:
        """d_r of summand i at degree d, as an element of page 1 ({} if zero)."""
        M = self._ensure_diffs(r).get(d)
        if M is None or M.ptr[i] == M.ptr[i + 1]:
            return {}
        T = self.pages[r][d + page_shift(r)]
        acc: Element = {}
        for k, c in M.col(i):
            el_iadd(acc, T.lift(k), c)
        return self.pres.reduce_coefficients(acc)

    def groups(self, r: int) -> Iterator[Tuple[TriDegree, PageGroup]]:
        """Yield (degree, group) for the certified non-empty groups of page r
        in the user window, degree-sorted, which is the order of
        ``Window.degrees``.  Every page holds a subset of page 1's degrees,
        so one sorted list of page 1's degrees in the window, made on first
        use, serves every page.  Those degrees all lie in the box, so one
        is certified on page r unless the run's map sends it to page r or
        an earlier one."""
        if r not in self.pages:
            raise EngineError("page %d not computed" % r)
        if self._in_window is None:
            (s0, s1), (f0, f1), (w0, w1) = self.window.s, self.window.f, self.window.w
            self._in_window = sorted(
                [d for d in self.pages[1] if s0 <= d.s <= s1 and f0 <= d.f <= f1 and w0 <= d.w <= w1]
            )
        page, since = self.pages[r], self.valid[r].uncertified_from
        for d in self._in_window:
            G = page.get(d)
            if G is not None and G.orders and since.get(d, r + 1) > r:
                yield d, G

    def summands(self, r: int) -> Iterator[Tuple[TriDegree, int, int, Element, str]]:
        """Yield (degree, index, order, lift, part) over ``groups(r)``."""
        for d, G in self.groups(r):
            for i, o in enumerate(G.orders):
                yield d, i, o, G.lift(i), G.parts[i]

    def labels(self, G: PageGroup) -> List[str]:
        """Each summand's label.  A page 1 group, also where a later page
        carries it, is labelled by its codes, each rendered once per run;
        any other group by its rendered lifts."""
        if G.codes is not None:
            texts = self._texts
            return [texts[k] for k in G.codes]
        render = self.pres.render
        return [render(G.lift(i)) for i in range(len(G.orders))]

    def dump_lines(self, r: int) -> Iterator[str]:
        """One line per summand:

        page {r} | {s} {f} {w} | {order} | {label} | d{r} -> {value}

        Labels come from ``labels``, and each d1 value straight off its
        column.
        """
        if r != 1:
            render = self.pres.render
            for d, G in self.groups(r):
                for i, (o, label) in enumerate(zip(G.orders, self.labels(G))):
                    v = self.differential_value(r, d, i)
                    yield "page %d | %d %d %d | %d | %s | d%d -> %s" % (
                        r, d.s, d.f, d.w, o, label, r, render(v) if v else "-",
                    )
            return
        column = self._texts.column
        mats, page, shift = self._ensure_diffs(1), self.pages[1], page_shift(1)
        for d, G in self.groups(1):
            M = mats.get(d)
            T = page[d + shift] if M is not None else None
            for i, (o, label) in enumerate(zip(G.orders, self.labels(G))):
                vtext = column(M, i, T) if M is not None else "-"
                yield "page 1 | %d %d %d | %d | %s | d1 -> %s" % (d.s, d.f, d.w, o, label, vtext)


class CodeTexts(dict):
    """Page 1 monomial texts by code, each decoded and rendered on its first
    read.  A run keeps one, which holds the presentation's renderer and
    page 1's decoder but not the run."""

    __slots__ = ("_render", "_decode")

    def __init__(self, pres: RingPresentation, coding: Coding) -> None:
        super().__init__()
        self._render = pres.render_monomial
        self._decode = coding.decode

    def __missing__(self, k: int) -> str:
        text = self[k] = self._render(self._decode(k))
        return text

    def column(self, M: ColMat, j: int, T: PageGroup) -> str:
        """Column j of a d1 block into the page 1 group T, as
        ``RingPresentation.render`` renders ``differential_value``: each
        coefficient reduced modulo its summand's order, zero terms dropped,
        and the rest in row order, which is code order and so the order of
        ``mono_key``; "-" when no term is left."""
        a, b = M.ptr[j], M.ptr[j + 1]
        orders, codes = T.orders, T.codes
        terms = []
        for row, c in sorted(zip(M.rows[a:b], M.vals[a:b])):
            o = orders[row]
            if o:
                c %= o
            if c:
                terms.append((c, self[codes[row]]))
        return render_terms(terms) or "-"
