"""Homotopy groups from the infinity page plus a hidden extension ledger.

The infinity page only shows the associated graded of the homotopy
groups.  Recovering the groups themselves takes two more inputs:

* products on the page, which detect the actions of rho and eta, and the
  doubling of any class whose double is visible in its own filtration;
* a short ledger of hidden extensions, one row per spot where the page
  product vanishes but the product in homotopy does not.

The ledger rows ship as data files (hidden_ko.json and friends) in the
same normal forms the printed tables use.  Almost every row generates an
infinite family under tau^4- and v1^4-periodicity; expand_ledger
materializes those families inside a window and returns them as one
``Ledger``, keyed by the infinity summand and multiple each source
projects to, which assembly, the order check and the charts all read.
Three rows deviate from plain periodicity and carry flags saying how:

* the eta extension on 2*tau2 stops at v1^0, because 2*tau2 times a
  positive power of v1^4 is not a permanent cycle;
* the h extension on (tau h1)^3 always points at the class of highest
  filtration in its column, which climbs as the family expands;
* the h extension hitting rho^2*thv(4k) starts on half the carrier order
  of the iota class, and the carrier orders grow with k.

Multiplication by 2 resolves through the identity 2 = rho*eta + h.  The
h summand is what the page sees as literal doubling; once that dies, the
ledger supplies the hidden h value and the rho*eta summand is computed
letter by letter from page products.  Iterating the doubling until each
summand's order runs out produces the relations of the column, and a
Smith normal form turns the presentation into invariant factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import NotCertifiedError, SliceSS
from .grading import (
    EffssError,
    Element,
    PresentationError,
    RingPresentation,
    TriDegree,
    el_scale,
)
from .intlinalg import LinearAlgebraError, smith_normal_form, two_adic_valuation
from .objects import load_data


class AssembleError(EffssError):
    """A column could not be assembled inside the certified region."""


class LedgerError(EffssError):
    """A hidden extension row failed validation."""


#: degree of the page 1 element detecting each kind of extension
KIND_DEGREE = {
    "rho": TriDegree(-1, 1, -1),
    "h": TriDegree(0, 0, 0),
    "eta": TriDegree(1, 1, 1),
}

#: degree shifts of the two periodicity operators
TAU4_DEGREE = TriDegree(0, 0, -4)
V14_DEGREE = TriDegree(8, 0, 4)

#: recognized deviant propagation rules (the special column of the ledger)
SPECIALS = ("highest-filtration", "half-carrier-order")


@dataclass(frozen=True, eq=False)
class HiddenExtension:
    """One hidden extension: kind times source equals target.

    source and target are normal page 1 elements, as ``parse`` returns
    them.  The source may carry an integer multiple: "4*iv2" is four
    times the class of iv2, which is the order 2 element of its cyclic
    summand.  degree is the tri-degree of the source.  tau4 and v14 say
    whether the row propagates along the two periodicities, and special
    picks one of the documented deviant propagation rules.
    """

    kind: str
    source: Element
    target: Element
    degree: TriDegree
    coweight: int
    proof: str = ""
    tau4: bool = True
    v14: bool = True
    special: Optional[str] = None


def check_extension(pres: RingPresentation, ext: HiddenExtension) -> None:
    """Degree arithmetic every ledger row must satisfy.

    The (s, w) shift is the kind's homotopy degree.  Filtration has to
    jump strictly past the page product: a rho or eta product already
    climbs one filtration on the page, so a hidden value starts higher.
    """
    if ext.kind not in KIND_DEGREE:
        raise LedgerError("unknown extension kind %r" % ext.kind)
    if ext.special is not None and ext.special not in SPECIALS:
        raise LedgerError("unknown special rule %r" % ext.special)
    sd = pres.degree_of_element(ext.source)
    td = pres.degree_of_element(ext.target)
    if sd is None or td is None:
        raise LedgerError("ledger row with a zero endpoint")
    if sd != ext.degree:
        raise LedgerError(
            "row source %s has degree %s, row says %s"
            % (pres.render(ext.source), sd, ext.degree)
        )
    kd = KIND_DEGREE[ext.kind]
    if (td.s - sd.s, td.w - sd.w) != (kd.s, kd.w):
        raise LedgerError(
            "%s extension has the wrong (s, w) shift: %s to %s"
            % (ext.kind, sd, td)
        )
    if td.f <= sd.f + kd.f:
        raise LedgerError(
            "%s extension from %s does not climb past the page product"
            % (ext.kind, sd)
        )
    if sd.coweight != ext.coweight:
        raise LedgerError(
            "row in coweight %d but its source has coweight %d"
            % (ext.coweight, sd.coweight)
        )


def load_ledger(name: str, pres: RingPresentation):
    """Parse data/hidden_<name>.json into validated base rows.

    Returns (degree_column, rows).  degree_column records whether the
    printed table's degree column refers to sources or to targets; the
    parsed rows always store the source degree.
    """
    data = load_data("hidden_" + name)
    if data.get("object") != name:
        raise LedgerError("ledger file is for %r, not %r" % (data.get("object"), name))
    degree_column = str(data.get("degreeColumn", "source"))
    if degree_column not in ("source", "target"):
        raise LedgerError("degreeColumn must be 'source' or 'target'")
    rows: List[HiddenExtension] = []
    for raw in data["rows"]:
        source = pres.parse(str(raw["source"]))
        target = pres.parse(str(raw["target"]))
        listed = TriDegree(*raw["degree"])
        sd = pres.degree_of_element(source)
        if degree_column == "target":
            td = pres.degree_of_element(target)
            if td != listed:
                raise LedgerError(
                    "row target %s has degree %s, table says %s"
                    % (pres.render(target), td, listed)
                )
        elif sd != listed:
            raise LedgerError(
                "row source %s has degree %s, table says %s"
                % (pres.render(source), sd, listed)
            )
        ext = HiddenExtension(
            kind=str(raw["kind"]),
            source=source,
            target=target,
            degree=sd,
            coweight=int(raw["coweight"]),
            proof=str(raw.get("proof", "")),
            tau4=bool(raw.get("tau4", True)),
            v14=bool(raw.get("v14", True)),
            special=raw.get("special"),
        )
        check_extension(pres, ext)
        rows.append(ext)
    return degree_column, rows


# ---------------------------------------------------------------------------
# periodicity operators
# ---------------------------------------------------------------------------


def tau4_mult(ss: SliceSS, e: Element, steps: int = 1) -> Element:
    """Multiply by tau^(4*steps), whatever generator spells that."""
    if steps == 0:
        return dict(e)
    pres = ss.pres
    tail = pres.tail
    per_step = -4 // pres.generators[tail].degree.w
    return pres.multiply(e, {((tail, per_step * steps),): 1})


def v14_mult(ss: SliceSS, e: Element, steps: int = 1) -> Element:
    """Multiply by v1^(4*steps).

    On the base theories this is an honest ring multiplication by a
    power of v2.  The fiber presentations carry no bare v generator, so
    there the fiber layout makes the shift through the base
    (``FiberLayout.times_v``).  A monomial with no letter to absorb the
    extra v power (a bare tau power) has no v1^4 translate in the fiber,
    and that failure is exactly why such rows are flagged not
    v1^4-periodic.
    """
    if steps == 0:
        return dict(e)
    pres = ss.pres
    layout = ss.obj.meta.get("layout")
    if layout is None:
        v = pres.gen("v2")
        return pres.multiply(e, {((v, 2 * steps),): 1})
    return layout.times_v(pres, e, 2 * steps)


# ---------------------------------------------------------------------------
# infinity page coordinates
# ---------------------------------------------------------------------------


def infinity_coords(ss: SliceSS, e: Element, degree: Optional[TriDegree] = None):
    """Coordinates of a permanent cycle over the infinity page summands.

    e must be a normal element, as a ``parse`` or ``multiply`` result or
    a lift is; it is projected as given.  Returns (group, coords).
    Torsion coordinates come back reduced modulo their summand orders.
    Raises AssembleError when the element is not a cycle at some page,
    which is the signal that it does not survive, and NotCertifiedError
    outside the boundary-safe region.
    """
    pres = ss.pres
    if degree is None:
        degree = pres.degree_of_element(e)
        if degree is None:
            raise AssembleError("cannot place the zero element on the page")
    G = ss.group(ss.r_max, degree)
    try:
        return G, G.project_element(pres, e)
    except LinearAlgebraError as exc:
        raise AssembleError(
            "element %s at %s does not survive to the infinity page: %s"
            % (pres.render(e), degree, exc)
        )


# ---------------------------------------------------------------------------
# ledger expansion
# ---------------------------------------------------------------------------

#: The expanded rows of a run keyed by (kind, source degree, summand index,
#: multiple).  Each source sits in a single infinity summand, which keeps
#: the action computation honest when it works one summand at a time; it
#: holds for every shipped row because the page homology routine always
#: returns the boundary-canceling combination as one summand.  The
#: multiple is the source's coordinate there, reduced modulo the summand's
#: order, or its absolute value on a free summand: a class and its
#: negative are not told apart, which is harmless because every hidden
#: extension here has a 2-torsion target.
Ledger = Dict[Tuple[str, TriDegree, int, int], HiddenExtension]


def _highest_filtration_class(ss: SliceSS, s: int, w: int, above_f: int) -> Element:
    """Lift of the top nonzero infinity summand in one (s, w) column."""
    for f in range(ss.window.f[1], above_f, -1):
        d = TriDegree(s, f, w)
        if not ss.certified(d):
            raise NotCertifiedError(
                "top of column (%d, %d) is not certified" % (s, w)
            )
        G = ss.group(ss.r_max, d)
        if G.orders:
            if len(G.orders) > 1:
                raise LedgerError(
                    "highest filtration at (%d, *, %d) is not a single class"
                    % (s, w)
                )
            return G.lift(0)
    raise LedgerError(
        "no class above filtration %d in column (%d, %d)" % (above_f, s, w)
    )


def _carrier_half_order(pres: RingPresentation, e: Element) -> Element:
    """Replace the integer multiple by half the carrier order.

    Used by rows whose source is "the appropriate multiple" of a class
    whose torsion grows along v1^4: the order 2 element of the cyclic
    summand on tau2 * iv(4k) is (order / 2) times it, and the order
    depends on k.
    """
    if len(e) != 1:
        raise LedgerError("half-carrier-order rows need a single term source")
    ((m, _c),) = tuple(e.items())
    order = pres.order_of(m)
    if order < 4:
        raise LedgerError("carrier order too small for a half-order source")
    return {m: order // 2}


def periodic_steps(
    row: HiddenExtension, window
) -> List[Tuple[int, int, TriDegree, TriDegree]]:
    """(j, k, source degree, target degree) for each tau^(4j) v1^(4k)
    translate of row with both degrees in window, sorted by (j, k).

    k runs over the v1^4 steps that put the source stem in the window and,
    for each k, j over the tau^4 steps that put the source weight there,
    so a row lying far from the window in stem or weight misses no step.
    """
    d, kd = row.degree, KIND_DEGREE[row.kind]
    vs, vw, tw = V14_DEGREE.s, V14_DEGREE.w, -TAU4_DEGREE.w
    (s_lo, s_hi), (w_lo, w_hi) = window.s, window.w
    ks = range(max(0, -((d.s - s_lo) // vs)), (s_hi - d.s) // vs + 1) if row.v14 else range(1)
    steps = []
    for k in ks:
        top = d.w + k * vw  # the source weight at j = 0
        js = range(max(0, -((w_hi - top) // tw)), (top - w_lo) // tw + 1) if row.tau4 else range(1)
        for j in js:
            sd = TriDegree(d.s + k * vs, d.f, top - j * tw)
            td = TriDegree(sd.s + kd.s, sd.f, sd.w + kd.w)
            if window.contains(sd) and window.contains(td):
                steps.append((j, k, sd, td))
    steps.sort(key=lambda step: step[:2])
    return steps


def expand_ledger(
    ss: SliceSS,
    rows: Optional[Sequence[HiddenExtension]] = None,
) -> Ledger:
    """Materialize the tau^4 and v1^4 families of the base rows (the
    object's shipped ledger by default) in the run's window, keyed by
    source as ``Ledger`` says.

    Every expanded endpoint is validated against the infinity page: rows
    whose endpoints leave the certified region are dropped, while an
    endpoint that is certified but dead is a ledger error, since the
    printed periodicity statements promise it survives.  So is a source
    spread over several summands, and a key that two rows share.
    """
    ss.run()
    pres = ss.pres
    if rows is None:
        _, rows = load_ledger(ss.obj.name, pres)

    out: Ledger = {}
    for row in rows:
        for j, k, sd, td in periodic_steps(row, ss.window):
            try:
                source = tau4_mult(ss, v14_mult(ss, row.source, k), j)
                if row.special == "half-carrier-order":
                    source = _carrier_half_order(pres, source)
                    if j == 0 and k == 0 and source != row.source:
                        raise LedgerError(
                            "stored multiple in %s is not half the carrier order"
                            % pres.render(row.source)
                        )
                if row.special == "highest-filtration":
                    target = _highest_filtration_class(ss, td.s, td.w, sd.f)
                    if j == 0 and k == 0:
                        want = (
                            pres.degree_of_element(row.target),
                            infinity_coords(ss, row.target)[1],
                        )
                        got = (
                            pres.degree_of_element(target),
                            infinity_coords(ss, target)[1],
                        )
                        if want != got:
                            raise LedgerError(
                                "stored target %s is not the highest"
                                " filtration class of its column"
                                % pres.render(row.target)
                            )
                else:
                    target = tau4_mult(ss, v14_mult(ss, row.target, k), j)
            except (PresentationError, NotCertifiedError):
                continue
            ext = HiddenExtension(
                kind=row.kind,
                source=source,
                target=target,
                degree=sd,
                coweight=sd.coweight,
                proof=row.proof
                + ("; tau^4 step %d" % j if j else "")
                + ("; v1^4 step %d" % k if k else ""),
                tau4=row.tau4,
                v14=row.v14,
                special=row.special,
            )
            check_extension(pres, ext)
            try:
                G, scoords = infinity_coords(ss, ext.source, sd)
                _, tcoords = infinity_coords(ss, ext.target)
            except NotCertifiedError:
                continue
            if not (any(scoords) and any(tcoords)):
                raise LedgerError(
                    "expanded %s row at %s has a dead endpoint"
                    % (ext.kind, sd)
                )
            hits = [i for i, c in enumerate(scoords) if c]
            if len(hits) != 1:
                raise LedgerError(
                    "source %s spreads over several summands at %s"
                    % (pres.render(ext.source), sd)
                )
            i = hits[0]
            c, o = scoords[i], G.orders[i]
            key = (ext.kind, sd, i, c % o if o else abs(c))
            if key in out:
                raise LedgerError(
                    "two %s rows share the source at %s" % (ext.kind, sd)
                )
            out[key] = ext
    return out


# ---------------------------------------------------------------------------
# actions on infinity classes
# ---------------------------------------------------------------------------

#: an infinity class: {(degree, summand index): integer coefficient}
InfinityClass = Dict[Tuple[TriDegree, int], int]


def _gen_element(pres: RingPresentation, name: str) -> Optional[Element]:
    try:
        return {((pres.gen(name), 1),): 1}
    except PresentationError:
        return None


def action(ss: SliceSS, ledger: Ledger, kind: str, cls: InfinityClass) -> InfinityClass:
    """Apply rho, eta, or h to an infinity class, one summand at a time.

    The page product is used whenever it is nonzero in the target degree;
    otherwise the ledger supplies the hidden value, and a class with
    neither is sent to zero, which is the published convention that
    unlisted extensions are absent.  The page product of h on c times a
    summand of order o is 2c mod o times it, read off the order; rho and
    eta multiply the lift by their letter and project the product.  Over
    C there is no rho and that action is identically zero.
    """
    pres = ss.pres
    out: InfinityClass = {}
    mult: Optional[Element] = None
    if kind != "h":
        mult = _gen_element(pres, "rho" if kind == "rho" else "h1")
        if mult is None:
            return {}
    for (d, i), c in cls.items():
        G = ss.group(ss.r_max, d)
        o = G.orders[i]
        c = c % o if o else c
        if not c:
            continue
        if kind == "h":
            t = 2 * c % o if o else 2 * c
            val = {(d, i): t} if t else {}
        else:
            prod = pres.multiply(pres.reduce_coefficients(el_scale(G.lift(i), c)), mult)
            td = d + KIND_DEGREE[kind]
            coords: Sequence[int] = infinity_coords(ss, prod, td)[1] if prod else []
            val = {(td, j): x for j, x in enumerate(coords) if x}
        if not val:
            row = ledger.get((kind, d, i, c if o else abs(c)))
            if row is None:
                continue
            rd = pres.degree_of_element(row.target)
            val = {(rd, j): x for j, x in enumerate(infinity_coords(ss, row.target)[1]) if x}
        for key, x in val.items():
            out[key] = out.get(key, 0) + x
    return _trim(ss, out)


def _trim(ss: SliceSS, cls: InfinityClass) -> InfinityClass:
    out: InfinityClass = {}
    for (d, i), c in cls.items():
        o = ss.group(ss.r_max, d).orders[i]
        c = c % o if o else c
        if c:
            out[(d, i)] = c
    return out


def double(ss: SliceSS, ledger: Ledger, cls: InfinityClass) -> InfinityClass:
    """Multiply an infinity class by 2, as h plus rho*eta (2 = rho*eta + h).

    On a summand whose double stays inside it, h is the whole double:
    doubling stays on the page until it hits the order.  Once it does,
    the value, if any, lives in higher filtration: the h part comes from
    the ledger and the rho*eta part from two page products.
    """
    out: InfinityClass = {}
    for (d, i), c in cls.items():
        term = {(d, i): c}
        parts = [action(ss, ledger, "h", term)]
        o = ss.group(ss.r_max, d).orders[i]
        if not (2 * c % o if o else 2 * c):
            parts.append(action(ss, ledger, "rho", action(ss, ledger, "eta", term)))
        for part in parts:
            for key, x in part.items():
                out[key] = out.get(key, 0) + x
    return _trim(ss, out)


# ---------------------------------------------------------------------------
# columns
# ---------------------------------------------------------------------------


def render_orders(orders: Sequence[int]) -> str:
    """A direct sum of cyclic groups, 0 standing for Z: "Z/4 + Z"."""
    if not orders:
        return "0"
    return " + ".join("Z" if o == 0 else "Z/%d" % o for o in orders)


@dataclass(frozen=True)
class PiGenerator:
    """One infinity summand contributing to a homotopy group."""

    degree: TriDegree
    index: int
    order: int
    label: str
    part: str


@dataclass
class HomotopyGroup:
    """An assembled homotopy group in one (stem, weight) spot.

    generators follow the column bottom up.  relations record, for each
    torsion generator, what its summand order times it equals in terms of
    the higher generators; SNF of that presentation gives the invariant
    factors in ``orders`` (0 standing for a free summand).  actions hold
    the rho, h, and eta action on each generator as rendered infinity
    classes, and provenance says whether the published charts exhibit this part
    of the pattern or the periodicity rules extrapolate it.
    """

    s: int
    w: int
    generators: List[PiGenerator]
    relations: List[Tuple[int, int, Dict[int, int]]]
    orders: List[int]
    actions: Dict[str, List[str]]
    provenance: str

    def render(self) -> str:
        return render_orders(self.orders)


def _provenance(name: str, coweight: int) -> str:
    """The charts exhibit the patterns up to coweights 15 mod 32."""
    if name == "L" and coweight >= 0 and coweight % 2 == 1:
        if two_adic_valuation(coweight + 1) >= 5:
            return "extrapolated beyond the exhibited charts"
    return "chart-certified"


def assemble(
    ss: SliceSS,
    s: int,
    w: int,
    ledger: Optional[Ledger] = None,
) -> HomotopyGroup:
    """Assemble the homotopy group at one (stem, weight) from the column.

    One generator per infinity summand, read bottom up.  Each torsion
    summand of order 2^k contributes the relation 2^k * x = value, where
    the value is found by doubling k times through 2 = rho*eta + h.  The
    doubling fails loudly (NotCertifiedError) when the column or one of
    its action neighbors leaks out of the certified region, which is the
    precondition the caller must arrange.

    Crossing extensions would make the hidden value ill defined; they do
    not occur in this material, and an occurrence raises AssembleError
    rather than producing a silently wrong group.  So does a generator
    whose rho, h and eta actions break 2 = rho*eta + h at the leading
    filtration.
    """
    ss.run()
    pres = ss.pres
    if ledger is None:
        ledger = expand_ledger(ss)

    gens: List[PiGenerator] = []
    key_to_idx: Dict[Tuple[TriDegree, int], int] = {}
    for f in range(ss.window.f[0], ss.window.f[1] + 1):
        d = TriDegree(s, f, w)
        G = ss.group(ss.r_max, d)
        for i, o in enumerate(G.orders):
            key_to_idx[(d, i)] = len(gens)
            gens.append(
                PiGenerator(d, i, o, pres.render(G.lift(i)), G.parts[i])
            )

    relations: List[Tuple[int, int, Dict[int, int]]] = []
    for gi, gen in enumerate(gens):
        if gen.order == 0:
            continue
        k = two_adic_valuation(gen.order)
        cls: InfinityClass = {(gen.degree, gen.index): 1}
        for _ in range(k):
            cls = double(ss, ledger, cls)
        value: Dict[int, int] = {}
        for key, c in cls.items():
            ti = key_to_idx.get(key)
            if ti is None:
                raise AssembleError(
                    "relation for %s leaves the column at %s"
                    % (gen.label, key[0])
                )
            value[ti] = value.get(ti, 0) + c
        relations.append((gi, gen.order, value))

    _refuse_crossings(gens, relations)

    actions: Dict[str, List[str]] = {"rho": [], "h": [], "eta": []}
    for gi, gen in enumerate(gens):
        base: InfinityClass = {(gen.degree, gen.index): 1}
        vals = {}
        for kind in ("rho", "h", "eta"):
            vals[kind] = action(ss, ledger, kind, base)
            actions[kind].append(_render_class(ss, vals[kind]))
        _check_two_identity(ss, ledger, gen, base, vals)

    orders = _invariant_factors(len(gens), relations)
    return HomotopyGroup(
        s=s,
        w=w,
        generators=gens,
        relations=relations,
        orders=orders,
        actions=actions,
        provenance=_provenance(ss.obj.name, s - w),
    )


def _render_class(ss: SliceSS, cls: InfinityClass) -> str:
    if not cls:
        return "0"
    pres = ss.pres
    parts = []
    for (d, i), c in sorted(cls.items()):
        G = ss.group(ss.r_max, d)
        label = pres.render(G.lift(i))
        parts.append(label if c == 1 else "%d*(%s)" % (c, label))
    return " + ".join(parts)


def _check_two_identity(ss, ledger, gen, base, vals) -> None:
    """2 = rho*eta + h, checked at the leading filtration.

    Infinity coordinates only see a homotopy element through its top
    nonzero filtration, so the identity is checked where it is visible:
    the lowest filtration terms of both sides must agree, and the right
    side must not reach below the left.
    """
    two = double(ss, ledger, dict(base))
    rhs: InfinityClass = dict(vals["h"])
    for key, x in action(ss, ledger, "rho", vals["eta"]).items():
        rhs[key] = rhs.get(key, 0) + x
    rhs = _trim(ss, rhs)
    if not two:
        if rhs:
            raise AssembleError(
                "2 = rho*eta + h fails on %s: doubling gives 0, actions give %s"
                % (gen.label, _render_class(ss, rhs))
            )
        return
    lead = min(d.f for (d, _i) in two)
    if any(d.f < lead for (d, _i) in rhs):
        raise AssembleError(
            "2 = rho*eta + h fails on %s below filtration %d" % (gen.label, lead)
        )
    left = {k: v for k, v in two.items() if k[0].f == lead}
    right = {k: v for k, v in rhs.items() if k[0].f == lead}
    if left != right:
        raise AssembleError(
            "2 = rho*eta + h fails on %s: %s vs %s"
            % (gen.label, _render_class(ss, two), _render_class(ss, rhs))
        )


def _refuse_crossings(gens, relations) -> None:
    """Interleaved hidden 2-power extensions make the order ambiguous.

    Drawn on the chart, each torsion relation is a segment from the
    generator's filtration up to the filtration of its value.  Nested
    and disjoint segments reconstruct a unique group; two segments that
    strictly interleave do not, and the assembly refuses rather than
    guessing.  (The material here never produces an interleaved pair.)
    """
    jumps = []
    for gi, _o, value in relations:
        above = [gens[ti].degree.f for ti in value if value[ti]]
        if above:
            jumps.append((gens[gi].degree.f, min(above), gens[gi].label))
    for a in jumps:
        for b in jumps:
            if a[0] < b[0] < a[1] < b[1]:
                raise AssembleError(
                    "crossing extensions between %s and %s" % (a[2], b[2])
                )


def _invariant_factors(n: int, relations) -> List[int]:
    """Invariant factors of Z^n modulo the relation lattice."""
    if n == 0:
        return []
    cols = []
    for gi, o, value in relations:
        vec = [0] * n
        vec[gi] = o
        for ti, c in value.items():
            vec[ti] -= c
        cols.append(vec)
    if not cols:
        return [0] * n
    dia = smith_normal_form(cols, n)
    return [x for x in dia if x > 1] + [0] * (n - sum(1 for x in dia if x))


# ---------------------------------------------------------------------------
# the coweight 4j-1 order pattern
# ---------------------------------------------------------------------------


def order_pattern_check(
    ss: SliceSS,
    j: int,
    ledger: Optional[Ledger] = None,
) -> Dict[str, object]:
    """Survey the assembled groups in coweight 4j - 1.

    Generic stems there carry a single cyclic group of order 2^(v(j)+3)
    with v the 2-adic valuation.  Stems of the form 4i - 1 are the
    documented exception: larger powers of 2, glued by powers of h.  The
    survey is report-only; it never raises on a surprising column.
    """
    ss.run()
    c = 4 * j - 1
    expected = 1 << (two_adic_valuation(j) + 3)
    if ledger is None:
        ledger = expand_ledger(ss)
    report: Dict[str, object] = {
        "object": ss.obj.name,
        "coweight": c,
        "expected_generic_order": expected,
        "generic": [],
        "exceptional": [],
        "empty": [],
        "skipped": [],
        "ok": True,
    }
    for s in range(ss.window.s[0] + 2, ss.window.s[1] - 1):
        w = s - c
        if not (ss.window.w[0] <= w <= ss.window.w[1]):
            continue
        try:
            grp = assemble(ss, s, w, ledger=ledger)
        except (AssembleError, NotCertifiedError) as exc:
            report["skipped"].append((s, str(exc)))
            continue
        if not grp.orders:
            report["empty"].append(s)
            continue
        entry = {"stem": s, "orders": grp.orders, "group": grp.render()}
        if s % 4 == 3:
            entry["h_glued"] = sum(
                1 for _gi, _o, value in grp.relations if value
            )
            report["exceptional"].append(entry)
        else:
            entry["ok"] = grp.orders == [expected]
            if not entry["ok"]:
                report["ok"] = False
            report["generic"].append(entry)
    return report
