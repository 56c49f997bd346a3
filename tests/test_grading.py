"""Core monomial algebra: degrees, rewriting, enumeration, serialization."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effss.engine import Window
from effss.grading import (
    MONE,
    GeneratorSpec,
    PresentationError,
    RewriteRule,
    RingPresentation,
    TriDegree,
    lam,
    mono_div,
    mono_mul,
    presentation_from_dict,
    render_terms,
)
from effss.objects import get_object


def basis_at(pres, degree):
    """The basis monomials of one degree."""
    return pres.basis_window(*[(x, x) for x in degree]).monomials.get(degree, [])


def make_ko():
    """The E_1 presentation of the very effective hermitian theory.

    Built inline so these tests do not depend on the shipped data files.
    """
    gens = [
        GeneratorSpec("rho", TriDegree(-1, 1, -1), torsion=2),
        GeneratorSpec("tau2", TriDegree(0, 0, -2)),
        GeneratorSpec("h1", TriDegree(1, 1, 1), torsion=2),
        GeneratorSpec("th1", TriDegree(1, 1, 0), torsion=2, cap=1),
        GeneratorSpec("v2", TriDegree(4, 0, 2)),
    ]
    pres = RingPresentation("ko-test", gens)
    rule = RewriteRule(
        lhs=pres.monomial({"th1": 2}),
        rhs=(
            (1, pres.monomial({"tau2": 1, "h1": 2})),
            (1, pres.monomial({"rho": 2, "v2": 1})),
        ),
    )
    return RingPresentation("ko-test", gens, rules=[rule])


def make_ko_C():
    gens = [
        GeneratorSpec("tau", TriDegree(0, 0, -1)),
        GeneratorSpec("h1", TriDegree(1, 1, 1), torsion=2),
        GeneratorSpec("v2", TriDegree(4, 0, 2)),
    ]
    return RingPresentation("koC-test", gens)


def test_tridegree_arithmetic():
    a = TriDegree(-1, 1, -1)
    b = TriDegree(4, 0, 2)
    assert a + b == TriDegree(3, 1, 1)
    assert b - a == TriDegree(5, -1, 3)
    assert a.scaled(3) == TriDegree(-3, 3, -3)
    assert a.coweight == 0
    assert TriDegree(0, 0, -2).coweight == 2
    assert TriDegree(1, 1, 0).coweight == 1
    assert TriDegree(-1, 1, 0).coweight == -1
    assert lam(TriDegree(-1, 1, 0)) == 1  # the iota degree
    assert lam(TriDegree(4, 0, 2)) == 2


def test_mono_helpers():
    a = ((0, 1), (2, 3))
    b = ((0, 2), (1, 1))
    assert mono_mul(a, b) == ((0, 3), (1, 1), (2, 3))
    assert mono_mul(a, MONE) == a
    assert mono_div(mono_mul(a, b), b) == a
    assert mono_div(a, b) is None
    assert mono_div(a, ((2, 4),)) is None
    assert mono_div(a, a) == MONE


def test_degree_and_order():
    ko = make_ko()
    m = ko.monomial({"tau2": 3, "v2": 2})
    assert ko.degree_of(m) == TriDegree(8, 0, -2)
    assert ko.order_of(m) == 0  # free
    assert ko.order_of(ko.monomial({"rho": 1, "v2": 5})) == 2
    assert ko.order_of(MONE) == 0


def test_rewrite_th1_square():
    ko = make_ko()
    sq = ko.reduce({ko.monomial({"th1": 2}): 1})
    assert sq == {
        ko.monomial({"tau2": 1, "h1": 2}): 1,
        ko.monomial({"rho": 2, "v2": 1}): 1,
    }


def test_rewrite_th1_fourth_power_drops_even_cross_term():
    # (tau2*h1^2 + rho^2*v2)^2 has a cross term with coefficient 2 sitting
    # on an order 2 monomial, so only the two squares survive.
    ko = make_ko()
    fourth = ko.reduce({ko.monomial({"th1": 4}): 1})
    assert fourth == {
        ko.monomial({"tau2": 2, "h1": 4}): 1,
        ko.monomial({"rho": 4, "v2": 2}): 1,
    }


def test_multiply_matches_reduce():
    ko = make_ko()
    th1 = {ko.monomial({"th1": 1}): 1}
    prod = ko.multiply(th1, th1)
    assert prod == ko.reduce({ko.monomial({"th1": 2}): 1})


def test_torsion_coefficient_normalization():
    ko = make_ko()
    h1 = ko.monomial({"h1": 1})
    assert ko.reduce({h1: 2}) == {}
    assert ko.reduce({h1: -1}) == {h1: 1}
    tau2 = ko.monomial({"tau2": 1})
    assert ko.reduce({tau2: -3}) == {tau2: -3}  # free summand, coeff kept


def brute_force_ko_C(s_range, f_range, w_range):
    """Direct nested-loop enumeration of tau^a h1^b v2^k monomials."""
    koc = make_ko_C()
    found = {}
    for a in range(0, 80):
        for b in range(0, 20):
            for k in range(0, 20):
                s, f, w = b + 4 * k, b, b + 2 * k - a
                if not (s_range[0] <= s <= s_range[1]):
                    continue
                if not (f_range[0] <= f <= f_range[1]):
                    continue
                if not (w_range[0] <= w <= w_range[1]):
                    continue
                m = koc.monomial({"tau": a, "h1": b, "v2": k})
                found.setdefault(TriDegree(s, f, w), []).append(m)
    for d in found:
        found[d].sort(key=koc.mono_key)
    return koc, found


def test_basis_window_against_brute_force():
    koc, expected = brute_force_ko_C((0, 8), (0, 5), (-6, 6))
    got = koc.basis_window((0, 8), (0, 5), (-6, 6)).monomials
    assert got == expected


def brute_force_page1(pres, box, marked):
    """Every normal monomial of a presentation with no slots whose degree
    lies in the box, by degree in ``mono_key`` order, as (monomial, order,
    mark) rows: each exponent vector under the caps, with plain sums for
    its degree, the gcd of its generators' torsions for its order, and
    whether a marked generator divides it.  A generator that raises the
    filtration appears at most f1 times, and any other at most
    (2 f1 + s1 - w0) / lam(g) times."""
    (s0, s1), (f0, f1), (w0, w1) = box
    gens = pres.generators
    lam_max = 2 * f1 + s1 - w0
    tops = []
    for g in gens:
        top = f1 if g.degree.f > 0 else lam_max // lam(g.degree)
        tops.append(range(max(min(top, g.cap if g.cap is not None else top), 0) + 1))
    found = {}
    for exps in itertools.product(*tops):
        s = sum(e * g.degree.s for e, g in zip(exps, gens))
        f = sum(e * g.degree.f for e, g in zip(exps, gens))
        w = sum(e * g.degree.w for e, g in zip(exps, gens))
        if not (s0 <= s <= s1 and f0 <= f <= f1 and w0 <= w <= w1):
            continue
        m = tuple((i, e) for i, e in enumerate(exps) if e)
        o = 0
        for i, _e in m:
            o = math.gcd(o, gens[i].torsion)
        found.setdefault(TriDegree(s, f, w), []).append((m, o, any(i in marked for i, _e in m)))
    for rows in found.values():
        rows.sort(key=lambda row: dense_mono_key(pres, row[0]))
    return found


KO_BOXES = st.tuples(
    st.tuples(st.integers(-4, 10), st.integers(0, 8)),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.integers(-8, 6), st.integers(0, 10)),
).map(lambda box: tuple((lo, lo + span) for lo, span in box))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(box=KO_BOXES, marked=st.frozensets(st.integers(0, 4)))
@example(box=((0, 6), (2, 5), (-4, 4)), marked=frozenset({0}))  # f0 > 0
@example(box=((-4, 2), (0, 6), (-8, 0)), marked=frozenset({2}))  # top stem and weight cut rho towers
@example(box=((3, 3), (1, 4), (-6, 6)), marked=frozenset())  # one stem, f0 > 0
def test_ko_page1_against_brute_force(box, marked):
    """On ``ko``, whose rho towers the basis search builds by translation,
    each degree of a sub-box holds the brute-force monomials in basis
    order, with their orders and marks."""
    pres = get_object("ko").pres
    want = brute_force_page1(pres, box, marked)
    got = pres.basis_window(*box, marked=marked)
    assert got.monomials == {d: [m for m, _o, _k in rows] for d, rows in want.items()}
    for d, (orders, marks, _codes) in got.items():
        assert list(orders) == [o for _m, o, _k in want[d]], d
        assert list(marks) == [k for _m, _o, k in want[d]], d


def test_basis_at_frozen_examples():
    koc = make_ko_C()
    assert basis_at(koc, TriDegree(4, 0, 2)) == [koc.monomial({"v2": 1})]
    assert basis_at(koc, TriDegree(1, 1, 1)) == [koc.monomial({"h1": 1})]
    assert basis_at(koc, TriDegree(0, 0, 0)) == [MONE]
    assert basis_at(koc, TriDegree(3, 3, 2)) == [
        koc.monomial({"tau": 1, "h1": 3})
    ]
    assert basis_at(koc, TriDegree(2, 0, 1)) == []

    ko = make_ko()
    # stem 5 weight 0 filtration 1: tau2^e * monomials; only tau2*th1*v2 fits
    assert basis_at(ko, TriDegree(5, 1, 0)) == [
        ko.monomial({"tau2": 1, "th1": 1, "v2": 1})
    ]


def test_basis_window_respects_cap():
    ko = make_ko()
    box = ko.basis_window((2, 2), (2, 2), (0, 0)).monomials
    # th1^2 has degree (2, 2, 0) but cap 1 keeps it out; rho*h1*tau2^0... the
    # survivors are the normal monomials only.
    for m in box.get(TriDegree(2, 2, 0), []):
        assert ko.is_normal(m)
        assert all(e == 1 for g, e in m if ko.gen_name(g) == "th1")


def test_slot_exclusion():
    gens = [
        GeneratorSpec("t", TriDegree(0, 0, -1)),
        GeneratorSpec("u", TriDegree(1, 1, 1), torsion=2),
        GeneratorSpec("a", TriDegree(2, 1, 1), torsion=2, cap=1, slots=("fam",)),
        GeneratorSpec("b", TriDegree(3, 1, 2), torsion=2, cap=1, slots=("fam",)),
    ]
    pres = RingPresentation("mini", gens)
    rules = [
        RewriteRule(pres.monomial({"a": 1, "b": 1}), ()),
        RewriteRule(pres.monomial({"a": 2}), ()),
        RewriteRule(pres.monomial({"b": 2}), ()),
    ]
    pres = RingPresentation("mini", gens, rules=rules)
    assert pres.multiply({pres.monomial({"a": 1}): 1}, {pres.monomial({"b": 1}): 1}) == {}
    assert basis_at(pres, TriDegree(5, 2, 3)) == []
    assert not pres.is_normal(pres.monomial({"a": 1, "b": 1}))
    assert pres.is_normal(pres.monomial({"u": 1, "a": 1}))


def mini_gens():
    return [
        GeneratorSpec("t", TriDegree(0, 0, -1)),
        GeneratorSpec("u", TriDegree(1, 1, 1), torsion=2),
        GeneratorSpec("a", TriDegree(2, 1, 1), torsion=2, cap=1, slots=("fam",)),
        GeneratorSpec("b", TriDegree(3, 1, 2), torsion=2, cap=1, slots=("fam",)),
    ]


def test_violation_without_rule_refused():
    # a*b shares the slot "fam" but nothing rewrites it: it must not be
    # passed off as a normal monomial
    gens = mini_gens()
    pres = RingPresentation("mini", gens)
    ab = pres.monomial({"a": 1, "b": 1})
    with pytest.raises(PresentationError, match="beyond the materialized window"):
        pres.reduce({ab: 1})
    pres = RingPresentation("mini", gens, rules=[RewriteRule(pres.monomial({"a": 2}), ())])
    with pytest.raises(PresentationError):
        pres.reduce({pres.monomial({"u": 1, "a": 1, "b": 1}): 1})
    assert pres.reduce({pres.monomial({"a": 2, "u": 1}): 1}) == {}
    assert pres.reduce({pres.monomial({"u": 3, "a": 1}): 1}) == {pres.monomial({"u": 3, "a": 1}): 1}


def test_rule_lhs_must_be_one_violation():
    gens = mini_gens()
    pres = RingPresentation("mini", gens)
    for lhs in ({"a": 3}, {"u": 1, "a": 1, "b": 1}, {"a": 2, "b": 1}):
        with pytest.raises(PresentationError, match="not exactly one"):
            RingPresentation("mini", gens, rules=[RewriteRule(pres.monomial(lhs), ())])
    with pytest.raises(PresentationError, match="not exactly one"):
        RingPresentation("mini", gens, rules=[RewriteRule((), ())])
    ab = pres.monomial({"a": 1, "b": 1})
    with pytest.raises(PresentationError, match="two rules"):
        RingPresentation("mini", gens, rules=[RewriteRule(ab, ()), RewriteRule(ab, ())])


def test_rule_source_asked_once_per_violation():
    gens = mini_gens()
    pres = RingPresentation("mini", gens)
    ab, a2, b2 = (pres.monomial(e) for e in ({"a": 1, "b": 1}, {"a": 2}, {"b": 2}))
    uab = pres.monomial({"u": 1, "a": 1, "b": 1})
    asked = []

    def source(asker, v):
        asked.append(v)
        assert asker is pres  # the presentation asking, not one the source holds
        return RewriteRule(ab, ()) if v == ab else None

    pres = RingPresentation("mini", gens, rules=[RewriteRule(a2, ())], rule_source=source)
    assert asked == []
    assert pres.reduce({uab: 1}) == {} and pres.reduce({uab: 1}) == {}
    assert pres.reduce({pres.monomial({"u": 1, "a": 2}): 1}) == {}
    assert asked == [ab]
    for _ in range(2):
        with pytest.raises(PresentationError, match="beyond the materialized window"):
            pres.reduce({b2: 1})
    assert asked == [ab, b2]
    assert pres.rules == (RewriteRule(a2, ()), RewriteRule(ab, ()))

    wrong = RingPresentation("mini", gens, rule_source=lambda _pres, v: RewriteRule(uab, ()))
    with pytest.raises(PresentationError, match="not exactly one"):
        wrong.reduce({ab: 1})


def test_rule_on_normal_lhs_refused():
    # u is uncapped and slot-free, so u^2 passes every cap and slot: a
    # rule rewriting it would make the enumerated basis disagree with
    # the rules
    gens = [GeneratorSpec("u", TriDegree(1, 1, 1), torsion=2)]
    pres = RingPresentation("mini", gens)
    with pytest.raises(PresentationError):
        RingPresentation("mini", gens, rules=[RewriteRule(pres.monomial({"u": 2}), ())])


def test_lambda_positivity_enforced():
    with pytest.raises(PresentationError):
        RingPresentation(
            "bad", [GeneratorSpec("x", TriDegree(0, 0, 1))]
        )


def test_filtration_lowering_generator_refused():
    # 2f + s - w = 1 passes the termination check; basis pruning needs f >= 0
    with pytest.raises(PresentationError, match="lowers the filtration"):
        RingPresentation("bad", [GeneratorSpec("x", TriDegree(3, -1, 0))])


def test_single_tail_generator_enforced():
    with pytest.raises(PresentationError):
        RingPresentation(
            "bad",
            [
                GeneratorSpec("t1", TriDegree(0, 0, -1)),
                GeneratorSpec("t2", TriDegree(0, 0, -2)),
            ],
        )


@pytest.mark.parametrize(
    "tail",
    [
        GeneratorSpec("t", TriDegree(0, 0, -1), cap=3),
        GeneratorSpec("t", TriDegree(0, 0, -1), slots=("x",)),
        GeneratorSpec("t", TriDegree(0, 0, -1), torsion=2),
    ],
)
def test_tail_generator_must_be_free_and_unbounded(tail):
    with pytest.raises(PresentationError, match="be free, with no cap or slot"):
        RingPresentation("bad", [tail, GeneratorSpec("x", TriDegree(1, 1, 1))])


def test_random_products_associative_and_reduced():
    ko = make_ko()
    rng = random.Random(11)
    gens = ["rho", "tau2", "h1", "th1", "v2"]

    def random_element():
        e = {}
        for _ in range(rng.randint(1, 3)):
            exps = {}
            for name in gens:
                if rng.random() < 0.4:
                    exps[name] = rng.randint(1, 2)
            m = ko.monomial(exps)
            e[m] = e.get(m, 0) + rng.randint(-4, 4)
        return ko.reduce(e)

    for _ in range(120):
        a, b, c = random_element(), random_element(), random_element()
        left = ko.multiply(ko.multiply(a, b), c)
        right = ko.multiply(a, ko.multiply(b, c))
        assert left == right
        assert ko.reduce(left) == left
        for m in left:
            assert ko.is_normal(m)


def test_render_and_parse():
    ko = make_ko()
    e = ko.reduce({ko.monomial({"th1": 2}): 1})
    assert ko.render(e) == "tau2*h1^2 + rho^2*v2"
    assert ko.render({}) == "0"
    assert ko.render({MONE: 1}) == "1"
    assert ko.render({ko.monomial({"tau2": 1, "v2": 1}): 2}) == "2*tau2*v2"
    m = ko.monomial({"rho": 2, "v2": 1})
    assert ko.parse_monomial(ko.render_monomial(m)) == m
    assert ko.parse_monomial("1") == MONE


def test_render_negative_coefficients():
    ko = make_ko()
    tau2 = ko.monomial({"tau2": 1})
    v2 = ko.monomial({"v2": 1})
    assert ko.render({tau2: -3, v2: 1}) == "v2 - 3*tau2"
    assert ko.render({tau2: 1, v2: -1}) == "-v2 + tau2"


def test_render_pins_unit_terms_and_negative_first_terms():
    """``render`` on sums with the unit monomial, which ``mono_key`` sorts
    before every other monomial, and on negative first terms: a unit term
    prints as its coefficient, with no "*1"."""
    ko = make_ko()
    tau2, v2 = ko.monomial({"tau2": 1}), ko.monomial({"v2": 1})
    rho_v2 = ko.monomial({"rho": 1, "v2": 2})
    assert ko.render({MONE: 3}) == "3"
    assert ko.render({MONE: -1}) == "-1"
    assert ko.render({MONE: -3}) == "-3"
    assert ko.render({tau2: 1, MONE: 3}) == "3 + tau2"
    assert ko.render({tau2: -1, MONE: -1}) == "-1 - tau2"
    assert ko.render({tau2: -3, v2: 3, MONE: -3}) == "-3 + 3*v2 - 3*tau2"
    assert ko.render({tau2: 1, v2: -3}) == "-3*v2 + tau2"
    assert ko.render({rho_v2: 2, tau2: -1}) == "-tau2 + 2*rho*v2^2"


def test_render_terms_prints_a_later_unit_term_as_its_coefficient():
    """``render`` sorts the unit first, so a unit term in a later place is
    pinned on the formatter itself."""
    assert render_terms([(2, "v2"), (3, "1")]) == "2*v2 + 3"
    assert render_terms([(1, "v2"), (-1, "1")]) == "v2 - 1"
    assert render_terms([(-1, "v2"), (-3, "1")]) == "-v2 - 3"
    assert render_terms([]) == ""


def test_json_round_trip():
    ko = make_ko()
    clone = presentation_from_dict(ko.to_dict())
    assert clone.to_dict() == ko.to_dict()
    m4 = clone.monomial({"th1": 4})
    assert clone.reduce({m4: 1}) == ko.reduce({ko.monomial({"th1": 4}): 1})
    d = TriDegree(5, 1, 0)
    assert basis_at(clone, d) == basis_at(ko, d)


def test_global_torsion_refused():
    data = make_ko().to_dict()
    assert data["globalTorsion"] == 0
    data["globalTorsion"] = 2
    with pytest.raises(PresentationError, match="globalTorsion must be 0"):
        presentation_from_dict(data)


def test_element_list_round_trip():
    ko = make_ko()
    e = ko.reduce(
        {
            ko.monomial({"tau2": 2, "v2": 1}): 5,
            ko.monomial({"rho": 1, "th1": 1}): 1,
        }
    )
    data = ko.element_to_list(e)
    assert ko.element_from_list(data) == e


def test_inhomogeneous_element_detected():
    ko = make_ko()
    e = {ko.monomial({"v2": 1}): 1, ko.monomial({"h1": 1}): 1}
    with pytest.raises(PresentationError):
        ko.degree_of_element(e)
    assert ko.degree_of_element({}) is None
    assert ko.degree_of_element({ko.monomial({"v2": 1}): 1}) == TriDegree(4, 0, 2)


# -- the monomial sort key against the dense exponent vector -----------------


def dense_mono_key(pres, m):
    """The full exponent vector of m, one entry per generator: the oracle
    for ``RingPresentation.mono_key``."""
    key = [0] * len(pres.generators)
    for g, e in m:
        key[g] = e
    return tuple(key)


@pytest.fixture(scope="module")
def page1_monomials():
    """(presentation, its page 1 monomials on a small box) per object."""
    small = Window(s=(-2, 10), f=(0, 8), w=(-4, 8))
    fiber_small = Window(s=(-2, 8), f=(0, 4), w=(-4, 6))
    out = []
    for name, w in (("ko_C", small), ("ko", small), ("L", fiber_small), ("L_C", fiber_small)):
        pres = get_object(name, w).pres
        monos = pres.basis_window(w.s, w.f, w.w).monomials.values()
        out.append((pres, sorted({m for ms in monos for m in ms})))
    return out


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_mono_key_orders_like_the_dense_exponent_vector(page1_monomials, data):
    pres, monos = data.draw(st.sampled_from(page1_monomials))
    picked = data.draw(st.lists(st.sampled_from(monos), min_size=2, max_size=8, unique=True))
    a, b = picked[:2]
    key, dense = pres.mono_key, lambda m: dense_mono_key(pres, m)
    assert (key(a) < key(b), key(a) == key(b)) == (dense(a) < dense(b), dense(a) == dense(b))
    assert sorted(picked, key=key) == sorted(picked, key=dense)
    e = {m: data.draw(st.integers(1, 7)) for m in picked}
    # every coefficient is positive: "c*m", with "c*" left out for 1, and
    # the unit monomial printed as its coefficient
    texts = [
        str(e[m]) if not m else pres.render_monomial(m) if e[m] == 1 else "%d*%s" % (e[m], pres.render_monomial(m))
        for m in sorted(e, key=dense)
    ]
    want = " + ".join(texts)
    assert pres.render(e) == want


# -- the code layout ----------------------------------------------------------


@pytest.fixture(scope="module")
def default_codings():
    """(name, page 1's coding) on each object's default window."""
    from effss.engine import SliceSS

    out = []
    for name in ("ko_C", "ko", "L_C", "L"):
        obj = get_object(name)
        out.append((name, SliceSS(obj, obj.default_window).coding))
    return out


def test_split_peels_the_least_significant_power(default_codings):
    """Every generator, lone or in a slot run, at exponents 1, 2 and
    2^width - 1, under codes of the more significant fields: ``split``
    returns that power and the code of the rest, and repeated ``split``
    yields ``decode``'s powers in reverse order."""
    for name, coding in default_codings:
        unit, offset = coding.unit, coding.offset
        top = (1 << coding.width) - 1
        fields = {}  # a field's generators share its unit
        for g, u in enumerate(unit):
            fields.setdefault(u, []).append(g)
        for g, u in enumerate(unit):
            above = [gs for v, gs in fields.items() if v > u]
            rests = (
                0,
                sum(offset[gs[0]] + unit[gs[0]] for gs in above),
                sum(offset[gs[-1]] + top * unit[gs[-1]] for gs in above),
            )
            for e in (1, 2, top):
                for rest in rests:
                    k = rest + offset[g] + e * u
                    assert coding.split(k) == (g, e, rest), (name, g, e, rest)
                    powers = []
                    while k:
                        h, x, k = coding.split(k)
                        powers.append((h, x))
                    assert tuple(reversed(powers)) == coding.decode(rest + offset[g] + e * u), (name, g, e)
