"""Fiber construction: carriers, generated rules, derived d1 and splitting."""

import copy
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effss.engine import SliceSS, Window, derive
from effss.fiber import (
    FiberError,
    build_fiber_object,
    splitting_report,
    val_3_pow_minus_1,
)
from effss.grading import (
    PresentationError,
    RewriteRule,
    RingPresentation,
    TriDegree,
    mono_mul,
    presentation_from_dict,
)
from effss.objects import get_object, load_data, spec_to_dict
from test_grading import basis_at

SMALL = Window(s=(-2, 8), f=(0, 4), w=(-4, 6))


@pytest.fixture(scope="module")
def L():
    return build_fiber_object(load_data("L"), SMALL, r_max=2)


@pytest.fixture(scope="module")
def LC():
    return build_fiber_object(load_data("L_C"), SMALL, r_max=2)


# -- oracles first: closed forms against raw big-integer arithmetic ------


def test_val_3_pow_minus_1_against_direct_arithmetic():
    for n in range(1, 65):
        x = 3**n - 1
        direct = 0
        while x % 2 == 0:
            x //= 2
            direct += 1
        assert val_3_pow_minus_1(n) == direct, n


def test_val_3_pow_minus_1_large_input_is_closed_form():
    # 3^65536 - 1 has ~31k digits; the closed form must not build it
    assert val_3_pow_minus_1(65536) == 18
    assert val_3_pow_minus_1(3 * 2**40) == 42
    with pytest.raises(ValueError):
        val_3_pow_minus_1(0)


def test_iota_carrier_orders_frozen(L):
    p = L.pres
    want = {"iv0": 0, "iv2": 8, "iv4": 16, "iv6": 8, "iv8": 32, "iv10": 8}
    for name, o in want.items():
        assert p.generators[p.gen(name)].torsion == o, name


# -- generator census ----------------------------------------------------


def test_carrier_degrees_and_slots(L):
    p = L.pres
    got = {
        g.name: (tuple(g.degree), g.torsion, g.cap, tuple(sorted(g.slots)))
        for g in p.generators[:9]
    }
    assert got == {
        "rho": ((-1, 1, -1), 2, None, ()),
        "tau2": ((0, 0, -2), 0, None, ()),
        "h1": ((1, 1, 1), 2, None, ("xh1",)),
        "th1": ((1, 1, 0), 2, 1, ("xth1",)),
        "iv0": ((-1, 1, 0), 0, 1, ("fam",)),
        "rv2": ((3, 1, 1), 2, 1, ("fam", "xh1", "xth1")),
        "hv2": ((5, 1, 3), 2, 1, ("fam", "xth1")),
        "thv2": ((5, 1, 2), 2, 1, ("fam", "xth1")),
        "iv2": ((3, 1, 2), 8, 1, ("fam",)),
    }


def test_image_part_is_the_iota_side(L):
    p = L.pres
    assert L.part_of(p.monomial({"iv2": 1, "rho": 1})) == "image"
    assert L.part_of(p.monomial({"iv0": 1})) == "image"
    assert L.part_of(p.monomial({"rv2": 1, "tau2": 3})) == "cokernel"
    names = sorted(p.gen_name(i) for i in L.image_gens)
    assert names[:3] == ["iv0", "iv10", "iv12"]
    assert all(n.startswith("iv") for n in names)


def test_LC_has_no_rho_families(LC):
    names = [g.name for g in LC.pres.generators[:7]]
    assert names == ["tau", "h1", "iv0", "hv2", "iv2", "hv4", "iv4"]


# -- generated rewrite rules ----------------------------------------------


def mul(p, a, b):
    return p.render(p.multiply({p.monomial(a): 1}, {p.monomial(b): 1}))


def test_generated_products_frozen(L):
    p = L.pres
    assert mul(p, {"th1": 1}, {"th1": 1}) == "tau2*h1^2 + rho*rv2"
    assert mul(p, {"rv2": 1}, {"hv2": 1}) == "rho*hv4"
    assert mul(p, {"rv2": 1}, {"rv2": 1}) == "rho*rv4"
    assert mul(p, {"thv2": 1}, {"thv2": 1}) == "tau2*h1*hv4 + rho*rv6"
    assert mul(p, {"h1": 1}, {"rv2": 1}) == "rho*hv2"
    assert mul(p, {"th1": 1}, {"rv2": 1}) == "rho*thv2"
    assert mul(p, {"th1": 1}, {"hv2": 1}) == "h1*thv2"
    assert mul(p, {"th1": 1}, {"thv2": 1}) == "tau2*h1*hv2 + rho*rv4"
    assert mul(p, {"iv0": 1}, {"rv2": 1}) == "rho*iv2"
    assert mul(p, {"iv0": 1}, {"iv0": 1}) == "0"
    assert mul(p, {"iv2": 1}, {"iv4": 1}) == "0"
    assert mul(p, {"thv2": 1}, {"iv2": 1}) == "th1*iv4"


def test_normal_products_have_no_rule(L):
    p = L.pres
    assert mul(p, {"rho": 1}, {"iv2": 1}) == "rho*iv2"
    assert mul(p, {"th1": 1}, {"iv2": 1}) == "th1*iv2"
    assert mul(p, {"h1": 1}, {"hv2": 1}) == "h1*hv2"
    assert mul(p, {"rho": 1}, {"rv2": 1}) == "rho*rv2"
    assert mul(p, {"tau2": 2}, {"thv2": 1}) == "tau2^2*thv2"


def test_random_products_agree_with_base_ring_route(L):
    lay = L.meta["layout"]
    basis = L.pres.basis_window(SMALL.s, SMALL.f, SMALL.w).monomials
    monos = [m for v in basis.values() for m in v]
    rng = random.Random(7)
    for _ in range(300):
        a, b = rng.choice(monos), rng.choice(monos)
        assert L.pres.multiply({a: 1}, {b: 1}) == lay.product_via_base(L.pres, a, b)


def test_pair_beyond_the_cover_refused(L):
    # the two top thv families multiply past every rule the window needs
    p = L.pres
    top = L.meta["layout"].family_max
    a = p.monomial({"thv%d" % (2 * top): 1})
    b = p.monomial({"thv%d" % (2 * top - 2): 1})
    with pytest.raises(PresentationError, match="beyond the materialized window"):
        p.multiply({a: 1}, {b: 1})


def eager_pair_rules(obj):
    """Every pair rule the fiber window needs, made up front.

    The oracle for the rule set a fiber presentation dumps: each
    non-normal carrier pair is multiplied through the base ring, iota
    pairs get the zero rule, and pairs whose v-powers add up past the
    family range (less the v-power base rewriting can add) get none.
    """
    layout, pres = obj.meta["layout"], obj.pres
    v_slack = 0
    for rule in layout.base.rules:
        lhs_k = next((e for g, e in rule.lhs if g == layout.b_v), 0)
        for _, rm in rule.rhs:
            rhs_k = next((e for g, e in rm if g == layout.b_v), 0)
            v_slack = max(v_slack, rhs_k - lhs_k)
    f_tail = layout.gen_of[((layout.base.tail, 1),), 0]
    rules = []
    ng = len(pres.generators)
    for i in range(ng):
        if i == f_tail:
            continue
        bi, ti = layout.back[i]
        ki = dict(bi).get(layout.b_v, 0)
        for j in range(i, ng):
            if j == f_tail:
                continue
            bj, tj = layout.back[j]
            kj = dict(bj).get(layout.b_v, 0)
            lhs = ((i, 2),) if i == j else ((i, 1), (j, 1))
            if ti and tj:
                rules.append(RewriteRule(lhs=lhs, rhs=()))
                continue
            if ki + kj > layout.family_max - v_slack or pres.is_normal(lhs):
                continue
            prod = layout.product_via_base(pres, ((i, 1),), ((j, 1),))
            rhs = tuple((c, m) for m, c in sorted(prod.items(), key=lambda mc: pres.mono_key(mc[0])))
            rules.append(RewriteRule(lhs=lhs, rhs=rhs))
    return rules


def test_dumped_rules_are_the_eager_pair_rules(L_tall, LC_thin):
    for obj in (get_object("L"), get_object("L_C"), L_tall, LC_thin):
        pres = obj.pres
        want = [
            {"lhs": pres.mono_to_dict(r.lhs), "rhs": [[c, pres.mono_to_dict(m)] for c, m in r.rhs]}
            for r in eager_pair_rules(obj)
        ]
        assert spec_to_dict(obj)["rules"] == want, obj.name
        assert len(want) > 1000


def test_random_associativity(L):
    p = L.pres
    basis = p.basis_window(SMALL.s, SMALL.f, SMALL.w).monomials
    monos = [m for v in basis.values() for m in v]
    rng = random.Random(13)
    for _ in range(60):
        a = {rng.choice(monos): 1}
        b = {rng.choice(monos): 1}
        c = {rng.choice(monos): 1}
        assert p.multiply(p.multiply(a, b), c) == p.multiply(a, p.multiply(b, c))


# -- the derived d1 table -------------------------------------------------


def test_d1_schedule_frozen(L):
    p = L.pres
    want = {
        "rho": "0",
        "tau2": "rho^2*th1",
        "h1": "0",
        "th1": "0",
        "iv0": "0",
        "rv2": "rho*h1^2*th1",
        "rv4": "0",
        "rv6": "rho*h1^2*thv4",
        "hv2": "h1^3*th1",
        "hv4": "0",
        "hv6": "h1^3*thv4",
        "thv2": "tau2*h1^4 + rho^2*h1*hv2",
        "thv4": "0",
        "thv6": "tau2*h1^3*hv4 + rho^2*h1*hv6",
        "iv2": "h1^2*th1*iv0",
        "iv4": "0",
        "iv6": "h1^2*th1*iv4",
    }
    for name, text in want.items():
        assert p.render(L.schedule[1][p.gen(name)]) == text, name


def test_d1_schedule_frozen_LC(LC):
    p = LC.pres
    want = {
        "tau": "0",
        "h1": "0",
        "iv0": "0",
        "hv2": "tau*h1^4",
        "hv4": "0",
        "hv6": "tau*h1^3*hv4",
        "iv2": "tau*h1^3*iv0",
        "iv4": "0",
        "iv6": "tau*h1^3*iv4",
    }
    for name, text in want.items():
        assert p.render(LC.schedule[1][p.gen(name)]) == text, name


# -- enumeration ----------------------------------------------------------


def test_hook_matches_generic_search(L):
    generic = presentation_from_dict(L.pres.to_dict())
    box = ((-3, 9), (0, 5), (-4, 6))
    a = L.pres.basis_window(*box)
    b = generic.basis_window(*box)
    assert a == b
    assert sum(len(v) for v in a.monomials.values()) > 500


def closed_form_basis(obj, s_range, f_range, w_range):
    """Closed-form fiber enumeration, the oracle for the generic search.

    The carrier (or its absence) is the outer loop, the letters allowed
    next to it are short nested loops, and the tau power is a closed-form
    range.  It reads the letter-absorption layout directly, not the caps
    and slots that the generic search walks.
    """
    layout = obj.meta["layout"]
    pres = obj.pres
    gens = pres.generators

    def letter(bl):
        return layout.gen_of[((bl, 1),), 0]

    tail = letter(layout.base.tail)
    tail_w = -gens[tail].degree.w
    for bl in layout.priority:
        d = gens[letter(bl)].degree
        assert d.f == 1 and abs(d.s) <= 1, "the stem prune needs letter-like letters"

    fletters = tuple(letter(b) for b in layout.priority)
    branches = [(None, fletters)]
    iota_carriers = []
    for fi, (bm, iota) in enumerate(layout.back):
        if iota:
            iota_carriers.append((fi, fletters))
        elif len(bm) == 2:
            (bl,) = (g for g, _ in bm if g != layout.b_v)
            p = layout.priority.index(bl)
            allowed = [letter(b) for b in layout.priority[p:]]
            if gens[letter(bl)].cap is not None:
                allowed.remove(letter(bl))
            branches.append((fi, tuple(allowed)))
    branches += iota_carriers

    s0, s1 = s_range
    f0, f1 = f_range
    w0, w1 = w_range
    out = {}

    def leaf(parts, s, f, w):
        if not (s0 <= s <= s1 and f0 <= f <= f1):
            return
        lo = max(0, -(-(w - w1) // tail_w))
        hi = (w - w0) // tail_w
        for e in range(lo, hi + 1):
            m = tuple(sorted(parts + [(tail, e)])) if e else tuple(sorted(parts))
            out.setdefault(TriDegree(s, f, w - e * tail_w), []).append(m)

    def rec(idx, allowed, parts, s, f, w):
        if idx == len(allowed):
            leaf(parts, s, f, w)
            return
        gi = allowed[idx]
        d = gens[gi].degree
        emax = f1 - f
        cap = gens[gi].cap
        if cap is not None and emax > cap:
            emax = cap
        for e in range(emax + 1):
            ns, nf = s + e * d.s, f + e * d.f
            rem = f1 - nf  # letters left shift the stem by at most 1 each
            if ns - rem > s1 or ns + rem < s0:
                continue
            rec(idx + 1, allowed, parts + [(gi, e)] if e else parts, ns, nf, w + e * d.w)

    for ci, allowed in branches:
        if ci is None:
            rec(0, allowed, [], 0, 0, 0)
        elif gens[ci].degree.f <= f1:
            d = gens[ci].degree
            rec(0, allowed, [(ci, 1)], d.s, d.f, d.w)

    for degree in out:
        out[degree].sort(key=pres.mono_key)
    return out


@pytest.fixture(scope="module")
def L_tall():
    return build_fiber_object(load_data("L"), Window(s=(-2, 8), f=(0, 14), w=(-4, 6)), r_max=2)


@pytest.fixture(scope="module")
def LC_thin():
    return build_fiber_object(load_data("L_C"), Window(s=(-8, 58), f=(0, 0), w=(-4, 30)), r_max=2)


def test_basis_window_matches_closed_form(L, L_tall, LC_thin):
    cases = [
        (L, ((-3, 9), (0, 5), (-4, 6)), 500),
        (LC_thin, ((-10, 60), (0, 6), (-4, 30)), 3000),
        (L_tall, ((-4, 10), (0, 20), (-4, 6)), 5000),
    ]
    for obj, box, at_least in cases:
        want = closed_form_basis(obj, *box)
        assert obj.pres.basis_window(*box).monomials == want
        assert presentation_from_dict(obj.pres.to_dict()).basis_window(*box).monomials == want
        assert sum(len(v) for v in want.values()) > at_least


def sub_range(data, lo, hi):
    a, b = data.draw(st.integers(lo, hi)), data.draw(st.integers(lo, hi))
    return min(a, b), max(a, b)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_basis_window_matches_closed_form_on_sub_boxes(L, LC, L_tall, LC_thin, data):
    """The generic search against the closed form on random boxes inside
    the cover each object was materialized for."""
    obj = data.draw(st.sampled_from((L, LC, L_tall, LC_thin)))
    c = obj.pres.cover
    box = tuple(sub_range(data, lo, hi) for lo, hi in (c.s, c.f, c.w))
    assert obj.pres.basis_window(*box).monomials == closed_form_basis(obj, *box)


def v_power(layout, m):
    """The v-power a fiber monomial carries in the base ring."""
    return dict(layout.debase(m)[0]).get(layout.b_v, 0)


@pytest.fixture(scope="module")
def wide_monomials(L_tall, LC_thin):
    """Normal monomials of boxes larger than SMALL, per object.

    Pairs come from the whole box, so carriers up to the top of the box
    meet.  Triples come from the monomials whose v-power is at most a
    third of what the generated rules cover, so every intermediate
    product stays inside the materialized window.
    """
    out = []
    for obj, box in ((L_tall, ((-4, 10), (0, 20), (-4, 6))), (LC_thin, ((-10, 60), (0, 6), (-4, 30)))):
        layout = obj.meta["layout"]
        monos = [m for ms in obj.pres.basis_window(*box).monomials.values() for m in ms]
        k_low = (layout.family_max - 4) // 3
        low = [m for m in monos if v_power(layout, m) <= k_low]
        out.append((obj, monos, low))
    return out


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_pair_rules_agree_with_base_route_on_wide_boxes(wide_monomials, data):
    obj, monos, low = data.draw(st.sampled_from(wide_monomials))
    p = obj.pres
    layout = obj.meta["layout"]
    a, b = data.draw(st.sampled_from(monos)), data.draw(st.sampled_from(monos))
    ab = p.multiply({a: 1}, {b: 1})
    assert ab == layout.product_via_base(p, a, b)
    assert all(p.is_normal(m) for m in ab)

    x, y, z = ({data.draw(st.sampled_from(low)): 1} for _ in range(3))
    left = p.multiply(p.multiply(x, y), z)
    assert left == p.multiply(x, p.multiply(y, z))
    assert all(p.is_normal(m) for m in left)


def base_route_d1(obj, m):
    """d1 of a fiber monomial computed in the base ring and translated back."""
    layout = obj.meta["layout"]
    base = get_object(obj.meta["base"])
    bm, iota = layout.debase(m)
    return layout.translate(obj.pres, derive(layout.base, bm, base.schedule[1]), iota=bool(iota))


def test_fiber_d1_matches_base_route(L, LC):
    for obj in (L, LC):
        monos = [m for ms in obj.pres.basis_window(SMALL.s, SMALL.f, SMALL.w).monomials.values() for m in ms]
        assert len(monos) > 100
        for m in monos:
            assert derive(obj.pres, m, obj.schedule[1]) == base_route_d1(obj, m), m


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_fiber_d1_matches_base_route_on_wide_boxes(wide_monomials, data):
    obj, monos, _ = data.draw(st.sampled_from(wide_monomials))
    m = data.draw(st.sampled_from(monos))
    assert derive(obj.pres, m, obj.schedule[1]) == base_route_d1(obj, m)


def test_hook_refuses_uncovered_window(L):
    with pytest.raises(PresentationError):
        L.pres.basis_window((0, 500), (0, 4), (-4, 6))


def test_get_object_uses_manifest_defaults():
    obj = get_object("L_C", SMALL)
    assert obj.default_window == SMALL
    assert obj.stable_page == 7
    assert obj.default_r_max == 8
    assert obj.has_pattern


# -- splitting ------------------------------------------------------------


def test_splitting_report_small_windows(L, LC):
    rep = splitting_report(L, snf_budget=64)
    assert rep["kernelClasses"] > 0 and rep["imageClasses"] > 0
    assert rep["snfDegrees"] > 0
    rep = splitting_report(LC, snf_budget=64)
    assert rep["imageClasses"] > 0


def test_splitting_report_catches_a_wrong_order(L):
    """A presentation built anew with iv2 of order 4 instead of 8, planted
    into the object in place of the right one, fails the report."""
    obj = build_fiber_object(load_data("L"), SMALL, r_max=2)
    gens = list(obj.pres.generators)
    i = obj.pres.gen("iv2")
    gens[i] = gens[i]._replace(torsion=4)
    pres = RingPresentation(obj.pres.name, gens)
    pres.cover = obj.pres.cover
    broken = copy.copy(obj)
    broken.pres = pres
    with pytest.raises(FiberError):
        splitting_report(broken, snf_budget=4)
    with pytest.raises(AttributeError):
        obj.pres.generators = tuple(gens)


# -- a first run through the engine ---------------------------------------


def test_small_window_second_page(L):
    ss = SliceSS(L, SMALL).run()
    p = L.pres

    g = ss.group(2, TriDegree(3, 1, 2))
    assert g.orders == (4,) and g.parts == ("image",)
    assert p.render(g.lift(0)) == "2*iv2"

    g = ss.group(2, TriDegree(-1, 1, 0))
    assert g.orders == (0,) and p.render(g.lift(0)) == "iv0"

    g = ss.group(2, TriDegree(1, 1, 1))
    assert g.orders == (2,) and g.parts == ("cokernel",)

    g = ss.group(2, TriDegree(7, 1, 4))
    assert g.orders == (16,) and p.render(g.lift(0)) == "iv4"


def test_small_window_second_page_LC(LC):
    ss = SliceSS(LC, SMALL).run()
    g = ss.group(2, TriDegree(7, 1, 4))
    assert g.orders == (16,)
    assert LC.pres.render(g.lift(0)) == "iv4"
    g = ss.group(2, TriDegree(3, 1, 2))
    assert g.orders == (4,)


def test_dump_round_trip():
    # a fresh object, so its products are made before the dump reads
    # its rule set; the reloaded presentation has only the dumped rules
    obj = build_fiber_object(load_data("L"), SMALL, r_max=2)
    monos = [m for ms in obj.pres.basis_window(SMALL.s, SMALL.f, SMALL.w).monomials.values() for m in ms]
    rng = random.Random(11)
    pairs = [(rng.choice(monos), rng.choice(monos)) for _ in range(300)]
    live = [obj.pres.multiply({a: 1}, {b: 1}) for a, b in pairs]

    back = presentation_from_dict(json.loads(json.dumps(spec_to_dict(obj))))
    d = TriDegree(3, 1, 2)
    assert basis_at(back, d) == basis_at(obj.pres, d)
    assert [back.multiply({a: 1}, {b: 1}) for a, b in pairs] == live
    assert sum(not obj.pres.is_normal(mono_mul(a, b)) for a, b in pairs) > 100
