"""Eta-periodic closed forms, localization, and the comparison map."""

import copy
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effss.engine import SliceSS, Window, page_shift
from effss.eta import (
    ETA_UNIT,
    EtaError,
    _Images,
    compare,
    eta_el_mul,
    eta_el_pow,
    eta_schedule,
    get_eta,
    localize,
    parse_eta,
    render_eta_element,
)
from effss.fiber import build_fiber_object
from effss.intlinalg import two_adic_valuation
from effss.objects import get_object, load_data, spec_from_dict, spec_to_dict


def coweight(m):
    """a + 2m - e for the eta monomial tau^a rho^b v2^m iota^e, given as
    its exponents (a, b, m, e)."""
    return m[0] + 2 * m[2] - m[3]


@pytest.fixture(scope="module")
def L():
    # wide enough in s to hold rv12 and tau2^4 * rv12
    w = Window(s=(-2, 26), f=(0, 8), w=(-8, 14))
    return build_fiber_object(load_data("L"), w, r_max=3)


@pytest.fixture(scope="module")
def LC():
    return build_fiber_object(load_data("L_C"), Window(s=(-2, 16), f=(0, 6), w=(-4, 9)), r_max=3)


@pytest.fixture(scope="module")
def ko():
    return get_object("ko")


# -- oracles first: the two quoted localization facts ---------------------


def test_localize_worked_example_tau8_rho_v12(L):
    """tau^8 * rho v1^12 maps to rho^9 (v1^2)^10 once tau^2 dies."""
    el = {L.pres.parse_monomial("tau2^4*rv12"): 1}
    lx = localize(L, el)
    assert lx == parse_eta("tau^8*rho*v2^6 + rho^9*v2^10")

    eo = get_eta("L_eta")
    cls2 = eo.reduce(2, lx)
    assert cls2 == parse_eta("rho^9*v2^10")
    assert eo.reduce(3, lx) == cls2

    (mono,) = cls2
    assert coweight(mono) == 20  # v2(20) = 2, so it fires d3
    assert eo.differential(3, mono) == parse_eta("rho^12*v2^10*iota")
    assert eo.differential(2, mono) == frozenset()


def test_d1_of_tau_h1_v_powers_localizes_both_ways(L):
    """d1(tau h1 v1^(4k+2)) comes out as tau^2 (v1^2)^(2k) on both routes."""
    eo = get_eta("L_eta")
    for name, k in (("thv2", 0), ("thv6", 1)):
        g = L.pres.gen(name)
        via_schedule = localize(L, L.schedule[1][g])
        want = frozenset({(2, 0, 2 * k, 0)})
        assert via_schedule == want
        assert eo.d_element(1, localize(L, {((g, 1),): 1})) == want


def test_generator_images_frozen(L):
    got = {
        name: render_eta_element(localize(L, {L.pres.parse_monomial(name): 1}))
        for name in (
            "rho", "h1", "th1", "tau2",
            "iv0", "rv2", "hv2", "hv4", "thv6", "iv4",
        )
    }
    assert got == {
        "rho": "rho",
        "h1": "1",
        "th1": "tau",
        "tau2": "tau^2 + rho^2*v2",
        "iv0": "iota",
        "rv2": "rho*v2",
        "hv2": "v2",
        "hv4": "v2^2",
        "thv6": "tau*v2^3",
        "iv4": "v2^2*iota",
    }


def test_localize_reads_each_objects_own_table(L, LC):
    # generator 0 is rho on L and tau on L_C, and 1 is tau2 and h1
    m = ((0, 2), (1, 1))
    on_L, on_LC = localize(L, {m: 1}), localize(LC, {m: 1})
    assert on_L == parse_eta("rho^2*tau^2 + rho^4*v2")
    assert on_LC == parse_eta("tau^2")
    assert localize(L, {m: 3}) == on_L and localize(LC, {m: 1}) == on_LC


@pytest.fixture(scope="module")
def fiber_page1(L, LC):
    """(object, its page 1 monomials on a small box, code-keyed images
    under the box's coding) for L and L_C, whose codings have slot runs."""
    out = []
    for obj in (L, LC):
        basis = obj.pres.basis_window((-2, 16), (0, 6), (-4, 9))
        monos = sorted({m for ms in basis.monomials.values() for m in ms})
        out.append((obj, monos, _Images(obj.meta["etaImage"], basis.coding)))
    return out


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_memoized_image_is_the_product_of_generator_powers(fiber_page1, data):
    """localize, and the image of a page-1 code, memo hit or miss, against
    eta_el_pow of each generator image."""
    obj, monos, images = data.draw(st.sampled_from(fiber_page1))
    m = data.draw(st.sampled_from(monos))
    assert oracle_localize(obj, {m: 1}) == images.code(images.encode(m))
    assert localize(obj, {m: 1}) == images.code(images.encode(m))


def test_code_keyed_images_share_their_eta_monomials(fiber_page1):
    for obj, monos, images in fiber_page1:
        for m in monos:
            images.code(images.encode(m))
        terms = {id(t) for img in images.by_code.values() for t in img}
        assert len(terms) == len(images.terms) + 1  # ETA_ONE, the image of code 0


def test_eta_image_survives_presentation_dump(ko):
    out = spec_to_dict(ko)
    assert out["etaImage"]["tau2"] == [[0, 2, 1, 0], [2, 0, 0, 0]]
    assert out["etaImage"]["h1"] == [[0, 0, 0, 0]]


def test_images_preserve_coweight(L, ko):
    for obj in (L, ko):
        for g, img in obj.meta["etaImage"].items():
            cw = obj.pres.degree_of(((g, 1),)).coweight
            assert all(coweight(m) == cw for m in img), obj.pres.gen_name(g)


def test_localize_is_a_ring_map_on_sampled_pairs(L, ko):
    import random

    rng = random.Random(23)
    for obj in (ko, L):
        pool = []
        for _d, monos in obj.pres.basis_window((-2, 10), (0, 4), (-4, 6)).monomials.items():
            pool.extend(monos)
        for _ in range(120):
            x = {rng.choice(pool): rng.randrange(1, 8)}
            y = {rng.choice(pool): rng.randrange(1, 8)}
            lhs = localize(obj, obj.pres.multiply(x, y))
            rhs = eta_el_mul(localize(obj, x), localize(obj, y))
            assert lhs == rhs


# -- the schedule and its Leibniz extension -------------------------------


def test_eta_schedule_frozen():
    # one family entry per page from 3 on: v1^(2^n) fires d_(n+1)
    sched = eta_schedule("L_eta", r_max=9)
    assert sorted(sched) == [1, 3, 4, 5, 6, 7, 8, 9]
    assert sched[1] == {(0, 0, 1, 0): parse_eta("tau")}
    assert sched[3] == {(0, 0, 2, 0): parse_eta("rho^3*v2^2*iota")}
    assert sched[4] == {(0, 0, 4, 0): parse_eta("rho^4*v2^4*iota")}
    assert sched[5] == {(0, 0, 8, 0): parse_eta("rho^5*v2^8*iota")}
    assert sched[9] == {(0, 0, 128, 0): parse_eta("rho^9*v2^128*iota")}
    # no rho-iota family without both letters
    assert sorted(eta_schedule("ko_eta")) == [1]
    assert sorted(eta_schedule("L_C_eta")) == [1]


def test_higher_differentials_are_leibniz_of_the_schedule():
    eo = get_eta("L_eta")
    sched = eta_schedule("L_eta", r_max=9)
    for m in (2, 4, 6, 8, 10, 12, 16, 20, 24, 32):
        n = two_adic_valuation(m) + 1
        r = n + 1
        gen_m = 1 << (n - 1)  # v2 exponent of v1^(2^n)
        dgen = sched[r][(0, 0, gen_m, 0)]
        for b in (0, 1, 5):
            # x = rho^b (v1^(2^n))^u with u odd, so d_r x = (x / gen) d_r gen
            want = eta_el_mul({(0, b, m - gen_m, 0)}, dgen)
            assert eo.differential(r, (0, b, m, 0)) == want
            # and x is a cycle on every other later page
            for r2 in range(2, 10):
                if r2 != r:
                    assert eo.differential(r2, (0, b, m, 0)) == frozenset()


def test_d1_closed_form():
    eo = get_eta("L_eta")
    assert eo.differential(1, (2, 1, 3, 0)) == frozenset({(3, 1, 2, 0)})
    assert eo.differential(1, (2, 1, 4, 0)) == frozenset()
    assert eo.differential(1, (0, 0, 1, 1)) == frozenset({(1, 0, 0, 1)})


# -- page membership -------------------------------------------------------


def test_page_two_keeps_even_clean_monomials():
    eo = get_eta("L_eta")
    assert eo.alive(2, (0, 3, 4, 0))
    assert not eo.alive(2, (1, 0, 2, 0))  # hit by a d1
    assert not eo.alive(2, (0, 0, 1, 0))  # supports a d1
    assert eo.alive(1, (1, 0, 1, 0))


def test_family_band_membership():
    eo = get_eta("L_eta")
    # (v1^2)^2 fires d3: alive on page 3, gone from page 4
    assert eo.alive(3, (0, 0, 2, 0))
    assert not eo.alive(4, (0, 0, 2, 0))
    # its target rho^3 (v1^2)^2 iota is hit on page 3
    assert eo.alive(3, (0, 3, 2, 1))
    assert not eo.alive(4, (0, 3, 2, 1))
    # below the band the iota classes live forever
    assert eo.alive(4, (0, 2, 2, 1)) and alive_infty(eo, (0, 2, 2, 1))
    # no family without rho and iota together
    assert get_eta("ko_eta").alive(9, (0, 7, 6, 0))
    assert get_eta("L_C_eta").alive(9, (0, 0, 6, 1))


def test_alive_infty_is_the_limit_of_alive():
    for name in ("ko_eta", "L_eta", "L_C_eta", "ko_C_eta"):
        eo = get_eta(name)
        for a in range(3):
            for b in range(9) if eo.has_rho else (0,):
                for m in range(21):
                    for e in (0, 1) if eo.has_iota else (0,):
                        mono = (a, b, m, e)
                        assert eo.alive(32, mono) == alive_infty(eo, mono), mono


def test_reduce_drops_boundaries_and_refuses_non_cycles():
    eo = get_eta("L_eta")
    assert eo.reduce(2, parse_eta("tau^2 + rho^2*v2^2")) == parse_eta("rho^2*v2^2")
    assert eo.reduce(4, parse_eta("rho^3*v2^2*iota")) == frozenset()
    assert eo.reduce(3, parse_eta("rho^3*v2^2*iota")) == parse_eta("rho^3*v2^2*iota")
    with pytest.raises(EtaError):
        eo.reduce(2, parse_eta("v2"))  # supports a d1
    with pytest.raises(EtaError):
        eo.reduce(4, parse_eta("v2^2"))  # already fired its d3
    with pytest.raises(EtaError):
        get_eta("ko_eta").reduce(1, parse_eta("iota"))  # not a ko monomial


# -- E1 description and the infinity profile ------------------------------


def alive_infty(eo, m):
    """Does the monomial survive to E_infinity?  In closed form: a = 0 and
    m even, and on the rho-iota family m = 0, or e = 1 and b below
    nu_2(m) + 2."""
    a, b, mm, e = m
    if a or mm % 2:
        return False
    if not eo.has_family or mm == 0:
        return True
    return e == 1 and b < two_adic_valuation(mm) + 2


def page_classes(eo, r, cw_range, f_max):
    """Basis monomials of page r (None for E_infinity) of an eta-local
    object, by coweight.  rho^b carries coweight 0, so a filtration cap
    b + e <= f_max is what makes each coweight finite."""
    out = {}
    for c in range(cw_range[0], cw_range[1] + 1):
        hits = []
        for e in (0, 1) if eo.has_iota else (0,):
            t = c + e  # = a + 2m
            for b in range(0, f_max - e + 1) if eo.has_rho else (0,):
                for mm in range(0, t // 2 + 1):
                    m = (t - 2 * mm, b, mm, e)
                    if alive_infty(eo, m) if r is None else eo.alive(r, m):
                        hits.append(m)
        out[c] = sorted(hits)
    return out


def _e1_count(eo, c, f_max):
    total = 0
    for e in (0, 1) if eo.has_iota else (0,):
        t = c + e
        if t < 0:
            continue
        width = f_max - e + 1 if eo.has_rho else 1
        total += width * (t // 2 + 1)
    return total


def test_E1_polynomial_description_by_coweight():
    f_max = 9
    for name in ("ko_eta", "L_eta", "L_C_eta"):
        eo = get_eta(name)
        got = page_classes(eo, 1, (-2, 40), f_max=f_max)
        for c in range(-2, 41):
            assert len(got[c]) == _e1_count(eo, c, f_max), (name, c)
    sample = page_classes(get_eta("L_eta"), 1, (3, 3), f_max=2)[3]
    assert (0, 0, 2, 1) in sample and (3, 2, 0, 0) in sample
    assert (0, 0, 1, 0) not in sample  # coweight 2


def test_infinity_profile_L_eta():
    eo = get_eta("L_eta")
    prof = page_classes(eo, None, (-1, 16), f_max=8)
    assert prof[0] == [(0, b, 0, 0) for b in range(9)]  # F2[rho]
    assert prof[-1] == [(0, b, 0, 1) for b in range(8)]  # F2[rho] iota
    for c in range(2, 17, 2):
        assert prof[c] == [], c  # positive even coweights all die
    assert prof[3] == [(0, b, 2, 1) for b in range(3)]
    assert prof[7] == [(0, b, 4, 1) for b in range(4)]
    assert prof[11] == [(0, b, 6, 1) for b in range(3)]
    assert prof[15] == [(0, b, 8, 1) for b in range(5)]
    for c in (1, 5, 9, 13):
        assert prof[c] == [], c  # odd v2 power, killed by d1


def test_infinity_profile_ko_eta_and_L_C_eta():
    ko_eta = get_eta("ko_eta")
    prof = page_classes(ko_eta, None, (0, 12), f_max=5)
    for c in range(0, 13):
        if c % 4 == 0:
            assert prof[c] == [(0, b, c // 2, 0) for b in range(6)]
        else:
            assert prof[c] == []
    # E2 = E_infinity upstairs of the fiber
    assert page_classes(ko_eta, 2, (0, 12), f_max=5) == prof

    lce = page_classes(get_eta("L_C_eta"), None, (-1, 12), f_max=5)
    assert lce[8] == [(0, 0, 4, 0)]
    assert lce[7] == [(0, 0, 4, 1)]
    assert lce[6] == [] and lce[5] == []
    assert lce[-1] == [(0, 0, 0, 1)]


# -- the comparison map ----------------------------------------------------


def test_compare_ko_default_window(ko):
    rep = compare(SliceSS(ko))
    assert rep["eta"] == "ko_eta"
    assert rep["mismatches"] == []
    assert rep["skipped"] == 0
    assert rep["checked"] > 5000


def test_compare_ko_C_default_window():
    rep = compare(SliceSS(get_object("ko_C")))
    assert rep["mismatches"] == []
    assert rep["checked"] > 1500


def test_compare_L_through_the_d3_family():
    w = Window(s=(-2, 20), f=(0, 8), w=(-6, 11))
    obj = build_fiber_object(load_data("L"), w, r_max=4)
    ss = SliceSS(obj, r_max=4)
    rep = compare(ss, pages=4)
    assert rep["mismatches"] == []
    assert rep["checked_per_page"][3] > 0
    fired = 0
    for d, i, _o, _lift, _part in ss.summands(3):
        if ss.differential_known(3, d) and ss.differential_value(3, d, i):
            fired += 1
    assert fired > 0  # the band actually moved something in this window


def test_compare_L_C_small_window():
    w = Window(s=(-2, 16), f=(0, 6), w=(-4, 9))
    rep = compare(SliceSS(build_fiber_object(load_data("L_C"), w, r_max=3), r_max=3))
    assert rep["mismatches"] == []
    assert rep["checked"] > 500


def test_compare_flags_a_corrupted_image_table(ko):
    bad = dict(ko.meta["etaImage"])
    bad[ko.pres.gen("th1")] = frozenset({(0, 1, 0, 0)})  # rho instead of tau
    broken = copy.copy(ko)
    broken.meta = {**ko.meta, "etaImage": bad}
    rep = compare(SliceSS(broken, Window(s=(-2, 10), f=(0, 6), w=(-6, 7)), r_max=2))
    mism = rep.pop("mismatches")
    assert rep == {
        "object": "ko",
        "eta": "ko_eta",
        "pages": 2,
        "checked": 815,
        "skipped": 0,
        "checked_per_page": {1: 664, 2: 151},
    }
    assert len(mism) == 461
    assert mism[0] == {
        "page": 1,
        "degree": (-2, 2, -4),
        "coweight": 2,
        "index": 0,
        "class": "rho^2*tau2",
        "kind": "differentials disagree",
        "localized d_r": "rho^5",
        "d_r localized": "tau*rho^4",
    }
    assert mism[-1] == {
        "page": 1,
        "degree": (10, 6, 7),
        "coweight": 3,
        "index": 0,
        "class": "h1^5*th1*v2",
        "kind": "differentials disagree",
        "localized d_r": "tau^2",
        "d_r localized": "tau*rho",
    }
    # every entry, text and order included
    digest = hashlib.sha256(json.dumps(mism, sort_keys=True).encode()).hexdigest()
    assert digest == "a949018bc44d100c394f5c757e174784bbbd3df2692b4bd0c96e11fe5fb91930"


def test_compare_refuses_an_odd_torsion(ko):
    """The localized value of d_r is read as an XOR of target images,
    which needs reducing a coefficient mod a monomial's order to keep
    its parity."""
    spec = spec_to_dict(ko)
    (rho,) = [g for g in spec["generators"] if g["name"] == "rho"]
    rho["torsion"] = 3
    ss = SliceSS(spec_from_dict(spec))
    with pytest.raises(EtaError, match=r"odd torsion \(rho\)"):
        compare(ss)
    assert ss.diffs == {}  # refused before the run
    assert ko.pres.torsions[ko.pres.gen("rho")] == 2


def oracle_localize(obj, e):
    """Generator-wise substitution multiplied out afresh, with no memo."""
    table = obj.meta["etaImage"]
    out = set()
    for m, c in e.items():
        if c % 2:
            img = ETA_UNIT
            for g, x in m:
                img = eta_el_mul(img, eta_el_pow(table[g], x))
            out ^= img
    return frozenset(out)


def _compare_window(name):
    """(run, pages) of each window the compare tests above use."""
    if name in ("ko", "ko_C"):
        return SliceSS(get_object(name)), None
    if name == "L":
        obj = build_fiber_object(load_data("L"), Window(s=(-2, 20), f=(0, 8), w=(-6, 11)), r_max=4)
        return SliceSS(obj, r_max=4), 4
    obj = build_fiber_object(load_data("L_C"), Window(s=(-2, 16), f=(0, 6), w=(-4, 9)), r_max=3)
    return SliceSS(obj, r_max=3), 3


@pytest.mark.parametrize("name", ["ko", "ko_C", "L", "L_C"])
def test_localized_differential_is_the_xor_of_target_images(name):
    """Both routes to the localized value of d_r agree on every summand
    compare checks: localizing differential_value, and the XOR of the
    localized target lifts over the odd entries of the summand's column.
    Every lift of every group walked, targets included, localizes as the
    generator powers multiplied out."""
    ss, pages = _compare_window(name)
    rep = compare(ss, pages)
    assert rep["mismatches"] == []
    obj = ss.obj
    seen = {}

    def images(G):
        if id(G) not in seen:
            got = [localize(obj, G.lift(i)) for i in range(len(G))]
            assert got == [oracle_localize(obj, G.lift(i)) for i in range(len(G))]
            seen[id(G)] = (G, got)  # G stays alive, so its id stays its own
        return seen[id(G)][1]

    walked = 0
    for r in range(1, rep["pages"] + 1):
        shift = page_shift(r)
        for d, G in ss.groups(r):
            images(G)
            if not ss.differential_known(r, d):
                continue
            M = ss.diffs[r].get(d)
            for i in range(len(G)):
                walked += 1
                via_xor = set()
                if M is not None:
                    T = images(ss.pages[r][d + shift])
                    for k, c in M.col(i):
                        if c % 2:
                            via_xor ^= T[k]
                assert frozenset(via_xor) == localize(obj, ss.differential_value(r, d, i)), (r, d, i)
    assert walked == rep["checked"]


# -- shipped eta presentations ---------------------------------------------


def test_get_eta_flavors():
    assert get_eta("ko_eta").has_rho and not get_eta("ko_eta").has_iota
    assert get_eta("L_eta").has_family
    lce = get_eta("L_C_eta")
    assert lce.has_iota and not lce.has_rho and not lce.has_family
    kce = get_eta("ko_C_eta")
    assert not kce.has_rho and not kce.has_iota
    with pytest.raises(EtaError):
        get_eta("sphere_eta")


def test_render_parse_roundtrip():
    for text in ("1", "0", "tau^2 + rho^2*v2", "rho^12*v2^10*iota", "iota"):
        assert render_eta_element(parse_eta(text)) == text
    assert eta_el_pow(parse_eta("tau + rho"), 2) == parse_eta("tau^2 + rho^2")
    assert eta_el_mul(parse_eta("iota"), parse_eta("iota")) == frozenset()
    assert ETA_UNIT == parse_eta("1")


def test_coweight():
    assert coweight((1, 4, 3, 1)) == 1 + 6 - 1
    assert coweight((0, 0, 0, 0)) == 0
