"""Hidden extension ledgers and homotopy group assembly."""

import hashlib

import pytest

from effss.assemble import (
    KIND_DEGREE,
    AssembleError,
    HiddenExtension,
    LedgerError,
    PiGenerator,
    _refuse_crossings,
    assemble,
    check_extension,
    expand_ledger,
    infinity_coords,
    load_ledger,
    order_pattern_check,
    periodic_steps,
    tau4_mult,
    v14_mult,
)
from effss.cli import _query_window
from effss.engine import NotCertifiedError, SliceSS, Window
from effss.grading import PresentationError, TriDegree
from effss.objects import get_object


@pytest.fixture(scope="module")
def ko():
    # the preset window: s (-4, 24), f (0, 12), w (-12, 14)
    obj = get_object("ko")
    return SliceSS(obj, obj.default_window).run()


@pytest.fixture(scope="module")
def L():
    obj = get_object("L", window=Window((-4, 16), (0, 14), (-10, 10)))
    return SliceSS(obj, obj.default_window).run()


@pytest.fixture(scope="module")
def LC():
    obj = get_object("L_C", window=Window((-2, 12), (0, 14), (-8, 10)))
    return SliceSS(obj, obj.default_window).run()


@pytest.fixture(scope="module")
def ko_rows(ko):
    return expand_ledger(ko)


@pytest.fixture(scope="module")
def L_rows(L):
    return expand_ledger(L)


@pytest.fixture(scope="module")
def LC_rows(LC):
    return expand_ledger(LC)


# -- the shipped ledgers, checked row by row ------------------------------


def test_ko_ledger_has_the_six_printed_rows(ko):
    col, rows = load_ledger("ko", ko.pres)
    assert col == "target"
    assert len(rows) == 6
    kinds = sorted(r.kind for r in rows)
    assert kinds == ["eta", "eta", "h", "h", "rho", "rho"]
    assert all(r.tau4 and r.v14 and r.special is None for r in rows)


def test_ko_row_two_v2_lands_at_3_3_1(ko):
    # the rho extension on 2*v2, listed by its target degree
    _col, rows = load_ledger("ko", ko.pres)
    p = ko.pres
    row = next(r for r in rows if p.render(r.source) == "2*v2" and r.kind == "rho")
    assert row.target == p.parse("tau2*h1^3 + rho^2*h1*v2")
    assert p.degree_of_element(row.target) == TriDegree(3, 3, 1)
    assert row.coweight == 2


def test_L_ledger_census(L):
    col, rows = load_ledger("L", L.pres)
    assert col == "source"
    assert len(rows) == 13
    by_kind = {}
    for r in rows:
        by_kind[r.kind] = by_kind.get(r.kind, 0) + 1
    assert by_kind == {"h": 8, "rho": 2, "eta": 3}
    assert sum(1 for r in rows if r.special == "highest-filtration") == 1
    assert sum(1 for r in rows if r.special == "half-carrier-order") == 1
    proofs = {r.proof for r in rows}
    assert proofs == {"Sigma^-1 ko -> L", "L -> ko", "L/rho"}


def test_L_eta_on_two_tau2_does_not_spread_along_v1_4(L):
    _col, rows = load_ledger("L", L.pres)
    p = L.pres
    row = next(r for r in rows if r.kind == "eta" and p.render(r.source) == "2*tau2")
    assert row.tau4 and not row.v14
    assert row.degree == TriDegree(0, 0, -2)


def test_L_C_ledger_is_the_single_toda_bracket_family(LC):
    col, rows = load_ledger("L_C", LC.pres)
    assert col == "source"
    assert len(rows) == 1
    (row,) = rows
    assert row.kind == "h"
    assert LC.pres.render(row.source) == "4*iv2"
    assert LC.pres.render(row.target) == "tau*h1^3"
    assert row.degree == TriDegree(3, 1, 2)


def test_row_validation_rejects_wrong_kind_shift(ko):
    p = ko.pres
    bad = HiddenExtension(
        kind="h",
        source=p.parse("2*v2"),
        target=p.parse("tau2*h1^3"),
        degree=TriDegree(4, 0, 2),
        coweight=2,
    )
    with pytest.raises(LedgerError):
        check_extension(p, bad)


def test_row_validation_rejects_non_climbing_filtration(ko):
    # an eta extension must land strictly above the page product
    p = ko.pres
    bad = HiddenExtension(
        kind="eta",
        source=p.parse("h1"),
        target=p.parse("h1^2"),
        degree=TriDegree(1, 1, 1),
        coweight=0,
    )
    with pytest.raises(LedgerError):
        check_extension(p, bad)


# -- periodicity operators -------------------------------------------------


def test_tau4_mult_on_base_and_fiber(ko, L):
    assert ko.pres.render(tau4_mult(ko, ko.pres.parse("v2"))) == "tau2^2*v2"
    assert L.pres.render(tau4_mult(L, L.pres.parse("iv2"), 2)) == "tau2^4*iv2"


def test_v14_mult_moves_carriers(ko, L):
    assert ko.pres.render(v14_mult(ko, ko.pres.parse("v2"))) == "v2^3"
    p = L.pres
    assert p.render(v14_mult(L, p.parse("iv2"))) == "iv6"
    assert p.render(v14_mult(L, p.parse("thv2"))) == "thv6"
    assert p.render(v14_mult(L, p.parse("tau2*iv4"))) == "tau2*iv8"


def test_v14_mult_refuses_classes_with_no_carrier(L):
    # tau2 times v1^4 is not a class of the fiber theory
    with pytest.raises(PresentationError):
        v14_mult(L, L.pres.parse("tau2"))


# -- ledger expansion ------------------------------------------------------


def test_ko_expansion_count_in_this_window(ko_rows):
    assert len(ko_rows) == 84


def test_ko_expansion_contains_tau4_and_v14_steps(ko, ko_rows):
    p = ko.pres
    seen = {(r.kind, p.render(r.source), p.render(r.target)) for r in ko_rows.values()}
    assert ("h", "tau2^2*th1", "rho*tau2^2*h1*th1") in seen
    assert ("h", "th1*v2^2", "rho*h1*th1*v2^2") in seen
    assert ("rho", "2*tau2^2*v2", "tau2^3*h1^3 + rho^2*tau2^2*h1*v2") in seen


def test_L_expansion_count_in_this_window(L_rows):
    assert len(L_rows) == 101


def window_width_steps(row, window):
    """The enumeration of translates that bounded the tau^4 and v1^4 steps
    by the window's width rather than by each row's own degree."""
    k_max = max(0, (window.s[1] - window.s[0]) // 8) + 1
    j_max = max(0, (window.w[1] - window.w[0] + 4 * k_max) // 4) + 1
    out = []
    for j in range(j_max + 1):
        if j and not row.tau4:
            break
        for k in range(k_max + 1):
            if k and not row.v14:
                break
            sd = TriDegree(row.degree.s + 8 * k, row.degree.f, row.degree.w - 4 * j + 4 * k)
            kd = KIND_DEGREE[row.kind]
            td = TriDegree(sd.s + kd.s, sd.f, sd.w + kd.w)
            if window.contains(sd) and window.contains(td):
                out.append((j, k, sd, td))
    return out


#: the query windows of the README columns, the verify, test and chart
#: windows, and the perfbench windows that expand a ledger
LEDGER_WINDOWS = (
    _query_window(7, 4),
    _query_window(3, 2),
    _query_window(3, 1),
    _query_window(15, 8),
    Window((-4, 42), (0, 14), (-12, 24)),
    Window((-4, 48), (0, 20), (-15, 26)),
    Window((-2, 12), (0, 14), (-8, 10)),
    Window((-2, 26), (0, 14), (-10, 24)),
    Window((-2, 26), (0, 14), (-8, 20)),
    Window((-4, 24), (0, 12), (-12, 14)),
    Window((-4, 16), (0, 14), (-10, 10)),
    Window((-4, 8), (0, 20), (-8, 16)),
    Window((-2, 6), (0, 14), (-10, 24)),
)


def test_periodic_steps_equal_the_window_width_enumeration(ko, L, LC):
    # On every window in use the width bound never cut a family short, so
    # bounding each row by its own degree finds the same translates there.
    found = 0
    for name, ss in (("ko", ko), ("L", L), ("L_C", LC)):
        _col, rows = load_ledger(name, ss.pres)
        for window in LEDGER_WINDOWS:
            for row in rows:
                steps = periodic_steps(row, window)
                assert steps == window_width_steps(row, window), (name, window, row.degree)
                found += len(steps)
    assert found > 1000


def test_L_rows_on_a_low_weight_band_equal_the_full_rows_there():
    # Three weights far below the ledger's rows need more tau^4 steps than
    # the band's width allows; bounded by each row's own weight, the band
    # run expands exactly the full window's rows that lie in the band.
    window = Window((-4, 8), (0, 14), (-14, 6))
    full = SliceSS(get_object("L", window=window), window).run()
    band_w = (-14, -12)
    band = SliceSS(full.obj, Window(window.s, window.f, band_w)).run()

    def key(r):
        return r.kind, r.source, r.target, r.degree, r.proof

    def in_band(r):
        return all(band_w[0] <= d.w <= band_w[1]
                   for d in (r.degree, full.pres.degree_of_element(r.target)))

    want = [key(r) for r in expand_ledger(full).values() if in_band(r)]
    assert want
    assert [key(r) for r in expand_ledger(band).values()] == want


def test_half_carrier_order_follows_the_growing_torsion(L, L_rows):
    p = L.pres
    specials = {
        p.render(r.source): p.render(r.target)
        for r in L_rows.values()
        if r.special == "half-carrier-order"
    }
    assert specials["8*tau2*iv4"] == "rho^2*thv4"
    # one v1^4 step doubles the carrier order, so the multiple doubles too
    assert specials["16*tau2*iv8"] == "rho^2*thv8"


def test_half_carrier_order_rejects_a_wrong_stored_multiple(L):
    p = L.pres
    bad = HiddenExtension(
        kind="h",
        source=p.parse("4*tau2*iv4"),
        target=p.parse("rho^2*thv4"),
        degree=TriDegree(7, 1, 2),
        coweight=5,
        proof="L/rho",
        special="half-carrier-order",
    )
    with pytest.raises(LedgerError):
        expand_ledger(L, rows=[bad])


def test_a_source_spread_over_two_summands_is_refused(L):
    # both terms survive, each in its own infinity summand at (-1, 3, -1)
    p = L.pres
    row = HiddenExtension(
        kind="h",
        source=p.parse("rho*th1*iv0 + rho^2*h1"),
        target=p.parse("rho^3*h1^2"),
        degree=TriDegree(-1, 3, -1),
        coweight=0,
        tau4=False,
        v14=False,
    )
    with pytest.raises(LedgerError, match="spreads over several summands"):
        assemble(L, -1, -1, ledger=expand_ledger(L, rows=[row]))


def test_a_base_row_listed_twice_is_refused(L):
    _col, rows = load_ledger("L", L.pres)
    row = next(r for r in rows if r.kind == "h" and L.pres.render(r.source) == "4*iv2")
    with pytest.raises(LedgerError, match="two h rows share the source"):
        assemble(L, 3, 2, ledger=expand_ledger(L, rows=[row, row]))


def test_highest_filtration_target_climbs_with_tau4(L, L_rows):
    p = L.pres
    rows = [r for r in L_rows.values() if r.special == "highest-filtration"]
    base = next(r for r in rows if r.degree == TriDegree(3, 3, 0))
    td = p.degree_of_element(base.target)
    assert td == TriDegree(3, 9, 0)
    # the stored printed form is another representative of the same class
    want = infinity_coords(L, p.parse("rho^2*tau2^2*h1^6*iv0"))[1]
    assert infinity_coords(L, base.target)[1] == want
    stepped = next(r for r in rows if r.degree == TriDegree(3, 3, -4))
    assert p.degree_of_element(stepped.target).f == 11


def test_eta_exception_row_never_picks_up_v1_4_steps(L_rows):
    for r in L_rows.values():
        if r.kind == "eta" and not r.v14:
            assert r.degree.s == 0, "a v1^4 step would move the stem to 8"


def test_L_C_family_lands_on_the_predicted_targets(LC, LC_rows):
    p = LC.pres
    seen = {(p.render(r.source), p.render(r.target)) for r in LC_rows.values()}
    assert ("4*iv2", "tau*h1^3") in seen
    assert ("4*iv6", "tau*h1^2*hv4") in seen


# -- infinity page coordinates ---------------------------------------------


def test_boundary_projects_to_nothing(LC):
    # tau*h1^4 dies on page 2, and its whole degree dies with it
    G, coords = infinity_coords(LC, LC.pres.parse("tau*h1^4"))
    assert coords == [] and G.orders == ()


def test_non_cycle_does_not_survive(LC):
    with pytest.raises(AssembleError):
        infinity_coords(LC, LC.pres.parse("iv2"))


# -- assembled homotopy groups ----------------------------------------------


def test_stem_3_of_L_C_is_Z8(LC, LC_rows):
    g = assemble(LC, 3, 2, ledger=LC_rows)
    assert g.render() == "Z/8"
    assert [x.label for x in g.generators] == ["2*iv2", "tau*h1^3"]
    # the glue: four times the bottom class is the top class
    assert g.relations[0] == (0, 4, {1: 1})
    assert len(g.orders) == 1


def test_stem_7_of_L_C_is_Z16(LC, LC_rows):
    g = assemble(LC, 7, 4, ledger=LC_rows)
    assert g.render() == "Z/16"
    assert [x.label for x in g.generators] == ["iv4"]


def test_stem_3_of_L_is_Z8_through_the_hidden_h(L, L_rows):
    g = assemble(L, 3, 2, ledger=L_rows)
    assert g.render() == "Z/8"
    assert [x.label for x in g.generators] == ["2*iv2", "h1^2*th1"]
    assert g.relations[0] == (0, 4, {1: 1})


def test_stem_3_weight_0_of_L_glues_two_chains(L, L_rows):
    g = assemble(L, 3, 0, ledger=L_rows)
    assert g.render() == "Z/4 + Z/16"
    labels = [x.label for x in g.generators]
    assert labels[0] == "2*tau2*iv2"
    assert labels[-1] == "rho^6*h1^2*iv4"


def test_free_summand_of_ko(ko, ko_rows):
    g = assemble(ko, 4, 2, ledger=ko_rows)
    assert g.render() == "Z"
    assert g.actions["rho"] == ["tau2*h1^3 + rho^2*h1*v2"]
    assert g.actions["h"] == ["2*(2*v2)"]
    assert g.actions["eta"] == ["0"]


def test_small_torsion_column_of_ko(ko, ko_rows):
    g = assemble(ko, 2, 1, ledger=ko_rows)
    assert g.render() == "Z/2"
    assert g.generators[0].label == "h1*th1"


def test_infinite_tower_columns_refuse(ko, ko_rows):
    # the Grothendieck-Witt style columns keep doubling past any window
    for s, w in [(0, 0), (8, 4)]:
        with pytest.raises((AssembleError, NotCertifiedError)):
            assemble(ko, s, w, ledger=ko_rows)


def test_provenance_marks_deep_L_coweights(L, L_rows):
    from effss.assemble import _provenance

    assert assemble(L, 3, 2, ledger=L_rows).provenance == "chart-certified"
    assert _provenance("L", 31) == "extrapolated beyond the exhibited charts"
    assert _provenance("L", 15) == "chart-certified"
    assert _provenance("ko", 31) == "chart-certified"


# -- crossing guard ----------------------------------------------------------


def _stub(f):
    return PiGenerator(TriDegree(0, f, 0), 0, 2, "g%d" % f, "coker")


def test_interleaved_extensions_refuse():
    gens = [_stub(1), _stub(2), _stub(3), _stub(4)]
    rels = [(0, 2, {2: 1}), (1, 2, {3: 1})]  # 1 -> 3 crosses 2 -> 4
    with pytest.raises(AssembleError):
        _refuse_crossings(gens, rels)


def test_nested_and_disjoint_extensions_pass():
    gens = [_stub(1), _stub(2), _stub(3), _stub(4)]
    _refuse_crossings(gens, [(0, 2, {3: 1}), (1, 2, {2: 1})])  # nested
    _refuse_crossings(gens, [(0, 2, {1: 1}), (2, 2, {3: 1})])  # disjoint


# -- the coweight 4j - 1 pattern ---------------------------------------------


def test_coweight_3_generic_stems_are_all_Z8(L, L_rows):
    rep = order_pattern_check(L, 1, ledger=L_rows)
    assert rep["expected_generic_order"] == 8
    assert rep["ok"]
    stems = [e["stem"] for e in rep["generic"]]
    assert stems == [-2, 0, 1, 2, 4, 5, 6, 8, 9, 10, 12]
    assert all(e["orders"] == [8] for e in rep["generic"])


def test_coweight_3_exceptional_stems_have_larger_glued_orders(L, L_rows):
    rep = order_pattern_check(L, 1, ledger=L_rows)
    byst = {e["stem"]: e for e in rep["exceptional"]}
    assert byst[3]["orders"] == [4, 16]
    assert byst[3]["h_glued"] >= 3
    assert byst[7]["orders"] == [8, 16]


def test_coweight_7_generic_order_is_16(L, L_rows):
    rep = order_pattern_check(L, 2, ledger=L_rows)
    assert rep["expected_generic_order"] == 16
    assert rep["ok"]
    assert all(e["orders"] == [16] for e in rep["generic"])


# -- every column and order survey, pinned -------------------------------------


def column_text(ss, ledger, s, w):
    """assemble at (s, w): its render, generator labels, relations (in
    their dict order), actions and provenance, or the refusal it raises."""
    try:
        g = assemble(ss, s, w, ledger=ledger)
    except (AssembleError, NotCertifiedError) as exc:
        return "%d %d %s: %s" % (s, w, type(exc).__name__, exc)
    relations = [(gi, o, list(value.items())) for gi, o, value in g.relations]
    return "%d %d %s | %s | %s | %s | %s" % (
        s, w, g.render(), [x.label for x in g.generators], relations, g.actions, g.provenance,
    )


#: sha256 of the ``column_text`` lines, newline-joined, over every (s, w)
#: column of each fixture's window, stems outer and weights inner
COLUMN_DIGESTS = {
    "ko": "938008ab07ca59d91de204e03ea18bb65efbeef59637552508d079bfe54f5eae",
    "L": "72b98d90cad21e03459889040bc7591c36dea2fb79ba3cb06e937bedf8495f3c",
    "LC": "45d6904cb04918cf2a0746e5cadf258ec9baff00576bac15bc7bb055c9b7fb0f",
}


@pytest.mark.parametrize("name", sorted(COLUMN_DIGESTS))
def test_every_column_of_the_windows_is_pinned(request, name):
    ss = request.getfixturevalue(name)
    ledger = request.getfixturevalue(name + "_rows")
    (s0, s1), (w0, w1) = ss.window.s, ss.window.w
    text = "\n".join(column_text(ss, ledger, s, w) for s in range(s0, s1 + 1) for w in range(w0, w1 + 1))
    assert hashlib.sha256(text.encode()).hexdigest() == COLUMN_DIGESTS[name]


#: sha256 of ``repr(order_pattern_check(L, j))`` on the L fixture, its
#: skipped columns and their messages included
ORDER_PATTERN_DIGESTS = {
    1: "26ba161d41b66410eb79c3f8982716c2deb90d8f09c0edcbfaa00b1b7a9f99fd",
    2: "0b764c1ec886e9cfc82c67755f016ce4055ffb6d07d759269177045f7e2906bc",
    3: "558cbc5403b0542e497d5c9d77af25157c594dc0ff01adde8034f75fb7c86159",
    4: "7b864edb14828641f22e3e610211693542d50576975bc644efa2f96658a6fff1",
    6: "bd5593364c97ddf7bc450ac202442ad985598bcdedb6b824bb9a625a83181f94",
    8: "bdb03ff1e0106e5b65e86c6abf16713bd8e568671e6d6ed105e0ea346ec4b3cd",
}


@pytest.mark.parametrize("j", sorted(ORDER_PATTERN_DIGESTS))
def test_order_pattern_reports_are_pinned(L, L_rows, j):
    rep = order_pattern_check(L, j, ledger=L_rows)
    assert hashlib.sha256(repr(rep).encode()).hexdigest() == ORDER_PATTERN_DIGESTS[j]
