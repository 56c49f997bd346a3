"""Page mechanics on the two base objects, against hand-computed values,
and the d1 build on all four objects against derive on every monomial."""

import gc
import hashlib
import math
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effss.assemble import infinity_coords
from effss.charts import _project
from effss.engine import (
    EngineError,
    NotCertifiedError,
    ObjectSpec,
    PageGroup,
    SliceSS,
    Window,
    derive,
    page_shift,
    validate_schedule,
    widened_box,
)
from effss.grading import (
    GeneratorSpec,
    RingPresentation,
    TriDegree,
    el_iadd,
    lam,
    mono_mul,
    presentation_from_dict,
)
from effss.intlinalg import ColMat, F2Homology, LinearAlgebraError
from effss.objects import get_object
from smith_oracle import Mat, dense, pack_columns, six_form_homology
from test_fiber import closed_form_basis
from test_grading import dense_mono_key

SMALL = Window(s=(-2, 10), f=(0, 8), w=(-4, 8))
FIBER_SMALL = Window(s=(-2, 8), f=(0, 4), w=(-4, 6))  # SMALL of tests/test_fiber.py

#: each object on its small test box
SMALL_BOXES = (("ko_C", SMALL), ("ko", SMALL), ("L", FIBER_SMALL), ("L_C", FIBER_SMALL))


@pytest.fixture(scope="module")
def koc():
    return SliceSS(get_object("ko_C"), SMALL).run()


@pytest.fixture(scope="module")
def ko():
    return SliceSS(get_object("ko"), SMALL).run()


def test_windows_are_values_and_refuse_an_empty_range():
    a, b = Window(s=(0, 4), f=(0, 3), w=(2, 3)), Window((0, 4), (0, 3), (2, 3))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert repr(a) == "Window(s=(0, 4), f=(0, 3), w=(2, 3))"
    with pytest.raises(EngineError, match=r"empty window range \(1, 0\)"):
        Window(s=(1, 0), f=(0, 3), w=(2, 3))


def test_object_specs_hash_by_identity_with_fresh_defaults():
    pres = get_object("ko_C").pres
    a, b = ObjectSpec("toy", pres), ObjectSpec("toy", pres)
    assert a != b and hash(a) != hash(b) and len({a, b}) == 2
    assert a.schedule == b.schedule == {} and a.schedule is not b.schedule
    assert a.meta == b.meta == {} and a.meta is not b.meta
    a.meta["k"] = 1
    assert b.meta == {}


def test_page_shift():
    assert page_shift(1) == TriDegree(-1, 3, 0)
    assert page_shift(3) == TriDegree(-1, 7, 0)


def test_schedule_validation_catches_bad_degree():
    obj = get_object("ko_C")
    bad = {obj.pres.gen("v2"): {obj.pres.monomial({"h1": 3}): 1}}
    with pytest.raises(EngineError):
        validate_schedule(obj.pres, bad, 1)


def test_d1_on_generator_and_leibniz():
    obj = get_object("ko_C")
    images = obj.schedule[1]
    pres = obj.pres
    v2 = pres.monomial({"v2": 1})
    assert derive(pres, v2, images) == {pres.monomial({"tau": 1, "h1": 3}): 1}
    # Leibniz on v2^2 gives 2 * v2 * tau*h1^3 which dies on an order 2 class
    assert derive(pres, pres.monomial({"v2": 2}), images) == {}
    # tau^2 v2: only the v2 slot differentiates
    m = pres.monomial({"tau": 2, "v2": 1})
    assert derive(pres, m, images) == {pres.monomial({"tau": 3, "h1": 3}): 1}


def test_d1_acceptance_style_value_on_ko():
    # d1(tau2 * th1 * v2) lands at (4, 4, 0) with both squares surviving
    obj = get_object("ko")
    pres = obj.pres
    m = pres.monomial({"tau2": 1, "th1": 1, "v2": 1})
    assert pres.degree_of(m) == TriDegree(5, 1, 0)
    val = derive(pres, m, obj.schedule[1])
    assert val == {
        pres.monomial({"tau2": 2, "h1": 4}): 1,
        pres.monomial({"rho": 4, "v2": 2}): 1,
    }
    assert pres.degree_of_element(val) == TriDegree(4, 4, 0)


def check_stability(ss):
    """No differential fires in the user part of the certified region on or
    after the stable page."""
    ss.run()
    for r in range(ss.obj.stable_page, ss.r_max):
        for d, M in ss.diffs[r].items():
            if ss.window.contains(d) and d in ss.valid[r]:
                assert M.is_zero(), "d%d at %s is nonzero" % (r, d)


def orders_at(ss, r, s, f, w):
    return ss.group(r, TriDegree(s, f, w)).orders


def test_ko_C_second_page_frozen(koc):
    # unit and tau towers survive as free classes
    assert orders_at(koc, 2, 0, 0, 0) == (0,)
    assert orders_at(koc, 2, 0, 0, -1) == (0,)
    # eta towers: on the Milnor-Witt diagonal they live, tau multiples die
    assert orders_at(koc, 2, 1, 1, 1) == (2,)
    assert orders_at(koc, 2, 2, 2, 2) == (2,)
    assert orders_at(koc, 2, 3, 3, 3) == (2,)
    assert orders_at(koc, 2, 6, 6, 6) == (2,)
    assert orders_at(koc, 2, 3, 3, 2) == ()
    assert orders_at(koc, 2, 6, 6, 5) == ()
    # v-power column: v2 supports d1, so only twice the generator survives
    assert orders_at(koc, 2, 4, 0, 2) == (0,)
    assert orders_at(koc, 2, 4, 0, 1) == (0,)
    # v2^2 has d1 = 0 by Leibniz and survives on the nose
    assert orders_at(koc, 2, 8, 0, 4) == (0,)
    assert orders_at(koc, 2, 5, 1, 3) == ()
    assert orders_at(koc, 2, 7, 3, 4) == ()
    assert orders_at(koc, 2, 7, 3, 5) == ()


def test_ko_C_lifts(koc):
    pres = koc.pres
    g = koc.group(2, TriDegree(4, 0, 2))
    assert g.lift(0) == {pres.monomial({"v2": 1}): 2}
    g = koc.group(2, TriDegree(8, 0, 4))
    assert g.lift(0) == {pres.monomial({"v2": 2}): 1}
    g = koc.group(2, TriDegree(4, 0, 1))
    assert g.lift(0) == {pres.monomial({"tau": 1, "v2": 1}): 2}


def test_ko_C_stability_and_infinity(koc):
    check_stability(koc)
    # E2 = E_infinity here, and page 3 groups agree with page 2
    for d in koc.certified_user_degrees(3):
        g2 = koc.pages[2].get(d)
        g3 = koc.pages[3].get(d)
        o2 = g2.orders if g2 else []
        o3 = g3.orders if g3 else []
        assert o2 == o3


def test_user_window_fully_certified(koc):
    certified = set(koc.certified_user_degrees(koc.r_max))
    for d in SMALL.degrees():
        assert d in certified


def test_projection_round_trip(koc):
    d = TriDegree(4, 0, 2)
    g = koc.group(2, d)
    assert g.project_element(koc.pres, g.lift(0)) == [1]
    tau_v2 = {koc.pres.monomial({"v2": 1}): 4}
    assert g.project_element(koc.pres, tau_v2) == [2]


def test_group_dead_since_an_earlier_page(koc):
    # tau^3*h1^3 is hit by d1, so its degree is empty from page 2 on and
    # no longer stored on page 3, yet stays certified
    d = TriDegree(3, 3, 0)
    e = koc.pages[1][d].lift(0)
    assert koc.pages[2][d].orders == ()
    assert d not in koc.pages[3] and koc.certified(d, 3)
    assert koc.group(3, d).project_element(koc.pres, e) == []
    G, coords = infinity_coords(koc, e)
    assert G.orders == () and coords == []
    G, coords = _project(koc, 3, e, d)
    assert G.orders == () and coords == []


def test_not_certified_raises(koc):
    with pytest.raises(NotCertifiedError):
        koc.group(2, TriDegree(100, 0, 0))


def test_ko_second_page_spot_checks(ko):
    # the tau2 tower dies except at the bottom: d1(tau2^d) = d * tau2^(d-1) rho^2 th1
    assert orders_at(ko, 2, 0, 0, -2) == (0,)  # 2 tau2 survives as kernel
    g = ko.group(2, TriDegree(0, 0, -2))
    assert g.lift(0) == {ko.pres.monomial({"tau2": 1}): 2}
    # rho tower is permanent
    assert orders_at(ko, 2, -1, 1, -1) == (2,)
    assert orders_at(ko, 2, -2, 2, -2) == (2,)
    # eta stays
    assert orders_at(ko, 2, 1, 1, 1) == (2,)


def test_ko_stability(ko):
    check_stability(ko)


def test_only_nonzero_differentials_are_stored(ko, koc):
    for ss in (ko, koc):
        stored = [M for mats in ss.diffs.values() for M in mats.values()]
        assert stored and not any(M.is_zero() for M in stored)
    # a degree whose d1 vanishes reads as zero without a stored matrix
    d = TriDegree(-1, 1, -1)  # rho
    assert d not in ko.diffs[1] and ko.differential_value(1, d, 0) == {}


def test_dump_lines_format(koc):
    lines = list(koc.dump_lines(1))
    assert any(
        line == "page 1 | 4 0 2 | 0 | v2 | d1 -> tau*h1^3" for line in lines
    )
    # sorted by degree, machine parseable shape
    for line in lines:
        assert line.startswith("page 1 | ")
        parts = [p.strip() for p in line.split("|")]
        assert len(parts) == 5


# -- d1 by orbits against derive on every monomial ---------------------------


def per_monomial_d1_matrices(ss):
    """The d1 matrices with ``derive`` applied to every page 1 monomial.

    This is the oracle for ``SliceSS._d1_matrices``, which expands each
    part X free of the free generators once and shifts the result along
    the orbit of products S X.  A degree whose target leaves the box is
    unknown when the object has a d1, whatever d1 is there, and no d1 is
    computed at it; the ``unknown`` sets are compared too.
    """
    images = ss.obj.schedule.get(1, {})
    shift = page_shift(1)
    mats, unknown = {}, set()
    for d, G in ss.pages[1].items():
        tgt = d + shift
        if not ss.box.contains(tgt):
            if images:
                unknown.add(d)
            continue
        vals = [derive(ss.pres, m, images) for m in basis_monomials(G)]
        if not any(vals):
            continue
        T = ss.pages[1].get(tgt)
        if T is None:
            raise EngineError("nonzero d1 value lands in an empty degree %s" % (tgt,))
        row = {m: i for i, m in enumerate(basis_monomials(T))}
        mats[d] = Mat.from_cols([dense_coords(row, v) for v in vals], len(T.orders))
    return mats, unknown


def basis_monomials(G):
    """The basis monomials of a page 1 group, in order, from its lifts."""
    return [m for i in range(len(G)) for m in G.lift(i)]


def dense_coords(row, e):
    """Coordinates of a reduced element over the page 1 basis whose
    monomials row maps to their indices."""
    vec = [0] * len(row)
    for m, c in e.items():
        vec[row[m]] = c
    return vec


#: an L box reaching lower weights, where rho^2 and tau2 shift most blocks
L_LOW = Window(s=(-6, 4), f=(0, 6), w=(-10, 2))


@pytest.mark.parametrize("name,window", SMALL_BOXES + (("L", L_LOW),))
def test_d1_matrices_match_per_monomial_oracle(name, window):
    ss = SliceSS(get_object(name, window), window)
    mats, unknown = ss._d1_matrices()
    want, want_unknown = per_monomial_d1_matrices(ss)
    assert want and mats.keys() == want.keys()
    for d, M in want.items():
        assert (mats[d].m, mats[d].n, dense(mats[d]).rows) == (M.m, M.n, M.rows), d
        assert all(c for j in range(mats[d].n) for _i, c in mats[d].col(j)), d
    assert unknown == want_unknown


#: unreachable objects an object build, a run and their deletion may leave
#: while collection is paused: 0 measured on every SMALL_BOXES window
RUN_CYCLE_GARBAGE = 0


@pytest.mark.parametrize("name,window", SMALL_BOXES)
def test_a_run_leaves_almost_no_cyclic_garbage(name, window):
    """Building an object, running it, reading every lift and dropping them
    all makes no reference cycles, so the cyclic collector, which the
    engine pauses while it works, has nothing to find."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        ss = SliceSS(get_object(name, window), window).run()
        lifts = [G.lift(i) for page in ss.pages.values() for G in page.values() for i in range(len(G))]
        found = gc.collect()
        assert ss.pages and lifts
        del lifts
        del ss
        found += gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found <= RUN_CYCLE_GARBAGE, found


@pytest.fixture
def collecting():
    """Automatic collection on for the test, and the caller's state after."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    if not enabled:
        gc.disable()


def test_collection_comes_back_after_each_heavy_call(collecting):
    obj = get_object("L", L_LOW)
    ss = SliceSS(obj, L_LOW)
    assert gc.isenabled()
    d = TriDegree(L_LOW.s[0], L_LOW.f[0], L_LOW.w[0])
    ss.differential_known(1, d)
    assert gc.isenabled()
    ss.run()
    assert gc.isenabled()


def test_collection_comes_back_after_an_engine_error(collecting, toy):
    ss = SliceSS(get_object("ko_C"), SMALL)
    with pytest.raises(EngineError, match="page 2 has not been reached"):
        ss._ensure_diffs(2)
    assert gc.isenabled()

    # a run whose turn refuses a planted d1 block
    toy_ss, row = toy
    planted = SliceSS(toy_ss.obj, toy_ss.window, r_max=2)
    planted.diffs[1] = {TOY_A: toy_block(planted, row, {"a": {"t": 1}, "b": {"t": 1}})}
    planted.unknown_out[1] = set()
    with pytest.raises(EngineError, match="outgoing differential at .* mixes the image splitting"):
        planted.run()
    assert gc.isenabled()


def test_collection_a_caller_disabled_stays_disabled(collecting):
    gc.disable()
    ss = SliceSS(get_object("ko_C"), SMALL)
    assert not gc.isenabled()
    with pytest.raises(EngineError, match="page 3 has not been reached"):
        ss._ensure_diffs(3)
    assert not gc.isenabled()
    ss.differential_known(1, TriDegree(0, 0, 0))
    ss.run()
    assert not gc.isenabled()


def test_no_automatic_collection_inside_the_heavy_calls(collecting, monkeypatch):
    """The page 1 build, the d1 build and the turns run with automatic
    collection paused.  The one young collection that may follow a pause,
    over what the paused call made, falls outside the calls watched."""
    obj = get_object("L", L_LOW)
    depth = [0]
    started = []

    def inside(fn):
        def watched(*args, **kw):
            depth[0] += 1
            try:
                return fn(*args, **kw)
            finally:
                depth[0] -= 1
        return watched

    def count(phase, info):
        if phase == "start" and depth[0]:
            started.append(info["generation"])

    monkeypatch.setattr(obj.pres, "basis_window", inside(obj.pres.basis_window))
    monkeypatch.setattr(SliceSS, "_first_page", inside(SliceSS._first_page))
    monkeypatch.setattr(SliceSS, "_d1_matrices", inside(SliceSS._d1_matrices))
    monkeypatch.setattr(SliceSS, "_turn", inside(SliceSS._turn))
    gc.collect()
    gc.callbacks.append(count)
    try:
        ss = SliceSS(obj, L_LOW)
        ss.differential_known(1, TriDegree(0, 0, 0))
        ss.run()
    finally:
        gc.callbacks.remove(count)
    assert sum(map(len, ss.pages[1].values())) > 10000
    assert started == []


def full_scan_pattern_matrices(ss, r):
    """The pattern's d_r blocks, r >= 2, by a scan of every group of page r:
    the oracle for the engine's index of degrees by 2-adic valuation."""
    shift = page_shift(r)
    mats, unknown, firing = {}, set(), []
    page = ss.pages[r]
    for d, G in page.items():
        cw = d.coweight
        if cw == 0 or (cw & -cw).bit_length() != r or "cokernel" not in G.parts:
            continue
        firing.append(d)
        tgt = d + shift
        if tgt not in ss.valid[r]:
            unknown.add(d)
            continue
        T = page.get(tgt)
        if T is None or not T.orders:
            continue
        if T.orders != (2,):
            assert not ss.window.contains(d)
            unknown.add(d)
            continue
        mats[d] = pack_columns([{0: 1} if p == "cokernel" else {} for p in G.parts])
    return mats, unknown, firing


#: an L_C box on the iota-orders shape: most box degrees are empty
LC_THIN = Window((-2, 40), (0, 2), (-4, 20))


@pytest.mark.parametrize("name,window,kw", [b + ({},) for b in SMALL_BOXES if b[0] in ("L", "L_C")]
                         + [("L_C", LC_THIN, {"f_margin": 4})])
def test_pattern_pages_visit_the_degrees_a_full_scan_finds(name, window, kw):
    ss = SliceSS(get_object(name, window), window, **kw).run()
    assert ss.obj.has_pattern and ss.r_max > 2
    seen = 0
    for r in range(2, ss.r_max):
        mats, unknown, firing = full_scan_pattern_matrices(ss, r)
        got = ss.diffs[r]
        assert ss.unknown_out[r] == unknown, r
        # a firing degree whose target is uncertified is unknown, so the
        # turn can read the degrees it loses off unknown_out
        assert {d for d in firing if d + page_shift(r) not in ss.valid[r]} <= ss.unknown_out[r], r
        assert list(got) == list(mats), r
        for d, (ptr, rows, vals) in mats.items():
            assert (got[d].ptr, got[d].rows, got[d].vals, got[d].m) == (tuple(ptr), tuple(rows), tuple(vals), 1)
        seen += len(firing)
    assert seen


def test_d1_shares_only_pure_translates():
    """A block is shared, as one object, only with the block |g| below it
    for g = rho, generator 0, and only where every source and every target
    summand at d is g times one at d - |g|: no column or row is new."""
    ss = SliceSS(get_object("L", L_LOW), L_LOW)
    mats, _unknown = ss._d1_matrices()
    g = ss.pres.generators[0].degree
    page, shift = ss.pages[1], page_shift(1)
    shared = [d for d, M in mats.items() if mats.get(d - g) is M]
    assert shared
    for d in shared:
        assert len(page[d]) == len(page[d - g]), d
        assert len(page[d + shift]) == len(page[d - g + shift]), d
    # any other degree holding the same object is further down the chain
    assert len({id(M) for M in mats.values()}) == len(mats) - len(shared)


#: bytes the d1 blocks of L_LOW may retain per stored entry: 68 measured
#: with compressed columns (Python 3.11), 198 with a dict per column.  With
#: translated blocks shared, the first build reads 39 (memos included) and a
#: second build, over distinct blocks, 68 (53 with every block built apart)
D1_BYTES_PER_ENTRY = 90


def d1_build_kept(ss):
    """The d1 blocks of ss and the bytes one build of them leaves alive."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mats, _unknown = ss._d1_matrices()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return mats, kept


def test_d1_blocks_retain_little_per_entry():
    """What the d1 build keeps alive, per stored entry, stays small.  The
    first build on an object also fills the presentation's rewrite memos and
    counts them, over every stored entry.  A second build reuses those memos,
    so it measures the blocks alone, over distinct blocks: a block shared
    between degrees is stored once, so its entries count once, and sharing
    cannot lower the figure without a change in storage."""
    ss = SliceSS(get_object("L", L_LOW), L_LOW)
    mats, kept = d1_build_kept(ss)
    entries = sum(len(M.rows) for M in mats.values())
    assert entries > 10000
    assert kept / entries < D1_BYTES_PER_ENTRY, (kept, entries)
    mats, kept = d1_build_kept(ss)
    distinct = sum(len(M.rows) for M in {id(M): M for M in mats.values()}.values())
    assert kept / distinct < D1_BYTES_PER_ENTRY, (kept, distinct)


def xyz_toy(moving=("y",), cap=None):
    """A run of the toy with x (torsion 3, or 2 under a cap) and y free of
    degree (4, 0, 2), and z of order 2 at (3, 3, 2): d1 sends each generator
    named in moving to z.  Generator 0 is x."""
    pres = RingPresentation("toy", [
        GeneratorSpec("x", TriDegree(4, 0, 2), torsion=3 if cap is None else 2, cap=cap),
        GeneratorSpec("y", TriDegree(4, 0, 2)),
        GeneratorSpec("z", TriDegree(3, 3, 2), torsion=2),
    ])
    z = {pres.monomial({"z": 1}): 1}
    obj = ObjectSpec("toy", pres, schedule={1: {pres.gen(g): z for g in moving}})
    return SliceSS(obj, Window(s=(0, 16), f=(0, 6), w=(0, 10)), r_max=2)


def test_d1_orders_shrink_by_a_free_generator():
    """x is free with torsion 3 and d1(y) = z has order 2, so d1 vanishes on
    every x^a y^b z^c with a > 0: a column of S X is reduced modulo the order
    of its monomials, which S can lower."""
    ss = xyz_toy()
    pres = ss.pres
    mats, unknown = ss._d1_matrices()
    want, want_unknown = per_monomial_d1_matrices(ss)
    assert want and mats.keys() == want.keys() and unknown == want_unknown
    for d, M in want.items():
        assert dense(mats[d]).rows == M.rows, d
    x = pres.gen("x")
    assert any(x in dict(m) for d in mats for m in basis_monomials(ss.pages[1][d]))


def test_d1_orders_when_a_moving_generator_leaves_the_shift():
    """x is free with torsion 3 and d1(x) = z has order 2.  The term
    e (S/x) d1(x) X of a column is reduced modulo the order of S/x, which is
    that of S when e > 1 and loses x's torsion when e = 1: d1(x) = z
    survives, while d1(x^3) = 3 x^2 z vanishes."""
    ss = xyz_toy(moving=("x", "y"))
    pres = ss.pres
    mats, unknown = ss._d1_matrices()
    want, want_unknown = per_monomial_d1_matrices(ss)
    assert want and mats.keys() == want.keys() and unknown == want_unknown
    for d, M in want.items():
        assert dense(mats[d]).rows == M.rows, d
    for e, survives in ((1, True), (3, False)):
        m = pres.monomial({"x": e})
        G = ss.pages[1][pres.degree_of(m)]
        M = mats.get(G.degree)
        assert bool(M and list(M.col(basis_monomials(G).index(m)))) == survives, e


def test_d1_under_a_capped_generator_0():
    """x carries at most x^2, so x times a basis monomial need not be
    normal, and no block is a translate of the one |x| below it."""
    ss = xyz_toy(cap=2)
    mats, unknown = ss._d1_matrices()
    want, want_unknown = per_monomial_d1_matrices(ss)
    assert want and mats.keys() == want.keys() and unknown == want_unknown
    for d, M in want.items():
        assert dense(mats[d]).rows == M.rows, d
    x = ss.pres.gen("x")
    assert any(dict(m).get(x) == 2 for d in mats for m in basis_monomials(ss.pages[1][d]))


#: the perfbench L-default window, with its r_max of 8
PERFBENCH_L = Window(s=(-4, 8), f=(0, 20), w=(-8, 16))

#: runs whose whole d1 build is held to a digest
D1_RUNS = {
    "ko_C small": lambda: SliceSS(get_object("ko_C", SMALL), SMALL),
    "ko small": lambda: SliceSS(get_object("ko", SMALL), SMALL),
    "L small": lambda: SliceSS(get_object("L", FIBER_SMALL), FIBER_SMALL),
    "L_C small": lambda: SliceSS(get_object("L_C", FIBER_SMALL), FIBER_SMALL),
    "L low": lambda: SliceSS(get_object("L", L_LOW), L_LOW),
    "L perfbench": lambda: SliceSS(get_object("L", PERFBENCH_L), PERFBENCH_L, r_max=8),
    "ko_C default": lambda: SliceSS(get_object("ko_C")),
    "ko default": lambda: SliceSS(get_object("ko")),
    "L_C default": lambda: SliceSS(get_object("L_C")),
    "torsion-3 toy": xyz_toy,
    "torsion-3 toy, x moving": lambda: xyz_toy(moving=("x", "y")),
}

#: sha256 of each run's d1 blocks, recorded from the route that walks the
#: chains along generator 0: the blocks' degrees in stored order and each
#: block's m, ptr, rows and vals
D1_DIGESTS = {
    "ko_C small": "a85a19ec5e9a451ce0dfcbc23ca049af4d5dcaac8d801beb99a26b3635cc7679",
    "ko small": "f55d6830cdf79c84ec18b1c9d9a940656bb3a1807fb9d911cbf4bd9eac069445",
    "L small": "d63bf7cfc4a39e2102f5a129302846d362ee94b0d0437354e508ef688b4db67c",
    "L_C small": "90370d4de26ff063115970f90e0fea313ecb84db96906ea22390f3241303183a",
    "L low": "5bb19d91e8bd3635a1d185ba604c544b5a625d3c743aaac659bd921c5990377e",
    "L perfbench": "6e7bf223e77ee91a65dc55449b5310440f70260c23d6e9da49a4ccfe03c4e7ae",
    "ko_C default": "485eceb3f6313a96774f492c9dc12ca03a08cf0f89138b59a265d0b06f7e9baf",
    "ko default": "bd765e59378586a51b89f1f6edc2cf594f94307dc0bbaadaa80fe7b1f619560f",
    "L_C default": "20278c224dc051fd9402212d9f7d4e0bba3c53c42d114241bf0406767e525e5b",
    "torsion-3 toy": "81136e97f4b98d890c8d3e481a7cda1b16925481de64829ca86b1c4aba692fe5",
    "torsion-3 toy, x moving": "65a18e250214e50c1a719affd8a210f521c279d5bd836268db3abb6713bf708a",
}


def d1_digest(mats):
    h = hashlib.sha256()
    for d, M in mats.items():
        h.update(repr((tuple(d), M.m, M.ptr, M.rows, M.vals)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(D1_RUNS))
def test_d1_build_is_the_recorded_one(case):
    """The d1 blocks as stored, block order and each column's entry order
    included, which the dense comparison with the oracle does not see."""
    mats, _unknown = D1_RUNS[case]()._d1_matrices()
    assert mats
    assert d1_digest(mats) == D1_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(D1_RUNS))
def test_d1_unknown_is_every_box_exit(case):
    """d1 is unknown at exactly the page 1 degrees whose target leaves the
    box, when the object has a d1, and nowhere else."""
    ss = D1_RUNS[case]()
    ss.differential_known(1, TriDegree(0, 0, 0))
    want = set()
    if ss.obj.schedule.get(1):
        want = {d for d in ss.pages[1] if not ss.box.contains(d + page_shift(1))}
    assert ss.unknown_out[1] == want


@pytest.mark.parametrize("case", sorted(D1_RUNS) + ["L_C thin"])
def test_d1_is_known_on_the_whole_user_window(case):
    """Only a degree whose d1 target leaves the box can have an unknown d1,
    and every such degree is on the box's first stem or in its top three
    filtrations: outside the user window, since each run's filtration
    margin is at least 3."""
    if case == "L_C thin":
        ss = SliceSS(get_object("L_C", LC_THIN), LC_THIN, f_margin=4)
    else:
        ss = D1_RUNS[case]()
    assert ss.box.f[1] - ss.window.f[1] >= 3 and ss.box.s[0] < ss.window.s[0]
    known = [ss.differential_known(1, d) for d in ss.window.degrees()]
    assert known and all(known)


@pytest.mark.parametrize("name,window", [b for b in SMALL_BOXES if b[0] in ("ko", "L")])
def test_page2_matches_generic_homology_on_oracle_blocks(name, window):
    """Route agreement for the first page turn: at every certified degree
    that d1 touches, the general Smith-form homology of ``smith_oracle`` on
    the oracle's dense blocks, restricted to each part of the image
    splitting, gives the orders the engine reports on page 2 for that
    part."""
    ss = SliceSS(get_object(name, window), window).run(2)
    mats, _unknown = per_monomial_d1_matrices(ss)
    shift = page_shift(1)
    checked = 0
    for d, G in ss.pages[1].items():
        Min, Mout = mats.get(d - shift), mats.get(d)
        if (Min is None and Mout is None) or d not in ss.valid[2]:
            continue
        tgt = ss.pages[1].get(d + shift)
        H2 = ss.group(2, d)
        for p in set(G.parts):
            idx = [i for i, q in enumerate(G.parts) if q == p]
            d_in = Min or Mat.zeros(len(G.orders), 0)
            d_out = Mout or Mat.zeros(0, len(G.orders))
            orders, _gens, _project = six_form_homology(
                Mat([d_in.rows[i] for i in idx], len(idx), d_in.n),
                Mat([[row[j] for j in idx] for row in d_out.rows], d_out.m, len(idx)),
                [G.orders[i] for i in idx],
                tgt.orders if Mout else [],
            )
            assert orders == [o for o, q in zip(H2.orders, H2.parts) if q == p], (d, p)
        checked += 1
    assert checked > 50


def free_generators(pres):
    """The generators with no cap and no slot: multiplying by one keeps a
    monomial normal and commutes with rewriting."""
    return [g for g, spec in enumerate(pres.generators) if spec.cap is None and not spec.slots]


@pytest.fixture(scope="module")
def page1_monomials():
    """(object, the page 1 monomials of its small box) per object."""
    out = []
    for name, window in SMALL_BOXES:
        obj = get_object(name, window)
        monos = obj.pres.basis_window(window.s, window.f, window.w).monomials.values()
        out.append((obj, sorted({m for ms in monos for m in ms})))
    return out


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_free_shift_identity(page1_monomials, data):
    """d1(g^e X) = g^e d1(X) + e g^(e-1) d1(g) X for every free generator g
    and normal X, and g^e X is normal of order gcd(o(X), torsion(g)).

    rho has torsion 2, and its exponents are drawn from 2 on, so that g^e X
    has a smaller order than X whenever X is free."""
    obj, monos = data.draw(st.sampled_from(page1_monomials))
    pres, images = obj.pres, obj.schedule[1]
    g = data.draw(st.sampled_from(free_generators(pres)))
    X = data.draw(st.sampled_from(monos))
    e = data.draw(st.integers(2 if pres.gen_name(g) == "rho" else 0, 6))

    def power(k):
        return ((g, k),) if k else ()

    m = mono_mul(power(e), X)
    o = math.gcd(pres.order_of(X), pres.generators[g].torsion) if e else pres.order_of(X)
    assert pres.is_normal(m) and pres.order_of(m) == o
    assert pres.multiply({power(e): 1}, {X: 1}) == {m: 1}
    want = pres.multiply({power(e): 1}, derive(pres, X, images))
    if e:
        el_iadd(want, pres.multiply({mono_mul(power(e - 1), X): 1}, images.get(g) or {}), e)
    assert derive(pres, m, images) == pres.reduce(want)


# -- page 1 as the basis search hands it out --------------------------------


def check_page1(obj, box):
    """The basis search's arrays on a box, checked per degree: each code
    decodes to a normal monomial of the degree that encodes back to it, the
    codes increase strictly and so do their monomials under the dense
    exponent vector, and the orders and marks are those of ``order_of``
    and ``ObjectSpec.part_of``.  Multiplying by a power of a free
    generator adds that many of its units to the code whenever the product
    lies in the box."""
    pres = obj.pres
    basis = pres.basis_window(*box, marked=obj.image_gens)
    decode = basis.coding.decode
    code_of = {}
    for d, (orders, marked, codes) in basis.items():
        monos = [decode(k) for k in codes]
        assert monos and len(monos) == len(orders) == len(marked), d
        assert all(pres.is_normal(m) and pres.degree_of(m) == d for m in monos), d
        keys = [dense_mono_key(pres, m) for m in monos]
        assert all(a < b for a, b in zip(keys, keys[1:])), d
        assert all(a < b for a, b in zip(codes, codes[1:])), d
        assert list(orders) == [pres.order_of(m) for m in monos], d
        assert [("image" if mk else "cokernel") for mk in marked] == [obj.part_of(m) for m in monos], d
        assert [basis.coding.encode(m) for m in monos] == list(codes), d
        code_of.update(zip(monos, codes))
    unit = basis.coding.unit
    for m, k in code_of.items():
        for g in free_generators(pres):
            for e in (1, 2, 3):
                mg = mono_mul(m, ((g, e),))
                if mg in code_of:
                    assert code_of[mg] == k + e * unit[g], (m, g, e)
    return basis


@pytest.mark.parametrize("name,window", SMALL_BOXES)
def test_page1_orders_parts_and_basis_order(name, window):
    basis = check_page1(get_object(name, window), (window.s, window.f, window.w))
    assert sum(map(len, basis.monomials.values())) > 100


def test_page1_shares_one_tuple_per_distinct_value():
    """Page 1 groups with equal orders, or equal parts, hold the same
    tuple, and every page holds tuples."""
    ss = SliceSS(get_object("L_C", FIBER_SMALL), FIBER_SMALL).run()
    first = ss.pages[1].values()
    for attr in ("orders", "parts"):
        values = [getattr(G, attr) for G in first]
        assert len({id(v) for v in values}) == len(set(values)) < len(values), attr
    groups = [G for page in ss.pages.values() for G in page.values()]
    assert all(type(G.orders) is tuple and type(G.parts) is tuple for G in groups)


@pytest.fixture(scope="module")
def fiber_objects():
    return [get_object(name, window) for name, window in SMALL_BOXES if name in ("L", "L_C")]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_page1_on_sub_boxes_of_each_fiber_cover(fiber_objects, data):
    obj = data.draw(st.sampled_from(fiber_objects))
    box = []
    for lo, hi in (obj.pres.cover.s, obj.pres.cover.f, obj.pres.cover.w):
        a, b = data.draw(st.integers(lo, hi)), data.draw(st.integers(lo, hi))
        box.append((min(a, b), max(a, b)))
    check_page1(obj, tuple(box))


def plain_search(pres, box):
    """pres rebuilt with generator 0 capped at 64, a cap no monomial of the
    box reaches: the same normal forms, but a capped generator takes the
    basis search's plain route, one search level per exponent."""
    assert (2 * box[1][1] + box[0][1] - box[2][0]) // lam(pres.generators[0].degree) < 64
    data = pres.to_dict()
    data["generators"][0]["cap"] = 64
    return presentation_from_dict(data)


def assert_plain_search_order(obj, box):
    kw = dict(marked=obj.image_gens, headroom=lam(page_shift(1)))
    got = obj.pres.basis_window(*box, **kw)
    want = plain_search(obj.pres, box).basis_window(*box, **kw)
    assert list(got) == list(want)
    assert list(got.items()) == list(want.items())
    return got


@pytest.mark.parametrize("name,window,box", [
    ("L", PERFBENCH_L, widened_box(PERFBENCH_L, 8)),
    ("L", FIBER_SMALL, widened_box(FIBER_SMALL, 3)),
    ("ko", SMALL, widened_box(SMALL, 3)),
    ("ko", SMALL, Window(s=(-2, 12), f=(1, 8), w=(-6, 8))),
])
def test_page1_degree_order_is_the_plain_search_order(name, window, box):
    """On ``L`` and ``ko`` the rho towers are built by translation, and
    each degree still comes where the plain search first reaches it, with
    the same orders, marks and codes."""
    got = assert_plain_search_order(get_object(name, window), (box.s, box.f, box.w))
    assert sum(map(len, got.monomials.values())) > 500


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_page1_degree_order_on_sub_boxes(fiber_objects, ko, data):
    obj = data.draw(st.sampled_from([fiber_objects[0], ko.obj]))
    cover = obj.pres.cover or ko.box
    box = []
    for lo, hi in (cover.s, cover.f, cover.w):
        a, b = data.draw(st.integers(lo, hi)), data.draw(st.integers(lo, hi))
        box.append((min(a, b), max(a, b)))
    assert_plain_search_order(obj, tuple(box))


@pytest.mark.parametrize("name,window", [b for b in SMALL_BOXES if b[0] in ("L", "L_C")])
def test_page1_lifts_are_the_closed_form_basis_in_order(name, window):
    """Each page 1 lift is one basis monomial with coefficient 1: the i-th
    monomial of the fiber's closed-form enumeration, an oracle sharing no
    code with the basis search."""
    obj = get_object(name, window)
    ss = SliceSS(obj, window)
    want = closed_form_basis(obj, ss.box.s, ss.box.f, ss.box.w)
    assert ss.pages[1].keys() == want.keys()
    for d, G in ss.pages[1].items():
        assert [G.lift(i) for i in range(len(G))] == [{m: 1} for m in want[d]], d
    assert sum(map(len, want.values())) > 500


def test_page1_projection_refuses_a_monomial_outside_the_basis():
    """Projecting onto a page 1 group refuses a monomial of another degree,
    and one whose h1 exponent overflows its code field into tau's: that
    monomial's code is a basis monomial's, so only its exponents tell the
    two apart."""
    ss = SliceSS(get_object("ko_C"), SMALL)
    pres, G = ss.pres, ss.pages[1][TriDegree(4, 0, 1)]
    (m,) = G.lift(0)
    assert m == pres.monomial({"tau": 1, "v2": 1})
    coding = G.coding
    tau, h1 = pres.gen("tau"), pres.gen("h1")
    assert coding.unit[tau] == coding.unit[h1] << coding.width
    alias = pres.monomial({"h1": 1 << coding.width, "v2": 1})
    assert coding.encode(alias) == coding.encode(m) == G.codes[0]
    assert G.project_element(pres, {m: 3}) == [3]
    for bad in (alias, pres.monomial({"v2": 1})):
        with pytest.raises(EngineError, match="not supported on the window basis"):
            G.project_element(pres, {m: 1, bad: 1})


# -- lifts and differential values against the rewriting route --------------


@pytest.fixture(scope="module")
def small_runs():
    return [SliceSS(get_object(name, window), window).run() for name, window in SMALL_BOXES]


def test_lifts_are_normal_and_values_match_the_rewriting_route(small_runs):
    """Every lift of every page is a normal element with reduced
    coefficients, and d_r of each summand equals ``reduce`` applied to the
    sum of its target's lifts, the route the engine took before it summed
    lifts by their coefficients alone."""
    for ss in small_runs:
        pres, nonzero = ss.pres, 0
        for r, page in ss.pages.items():
            shift = page_shift(r)
            mats = ss.diffs.get(r, {}) if r < ss.r_max else {}
            for d, G in page.items():
                M, T = mats.get(d), page.get(d + shift)
                for i in range(len(G)):
                    lift = G.lift(i)
                    assert pres.reduce(lift) == lift, (ss.obj.name, r, d, i)
                    if r == ss.r_max:
                        continue
                    want: dict = {}
                    for k, c in (M.col(i) if M is not None else ()):
                        el_iadd(want, T.lift(k), c)
                    want = pres.reduce(want)
                    assert ss.differential_value(r, d, i) == want, (r, d, i)
                    nonzero += bool(want)
        assert nonzero, ss.obj.name


def scan_parts(page):
    """The parts of a page's groups that are neither all order 2 nor a
    single summand, as (degree, part, orders), and the number of single
    parts that are not order 2."""
    mixed, single = [], 0
    for d, G in page.items():
        for p in set(G.parts):
            orders = [o for o, q in zip(G.orders, G.parts) if q == p]
            if orders.count(2) < len(orders):
                if len(orders) > 1:
                    mixed.append((d, p, orders))
                else:
                    single += 1
    return mixed, single


def test_every_part_is_order_2_or_one_summand(small_runs):
    """The invariant the page turn rests on: each part of each group is all
    order 2 or one summand, on every page of the small runs and on page 1
    of the default boxes of ko_C, ko and L_C."""
    for ss in small_runs:
        for r, page in ss.pages.items():
            mixed, single = scan_parts(page)
            assert not mixed, (ss.obj.name, r, mixed[:3])
            assert single, (ss.obj.name, r)
    for name in ("ko_C", "ko", "L_C"):
        mixed, single = scan_parts(SliceSS(get_object(name)).pages[1])
        assert not mixed, (name, mixed[:3])
        assert single, name


# -- refusals of the page turn, on hand-built blocks -------------------------

#: where the toy's generators sit: A, and its d1 target A + page_shift(1)
TOY_A, TOY_T = TriDegree(4, 0, 2), TriDegree(3, 3, 2)


@pytest.fixture(scope="module")
def toy():
    """Page 1 of a toy with a (cokernel) and b (image) of order 2 at A, and
    t, u (image), z and q of orders 2, 2, 0 and 4 at A + page_shift(1).
    Every product leaves the window's single weight, so each degree holds
    its generators alone.  Returns the run and each generator's row."""
    gens = [("a", TOY_A, 2), ("b", TOY_A, 2), ("t", TOY_T, 2), ("u", TOY_T, 2),
            ("z", TOY_T, 0), ("q", TOY_T, 4)]
    pres = RingPresentation("toy", [GeneratorSpec(n, d, torsion=o) for n, d, o in gens])
    obj = ObjectSpec("toy", pres, image_gens=frozenset({pres.gen("b"), pres.gen("u")}))
    ss = SliceSS(obj, Window(s=(0, 4), f=(0, 3), w=(2, 2)), r_max=2)
    row = {}
    for d in (TOY_A, TOY_T):
        for i, m in enumerate(basis_monomials(ss.pages[1][d])):
            row[pres.gen_name(m[0][0])] = i
    assert len(row) == len(gens)
    return ss, row


def toy_block(ss, row, values):
    """The d1 block at A: values maps a or b to {target name: coefficient}."""
    G = ss.pages[1][TOY_A]
    cols = [{} for _ in range(len(G))]
    for src, val in values.items():
        cols[row[src]] = {row[t]: c for t, c in val.items()}
    return ColMat(*pack_columns(cols), len(ss.pages[1][TOY_T]))


def turn_out(ss, row, values):
    """Turn the group at A under the outgoing block given by values."""
    page = ss.pages[1]
    return ss._turn_group(page[TOY_A], None, None, toy_block(ss, row, values), page[TOY_T])


def turn_in(ss, row, values):
    """Turn the group at A + page_shift(1) under the incoming block."""
    page = ss.pages[1]
    return ss._turn_group(page[TOY_T], toy_block(ss, row, values), page[TOY_A], None, None)


def test_turn_refuses_an_incoming_column_across_the_splitting(toy):
    ss, row = toy
    # on a group of q (cokernel, order 4) and u (image, order 2), a hits 2q
    # and b hits u: Z/2 on q survives
    pres = ss.pres
    q, u = pres.monomial({"q": 1}), pres.monomial({"u": 1})
    G = PageGroup(TOY_T, [4, 2], ["cokernel", "image"], lifts=[{q: 1}, {u: 1}])
    cols = [{}, {}]
    cols[row["a"]], cols[row["b"]] = {0: 2}, {1: 1}
    H = ss._turn_group(G, ColMat(*pack_columns(cols), 2), ss.pages[1][TOY_A], None, None)
    assert (H.orders, H.parts, H.lift(0)) == ((2,), ("cokernel",), {q: 1})
    with pytest.raises(EngineError, match="incoming differential at .* mixes the image splitting"):
        turn_in(ss, row, {"a": {"t": 1, "u": 1}})


def test_turn_refuses_a_part_neither_order_2_nor_one_summand(toy):
    ss, row = toy
    # the cokernel part at TOY_T is q, z and t, of orders 4, 0 and 2
    G = ss.pages[1][TOY_T]
    assert [o for o, p in zip(G.orders, G.parts) if p == "cokernel"] == [4, 0, 2]
    with pytest.raises(EngineError, match=re.escape("cokernel part at %s has orders [4, 0, 2]" % (TOY_T,))):
        turn_in(ss, row, {"b": {"u": 1}})


def test_turn_refuses_outgoing_parts_sharing_a_target_row(toy):
    ss, row = toy
    assert turn_out(ss, row, {"a": {"t": 1}, "b": {"u": 1}}).orders == ()
    with pytest.raises(EngineError, match="outgoing differential at .* mixes the image splitting"):
        turn_out(ss, row, {"a": {"t": 1}, "b": {"t": 1}})


def test_turn_refuses_an_order_2_class_mapping_to_a_free_class(toy):
    ss, row = toy
    with pytest.raises(LinearAlgebraError, match="order 2 class maps nontrivially to a free class"):
        turn_out(ss, row, {"a": {"z": 1}})


def test_turn_refuses_an_ill_defined_map_from_an_order_2_class(toy):
    ss, row = toy
    # into Z/4 an order 2 class may only hit twice the generator
    assert turn_out(ss, row, {"a": {"q": 2}}).orders == (2,)
    with pytest.raises(LinearAlgebraError, match="map from order 2 class is ill defined"):
        turn_out(ss, row, {"a": {"q": 1}})


def test_sums_of_lifts_are_reduced_modulo_their_orders(toy):
    """Two order 2 classes lifting to t + 2q and t, where t has order 2 and q
    order 4.  Their sum lifts to 2t + 2q, which is 2q once each coefficient
    is reduced modulo its monomial's order: so is the kernel class of an
    outgoing block hitting both, and the value of a differential whose
    column hits both."""
    ss, _row = toy
    pres = ss.pres
    t, q = pres.monomial({"t": 1}), pres.monomial({"q": 1})
    G = PageGroup(TOY_T, [2, 2], ["cokernel"] * 2, lifts=[{t: 1, q: 2}, {t: 1}])
    tgt = PageGroup(TOY_T + page_shift(1), [2], ["cokernel"], lifts=[{}])  # lift not read
    H = ss._turn_group(G, None, None, ColMat(*pack_columns([{0: 1}, {0: 1}]), 1), tgt)
    assert H.orders == (2,) and H.lift(0) == {q: 2}

    planted = SliceSS(ss.obj, ss.window, r_max=2)
    planted.pages[2] = {TOY_A + page_shift(2): G}
    planted.diffs[2] = {TOY_A: ColMat(*pack_columns([{0: 1, 1: 1}, {}]), 2)}
    planted._ran_to = 2
    assert planted.differential_value(2, TOY_A, 0) == {q: 2}


# -- lifts and the page 1 dump against their generic routes ------------------


def eager_lifts(pres, H, built):
    """Every lift of the group H, built as the page turn once built them all:
    a page 1 lift is its basis monomial, and each homology generator's lift
    is the sum, in index order, of the previous page's lifts it combines,
    normalized by ``reduce_coefficients``.  built memoizes by group."""
    lifts = built.get(id(H))
    if lifts is not None:
        return lifts
    if H.blocks is None:
        lifts = [{H.coding.decode(k): 1} for k in H.codes]
    else:
        prev = eager_lifts(pres, H.prev, built)
        lifts = []
        for _part, idx, hom in H.blocks:
            if isinstance(hom, F2Homology):
                for gen in hom.gen_masks:
                    acc = {}
                    while gen:
                        low = gen & -gen
                        el_iadd(acc, prev[idx[low.bit_length() - 1]])
                        gen ^= low
                    lifts.append(pres.reduce_coefficients(acc))
            else:
                (i,) = idx
                for (c,) in hom.gens:
                    acc = {}
                    el_iadd(acc, prev[i], c)
                    lifts.append(pres.reduce_coefficients(acc))
    built[id(H)] = lifts
    return lifts


@pytest.fixture(scope="module")
def L_low():
    return SliceSS(get_object("L", L_LOW), L_LOW).run()


def test_every_lift_is_the_eager_lift(small_runs, L_low):
    """Each lift of each page equals the lift the eager construction builds,
    as a dict in the same order: the monomials and their coefficients,
    and the order the terms were summed in."""
    for ss in small_runs + [L_low]:
        built, turned = {}, 0
        for r, page in ss.pages.items():
            for d, G in page.items():
                want = eager_lifts(ss.pres, G, built)
                assert len(want) == len(G), (ss.obj.name, r, d)
                for i, lift in enumerate(want):
                    assert list(G.lift(i).items()) == list(lift.items()), (ss.obj.name, r, d, i)
                turned += G.blocks is not None
        assert turned > 100, ss.obj.name



def test_lifts_are_built_on_first_read():
    """Right after a run no group has built its lifts, and reading one lift
    builds those of its own group and of the groups it was turned from,
    at its own degree, and no others."""
    ss = SliceSS(get_object("L", L_LOW), L_LOW).run()
    turned = list({id(G): G for page in ss.pages.values() for G in page.values() if G.blocks is not None}.values())
    assert len(turned) > 100 and all(G._lifts is None for G in turned)
    H = next(G for G in ss.pages[ss.r_max].values() if len(G) and G.blocks and G.prev.blocks)
    chain, G = [], H
    while G.blocks is not None:
        chain.append(G)
        G = G.prev
    H.lift(0)
    assert [G for G in turned if G._lifts is not None] == sorted(chain, key=turned.index)
    assert len(chain) >= 2 and {G.degree for G in chain} == {H.degree}

def generic_dump_lines(ss, r):
    """``dump_lines(r)`` built from each summand's lift and ``differential_value``."""
    for d, i, o, lift, _part in ss.summands(r):
        v = ss.differential_value(r, d, i)
        yield "page %d | %d %d %d | %d | %s | d%d -> %s" % (
            r, d.s, d.f, d.w, o, ss.pres.render(lift), r, ss.pres.render(v) if v else "-")


def test_page1_dump_is_the_generic_dump(small_runs):
    """On all four objects and every page; each small window holds the unit
    monomial, which renders as 1, ko's d1 columns hold rows out of order,
    and later pages carry page 1 groups."""
    for ss in small_runs:
        for r in range(1, ss.r_max + 1):
            assert list(ss.dump_lines(r)) == list(generic_dump_lines(ss, r)), (ss.obj.name, r)
        lines = list(ss.dump_lines(1))
        assert "page 1 | 0 0 0 | 0 | 1 | d1 -> -" in lines, ss.obj.name
        assert sum(" d1 -> -" not in line for line in lines) > 10, ss.obj.name
        assert any(G.codes is not None for _d, G in ss.groups(ss.r_max)), ss.obj.name


def test_page1_dump_reduces_and_signs_coefficients(toy):
    """A planted d1 block whose values have coefficients other than 1, a free
    target, rows out of order and terms that reduce to zero."""
    toy_ss, row = toy
    planted = SliceSS(toy_ss.obj, toy_ss.window, r_max=2)
    planted.diffs[1] = {TOY_A: toy_block(planted, row, {
        "a": {"q": 6, "z": -3, "t": 3, "u": 2},
        "b": {"q": -4, "z": -1, "u": 1},
    })}
    planted.unknown_out[1] = set()
    lines = list(planted.dump_lines(1))
    assert lines == list(generic_dump_lines(planted, 1))
    # rows follow the codes, generator 0 most significant
    assert [row[n] for n in "qzut"] == [0, 1, 2, 3]
    assert "page 1 | 4 0 2 | 2 | a | d1 -> 2*q - 3*z + t" in lines
    assert "page 1 | 4 0 2 | 2 | b | d1 -> -z + u" in lines


# -- the turn against a fresh turn of each group -----------------------------


def local_complexes(ss, r):
    """(group of page r + 1, its previous group, Min, srcG, Mout, tgtG) for
    each group the turn of page r made; carried groups are left out."""
    mats, shift, page = ss.diffs[r], page_shift(r), ss.pages[r]
    for d, G in ss.pages[r + 1].items():
        if G is page.get(d):
            continue
        Min, Mout = mats.get(d - shift), mats.get(d)
        srcG = page.get(d - shift) if Min is not None else None
        tgtG = page.get(d + shift) if Mout is not None else None
        yield G, page[d], Min, srcG, Mout, tgtG


def test_every_turned_group_is_a_fresh_turn(small_runs, L_low):
    """Each group a turn made equals a fresh ``_turn_group`` of its previous
    page's group under the same blocks: orders, parts, every lift and the
    projection of every lift.  A group holding another local complex's
    homology fails here, while lifts rebuilt from its own stored blocks
    would not show it."""
    for ss in small_runs + [L_low]:
        pres, turned = ss.pres, 0
        for r in range(1, ss.r_max):
            for G, prev, Min, srcG, Mout, tgtG in local_complexes(ss, r):
                where = (ss.obj.name, r, G.degree)
                fresh = ss._turn_group(prev, Min, srcG, Mout, tgtG)
                assert G.prev is prev and (G.orders, G.parts) == (fresh.orders, fresh.parts), where
                for i in range(len(G)):
                    lift = G.lift(i)
                    assert list(lift.items()) == list(fresh.lift(i).items()), where + (i,)
                    assert G.project_element(pres, lift) == fresh.project_element(pres, lift), where + (i,)
                turned += 1
        assert turned > 100, ss.obj.name


def test_a_turn_shares_homology_between_equal_local_complexes(small_runs, L_low):
    """Each page's turned groups hold exactly one ``blocks`` object per
    distinct local complex: the group's orders and parts, and each block
    with its end group's orders."""
    for ss in small_runs + [L_low]:
        shared = 0
        for r in range(1, ss.r_max):
            complexes, blocks, turned = set(), set(), 0
            for G, prev, Min, srcG, Mout, tgtG in local_complexes(ss, r):
                complexes.add((
                    prev.orders, prev.parts,
                    Min and (Min.ptr, Min.rows, Min.vals, srcG.orders),
                    Mout and (Mout.ptr, Mout.rows, Mout.vals, tgtG.orders),
                ))
                blocks.add(id(G.blocks))
                turned += 1
            assert len(blocks) == len(complexes), (ss.obj.name, r)
            shared += turned - len(complexes)
        assert shared > 100, ss.obj.name


def test_blocks_differing_only_in_values_are_turned_apart():
    """No shipped window has a d1 coefficient other than 1, so two copies
    of one local complex, x -> y and x' -> 2 y' with x, x' free and y, y' of
    order 4, are planted at two weights: their blocks differ only in
    values, and so do their homology groups."""
    A, T = TOY_A, TOY_T
    A2, T2 = A + TriDegree(0, 0, 1), T + TriDegree(0, 0, 1)
    gens = [("x", A, 0), ("y", T, 4), ("x2", A2, 0), ("y2", T2, 4)]
    pres = RingPresentation("toy2", [GeneratorSpec(n, d, torsion=o) for n, d, o in gens])
    ss = SliceSS(ObjectSpec("toy2", pres), Window(s=(0, 4), f=(0, 3), w=(2, 3)), r_max=2)
    ss.diffs[1] = {A: ColMat((0, 1), (0,), (1,), 1), A2: ColMat((0, 1), (0,), (2,), 1)}
    ss.unknown_out[1] = set()
    ss.run()
    page = ss.pages[2]
    assert [page[d].orders for d in (T, T2, A, A2)] == [(), (2,), (0,), (0,)]
    for G, prev, Min, srcG, Mout, tgtG in local_complexes(ss, 1):
        fresh = ss._turn_group(prev, Min, srcG, Mout, tgtG)
        assert G.orders == fresh.orders, G.degree
        assert [G.lift(i) for i in range(len(G))] == [fresh.lift(i) for i in range(len(G))], G.degree
    assert page[A].lift(0) == {pres.monomial({"x": 1}): 4}
    assert page[A2].lift(0) == {pres.monomial({"x2": 1}): 2}


def test_page1_box_exits_are_the_uncertified_d1_targets(small_runs, L_low):
    """Page 2's certified region, with page 1's box exits found as every
    group whose d1 target is not a certified page 1 degree."""
    for ss in small_runs + [L_low]:
        shift, box, valid = page_shift(1), ss.box, ss.valid[1]
        lost = set()
        if ss.obj.schedule.get(1):
            lost.update(d for d in ss.pages[1] if d + shift not in valid)
        for d in ss.unknown_out[1]:
            lost.add(d)
            if box.contains(d + shift):
                lost.add(d + shift)
        lost.update(TriDegree(box.s[1], f, w)
                    for f in range(shift.f, box.f[1] + 1) for w in range(box.w[0], box.w[1] + 1))
        assert set(ss.valid[2]) == set(valid) - lost, ss.obj.name
        assert set(valid) - set(ss.valid[2]), ss.obj.name
