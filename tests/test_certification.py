"""The certified region, against a dense oracle and across windows.

The oracle below is the dense page-by-page validity rule: start from every
degree of the widened box and, on each page, drop a degree when a
differential that could reach it or leave it connects it to a degree that
is not certified, or leaves the box.  It keeps the whole set of certified
degrees on every page and shares no bookkeeping with the engine; it only
reads the engine's pages and its list of differentials it could not
compute.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effss.engine import SliceSS, Window, page_shift
from effss.grading import TriDegree
from effss.objects import get_object


def _may_fire(ss, valid, r, d):
    """Could d_r be nonzero out of d, as far as the set ``valid`` knows?"""
    if not ss.box.contains(d) or d not in valid:
        return True
    g = ss.pages[r].get(d)
    if g is None or not g.orders:
        return False
    if r == 1:
        return bool(ss.obj.schedule.get(1))
    if not ss.obj.has_pattern:
        return False
    cw = d.coweight
    if cw == 0 or (cw & -cw).bit_length() != r:
        return False
    return "cokernel" in g.parts


def dense_valid(ss):
    """Certified degrees of every computed page, as full sets."""
    valid = {1: set(ss.box.degrees())}
    for r in range(1, max(ss.pages)):
        shift = page_shift(r)
        unknown = ss.unknown_out[r]
        prev = valid[r]
        nv = set()
        for d in prev:
            if _may_fire(ss, prev, r, d):
                if d + shift not in prev or d in unknown:
                    continue
            src = d - shift
            if src.f >= 0 and _may_fire(ss, prev, r, src):
                if src not in prev or src in unknown:
                    continue
            nv.add(d)
        valid[r + 1] = nv
    return valid


def _run(name, window, **kw):
    return SliceSS(get_object(name, window=window), window, **kw).run()


ORACLE_RUNS = {
    "ko_C": ("ko_C", Window((0, 24), (0, 12), (-8, 16)), {}),
    "ko": ("ko", Window((0, 12), (0, 12), (-8, 16)), {}),
    "L_C-thin": ("L_C", Window((-2, 40), (0, 2), (-4, 20)), {"f_margin": 4}),
    "L-tall": ("L", Window((-4, 4), (0, 20), (-8, 16)), {}),
}


@lru_cache(maxsize=None)
def _oracle_run(key):
    name, window, kw = ORACLE_RUNS[key]
    return _run(name, window, **kw)


@pytest.mark.parametrize("key", sorted(ORACLE_RUNS))
def test_certified_region_matches_dense_oracle(key):
    ss = _oracle_run(key)
    oracle = dense_valid(ss)
    assert sorted(oracle) == sorted(ss.pages)
    for r, want in oracle.items():
        assert set(ss.valid[r]) == want, (key, r)
        assert len(ss.valid[r]) == len(want), (key, r)
    # the margins erode on every run, so the two sides are never both the
    # trivially full box
    assert len(oracle[max(oracle)]) < len(oracle[1])


@pytest.mark.parametrize("key", sorted(ORACLE_RUNS))
def test_lifts_project_to_unit_vectors(key):
    # On every certified summand of every page, projecting the lift of
    # summand i gives the unit vector e_i modulo the summand orders.
    ss = _oracle_run(key)
    seen = 0
    for r in sorted(ss.pages):
        for d, G in sorted(ss.pages[r].items()):
            if d not in ss.valid[r]:
                continue
            for i in range(len(G.orders)):
                got = [c % o if o else c
                       for c, o in zip(G.project_element(ss.pres, G.lift(i)), G.orders)]
                assert got == [int(k == i) for k in range(len(G))], (key, r, d, i)
                seen += 1
    assert seen


# A small window and a strictly larger one per object.
INVARIANCE = {
    "ko_C": (Window((0, 8), (0, 6), (-4, 8)), Window((-2, 12), (0, 8), (-6, 10))),
    "ko": (Window((0, 8), (0, 6), (-4, 8)), Window((-2, 12), (0, 8), (-6, 10))),
    "L_C": (Window((0, 6), (0, 4), (-2, 6)), Window((-2, 8), (0, 6), (-4, 8))),
    "L": (Window((0, 4), (0, 4), (-2, 4)), Window((-2, 6), (0, 6), (-4, 6))),
}


@pytest.mark.parametrize("name", sorted(INVARIANCE))
def test_window_invariance(name):
    small_w, big_w = INVARIANCE[name]
    small = _run(name, small_w)
    big = _run(name, big_w)
    assert small.r_max == big.r_max
    outside = [d for d in big.box.degrees() if not small.box.contains(d)]
    assert outside
    for r in sorted(small.pages):
        both = 0
        for d in small.valid[r]:
            # shrinking the window never certifies more
            assert d in big.valid[r], (name, r, d)
            g, h = small.group(r, d), big.group(r, d)
            assert g.orders == h.orders, (name, r, d)
            assert g.parts == h.parts, (name, r, d)
            assert [small.pres.render(g.lift(i)) for i in range(len(g))] == [
                big.pres.render(h.lift(i)) for i in range(len(h))
            ], (name, r, d)
            both += len(g)
        assert both
        for d in outside:
            assert d not in small.valid[r], (name, r, d)
        assert not small.certified(TriDegree(small.box.s[1] + 1, 0, 0), r)


def test_uncomputed_differential_uncertifies_both_ends():
    # No shipped window has an uncomputable differential with a certified
    # target (only an ambiguous pattern target outside the user window
    # gives one), so plant one: both ends must drop out, as in the oracle.
    window = Window((0, 6), (0, 4), (-2, 6))
    ss = SliceSS(get_object("L_C", window=window), window).run(2)
    shift = page_shift(2)
    assert ss.differential_known(2, TriDegree(0, 0, 0))
    d = next(
        d for d in sorted(ss.pages[2])
        if _may_fire(ss, ss.valid[2], 2, d) and d + shift in ss.valid[2]
    )
    ss.unknown_out[2].add(d)
    ss.run()
    assert d not in ss.valid[3] and d + shift not in ss.valid[3]
    oracle = dense_valid(ss)
    for r, want in oracle.items():
        assert set(ss.valid[r]) == want, r


def _bands(w):
    """Weight bands of a window: at its lowest weight, in its middle, and
    its highest weight alone."""
    lo, hi = w
    mid = (lo + hi) // 2
    return [(lo, lo + 2), (mid - 1, mid + 1), (hi, hi)]


@pytest.mark.parametrize("name", sorted(INVARIANCE))
def test_weight_band_run_equals_the_full_run_there(name):
    # Every differential and every certification step keeps the weight, so
    # once the presentation is built each weight is its own spectral
    # sequence: a run on a band of weights is the full run restricted to it.
    window = INVARIANCE[name][0]
    full = _run(name, window)
    for w in _bands(window.w):
        band = SliceSS(full.obj, Window(window.s, window.f, w)).run()
        assert sorted(band.pages) == sorted(full.pages), (name, w)
        seen = 0
        for r in sorted(full.pages):
            want = {d for d in full.valid[r] if w[0] <= d.w <= w[1]}
            assert set(band.valid[r]) == want, (name, w, r)
            for d in band.box.degrees():
                assert band.differential_known(r, d) == full.differential_known(r, d), (name, w, r, d)
            for d in want:
                g, h = band.group(r, d), full.group(r, d)
                assert (g.orders, g.parts) == (h.orders, h.parts), (name, w, r, d)
                for i in range(len(g)):
                    assert g.lift(i) == h.lift(i), (name, w, r, d, i)
                    assert band.differential_value(r, d, i) == full.differential_value(r, d, i), (
                        name, w, r, d, i)
                seen += len(g)
        assert seen, (name, w)


@st.composite
def small_windows(draw):
    name = draw(st.sampled_from(sorted(INVARIANCE)))
    s0, f0, w0 = draw(st.integers(-2, 6)), draw(st.integers(0, 2)), draw(st.integers(-4, 4))
    window = Window((s0, s0 + draw(st.integers(0, 4))), (f0, f0 + draw(st.integers(0, 3))),
                    (w0, w0 + draw(st.integers(0, 4))))
    return name, window


@settings(derandomize=True, max_examples=30, deadline=None)
@given(small_windows())
def test_page_turn_keeps_order_and_untouched_groups(case):
    # On each page: the certified view answers ``in``, ``len`` and iteration
    # as the dense oracle does; the next page holds exactly this page's
    # non-empty groups that stay certified, in this page's order; and a
    # group that no nonzero d_r leaves or enters is carried as the same
    # object.
    name, window = case
    ss = _run(name, window)
    oracle = dense_valid(ss)
    box = ss.box
    around = Window((box.s[0] - 1, box.s[1] + 1), (box.f[0], box.f[1] + 1),
                    (box.w[0] - 1, box.w[1] + 1))
    for r in sorted(ss.pages):
        valid, want = ss.valid[r], oracle[r]
        assert len(valid) == len(want), (case, r)
        assert list(valid) == sorted(want), (case, r)
        for d in around.degrees():
            assert (d in valid) == (d in want), (case, r, d)
        if r + 1 not in ss.pages:
            continue
        page, nxt = ss.pages[r], ss.pages[r + 1]
        assert list(nxt) == [d for d, G in page.items() if G.orders and d in oracle[r + 1]], (
            case, r)
        shift = page_shift(r)
        touched = {e for d, M in ss.diffs[r].items() if not M.is_zero() for e in (d, d + shift)}
        for d in nxt:
            if d not in touched:
                assert nxt[d] is page[d], (case, r, d)
