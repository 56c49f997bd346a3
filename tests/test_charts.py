"""Chart generation: golden sidecars, token semantics, SVG output.

The three golden files shipped under effss/data/golden were produced by
chart_data on the runs configured below and then checked glyph by glyph
against the published E-infinity charts.  They are byte-frozen: any
change to chart semantics must either reproduce them exactly or be
accompanied by a re-derivation.
"""

import re
import xml.etree.ElementTree as ET
from importlib import resources

import pytest

from effss.charts import (
    ChartDatum,
    ChartError,
    ChartSpec,
    chart_data,
    emit_svg,
    parse_chart_text,
    render_chart_text,
    _glyph_of,
    _line_target,
    _period,
)
from effss.engine import SliceSS, Window
from effss.objects import get_object
from effss.verify import _ko_C_run, _L_chart_run

def _golden(name):
    with resources.files("effss.data").joinpath("golden").joinpath(name).open() as fh:
        return fh.read()


@pytest.fixture(scope="module")
def ko_C():
    return _ko_C_run()  # shared with verify's checks, which read it alike


@pytest.fixture(scope="module")
def L():
    return _L_chart_run()


@pytest.fixture(scope="module")
def L_C():
    obj = get_object("L_C", window=Window((-2, 12), (0, 14), (-8, 10)))
    return SliceSS(obj, obj.default_window).run()


@pytest.fixture(scope="module")
def ko():
    obj = get_object("ko")
    return SliceSS(obj, obj.default_window).run()


def ko_C_einfty_spec():
    return ChartSpec(name="ko_C", page=None, stems=(0, 24), f_cap=12,
                     differentials=False)


def L_cw1_spec():
    return ChartSpec(name="L", page=None, residue=1, modulus=4,
                     stems=(0, 24), f_cap=12, differentials=False, hidden=True)


def L_cw3_spec():
    return ChartSpec(name="L", page=None, residue=3, modulus=8,
                     stems=(-2, 22), f_cap=12, differentials=False, hidden=True)


# ---------------------------------------------------------------------------
# spec validation and small helpers
# ---------------------------------------------------------------------------


def test_spec_rejects_bad_modulus():
    with pytest.raises(ChartError):
        ChartSpec(name="x", modulus=3)
    with pytest.raises(ChartError):
        ChartSpec(name="x", modulus=0)


def test_spec_rejects_an_empty_range():
    with pytest.raises(ChartError, match="empty chart range"):
        ChartSpec(name="x", stems=(4, 2))
    with pytest.raises(ChartError, match="empty chart range"):
        ChartSpec(name="x", f_cap=-1)
    assert ChartSpec(name="x") == ChartSpec(name="x", page=None, stems=(0, 24))


def test_spec_rejects_out_of_range_residue():
    with pytest.raises(ChartError):
        ChartSpec(name="x", modulus=4, residue=4)
    with pytest.raises(ChartError):
        ChartSpec(name="x", modulus=4, residue=-1)


def test_glyph_mapping():
    assert _glyph_of(0) == "box"
    assert _glyph_of(2) == "circle"
    assert _glyph_of(4) == "box:2"
    assert _glyph_of(8) == "box:3"
    assert _glyph_of(32) == "box:5"


def test_chart_period(ko_C, L):
    # over C the tau-power step is any power of tau; over R only
    # multiples of tau^4 act on the charts
    assert _period(ko_C, ChartSpec(name="k")) == 1
    assert _period(ko_C, ChartSpec(name="k", modulus=8, residue=3)) == 8
    assert _period(L, ChartSpec(name="l")) == 4
    assert _period(L, ChartSpec(name="l", modulus=2, residue=1)) == 4
    assert _period(L, ChartSpec(name="l", modulus=8, residue=3)) == 8


def test_line_target_parsing():
    assert _line_target("h1", 3, 1) == ("h1", False, False, 4, 2)
    assert _line_target("rho-dashed-arrow", 3, 1) == ("rho", True, True, 2, 2)
    assert _line_target("d2", 4, 0) == ("d2", False, False, 3, 3)
    assert _line_target("hidden-eta@4", 3, 1) == ("hidden-eta", False, False, 4, 4)
    assert _line_target("hidden-h-dashed@3", 3, 1) == ("hidden-h", True, False, 3, 3)
    with pytest.raises(ChartError):
        _line_target("nu", 0, 0)


# ---------------------------------------------------------------------------
# golden charts
# ---------------------------------------------------------------------------


def test_ko_C_einfty_golden(ko_C):
    txt = render_chart_text(chart_data(ko_C, ko_C_einfty_spec()))
    assert txt == _golden("ko_C_einfty.tsv")


def test_L_einfty_coweight_1_mod_4_golden(L):
    txt = render_chart_text(chart_data(L, L_cw1_spec()))
    assert txt == _golden("L_einfty_cw1mod4.tsv")


def test_L_einfty_coweight_3_mod_8_golden(L):
    txt = render_chart_text(chart_data(L, L_cw3_spec()))
    assert txt == _golden("L_einfty_cw3mod8.tsv")


def test_sidecar_round_trip(L):
    data = chart_data(L, L_cw3_spec())
    assert parse_chart_text(render_chart_text(data)) == data


# ---------------------------------------------------------------------------
# token semantics spot checks
# ---------------------------------------------------------------------------


def _datum_at(data, s, f, label=None):
    hits = [d for d in data if d.s == s and d.f == f
            and (label is None or d.label == label)]
    assert len(hits) == 1, hits
    return hits[0]


def test_first_differential_line_is_dashed(ko_C):
    # d1 on the weight-periodicity family of v2 has value tau*h1^3,
    # every term of which is divisible by tau
    spec = ChartSpec(name="ko_C", page=1, stems=(0, 12), f_cap=8)
    data = chart_data(ko_C, spec)
    assert "d1-dashed" in _datum_at(data, 4, 0).lines
    # v2^2 supports no differential at all on any page
    assert all(not t.startswith("d") for t in _datum_at(data, 8, 0).lines)


def test_differentials_absent_from_infinity_charts(ko_C):
    data = chart_data(ko_C, ChartSpec(name="ko_C", page=None, stems=(0, 12),
                                      f_cap=8))
    for d in data:
        assert all(not t.startswith("d") for t in d.lines)


def test_empty_residue_class(ko):
    # this page vanishes identically in coweights 3 mod 4
    spec = ChartSpec(name="ko", page=None, residue=3, modulus=4,
                     stems=(0, 20), f_cap=12, differentials=False)
    assert chart_data(ko, spec) == []


def test_hidden_line_dashed_when_target_tau_divisible(L_C):
    spec = ChartSpec(name="L_C", page=None, stems=(0, 8), f_cap=8,
                     differentials=False, hidden=True)
    data = chart_data(L_C, spec)
    anchor = _datum_at(data, 3, 1)
    # the page keeps only the index-two subgroup of the iv2 row here,
    # so the glyph is a Z/4 box; the doubling into tau*h1^3 is hidden
    assert anchor.label == "2*iv2"
    assert anchor.glyph == "box:2"
    assert anchor.color == "green"
    assert "hidden-h-dashed@3" in anchor.lines


def test_arrow_marks_products_leaving_chart(ko_C):
    data = parse_chart_text(_golden("ko_C_einfty.tsv"))
    assert "h1-arrow" in _datum_at(data, 24, 0).lines
    assert "h1-arrow" in _datum_at(data, 12, 12).lines
    assert "h1" in _datum_at(data, 0, 0).lines


def test_red_marks_families_that_stop(ko_C):
    # h1-towers above filtration 2 die after d1(v2) = tau*h1^3: their
    # tau-translates are boundaries, so the family provably stops
    data = parse_chart_text(_golden("ko_C_einfty.tsv"))
    assert _datum_at(data, 3, 3).color == "red"
    assert _datum_at(data, 2, 2).color == "black"
    assert "tau" in _datum_at(data, 2, 2).lines


def test_stem_3_hidden_climb_in_coweight_3_mod_8():
    # the exceptional stem-3 column: the doubling of the black class at
    # filtration 3 lands six filtrations up, on the green rho^6 class
    data = parse_chart_text(_golden("L_einfty_cw3mod8.tsv"))
    black = _datum_at(data, 3, 3)
    assert black.color == "black"
    assert "hidden-h@9" in black.lines
    assert _datum_at(data, 3, 9).label == "rho^6*h1^2*iv4"


# ---------------------------------------------------------------------------
# SVG output
# ---------------------------------------------------------------------------


def test_svg_is_well_formed_and_deterministic(ko_C):
    spec = ko_C_einfty_spec()
    data = chart_data(ko_C, spec)
    a = emit_svg(data, spec)
    b = emit_svg(data, spec)
    assert a == b
    root = ET.fromstring(a)
    assert root.tag.endswith("svg")
    titles = [t.text for t in root.iter("{http://www.w3.org/2000/svg}title")]
    assert sorted(titles) == sorted(d.label for d in data)


def test_svg_offsets_glyphs_sharing_a_bidegree(L):
    spec = L_cw1_spec()
    data = chart_data(L, spec)
    svg = emit_svg(data, spec)
    xs = {}
    for m in re.finditer(r'<circle cx="([0-9.]+)" cy="([0-9.]+)" r="\d+" '
                         r'fill="[^"]*"><title>([^<]*)</title>', svg):
        xs[m.group(3)] = (float(m.group(1)), float(m.group(2)))
    a = xs["rho*h1*th1"]
    b = xs["tau2*h1^2*iv0 + rho^2*iv2"]
    assert a[1] == b[1]
    assert abs(a[0] - b[0]) == 9


def test_svg_boxes_carry_order_text(L):
    spec = L_cw3_spec()
    svg = emit_svg(chart_data(L, spec), spec)
    assert ">4</text>" in svg  # the Z/16 box on iv4
    assert ">5</text>" in svg  # the Z/32 box on tau2^2*iv8
