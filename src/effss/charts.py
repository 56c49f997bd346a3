"""Chart data and SVG rendering for spectral sequence pages.

A chart collapses the tri-graded page onto the (stem, filtration) plane,
one residue class of coweights at a time.  Summands that recur under the
chart's tau-power translation are drawn once, at the translate of
largest weight; the recurrence is purely a pattern of labels, because
the periodicity operator itself need not survive the spectral sequence.

Glyphs follow the published conventions: circles are Z/2, unfilled
boxes are (2-adic) Z, boxes containing n are Z/2^n.  Classes in the
image of the connecting map are green, cokernel classes are black, and
a family that provably stops repeating inside the window is red.  Lines
of slope 1 are h1-multiplications, slope -1 are rho-multiplications,
slope -(2r-1) are d_r differentials, and vertical or near-vertical dark
lines are hidden extensions; any line whose value is divisible by the
tau-power generator is dashed.

The SVG output is deterministic: same data, same bytes.  Golden tests
freeze the sidecar text, not the pixels.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .assemble import expand_ledger
from .engine import NotCertifiedError, SliceSS
from .grading import ChartError, EffssError, Element, TriDegree
from .intlinalg import LinearAlgebraError

__all__ = [
    "ChartError",
    "ChartSpec",
    "ChartDatum",
    "chart_data",
    "render_chart_text",
    "parse_chart_text",
    "emit_svg",
]


#: every layout constant in one place; the published figures imply these
#: but never state them, so they are pinned here once
CONFIG = {
    "pitch": 26,  # grid step in px
    "margin": 46,
    "radius": 4,  # circle glyph
    "box": 11,  # box glyph side
    "colors": {"black": "#1a1a1a", "green": "#1c7c1c", "red": "#c21c1c"},
    "line_color": "#1a1a1a",
    "d_color": "#7ec8e3",  # light blue
    "hidden_color": "#1f3a93",  # dark blue
    "dash": "5 3",
    "font": "10px sans-serif",
    "tick_every": 4,
}


class _ChartFields(NamedTuple):
    name: str
    page: Optional[int] = None  # None reads the last computed page
    residue: int = 0
    modulus: int = 1
    stems: Tuple[int, int] = (0, 24)
    f_cap: int = 12
    differentials: bool = True
    hidden: bool = False
    products: bool = True


class ChartSpec(_ChartFields):
    """What to draw: object, page, coweight class, ranges, decorations."""

    __slots__ = ()

    def __new__(cls, *args, **kw) -> "ChartSpec":
        spec = super().__new__(cls, *args, **kw)
        m = spec.modulus
        if m < 1 or (m & (m - 1)) != 0:
            raise ChartError("modulus must be 1 or a power of 2, got %d" % m)
        if not (0 <= spec.residue < m):
            raise ChartError(
                "residue %d out of range for modulus %d" % (spec.residue, m)
            )
        if spec.stems[0] > spec.stems[1] or spec.f_cap < 0:
            raise ChartError("empty chart range")
        return spec


class ChartDatum(NamedTuple):
    """One glyph: a summand family at a chart position, with its lines.

    Line tokens: "h1", "rho", "d3", "hidden-h@4", each optionally
    suffixed "-dashed" (value is a tau-power multiple) or "-arrow" (the
    product continues past the chart edge), plus the bare marker "tau"
    when the family recurs under the chart period.  Hidden tokens carry
    the target filtration after "@" since that jump varies by row.
    """

    s: int
    f: int
    glyph: str  # circle | box | box:n
    color: str  # black | green | red
    label: str
    lines: Tuple[str, ...] = ()


def _is_c_motivic(ss: SliceSS) -> bool:
    tail = ss.pres.generators[_tail_index(ss)]
    return tail.degree.w == -1


def _tail_index(ss: SliceSS) -> int:
    if ss.pres.tail is None:
        raise ChartError("object %s has no weight-periodicity generator" % ss.obj.name)
    return ss.pres.tail


def _period(ss: SliceSS, spec: ChartSpec) -> int:
    """Weight step of the chart's tau-power, in weight units."""
    base = 1 if _is_c_motivic(ss) else 4
    p = base
    while p % spec.modulus:
        p += base
    return p


def _tau_step(ss: SliceSS, p: int) -> Element:
    ti = _tail_index(ss)
    unit = -ss.pres.generators[ti].degree.w
    if p % unit:
        raise ChartError("period %d is not a tau-power here" % p)
    return {((ti, p // unit),): 1}


def _tau_divisible(ss: SliceSS, e: Element) -> bool:
    """Every term is a multiple of the weight-periodicity generator."""
    ti = _tail_index(ss)
    return bool(e) and all(any(g == ti for g, _x in m) for m in e)


class _Member:
    __slots__ = ("w", "i", "order", "part", "lift", "shifted", "parent", "child")

    def __init__(self, w, i, order, part, lift):
        self.w = w
        self.i = i
        self.order = order
        self.part = part
        self.lift = lift
        self.shifted = None  # the lift times the chart's tau-power
        self.parent = None
        self.child = None


def _glyph_of(order: int) -> str:
    if order == 0:
        return "box"
    if order == 2:
        return "circle"
    n = 0
    o = order
    while o > 1:
        o //= 2
        n += 1
    return "box:%d" % n


def _project(ss: SliceSS, r: int, e: Element, d: TriDegree):
    """Page r coordinates of a page 1 element, or None when unknowable.

    Returns (group, coords); coords is None when the element does not
    survive to page r, and (None, None) when the degree itself is not
    certified, which near the window edge just means "cannot say".
    """
    try:
        G = ss.group(r, d)
    except NotCertifiedError:
        return None, None
    if not e:
        return G, [0] * len(G.orders)
    try:
        return G, G.project_element(ss.pres, e)
    except LinearAlgebraError:
        return G, None


def chart_data(ss: SliceSS, spec: ChartSpec) -> List[ChartDatum]:
    """One datum per summand family of the residue class, stably ordered."""
    ss.run()
    pres = ss.pres
    r = spec.page if spec.page is not None else ss.r_max
    p = _period(ss, spec)
    tau = _tau_step(ss, p)

    # gather the members of every chart position, weights descending:
    # groups() runs by ascending weight within each (s, f), so prepend
    cols: Dict[Tuple[int, int], List[_Member]] = {}
    for d, G in ss.groups(r):
        if (spec.stems[0] <= d.s <= spec.stems[1] and 0 <= d.f <= spec.f_cap
                and (d.s - d.w) % spec.modulus == spec.residue):
            members = [_Member(d.w, i, o, G.parts[i], G.lift(i)) for i, o in enumerate(G.orders)]
            cols[(d.s, d.f)] = members + cols.get((d.s, d.f), [])

    # link tau-translates: parent at w, child at w - p, same label pattern
    for members in cols.values():
        by_w: Dict[int, List[_Member]] = {}
        for m in members:
            by_w.setdefault(m.w, []).append(m)
        for m in members:
            m.shifted = pres.multiply(m.lift, tau)
            for m2 in by_w.get(m.w - p, ()):
                if m2.parent is None and m2.order == m.order and m2.lift == m.shifted:
                    m.child = m2
                    m2.parent = m
                    break

    hidden_rows = _hidden_by_source(ss, spec, r)

    out: List[ChartDatum] = []
    for (s, f) in sorted(cols):
        for m in cols[(s, f)]:
            if m.parent is not None:
                continue
            tokens: List[str] = []
            end = m
            while end.child is not None:
                end = end.child
            if end is not m:
                tokens.append("tau")
            color = "green" if m.part == "image" else "black"
            if _family_stops(ss, r, s, f, end, p):
                color = "red"
            if spec.products:
                tokens += _product_tokens(ss, spec, r, s, f, m, cols)
            if spec.differentials and spec.page is not None:
                tokens += _differential_tokens(ss, r, s, f, m)
            for row_kind, row_tf, row_dashed in hidden_rows.get(
                (TriDegree(s, f, m.w), m.i), ()
            ):
                t = "hidden-%s" % row_kind
                if row_dashed:
                    t += "-dashed"
                tokens.append("%s@%d" % (t, row_tf))
            out.append(
                ChartDatum(
                    s=s,
                    f=f,
                    glyph=_glyph_of(m.order),
                    color=color,
                    label=pres.render(m.lift),
                    lines=tuple(sorted(tokens)),
                )
            )
    return out


def _family_stops(ss, r, s, f, end, p) -> bool:
    """True when the translate below the last member, ``end.shifted``,
    provably vanishes."""
    d = TriDegree(s, f, end.w - p)
    if not (ss.window.w[0] <= d.w <= ss.window.w[1]):
        return False
    try:
        G = ss.group(r, d)
    except NotCertifiedError:
        return False
    return not any(
        G.orders[i] == end.order and G.lift(i) == end.shifted for i in range(len(G.orders))
    )


def _product_tokens(ss, spec, r, s, f, m, cols) -> List[str]:
    pres = ss.pres
    tokens: List[str] = []
    for kind, ds, dw in (("h1", 1, 1), ("rho", -1, -1)):
        try:
            gi = pres.gen(kind)
        except EffssError:
            continue
        value = pres.multiply(m.lift, {((gi, 1),): 1})
        td = TriDegree(s + ds, f + 1, m.w + dw)
        _G, coords = _project(ss, r, value, td)
        if not coords or not any(coords):
            continue
        tok = kind
        if kind == "rho" and _tau_divisible(ss, value):
            tok += "-dashed"
        if not (spec.stems[0] <= td.s <= spec.stems[1] and td.f <= spec.f_cap):
            tok += "-arrow"
        tokens.append(tok)
    return tokens


def _differential_tokens(ss, r, s, f, m) -> List[str]:
    d = TriDegree(s, f, m.w)
    if not ss.differential_known(r, d):
        return []
    value = ss.differential_value(r, d, m.i)
    if not value:
        return []
    tok = "d%d" % r
    if _tau_divisible(ss, value):
        tok += "-dashed"
    return [tok]


def _hidden_by_source(ss, spec, r):
    """Map (source degree, summand) -> hidden line descriptors."""
    if not spec.hidden or (spec.page is not None and spec.page < ss.r_max):
        return {}
    out: Dict[Tuple[TriDegree, int], List[Tuple[str, int, bool]]] = {}
    for (kind, d, i, _c), row in expand_ledger(ss).items():
        tf = ss.pres.degree_of_element(row.target).f
        out.setdefault((d, i), []).append(
            (kind, tf, _tau_divisible(ss, row.target))
        )
    return out


# ---------------------------------------------------------------------------
# sidecar text: one datum per line, tab separated
# ---------------------------------------------------------------------------


def render_chart_text(data: Sequence[ChartDatum]) -> str:
    lines = []
    for d in data:
        lines.append(
            "\t".join(
                [
                    str(d.s),
                    str(d.f),
                    d.glyph,
                    d.color,
                    d.label,
                    ",".join(d.lines) if d.lines else "-",
                ]
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_chart_text(text: str) -> List[ChartDatum]:
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        s, f, glyph, color, label, lines = line.split("\t")
        out.append(
            ChartDatum(
                s=int(s),
                f=int(f),
                glyph=glyph,
                color=color,
                label=label,
                lines=() if lines == "-" else tuple(lines.split(",")),
            )
        )
    return out


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def _xy(spec: ChartSpec, s: int, f: float) -> Tuple[int, float]:
    pitch, margin = CONFIG["pitch"], CONFIG["margin"]
    x = margin + (s - spec.stems[0]) * pitch
    y = margin + (spec.f_cap - f) * pitch
    return x, y


def _line_target(tok: str, s: int, f: int) -> Tuple[str, bool, bool, int, int]:
    """Split a token into (kind, dashed, arrow, target s, target f)."""
    arrow = tok.endswith("-arrow")
    if arrow:
        tok = tok[: -len("-arrow")]
    at = None
    if "@" in tok:
        tok, at_s = tok.split("@")
        at = int(at_s)
    dashed = tok.endswith("-dashed")
    if dashed:
        tok = tok[: -len("-dashed")]
    if tok == "h1":
        return tok, dashed, arrow, s + 1, f + 1
    if tok == "rho":
        return tok, dashed, arrow, s - 1, f + 1
    if tok.startswith("d"):
        r = int(tok[1:])
        return tok, dashed, arrow, s - 1, f + 2 * r - 1
    if tok.startswith("hidden-"):
        kind = tok[len("hidden-") :]
        ds = {"h": 0, "rho": -1, "eta": 1}[kind]
        return tok, dashed, arrow, s + ds, at if at is not None else f + 2
    raise ChartError("unknown line token %r" % tok)


def _spread(data: Sequence[ChartDatum], spec: ChartSpec) -> List[Tuple[float, float]]:
    """Anchor point for each datum, nudging glyphs that share a bidegree apart."""
    cells: Dict[Tuple[int, int], List[int]] = {}
    for i, d in enumerate(data):
        cells.setdefault((d.s, d.f), []).append(i)
    out: List[Tuple[float, float]] = [(0.0, 0.0)] * len(data)
    for (s, f), members in cells.items():
        x, y = _xy(spec, s, f)
        for j, i in enumerate(members):
            out[i] = (x + (j - (len(members) - 1) / 2.0) * 9, y)
    return out


def emit_svg(data: Sequence[ChartDatum], spec: ChartSpec) -> str:
    """Deterministic standalone SVG 1.1 document for one chart."""
    pitch, margin = CONFIG["pitch"], CONFIG["margin"]
    width = 2 * margin + (spec.stems[1] - spec.stems[0]) * pitch
    height = 2 * margin + spec.f_cap * pitch
    parts: List[str] = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%d" height="%d" viewBox="0 0 %d %d">' % (width, height, width, height)
    )
    parts.append(
        "<defs><marker id=\"arr\" markerWidth=\"7\" markerHeight=\"7\" "
        'refX="5" refY="3" orient="auto"><path d="M0,0 L6,3 L0,6 z" '
        'fill="%s"/></marker></defs>' % CONFIG["line_color"]
    )
    title = "%s page %s" % (spec.name, spec.page if spec.page is not None else "inf")
    if spec.modulus > 1:
        title += ", coweight %d mod %d" % (spec.residue, spec.modulus)
    parts.append(
        '<text x="%d" y="%d" style="font:%s">%s</text>'
        % (margin, margin // 2, CONFIG["font"], title)
    )

    # grid and tick labels
    grid: List[str] = ['<g stroke="#dddddd" stroke-width="1">']
    for s in range(spec.stems[0], spec.stems[1] + 1):
        x, _ = _xy(spec, s, 0)
        grid.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d"/>'
            % (x, margin, x, height - margin)
        )
    for f in range(0, spec.f_cap + 1):
        _, y = _xy(spec, spec.stems[0], f)
        grid.append(
            '<line x1="%d" y1="%g" x2="%d" y2="%g"/>'
            % (margin, y, width - margin, y)
        )
    grid.append("</g>")
    parts.extend(grid)
    for s in range(spec.stems[0], spec.stems[1] + 1):
        if s % CONFIG["tick_every"] == 0:
            x, _ = _xy(spec, s, 0)
            parts.append(
                '<text x="%d" y="%d" text-anchor="middle" style="font:%s">%d</text>'
                % (x, height - margin + 16, CONFIG["font"], s)
            )
    for f in range(0, spec.f_cap + 1):
        if f % CONFIG["tick_every"] == 0:
            _, y = _xy(spec, spec.stems[0], f)
            parts.append(
                '<text x="%d" y="%g" text-anchor="end" style="font:%s">%d</text>'
                % (margin - 10, y + 4, CONFIG["font"], f)
            )

    # lines first so glyphs draw over them
    anchors = _spread(data, spec)
    for d, (x0, y0) in zip(data, anchors):
        for tok in d.lines:
            if tok == "tau":
                parts.append(
                    '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#999999" '
                    'stroke-width="1" marker-end="url(#arr)"/>'
                    % (x0 + 7, y0 - 7, x0 + 14, y0 - 14)
                )
                continue
            kind, dashed, arrow, ts, tf = _line_target(tok, d.s, d.f)
            x1, y1 = _xy(spec, ts, tf)
            if kind.startswith("d"):
                color = CONFIG["d_color"]
            elif kind.startswith("hidden-"):
                color = CONFIG["hidden_color"]
            else:
                color = CONFIG["line_color"]
            attrs = 'stroke="%s" stroke-width="1.2"' % color
            if dashed:
                attrs += ' stroke-dasharray="%s"' % CONFIG["dash"]
            if arrow:
                attrs += ' marker-end="url(#arr)"'
            parts.append(
                '<line x1="%g" y1="%g" x2="%d" y2="%g" %s/>' % (x0, y0, x1, y1, attrs)
            )

    for d, (x, y) in zip(data, anchors):
        color = CONFIG["colors"][d.color]
        if d.glyph == "circle":
            parts.append(
                '<circle cx="%g" cy="%g" r="%d" fill="%s"><title>%s</title></circle>'
                % (x, y, CONFIG["radius"], color, _esc(d.label))
            )
        else:
            b = CONFIG["box"]
            parts.append(
                '<rect x="%g" y="%g" width="%d" height="%d" fill="none" '
                'stroke="%s" stroke-width="1.2"><title>%s</title></rect>'
                % (x - b / 2, y - b / 2, b, b, color, _esc(d.label))
            )
            if d.glyph.startswith("box:"):
                parts.append(
                    '<text x="%g" y="%g" text-anchor="middle" fill="%s" '
                    'style="font:%s">%s</text>'
                    % (x, y + 3.5, color, CONFIG["font"], d.glyph[4:])
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
