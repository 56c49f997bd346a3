"""Command line front end.

Five subcommands cover the whole engine:

  compute            run the spectral sequence, print or save a page dump
  chart              write an SVG chart plus its tab-separated sidecar
  query              assemble one homotopy group, with actions and provenance
  verify             run the acceptance suite; nonzero exit on failure
  dump-presentation  print the normalized presentation of an object

Ranges are written ``lo..hi``; the page range also accepts ``inf`` for
the last computed page, as in ``--pages 1..inf``.  Files land in
--outdir when given, else in $EFFSS_OUTDIR, else in the working
directory.  Usage errors exit with status 2, failed verification or a
refused computation with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from .assemble import AssembleError, assemble, render_orders
from .charts import ChartError, ChartSpec, chart_data, emit_svg, render_chart_text
from .engine import EngineError, NotCertifiedError, SliceSS, Window
from .grading import EffssError
from .objects import TRI_GRADED, get_object, load_data, spec_to_dict


class UsageError(EffssError):
    """Bad flags or flag combinations; maps to exit status 2."""


def _parse_range(text: str, what: str, inf_ok: bool = False) -> Tuple[int, Optional[int]]:
    """Parse lo..hi (or a single n); refuse an empty range."""
    parts = text.split("..")
    try:
        if len(parts) == 1:
            if inf_ok and parts[0] == "inf":
                return 1, None
            n = int(parts[0])
            return n, n
        if len(parts) == 2:
            lo = int(parts[0])
            if inf_ok and parts[1] == "inf":
                return lo, None
            hi = int(parts[1])
            if lo > hi:
                raise UsageError("empty %s range %s" % (what, text))
            return lo, hi
    except ValueError:
        pass
    raise UsageError("bad %s range %r (expected lo..hi)" % (what, text))


def _outdir(args) -> str:
    out = args.outdir or os.environ.get("EFFSS_OUTDIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _window(args, s: Tuple[int, int], f: Tuple[int, int], w: Tuple[int, int]) -> Window:
    if args.stems:
        s = _parse_range(args.stems, "stem")  # type: ignore[assignment]
    if args.filtrations:
        f = _parse_range(args.filtrations, "filtration")  # type: ignore[assignment]
    if args.weights:
        w = _parse_range(args.weights, "weight")  # type: ignore[assignment]
    return Window(s=s, f=f, w=w)


def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stems", help="stem range lo..hi (use --stems=-2..8 when lo is negative)")
    p.add_argument("--filtrations", help="filtration range lo..hi")
    p.add_argument("--weights", help="weight range lo..hi (use --weights=-8..4 when lo is negative)")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_compute(args) -> int:
    lo, hi = _parse_range(args.pages, "page", inf_ok=True)
    if lo < 1:
        raise UsageError("pages start at 1")
    window = _window(args, (-2, 26), (0, 12), (-8, 16))
    ss = SliceSS(get_object(args.object, window=window), window)
    if lo > ss.r_max:
        raise UsageError("%s runs to page %d; the page range %s starts above it"
                         % (args.object, ss.r_max, args.pages))
    ss.run()
    hi_page = ss.r_max if hi is None else min(hi, ss.r_max)

    lines: List[str] = []
    lines.append("# object %s, window s %d..%d f %d..%d w %d..%d"
                 % (args.object, *window.s, *window.f, *window.w))
    pages: List[object] = list(range(lo, hi_page + 1))
    if hi is None:
        pages.append("inf")
    for r in pages:
        lines.append("page %s" % r)
        for d, G in ss.groups(ss.r_max if r == "inf" else r):
            lines.append("  (%d,%d,%d)  %s  %s"
                         % (d.s, d.f, d.w, render_orders(G.orders), ", ".join(ss.labels(G))))
    text = "\n".join(lines) + "\n"
    if args.out:
        path = os.path.join(_outdir(args), args.out)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_chart(args) -> int:
    page = None
    if args.page != "inf":
        try:
            page = int(args.page)
        except ValueError:
            raise UsageError("bad page %r (number or inf)" % args.page)
        if page < 1:
            raise UsageError("pages start at 1")
    chosen = _window(args, (0, 24), (0, 14), (-8, 20))
    spec = ChartSpec(
        name=args.name or args.object,
        page=page,
        residue=args.residue,
        modulus=args.modulus,
        stems=chosen.s,
        f_cap=args.f_cap,
        differentials=not args.no_differentials,
        hidden=args.hidden,
        products=not args.no_products,
    )
    # two stems of margin so edge glyphs get their product lines
    window = Window((chosen.s[0] - 2, chosen.s[1] + 2), chosen.f, chosen.w)
    ss = SliceSS(get_object(args.object, window=window), window)
    if page is not None and page > ss.r_max:
        raise UsageError("%s runs to page %d; page %d is above it" % (args.object, ss.r_max, page))
    ss.run()
    data = chart_data(ss, spec)
    out = _outdir(args)
    base = spec.name
    if spec.modulus > 1:
        base += "_c%dm%d" % (spec.residue, spec.modulus)
    svg_path = os.path.join(out, base + ".svg")
    tsv_path = os.path.join(out, base + ".tsv")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(emit_svg(data, spec))
    with open(tsv_path, "w", encoding="utf-8") as fh:
        fh.write(render_chart_text(data))
    print(svg_path)
    print(tsv_path)
    return 0


def _query_window(s: int, w: int) -> Window:
    # the column itself, one step of room for the three actions, and
    # enough headroom above in stem and weight for the letter carriers
    # and relation targets feeding the column
    hi_s = s + 14
    return Window(
        s=(min(-4, s - 4), hi_s),
        f=(0, 14),
        w=(min(-8, w - 6), max(w + 6, hi_s // 2 + 2)),
    )


def _cmd_query(args) -> int:
    try:
        load_data("hidden_" + args.object)
    except EffssError:
        raise AssembleError("%s ships no hidden-extension ledger, so query cannot "
                            "assemble its homotopy groups" % args.object) from None
    q = _query_window(args.stem, args.weight)
    window = _window(args, q.s, q.f, q.w)
    # Every differential and certification step keeps the weight, so a run
    # on the weights that assemble reads (w - 1..w + 1, through the eta and
    # rho actions) equals the run on the whole window there.  The band is
    # clipped to the window but keeps one of its weights, so that a column
    # outside the window is refused as not certified.
    lo, hi = window.w
    band = (min(max(args.weight - 1, lo), hi), max(min(args.weight + 1, hi), lo))
    obj = get_object(args.object, window=window)
    ss = SliceSS(obj, Window(window.s, window.f, band))
    ss.run()
    pi = assemble(ss, args.stem, args.weight)
    gens = ", ".join(g.label for g in pi.generators)
    if not pi.generators:
        print("0")
        return 0
    word = "generator" if len(pi.generators) == 1 else "generators"
    print("%s, %s %s" % (pi.render(), word, gens))
    for g in pi.generators:
        print("  %s: order %s, filtration %d, %s part"
              % (g.label, g.order or "infinite", g.degree.f, g.part))
    for kind in ("eta", "rho", "h"):
        for g, val in zip(pi.generators, pi.actions[kind]):
            print("  %s . %s = %s" % (kind, g.label, val))
    print("  provenance: %s" % pi.provenance)
    return 0


def _cmd_verify(args) -> int:
    from . import verify as V

    names = args.suite or list(V.CHECKS)
    for n in names:
        if n not in V.CHECKS:
            raise UsageError("unknown suite %r (have: %s)"
                             % (n, ", ".join(V.CHECKS)))
    failures = 0
    for n in names:
        ok, detail = V.run_check(n)
        print("%s %s: %s" % ("PASS" if ok else "FAIL", n, detail))
        if not ok:
            failures += 1
    return 1 if failures else 0


def _cmd_dump(args) -> int:
    window = None
    if args.stems or args.filtrations or args.weights:
        window = _window(args, (-2, 26), (0, 14), (-8, 20))
    obj = get_object(args.object, window=window)
    json.dump(spec_to_dict(obj), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse's default also exits 2; routed through UsageError so
        # cli() callers see one exception type
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="effss", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="run pages and dump groups")
    pc.add_argument("--object", required=True, choices=TRI_GRADED)
    pc.add_argument("--pages", default="1..inf", help="page range, e.g. 1..inf")
    _add_window_flags(pc)
    pc.add_argument("--out", help="write the dump to this file in the outdir")
    pc.add_argument("--outdir")
    pc.set_defaults(fn=_cmd_compute)

    ph = sub.add_parser("chart", help="write an SVG chart and sidecar text")
    ph.add_argument("--object", required=True, choices=TRI_GRADED)
    ph.add_argument("--name", help="basename for the output files")
    ph.add_argument("--page", default="inf", help="page number or inf")
    ph.add_argument("--residue", type=int, default=0)
    ph.add_argument("--modulus", type=int, default=1)
    ph.add_argument("--f-cap", type=int, default=12, dest="f_cap")
    ph.add_argument("--hidden", action="store_true",
                    help="draw hidden extension lines (final page only)")
    ph.add_argument("--no-differentials", action="store_true")
    ph.add_argument("--no-products", action="store_true")
    _add_window_flags(ph)
    ph.add_argument("--outdir")
    ph.set_defaults(fn=_cmd_chart)

    pq = sub.add_parser("query", help="assemble one homotopy group")
    pq.add_argument("--object", required=True, choices=TRI_GRADED)
    pq.add_argument("--stem", type=int, required=True)
    pq.add_argument("--weight", type=int, required=True)
    _add_window_flags(pq)
    pq.set_defaults(fn=_cmd_query)

    pv = sub.add_parser("verify", help="run the acceptance suite")
    pv.add_argument("--suite", action="append",
                    help="run one named suite (repeatable); default all")
    pv.set_defaults(fn=_cmd_verify)

    pd = sub.add_parser("dump-presentation",
                        help="print the normalized presentation")
    pd.add_argument("--object", required=True, choices=TRI_GRADED)
    _add_window_flags(pd)
    pd.set_defaults(fn=_cmd_dump)

    return top


def cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (UsageError, ChartError) as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 2
    except (AssembleError, NotCertifiedError) as e:
        print("refused: %s" % e, file=sys.stderr)
        return 1
    except (EngineError, EffssError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
