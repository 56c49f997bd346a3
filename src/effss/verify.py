"""The acceptance suite: twelve checks, each against an independent oracle.

Every check recomputes something the engine claims from a source that
does not share code with the engine path being tested: closed-form
monomial enumeration for first pages, big-integer brute force for
valuations and orders, frozen golden files for charts, and the shipped
extension ledgers for the assembled groups.  Checks that cover a stated
runtime budget fail when they blow it, not just when values differ.

Run the whole suite with ``effss verify`` or a single named check with
``effss verify --suite valuation``.  Heavy runs (the wide real-motivic
fiber window among them) are built once per process and shared between
checks.  The long thin complex window is run one carrier weight at a time.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional, Tuple

from .assemble import expand_ledger, load_ledger, order_pattern_check
from .charts import ChartSpec, chart_data, render_chart_text
from .engine import NotCertifiedError, SliceSS, Window, derive
from .eta import compare as eta_compare
from .eta import eta_schedule, parse_eta
from .fiber import splitting_report, val_3_pow_minus_1
from .grading import TriDegree
from .intlinalg import two_adic_valuation
from .objects import get_object


class CheckFailure(Exception):
    """A criterion did not hold; the message says which value moved."""


_CACHE: Dict[str, SliceSS] = {}


def _run(name: str, window: Optional[Window], **kw) -> SliceSS:
    key = "%s:%s:%s" % (name, window, sorted(kw.items()))
    if key not in _CACHE:
        _CACHE[key] = SliceSS(get_object(name, window=window), window, **kw).run()
    return _CACHE[key]


def _ko_C_run() -> SliceSS:
    return _run("ko_C", Window((-2, 26), (0, 14), (-4, 20)))


def _ko_run() -> SliceSS:
    return _run("ko", Window((-4, 42), (0, 14), (-12, 24)))


def _L_chart_run() -> SliceSS:
    return _run("L", Window((-2, 26), (0, 14), (-10, 24)))


def _order_in(G, coords) -> int:
    """Additive order of an element given its coordinates in G."""
    t = 1
    for o, c in zip(G.orders, coords):
        c = c % o if o else c
        if c == 0:
            continue
        if o == 0:
            return 0
        step = o // math.gcd(c, o)
        t = t * step // math.gcd(t, step)
    return t


def _budget(elapsed: float, limit: float):
    if elapsed > limit:
        raise CheckFailure("over the %.0fs budget: took %.1fs" % (limit, elapsed))


# ---------------------------------------------------------------------------
# 1. the valuation backbone
# ---------------------------------------------------------------------------


def check_valuation() -> str:
    t0 = time.monotonic()
    n_max = 1 << 16
    pow3 = 1
    worst = 0
    for n in range(1, n_max + 1):
        pow3 *= 3
        x = pow3 - 1
        brute = (x & -x).bit_length() - 1
        if val_3_pow_minus_1(n) != brute:
            raise CheckFailure("valuation of 3^%d - 1: closed form %d, brute %d"
                               % (n, val_3_pow_minus_1(n), brute))
        worst = max(worst, brute)
    elapsed = time.monotonic() - t0
    _budget(elapsed, 10.0)
    return "%d values, max valuation %d" % (n_max, worst)


# ---------------------------------------------------------------------------
# 2. first pages against closed-form enumeration
# ---------------------------------------------------------------------------

_BOX = ((-4, 40), (0, 20), (-20, 24))


def _oracle_ko_C() -> Dict[TriDegree, List[Tuple[Tuple[int, ...], int]]]:
    """All monomials tau^a h1^b v2^c in the box; 2-torsion iff b > 0."""
    (s0, s1), (f0, f1), (w0, w1) = _BOX
    out: Dict[TriDegree, List[Tuple[Tuple[int, ...], int]]] = {}
    for b in range(f0, f1 + 1):
        for c in range((s1 - b) // 4 + 1):
            s = b + 4 * c
            if not s0 <= s <= s1:
                continue
            for a in range(b + 2 * c - w1, b + 2 * c - w0 + 1):
                if a < 0:
                    continue
                w = b + 2 * c - a
                d = TriDegree(s, b, w)
                out.setdefault(d, []).append(((a, b, c), 2 if b else 0))
    return out


def _oracle_ko() -> Dict[TriDegree, List[Tuple[Tuple[int, ...], int]]]:
    """Monomials rho^m tau2^a h1^b th1^e v2^c, e <= 1; torsion on rho/h1/th1."""
    (s0, s1), (f0, f1), (w0, w1) = _BOX
    out: Dict[TriDegree, List[Tuple[Tuple[int, ...], int]]] = {}
    for m in range(f1 + 1):
        for b in range(f1 - m + 1):
            for e in (0, 1):
                f = m + b + e
                if not f0 <= f <= f1:
                    continue
                for c in range((s1 + m) // 4 + 1):
                    s = -m + b + e + 4 * c
                    if not s0 <= s <= s1:
                        continue
                    base_w = -m + b + 2 * c
                    for a in range((base_w - w0) // 2 + 1):
                        w = base_w - 2 * a
                        if not w0 <= w <= w1:
                            continue
                        d = TriDegree(s, f, w)
                        o = 2 if (m or b or e) else 0
                        out.setdefault(d, []).append(((m, a, b, e, c), o))
    return out


def _exps(pres, mono, names) -> Tuple[int, ...]:
    got = {pres.gen_name(g): x for g, x in mono}
    if set(got) - set(names):
        raise CheckFailure("unexpected generator in %s" % (got,))
    return tuple(got.get(n, 0) for n in names)


def check_e1_basis() -> str:
    t0 = time.monotonic()
    total = 0
    for name, names, oracle in (
        ("ko_C", ("tau", "h1", "v2"), _oracle_ko_C()),
        ("ko", ("rho", "tau2", "h1", "th1", "v2"), _oracle_ko()),
    ):
        pres = get_object(name).pres
        got = pres.basis_window(*_BOX)
        if set(got) != set(oracle):
            diff = set(got) ^ set(oracle)
            raise CheckFailure("%s: degree support differs at %s"
                               % (name, sorted(diff)[:3]))
        for d, monos in got.monomials.items():
            ours = sorted((_exps(pres, m, names), o) for m, o in zip(monos, got[d][0]))
            if ours != sorted(oracle[d]):
                raise CheckFailure("%s: basis at %s is %s, oracle says %s"
                                   % (name, d, ours, sorted(oracle[d])))
            total += len(monos)
    elapsed = time.monotonic() - t0
    _budget(elapsed, 5.0)
    return "%d monomials across both first pages" % total


# ---------------------------------------------------------------------------
# 3. the Leibniz spot identity
# ---------------------------------------------------------------------------


def check_leibniz() -> str:
    obj = get_object("ko")
    pres = obj.pres
    m = pres.monomial({"tau2": 1, "th1": 1, "v2": 1})
    got = derive(pres, m, obj.schedule[1])
    want = pres.parse("tau2^2*h1^4 + rho^4*v2^2")
    if got != want:
        raise CheckFailure("d1 of tau2*th1*v2 is %s" % pres.render(got))
    # and d1 of that value vanishes, the d^2 = 0 half of the identity
    back = {}
    for mono, coeff in got.items():
        val = derive(pres, mono, obj.schedule[1])
        for m2, c2 in val.items():
            back[m2] = back.get(m2, 0) + coeff * c2
    back = pres.reduce(back)
    if back:
        raise CheckFailure("d1 applied twice leaves %s" % pres.render(back))
    return "d1(tau2*th1*v2) = tau2^2*h1^4 + rho^4*v2^2 and d1 of it vanishes"


# ---------------------------------------------------------------------------
# 4. the complex-motivic infinity page, groups and labels
# ---------------------------------------------------------------------------


def _expected_ko_C_infty(d: TriDegree) -> List[Tuple[int, str]]:
    """Closed-form summands (order, label) at one degree, stems <= 24."""
    out: List[Tuple[int, str]] = []
    b = d.f
    if (d.s - b) % 4 == 0:
        c = (d.s - b) // 4
        a = b + 2 * c - d.w
        if c >= 0 and a >= 0 and c % 2 == 0 and (b <= 2 or a == 0):
            parts = []
            if a:
                parts.append("tau" if a == 1 else "tau^%d" % a)
            if b:
                parts.append("h1" if b == 1 else "h1^%d" % b)
            if c:
                parts.append("v2" if c == 1 else "v2^%d" % c)
            out.append((2 if b else 0, "*".join(parts) or "1"))
        if c >= 0 and c % 2 == 1 and b == 0 and a >= 0:
            parts = ["2"]
            if a:
                parts.append("tau" if a == 1 else "tau^%d" % a)
            parts.append("v2" if c == 1 else "v2^%d" % c)
            out.append((0, "*".join(parts)))
    return out


def check_ko_C_einfty() -> str:
    ss = _ko_C_run()
    compared = 0
    for d in ss.window.degrees():
        if d.s > 24:
            continue
        try:
            G = ss.infinity(d)
        except NotCertifiedError:
            continue
        got = [(o, ss.pres.render(G.lift(i))) for i, o in enumerate(G.orders)]
        want = _expected_ko_C_infty(d)
        if sorted(got) != sorted(want):
            raise CheckFailure("at %s engine has %s, closed form %s"
                               % (d, got, want))
        compared += 1
    if compared < 2000:
        raise CheckFailure("only %d degrees certified" % compared)
    return "%d degrees, orders and generator labels" % compared


# ---------------------------------------------------------------------------
# 5. the real-motivic infinity page collapses at page 2
# ---------------------------------------------------------------------------


def check_ko_einfty() -> str:
    ss = _ko_run()
    pres = ss.pres
    compared = 0
    vanishing = 0
    for d in ss.window.degrees():
        if d.s > 40:
            continue
        try:
            G2 = ss.group(2, d)
            Gi = ss.infinity(d)
        except NotCertifiedError:
            continue
        if G2.orders != Gi.orders:
            raise CheckFailure("page 2 and infinity differ at %s: %s vs %s"
                               % (d, G2.orders, Gi.orders))
        compared += 1
        if d.coweight % 4 == 3:
            if Gi.orders:
                raise CheckFailure("nonzero group %s in coweight %d at %s"
                                   % (Gi.orders, d.coweight, d))
            vanishing += 1
    d = TriDegree(4, 4, 0)
    G = ss.group(2, d)
    lhs = G.project_element(pres, pres.parse("tau2^2*h1^4"))
    rhs = G.project_element(pres, pres.parse("rho^4*v2^2"))
    if lhs != rhs or not any(lhs):
        raise CheckFailure("tau2^2*h1^4 and rho^4*v2^2 do not agree on page 2: "
                           "%s vs %s" % (lhs, rhs))
    if compared < 3000:
        raise CheckFailure("only %d degrees certified" % compared)
    return ("%d degrees stable from page 2, %d vanishing coweight-3 spots, "
            "relation class checked" % (compared, vanishing))


# ---------------------------------------------------------------------------
# 6. the fiber first page splits with the right orders
# ---------------------------------------------------------------------------


def check_les_orders() -> str:
    t0 = time.monotonic()
    obj = get_object("L")
    report = splitting_report(obj)
    pres = obj.pres
    carriers = 0
    for g in pres.generators:
        if g.name.startswith("iv") and g.name != "iv0":
            k2 = int(g.name[2:])  # the v-power the carrier absorbs
            want = 1 << (two_adic_valuation(k2) + 2)
            got = pres.order_of(pres.monomial({g.name: 1}))
            if got != want:
                raise CheckFailure("%s has order %d, formula gives %d"
                                   % (g.name, got, want))
            carriers += 1
    elapsed = time.monotonic() - t0
    _budget(elapsed, 30.0)
    return ("%(kernelClasses)d kernel + %(imageClasses)d image classes, "
            "%(snfDegrees)d matrix spot checks" % report
            + ", %d carrier orders" % carriers)


# ---------------------------------------------------------------------------
# 7. the fiber d1 table and the higher pattern pass
# ---------------------------------------------------------------------------


def _expected_L_d1(pres, name: str) -> str:
    if name in ("rho", "h1", "th1", "iv0"):
        return "0"
    if name == "tau2":
        return "rho^2*th1"
    for prefix in ("thv", "iv", "rv", "hv"):
        if name.startswith(prefix):
            n = int(name[len(prefix):])
            break
    else:
        raise CheckFailure("unexpected generator %s" % name)
    if n % 4 == 0:
        return "0"
    prev = n - 2
    th = "th1" if prev == 0 else "thv%d" % prev
    hv = "h1" if prev == 0 else "hv%d" % prev
    if prefix == "iv":
        return "h1^2*th1*iv%d" % prev
    if prefix == "rv":
        return "rho*h1^2*%s" % th
    if prefix == "hv":
        return "h1^3*%s" % th
    return "tau2*h1^3*%s + rho^2*h1*%s" % (hv, name.replace("thv", "hv"))


def check_L_d1_pattern() -> str:
    ss = _run("L", None)
    pres = ss.pres
    rows = 0
    for g in pres.generators:
        want = pres.parse(_expected_L_d1(pres, g.name))
        got = ss.obj.schedule[1].get(pres.gen(g.name), {})
        if pres.reduce(got) != pres.reduce(want):
            raise CheckFailure("d1 of %s is %s, table says %s"
                               % (g.name, pres.render(got), pres.render(want)))
        rows += 1
    # one Leibniz extension worked by hand: the product rule on tau2*iv2
    m = pres.monomial({"tau2": 1, "iv2": 1})
    byhand = pres.reduce({
        k: v for part in (
            pres.multiply(pres.parse("rho^2*th1"), pres.parse("iv2")),
            pres.multiply(pres.parse("tau2"), pres.parse("h1^2*th1*iv0")),
        ) for k, v in part.items()
    })
    if derive(pres, m, ss.obj.schedule[1]) != byhand:
        raise CheckFailure("Leibniz extension differs on tau2*iv2")
    fired: Dict[int, int] = {}
    by_cw: Dict[int, int] = {}
    for r in range(2, ss.r_max):
        for d in ss.diffs.get(r, {}):
            if two_adic_valuation(d.coweight) != r - 1:
                raise CheckFailure("pattern fired off-schedule at %s on page %d"
                                   % (d, r))
            fired[r] = fired.get(r, 0) + 1
            by_cw[d.coweight % 4] = by_cw.get(d.coweight % 4, 0) + 1
    if not fired:
        raise CheckFailure("no higher pattern differential fired at all")
    return ("%d generator rows, Leibniz spot check, pattern fired %s "
            "(by coweight mod 4: %s), zero ambiguity"
            % (rows, dict(sorted(fired.items())), dict(sorted(by_cw.items()))))


# ---------------------------------------------------------------------------
# 8. assembled orders down the odd coweights
# ---------------------------------------------------------------------------


def check_coweight_orders() -> str:
    ss = _run("L", None)

    # Nothing moves after page 2 away from coweight 0 mod 4: pages 2 and
    # r_max must agree summand for summand in coweights 1, 2 mod 4.
    stable = 0
    for d in ss.certified_user_degrees(2):
        if d.coweight % 4 not in (1, 2) or d.s > 48:
            continue
        if not ss.certified(d, ss.r_max):
            continue
        early = sorted(ss.group(2, d).orders)
        late = sorted(ss.group(ss.r_max, d).orders)
        if early != late:
            raise CheckFailure("page 2 group at %s is %s but E-infinity is %s"
                               % (d, early, late))
        stable += 1
    if stable < 20000:
        raise CheckFailure("only %d degrees compared for page-2 stability" % stable)

    ledger = expand_ledger(ss)
    details = ["E2=Einf at %d degrees" % stable]
    for j in (1, 2, 3, 4, 6, 8):
        want = 1 << (two_adic_valuation(j) + 3)
        rep = order_pattern_check(ss, j, ledger=ledger)
        if rep["expected_generic_order"] != want:
            raise CheckFailure("coweight %d: expected order %d, check used %d"
                               % (4 * j - 1, want, rep["expected_generic_order"]))
        if not rep["ok"]:
            bad = [e for e in rep["generic"] if not e["ok"]]
            raise CheckFailure("coweight %d: generic stems off pattern: %s"
                               % (4 * j - 1, bad[:3]))
        if len(rep["generic"]) < 3:
            raise CheckFailure("coweight %d: only %d generic stems in window"
                               % (4 * j - 1, len(rep["generic"])))
        details.append("%d:%d generic Z/%d" % (4 * j - 1, len(rep["generic"]), want))
    return "; ".join(details)


# ---------------------------------------------------------------------------
# 9. the eta-local comparison
# ---------------------------------------------------------------------------


def check_eta_compare() -> str:
    ss = _run("L", None)
    rep = eta_compare(ss, pages=6)
    if rep["mismatches"]:
        raise CheckFailure("first mismatch: %s" % rep["mismatches"][0])
    if rep["checked"] < 10000:
        raise CheckFailure("only %d summands compared" % rep["checked"])
    sched = eta_schedule("L_eta", r_max=9)
    for r in range(3, 10):
        k = 1 << (r - 2)
        want = {(0, 0, k, 0): parse_eta("rho^%d*v2^%d*iota" % (r, k))}
        if sched.get(r) != want:
            raise CheckFailure("eta-local d%d table is %s" % (r, sched.get(r)))
    return ("%d summands on pages <= 6 commute with localization; "
            "the rho-family rows hold through page 9" % rep["checked"])


# ---------------------------------------------------------------------------
# 10. the hidden-extension ledgers
# ---------------------------------------------------------------------------


def check_hidden_ledger() -> str:
    counts = {}
    ss_ko = _ko_run()
    ss_L = _run("L", None)
    ss_LC = _run("L_C", Window((-2, 12), (0, 14), (-8, 10)))
    for name, ss in (("ko", ss_ko), ("L", ss_L), ("L_C", ss_LC)):
        _col, rows = load_ledger(name, ss.pres)
        expanded = expand_ledger(ss, rows)
        counts[name] = (len(rows), len(expanded))
    if counts["ko"][0] != 6 or counts["L"][0] != 13 or counts["L_C"][0] != 1:
        raise CheckFailure("base row counts moved: %s" % counts)
    _col, rows = load_ledger("L", ss_L.pres)
    specials = [r for r in rows if r.special]
    if sorted(r.special for r in specials) != ["half-carrier-order",
                                               "highest-filtration"]:
        raise CheckFailure("exceptional specials are %s"
                           % [r.special for r in specials])
    frozen_eta = [r for r in rows if r.kind == "eta" and not r.v14]
    if len(frozen_eta) != 1:
        raise CheckFailure("expected one non-v-periodic eta row, found %d"
                           % len(frozen_eta))
    base_s = frozen_eta[0].degree.s
    stuck = [r for r in expand_ledger(ss_L, frozen_eta).values() if r.degree.s != base_s]
    if stuck:
        raise CheckFailure("the non-v-periodic eta row moved in stems: %s"
                           % stuck[:2])
    return ("rows ko/L/L_C = %d/%d/%d expanding to %d/%d/%d certified "
            "endpoints; both exceptional specials and the pinned eta row hold"
            % (counts["ko"][0], counts["L"][0], counts["L_C"][0],
               counts["ko"][1], counts["L"][1], counts["L_C"][1]))


# ---------------------------------------------------------------------------
# 11. image-of-J orders down the long thin window
# ---------------------------------------------------------------------------


def check_iota_orders() -> str:
    window = Window((-2, 514), (0, 2), (-4, 260))
    obj = get_object("L_C", window=window)
    pres = obj.pres
    for k in range(1, 65):
        m = pres.monomial({"iv%d" % (4 * k): 1})
        d = pres.degree_of(m)
        # every differential keeps the weight, so the run on the carrier's
        # weight alone is the run on the whole window there
        ss = SliceSS(obj, Window(window.s, window.f, (d.w, d.w)), f_margin=4)
        G = ss.infinity(d)
        got = _order_in(G, G.project_element(pres, {m: 1}))
        n = 9 ** (2 * k) - 1
        want = 1 << ((n & -n).bit_length() - 1)
        if got != want:
            raise CheckFailure("iv%d at stem %d: engine order %d, brute %d"
                               % (4 * k, 8 * k - 1, got, want))
    return "64 carrier orders match big-integer brute force through stem 511"


# ---------------------------------------------------------------------------
# 12. golden charts
# ---------------------------------------------------------------------------


def check_charts() -> str:
    jobs = (
        ("ko_C_einfty.tsv", _ko_C_run(),
         ChartSpec(name="ko_C", page=None, stems=(0, 24), f_cap=12,
                   differentials=False)),
        ("L_einfty_cw1mod4.tsv", _L_chart_run(),
         ChartSpec(name="L", page=None, residue=1, modulus=4, stems=(0, 24),
                   f_cap=12, differentials=False, hidden=True)),
        ("L_einfty_cw3mod8.tsv", _L_chart_run(),
         ChartSpec(name="L", page=None, residue=3, modulus=8, stems=(-2, 22),
                   f_cap=12, differentials=False, hidden=True)),
    )
    from importlib import resources

    rows = 0
    for fname, ss, spec in jobs:
        path = resources.files("effss.data").joinpath("golden").joinpath(fname)
        with path.open("r", encoding="utf-8") as fh:
            want = fh.read()
        got = render_chart_text(chart_data(ss, spec))
        if got != want:
            import difflib

            delta = list(difflib.unified_diff(want.splitlines(),
                                              got.splitlines(), lineterm=""))
            raise CheckFailure("%s drifted:\n%s" % (fname, "\n".join(delta[:12])))
        rows += len(got.splitlines())
    return "3 golden charts, %d rows, byte-exact" % rows


CHECKS: Dict[str, Callable[[], str]] = {
    "valuation": check_valuation,
    "e1-basis": check_e1_basis,
    "leibniz": check_leibniz,
    "ko-C-einfty": check_ko_C_einfty,
    "ko-einfty": check_ko_einfty,
    "les-orders": check_les_orders,
    "L-d1-pattern": check_L_d1_pattern,
    "coweight-orders": check_coweight_orders,
    "eta-compare": check_eta_compare,
    "hidden-ledger": check_hidden_ledger,
    "iota-orders": check_iota_orders,
    "charts": check_charts,
}


def run_check(name: str) -> Tuple[bool, str]:
    """Run one named check; (ok, one line of detail with the elapsed time)."""
    t0 = time.monotonic()
    try:
        detail = CHECKS[name]()
        return True, "%s [%.1fs]" % (detail, time.monotonic() - t0)
    except CheckFailure as e:
        return False, "%s [%.1fs]" % (e, time.monotonic() - t0)
    except Exception as e:  # a crash is a failure with a name, not a pass
        return False, "crashed: %r [%.1fs]" % (e, time.monotonic() - t0)
