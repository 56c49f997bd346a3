"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/workload.py WORKLOAD [--trace] [--record] [--seed N]

Run from the repository root with ``src`` on ``PYTHONPATH`` (run.py does
both).  The last line of standard output is one JSON object: wall time,
set-up time, peak RSS, every job with its verdict, and, with --trace, the
per-layer spans and counts.  --record skips the comparison with the
recorded digests and reports the digests it saw instead; record.py uses
it to write expected.json.

Every job's output is checked.  Where an independent oracle exists it is
used (golden chart files, big-integer brute force for carrier orders, zero
mismatches in the eta comparison); every other output must hash to the
sha256 recorded in expected.json.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # wall_s starts before effss is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join("src", "effss", "data", "golden")

# `L` keeps its default f range, r_max and the middle of its weight range,
# with stems cut from -4..48 to -4..8 so one repetition takes seconds.
L_WINDOW = ((-4, 8), (0, 20), (-8, 16))
# `L_C` on the iota-orders shape (f 0..2, weights up to half the stem,
# f_margin 4), cut from 64 carriers (stems -2..514) to 24.
LC_CARRIERS = 24
LC_WINDOW = ((-2, 8 * LC_CARRIERS + 2), (0, 2), (-4, 4 * LC_CARRIERS + 4))
ORDER_CHECK_J = (1, 2, 3, 4, 6, 8)

# cli-mix: README commands on small windows over all four objects.  The L
# chart is the golden cw1mod4 chart cut to stems 0..4; its rows below the
# edge stem must equal the golden rows.
CLI_JOBS = (
    ("compute_ko_C", ["compute", "--object", "ko_C", "--pages", "1..inf", "--stems", "0..24"]),
    ("compute_ko", ["compute", "--object", "ko", "--pages", "1..inf", "--stems", "0..12"]),
    ("compute_L_C", ["compute", "--object", "L_C", "--pages", "1..inf", "--stems", "0..16"]),
    ("compute_L", ["compute", "--object", "L", "--pages", "1..inf", "--stems", "0..4",
                   "--weights=-4..8"]),
    ("chart_ko_C", ["chart", "--object", "ko_C", "--stems", "0..24", "--no-differentials"]),
    ("chart_L_c1m4", ["chart", "--object", "L", "--residue", "1", "--modulus", "4",
                      "--stems", "0..4", "--weights=-10..24", "--hidden",
                      "--no-differentials"]),
    ("query_L_C", ["query", "--object", "L_C", "--stem", "7", "--weight", "4"]),
    ("query_ko", ["query", "--object", "ko", "--stem", "7", "--weight", "4"]),
)
# chart job -> (golden file, stems of the golden file the chart must equal)
CHART_ORACLE = {
    "chart_ko_C": ("ko_C_einfty.tsv", None),
    "chart_L_c1m4": ("L_einfty_cw1mod4.tsv", 4),
}

# spans that are set-up or page turning rather than reading results
BUILD_SPANS = ("objects.get_object_s", "grading.page1_s", "engine.d1_s",
               "engine.turn1_s", "engine.turn_higher_s")


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


class Session:
    """Set-up timing, job verdicts and layer sizes for one repetition."""

    def __init__(self, workload: str, tracer, expected, record: bool):
        self.tr = tracer
        self.setup_s = 0.0
        self.expected = expected.get(workload, {})
        self.record = record
        self.jobs = []
        self.digests = {}
        self.sizes = {}

    # -- set-up ----------------------------------------------------------

    def build(self, name, window, **kw):
        from effss import SliceSS, Window, objects

        w = Window(*window)
        t0 = time.perf_counter()
        obj = objects.get_object(name, window=w)
        with self.tr.span("grading.page1_s"):
            ss = SliceSS(obj, w, **kw)
        self.setup_s += time.perf_counter() - t0
        return ss

    def record_object(self, obj) -> None:
        self.add_size("fiber.generators", len(obj.pres.generators))
        self.add_size("fiber.rules", len(obj.pres.rules))

    def add_size(self, name, n) -> None:
        self.sizes[name] = self.sizes.get(name, 0) + n

    def record_run(self, ss) -> None:
        """Input sizes and certification counts, read from public state."""
        if not self.tr.enabled:
            return
        pages = sorted(ss.pages)
        self.add_size("grading.page1_monomials", sum(len(g) for g in ss.pages[1].values()))
        self.add_size("grading.page1_degrees", len(ss.pages[1]))
        self.add_size("engine.box_degrees", len(ss.valid[1]))
        self.add_size("engine.valid_degrees", sum(len(ss.valid[r]) for r in pages))
        self.add_size("engine.nonempty_groups", sum(len(ss.pages[r]) for r in pages))
        self.add_size("engine.certified_lost", len(ss.valid[1]) - len(ss.valid[pages[-1]]))
        self.add_size("engine.pattern_fired", sum(
            1 for r, mats in ss.diffs.items() if r >= 2 for m in mats.values() if not m.is_zero()))
        for r in pages[1:]:
            groups = ss.pages[r].values()
            passthrough = sum(1 for g in groups if g.blocks is None)
            self.add_size("engine.passthrough_groups", passthrough)
            self.add_size("engine.homology_groups", len(groups) - passthrough)

    # -- jobs --------------------------------------------------------------

    def job(self, name, fn) -> None:
        """Run one job; it passes when fn returns without raising."""
        try:
            fn()
        except Exception:
            detail = traceback.format_exc(limit=3).strip().splitlines()[-1]
            self.jobs.append({"name": name, "ok": False, "detail": detail})
        else:
            self.jobs.append({"name": name, "ok": True, "detail": ""})

    def check_digest(self, key, digest) -> None:
        self.digests[key] = digest
        if self.record:
            return
        want = self.expected.get(key)
        if want is None:
            raise AssertionError("no recorded digest for %s" % key)
        if digest != want:
            raise AssertionError("%s digest %s, recorded %s" % (key, digest[:12], want[:12]))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def workload_L_default(sess: Session) -> None:
    """d1 build, page-1 homology and eta-localization on `L`."""
    import effss.eta as eta
    from effss.assemble import expand_ledger, order_pattern_check

    tr = sess.tr
    ss = sess.build("L", L_WINDOW)
    tr.run_in_stages(ss)
    sess.record_run(ss)

    sess.job("dump", lambda: sess.check_digest(
        "dump", sha256_lines(line for r in range(1, ss.r_max + 1) for line in ss.dump_lines(r))))

    def eta_compare():
        with tr.span("eta.compare_s"):
            rep = eta.compare(ss, pages=6)
        tr.count("eta.checked", rep["checked"])
        if rep["mismatches"]:
            raise AssertionError("eta.compare mismatch: %s" % (rep["mismatches"][0],))
        sess.check_digest("eta-compare", sha256_lines(
            [json.dumps([rep["checked"], rep["skipped"], sorted(rep["checked_per_page"].items())])]))

    sess.job("eta-compare", eta_compare)

    ledger = []
    sess.job("ledger", lambda: ledger.append(expand_ledger(ss)))
    for j in ORDER_CHECK_J:
        def order_check(j=j):
            rep = order_pattern_check(ss, j, ledger=ledger[0])
            if not rep["ok"]:
                raise AssertionError("coweight %d off pattern" % (4 * j - 1))
            sess.check_digest("order-%d" % j, sha256_lines([json.dumps(rep, sort_keys=True)]))

        sess.job("order-%d" % j, order_check)


def workload_L_C_thin(sess: Session) -> None:
    """Certified-region bookkeeping on a long thin `L_C` window."""
    ss = sess.build("L_C", LC_WINDOW, f_margin=4)
    sess.tr.run_in_stages(ss)
    sess.record_run(ss)
    pres = ss.pres
    for k in range(1, LC_CARRIERS + 1):
        def carrier(k=k):
            m = pres.monomial({"iv%d" % (4 * k): 1})
            G = ss.infinity(pres.degree_of(m))
            got = order_in(G.orders, G.project_element(pres, {m: 1}))
            n = 9 ** (2 * k) - 1
            want = n & -n  # 2-part of 9^(2k) - 1, by big-integer brute force
            if got != want:
                raise AssertionError("iv%d: order %d, brute force %d" % (4 * k, got, want))

        sess.job("iv%d" % (4 * k), carrier)
    sess.job("dump", lambda: sess.check_digest(
        "dump", sha256_lines(ss.dump_lines(ss.r_max))))


def order_in(orders, coords) -> int:
    """Additive order of an element given by its coordinates."""
    from math import gcd

    t = 1
    for o, c in zip(orders, coords):
        c = c % o if o else c
        if c == 0:
            continue
        if o == 0:
            return 0
        step = o // gcd(c, o)
        t = t * step // gcd(t, step)
    return t


def workload_cli_mix(sess: Session, seed: int) -> None:
    """Eight small CLI jobs; each builds its own object."""
    import effss.cli as cli_mod

    tr = sess.tr
    get_object, slice_ss = cli_mod.get_object, cli_mod.SliceSS

    # set-up time of the objects the CLI builds: two timers per job
    def timed_get_object(*args, **kw):
        t0 = time.perf_counter()
        obj = get_object(*args, **kw)
        sess.setup_s += time.perf_counter() - t0
        return obj

    built = []

    def timed_slice_ss(*args, **kw):
        t0 = time.perf_counter()
        with tr.span("grading.page1_s"):
            ss = slice_ss(*args, **kw)
        sess.setup_s += time.perf_counter() - t0
        if tr.enabled:
            built.append(ss)
        return ss

    cli_mod.get_object, cli_mod.SliceSS = timed_get_object, timed_slice_ss

    outdir = os.path.join(".perfbench", "cli-%d" % os.getpid())
    jobs = list(CLI_JOBS)
    random.Random(seed).shuffle(jobs)
    try:
        for name, argv in jobs:
            before = sum(tr.get(s) for s in BUILD_SPANS)
            t0 = time.perf_counter()
            sess.job(name, lambda: run_cli_job(sess, cli_mod, name, argv, outdir))
            job_s = time.perf_counter() - t0
            if tr.enabled:
                tr.seconds["cli.%s_s" % name] = job_s
                build = sum(tr.get(s) for s in BUILD_SPANS) - before
                tr.seconds["cli.readout_s"] = tr.get("cli.readout_s") + job_s - build
                for ss in built:
                    sess.record_run(ss)
                built.clear()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def run_cli_job(sess: Session, cli_mod, name, argv, outdir) -> None:
    is_chart = argv[0] == "chart"
    if is_chart:
        shutil.rmtree(outdir, ignore_errors=True)
        argv = argv + ["--outdir", outdir]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_mod.cli(argv)
    if rc != 0:
        raise AssertionError("exit %d: %s" % (rc, err.getvalue().strip()[:200]))
    if not is_chart:
        sess.check_digest(name, hashlib.sha256(out.getvalue().encode()).hexdigest())
        return
    paths = out.getvalue().split()
    svg_path = next(p for p in paths if p.endswith(".svg"))
    tsv_path = next(p for p in paths if p.endswith(".tsv"))
    with open(tsv_path, encoding="utf-8") as fh:
        tsv = fh.read()
    with open(svg_path, encoding="utf-8") as fh:
        svg = fh.read()
    golden_name, below = CHART_ORACLE[name]
    with open(os.path.join(GOLDEN, golden_name), encoding="utf-8") as fh:
        golden = fh.read()
    if below is None:
        if tsv != golden:
            raise AssertionError("%s differs from golden %s" % (name, golden_name))
    elif stems_below(tsv, below) != stems_below(golden, below):
        raise AssertionError("%s rows below stem %d differ from golden %s"
                             % (name, below, golden_name))
    sess.check_digest(name + ".tsv", hashlib.sha256(tsv.encode()).hexdigest())
    sess.check_digest(name + ".svg", hashlib.sha256(svg.encode()).hexdigest())


def stems_below(tsv: str, hi: int):
    """Chart rows whose stem is below hi; the edge stem draws arrows."""
    rows = [line for line in tsv.splitlines() if line and int(line.split("\t")[0]) < hi]
    if not rows:
        raise AssertionError("no chart rows below stem %d" % hi)
    return rows


def workload_ko_C_small(sess: Session) -> None:
    """`ko_C` on stems 0..24: the quick case the benchmark's tests use."""
    ss = sess.build("ko_C", ((0, 24), (0, 14), (-4, 20)))
    sess.tr.run_in_stages(ss)
    sess.record_run(ss)
    sess.job("dump", lambda: sess.check_digest(
        "dump", sha256_lines(line for r in range(1, ss.r_max + 1) for line in ss.dump_lines(r))))


WORKLOADS = ("L-default", "L_C-thin", "cli-mix", "ko_C-small")


def derived(tr, sizes):
    """Per-layer metrics of one traced repetition."""
    out = dict(tr.seconds)
    out.update(tr.counts)
    out.update(sizes)
    out["engine.turn_self_s"] = (tr.get("engine.turn1_s") + tr.get("engine.turn_higher_s")
                                 - tr.get("intlinalg.snf_s") - tr.get("intlinalg.f2_s"))
    valid = sizes.get("engine.valid_degrees", 0)
    out["engine.nonempty_ratio"] = sizes.get("engine.nonempty_groups", 0) / valid if valid else 0.0
    calls = tr.counts.get("engine.project_calls", 0)
    out["engine.project_ratio"] = tr.counts.get("engine.project_top_calls", 0) / calls if calls else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    from tracing import Tracer

    expected = {}
    if not args.record:
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
    t_import = time.perf_counter()
    import effss  # noqa: F401
    import effss.cli  # noqa: F401
    import_s = time.perf_counter() - t_import

    tracer = Tracer(args.trace)
    sess = Session(args.workload, tracer, expected, args.record)
    sess.setup_s = import_s
    if args.trace:
        tracer.install(sess.record_object)
    if args.workload == "L-default":
        workload_L_default(sess)
    elif args.workload == "L_C-thin":
        workload_L_C_thin(sess)
    elif args.workload == "cli-mix":
        workload_cli_mix(sess, args.seed)
    else:
        workload_ko_C_small(sess)
    wall_s = time.perf_counter() - T_START

    result = {
        "workload": args.workload,
        "wall_s": wall_s,
        "setup_s": sess.setup_s,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": sess.jobs,
        "digests": sess.digests,
    }
    if args.trace:
        result["layers"] = derived(tracer, sess.sizes)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
