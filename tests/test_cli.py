"""End-to-end checks of the command line front end.

Everything goes through cli(argv) in-process so the tests see real exit
codes and real stdout without paying for an interpreter per case; one
test at the bottom exercises the installed console script, another
``python -m effss``.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from functools import lru_cache

import pytest

from effss.assemble import LedgerError
from effss.cli import UsageError, _parse_range, _query_window, cli
from effss.engine import EngineError, NotCertifiedError, SliceSS, Window
from effss.objects import get_object, spec_from_dict, spec_to_dict


def run_cli(capsys, *argv):
    code = cli(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# -- flag parsing ----------------------------------------------------------


def test_parse_range_forms():
    assert _parse_range("3", "stem") == (3, 3)
    assert _parse_range("0..24", "stem") == (0, 24)
    assert _parse_range("-2..5", "stem") == (-2, 5)
    assert _parse_range("1..inf", "page", inf_ok=True) == (1, None)
    assert _parse_range("inf", "page", inf_ok=True) == (1, None)


def test_parse_range_rejects_garbage():
    with pytest.raises(UsageError):
        _parse_range("x..y", "stem")
    with pytest.raises(UsageError):
        _parse_range("1..inf", "stem")  # inf only where a page makes sense
    with pytest.raises(UsageError):
        _parse_range("1..2..3", "stem")


def test_malformed_flags_exit_2(capsys, monkeypatch):
    def no_build(*args, **kw):
        raise AssertionError("an object was built before the flags were checked")

    monkeypatch.setattr("effss.cli.get_object", no_build)
    for argv in (
        ["compute", "--object", "bogus"],
        ["compute", "--object", "ko_C", "--pages", "nonsense"],
        ["compute", "--object", "ko_C", "--stems", "5..1"],
        ["compute", "--object", "L_C", "--stems", "0..40", "--pages", "0..2"],
        ["compute", "--object", "ko_C", "--pages", "5..2"],
        ["chart", "--object", "ko_C", "--page", "soon"],
        ["chart", "--object", "ko_C", "--stems", "0..4", "--page", "0"],
        ["chart", "--object", "ko_C", "--filtrations", "5..2"],
        ["chart", "--object", "ko_C", "--weights=9..-3"],
        ["query", "--object", "ko_C", "--stem", "3"],  # missing --weight
        ["verify", "--suite", "no-such-suite"],
        ["frobnicate"],
    ):
        code, _out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "usage error" in err


def test_each_error_class_maps_to_its_exit_status_and_prefix(capsys, monkeypatch):
    # bad flags and a bad chart spec exit 2, refused work and other
    # failures exit 1; the line on stderr is pinned exactly
    assert run_cli(capsys, "compute", "--object", "ko_C", "--pages", "5..2") == (
        2, "", "usage error: empty page range 5..2\n")
    assert run_cli(capsys, "chart", "--object", "ko_C", "--modulus", "3") == (
        2, "", "usage error: modulus must be 1 or a power of 2, got 3\n")
    def raising(exc):
        def get_object(*args, **kw):
            raise exc
        return get_object

    monkeypatch.setattr("effss.cli.get_object", raising(EngineError("no engine")))
    assert run_cli(capsys, "compute", "--object", "ko_C") == (1, "", "error: no engine\n")
    monkeypatch.setattr("effss.cli.get_object", raising(LedgerError("no ledger")))
    assert run_cli(capsys, "compute", "--object", "ko_C") == (1, "", "error: no ledger\n")


# -- compute ---------------------------------------------------------------


SMALL = ["--stems", "0..8", "--filtrations", "0..6", "--weights=-4..8"]


def test_compute_dumps_requested_pages(capsys):
    code, out, _ = run_cli(capsys, "compute", "--object", "ko_C",
                           "--pages", "1..2", *SMALL)
    assert code == 0
    assert out.startswith("# object ko_C, window s 0..8 f 0..6 w -4..8\n")
    assert "page 1\n" in out and "page 2\n" in out
    assert "page inf" not in out
    assert "  (0,0,0)  Z  1\n" in out


def test_compute_inf_reaches_the_last_page(capsys):
    code, out, _ = run_cli(capsys, "compute", "--object", "ko_C",
                           "--pages", "1..inf", *SMALL)
    assert code == 0
    assert "page inf\n" in out
    # the index-two class survives where the full integral one does not
    assert "2*v2" in out


def test_compute_refuses_pages_above_the_last(capsys, monkeypatch):
    # ko_C runs to page 3: a range starting above it is refused before
    # the run, a range ending above it is clipped
    code, out, _ = run_cli(capsys, "compute", "--object", "ko_C",
                           "--pages", "1..9", "--stems", "0..4")
    assert code == 0
    assert "page 3\n" in out and "page 4" not in out

    def no_run(*args, **kw):
        raise AssertionError("the run started before the page range was checked")

    monkeypatch.setattr("effss.cli.SliceSS.run", no_run)
    code, out, err = run_cli(capsys, "compute", "--object", "ko_C",
                             "--pages", "5..9", "--stems", "0..4")
    assert code == 2 and out == ""
    assert "usage error" in err and "page 3" in err


def test_compute_writes_file_when_asked(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "compute", "--object", "ko_C",
                           "--pages", "1..1", *SMALL,
                           "--out", "dump.txt", "--outdir", str(tmp_path))
    assert code == 0
    path = tmp_path / "dump.txt"
    assert out.strip() == str(path)
    assert path.read_text().startswith("# object ko_C")


# -- chart -----------------------------------------------------------------


def test_chart_writes_svg_and_sidecar(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("EFFSS_OUTDIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "chart", "--object", "ko_C",
                           "--stems", "0..8")
    assert code == 0
    svg, tsv = out.strip().split("\n")
    assert svg == str(tmp_path / "ko_C.svg")
    assert tsv == str(tmp_path / "ko_C.tsv")
    text = (tmp_path / "ko_C.svg").read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert (tmp_path / "ko_C.tsv").read_text().count("\n") > 5


def test_chart_refuses_a_page_above_the_last_before_the_run(capsys, tmp_path, monkeypatch):
    # ko_C runs to page 3: page 9 is refused as compute refuses it, after
    # page 1 is built and before the run, and no file is written
    def no_run(*args, **kw):
        raise AssertionError("the run started before the page was checked")

    monkeypatch.setattr("effss.cli.SliceSS.run", no_run)
    code, out, err = run_cli(capsys, "chart", "--object", "ko_C", "--stems", "0..4",
                             "--page", "9", "--outdir", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert "usage error" in err and "page 3" in err
    assert not (tmp_path / "out").exists()


def test_chart_residue_class_names_files(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "chart", "--object", "ko_C",
                           "--stems", "0..8", "--residue", "0",
                           "--modulus", "2", "--outdir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "ko_C_c0m2.svg").exists()
    assert (tmp_path / "ko_C_c0m2.tsv").exists()


# -- query -----------------------------------------------------------------


def test_query_image_of_j_spot(capsys):
    code, out, _ = run_cli(capsys, "query", "--object", "L_C",
                           "--stem", "7", "--weight", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Z/16, generator iv4"
    assert "  iv4: order 16, filtration 1, image part" in lines
    assert any(line.startswith("  provenance:") for line in lines)


def test_query_vanishing_coweight(capsys):
    # coweight 3 spots of the real connective object carry nothing
    code, out, _ = run_cli(capsys, "query", "--object", "ko",
                           "--stem", "5", "--weight", "2")
    assert code == 0
    assert out.strip() == "0"


def test_query_refuses_an_object_without_a_ledger(capsys, monkeypatch):
    def no_build(*args, **kw):
        raise AssertionError("an object was built for a query that is refused")

    monkeypatch.setattr("effss.cli.get_object", no_build)
    code, out, err = run_cli(capsys, "query", "--object", "ko_C", "--stem", "8", "--weight", "4")
    assert code == 1 and out == ""
    assert err.startswith("refused: ko_C ships no hidden-extension ledger")


#: the window of the README column (7, 4), shared by every column below
QUERY_WINDOW = _query_window(7, 4)

#: per object, the README columns, then the source columns of hidden-ledger
#: rows and some of their tau^4 (w - 4) and v1^4 (s + 8, w + 4) translates
QUERY_COLUMNS = {
    "L_C": ((7, 4), (3, 2), (3, -2), (11, 6)),
    "ko": ((7, 4), (3, 2), (3, -1), (5, 1), (4, 2), (4, -2), (1, 0), (9, 3)),
    "L": ((7, 4), (3, 1), (0, 0), (1, 0), (-1, -2), (3, 0), (7, 2)),
}

#: columns whose relation leaves the column on either route
LEAVES_THE_COLUMN = {("L", 0, 0), ("ko", 3, -1), ("ko", 5, 1)}


@lru_cache(maxsize=None)
def full_query_run(name, window):
    return SliceSS(get_object(name, window=window), window).run()


def full_query(capsys, monkeypatch, name, window, argv):
    """What query prints from the run on its whole window, the route that
    turned every weight of the window."""
    ss = full_query_run(name, window)
    with monkeypatch.context() as m:
        m.setattr("effss.cli.get_object", lambda *a, **kw: ss.obj)
        m.setattr("effss.cli.SliceSS", lambda *a, **kw: ss)
        return run_cli(capsys, *argv)


@pytest.mark.parametrize("name", sorted(QUERY_COLUMNS))
def test_query_output_equals_the_full_window_run(capsys, monkeypatch, name):
    # The first column uses the default query window; the others pass the
    # same window as flags, so one full run is the oracle for all of them.
    flags = ["--stems=%d..%d" % QUERY_WINDOW.s, "--filtrations=%d..%d" % QUERY_WINDOW.f,
             "--weights=%d..%d" % QUERY_WINDOW.w]
    for n, (s, w) in enumerate(QUERY_COLUMNS[name]):
        argv = ["query", "--object", name, "--stem", str(s), "--weight", str(w)]
        if n:
            argv += flags
        got = run_cli(capsys, *argv)
        assert got == full_query(capsys, monkeypatch, name, QUERY_WINDOW, argv), argv
        code, out, err = got
        if (name, s, w) in LEAVES_THE_COLUMN:
            assert code == 1 and "leaves the column" in err, argv
        else:
            assert code == 0 and out, argv


def test_query_outside_the_given_weights_is_refused_as_before(capsys, monkeypatch):
    argv = ["query", "--object", "ko", "--stem", "7", "--weight", "4", "--weights=-2..2"]
    got = run_cli(capsys, *argv)
    assert got == full_query(capsys, monkeypatch, "ko", Window((0, 0), (0, 0), (-2, 2)), argv)
    assert got == (1, "", "refused: degree (7, 0, 4) is not certified on page 3 for this window\n")


def test_query_given_only_weights_keeps_the_column_and_is_refused(capsys):
    # The stems and filtrations left out come from the query window, so the
    # column is not cut at filtration 0 and is refused as on the default one.
    argv = ["query", "--object", "ko", "--stem", "0", "--weight", "0"]
    got = run_cli(capsys, *argv, "--weights=-2..2")
    assert got == (1, "", "refused: relation for rho^7*h1^7 leaves the column at (0, 16, 0)\n")
    assert got == run_cli(capsys, *argv)


# -- verify ----------------------------------------------------------------


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "valuation")
    assert code == 0
    assert out.startswith("PASS valuation:")


# -- dump-presentation -----------------------------------------------------


def test_dump_presentation_round_trips(capsys):
    code, out, _ = run_cli(capsys, "dump-presentation", "--object", "ko")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "ko"
    assert sorted(g["name"] for g in data["generators"]) == [
        "h1", "rho", "tau2", "th1", "v2"]
    assert spec_to_dict(spec_from_dict(data)) == data


#: sha256 of ``dump-presentation --object X`` stdout on the default windows;
#: the bytes hold each object's rules, d1 table, eta images and image
#: generators, so a refactor of how they are built must leave them alone
PRESENTATION_DIGESTS = {
    "ko_C": "1dd7c9acbeeec172f9902743ca3584e63ab4d966b54805b987b6f9dad823167c",
    "ko": "4952ddf669860146bc8c5ecbf55816acd6f6ae9e4d4f29f9c0956eaa96bc092d",
    "L": "ed3e8af3dad7f460f728f721abc62b1734bb17388c217559ee5ba0185a6dbe3f",
    "L_C": "c0e0fbaae332987003d9e219a3b9feafd37187c1f9f5079b99103f352a7cfbc7",
}


@pytest.mark.parametrize("name", sorted(PRESENTATION_DIGESTS))
def test_dump_presentation_bytes_are_pinned(capsys, name):
    code, out, _ = run_cli(capsys, "dump-presentation", "--object", name)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PRESENTATION_DIGESTS[name]


#: sha256 of ``compute --object X --pages 1..inf`` stdout on the default
#: window: every certified group of every page and of E_infinity, with its
#: orders and labels, so a change to the engine must leave them alone
COMPUTE_DIGESTS = {
    "ko_C": "fd27b384cbbc9d824bc710bc4035a266ca07078731632b332f9ca3714a14b321",
    "ko": "02dd7397f5404936d31e5bc85c09c633534d5fba2f5d679d0f4df8d60d5f2a9a",
    "L": "d6df7e06b48b41ac02f487460ac46a5cd9fb2f685ff6135ef2302f50b6a5c56f",
    "L_C": "385ea82f701bf29765693897cbaa256772a8684c29fc7c303c156299b7de6ed6",
}


@pytest.mark.parametrize("name", sorted(COMPUTE_DIGESTS))
def test_compute_dump_bytes_are_pinned(capsys, name):
    code, out, _ = run_cli(capsys, "compute", "--object", name, "--pages", "1..inf")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMPUTE_DIGESTS[name]


# -- console script --------------------------------------------------------


@pytest.mark.skipif(shutil.which("effss") is None,
                    reason="console script not on PATH")
def test_console_script_runs():
    proc = subprocess.run(["effss", "dump-presentation", "--object", "ko_C"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["name"] == "ko_C"


def test_python_dash_m_runs():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "effss", "dump-presentation", "--object", "ko_C"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["name"] == "ko_C"


# -- compute against the degree-by-degree reading ------------------------------

#: (object, window) per object, on small windows
COMPUTE_CASES = (
    ("ko_C", Window(s=(0, 8), f=(0, 6), w=(-4, 8))),
    ("ko", Window(s=(0, 8), f=(0, 6), w=(-4, 8))),
    ("L", Window(s=(-2, 8), f=(0, 4), w=(-4, 6))),
    ("L_C", Window(s=(-2, 8), f=(0, 4), w=(-4, 6))),
)


def punch(ss):
    """Uncertify the user degrees of the window's second stem on every page,
    so that the dump has degrees to skip."""
    since = ss.valid[1].uncertified_from
    for d in ss.window.degrees():
        if d.s == ss.window.s[0] + 1:
            since[d] = 1


def compute_oracle(name, window, punched):
    """The ``compute --pages 1..inf`` dump read degree by degree: every degree
    of the user window, through ``group`` and ``infinity``, skipping the
    ones that are not certified."""
    ss = SliceSS(get_object(name, window=window), window).run()
    if punched:
        punch(ss)
    lines = ["# object %s, window s %d..%d f %d..%d w %d..%d"
             % (name, *window.s, *window.f, *window.w)]
    for r in list(range(1, ss.r_max + 1)) + ["inf"]:
        lines.append("page %s" % r)
        for d in window.degrees():
            try:
                G = ss.infinity(d) if r == "inf" else ss.group(r, d)
            except NotCertifiedError:
                continue
            if not G.orders:
                continue
            orders = " + ".join("Z" if o == 0 else "Z/%d" % o for o in G.orders)
            labels = ", ".join(ss.pres.render(G.lift(i)) for i in range(len(G.orders)))
            lines.append("  (%d,%d,%d)  %s  %s" % (d.s, d.f, d.w, orders, labels))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("punched", [False, True], ids=["certified", "punched"])
@pytest.mark.parametrize("name,window", COMPUTE_CASES, ids=[c[0] for c in COMPUTE_CASES])
def test_compute_matches_the_degree_by_degree_reading(capsys, monkeypatch, name, window, punched):
    if punched:
        class Punched(SliceSS):
            def run(self, r_to=None):
                super().run(r_to)
                punch(self)
                return self

        monkeypatch.setattr("effss.cli.SliceSS", Punched)
    flags = ["--stems=%d..%d" % window.s, "--filtrations=%d..%d" % window.f,
             "--weights=%d..%d" % window.w]
    code, out, _ = run_cli(capsys, "compute", "--object", name, "--pages", "1..inf", *flags)
    assert code == 0
    want = compute_oracle(name, window, punched)
    assert out == want and want.count("\n  (") > 20
