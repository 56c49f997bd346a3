"""tools/bench_entry.py on synthetic perfbench records."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_entry", ROOT / "tools" / "bench_entry.py")
bench_entry = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_entry)

E2E = ("wall_s", "setup_s", "peak_rss_mb")


def record(sha, wall, trace=False, failed=0, digest="d0"):
    ctx = {"cores": 2, "cores_usable": 2, "python": "3.11.7", "commit": sha, "source_sha256": sha}
    if trace:
        metrics = {"engine.d1_s": {"value": wall / 2, "unit": "s"}}
    else:
        metrics = {m: {"value": wall, "unit": "s"} for m in E2E}
    return {"workload": "L-default", "trace": trace, "context": ctx,
            "reps": [{"digests": {"dump": digest}}],
            "result": {"attempted": 7, "failed": failed, "metrics": metrics}}


def write(tmp_path, name, rec):
    path = tmp_path / name
    path.write_text(json.dumps(rec))
    return str(path)


def test_entry_pairs_runs_and_takes_medians(tmp_path):
    parent = [write(tmp_path, "p%d.json" % i, record("a", w)) for i, w in enumerate((4.0, 4.2, 3.8))]
    change = [write(tmp_path, "c%d.json" % i, record("b", w)) for i, w in enumerate((2.5, 4.5, 2.4))]
    parent.append(write(tmp_path, "pt.json", record("a", 4.0, trace=True)))
    change.append(write(tmp_path, "ct.json", record("b", 2.0, trace=True, failed=1)))
    out = tmp_path / "BENCH.json"
    assert bench_entry.main(["--out", str(out), "--parent", *parent, "--change", *change]) == 0
    got = json.loads(out.read_text())
    assert got["context"]["parent"]["commit"] == "a" and got["context"]["change"]["commit"] == "b"
    wl = got["workloads"]["L-default"]
    wall = wl["end_to_end"]["wall_s"]
    assert wall["parent"]["median"] == 4.0 and wall["change"]["median"] == 2.5
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == pytest.approx((3.9, 4.1))
    assert wall["pairs"] == 3 and wall["change_wins"] == 2 and wall["bound"] == 0.25
    assert wall["beyond_parent_iqr"]  # |2.5 - 4.0| > 4.1 - 3.9
    assert wl["per_layer"]["engine.d1_s"] == {"unit": "s", "better": "lower",
                                              "parent": 2.0, "change": 1.0}
    assert wl["jobs"]["parent"] == {"attempted": 28, "failed": 0}
    assert wl["jobs"]["change"]["failed"] == 1 and wl["jobs"]["digests_equal"]


def test_entry_takes_the_median_import_time_of_untraced_repetitions(tmp_path):
    def rep(import_s, traced=False, scale=2.0):
        return {"digests": {"dump": "d0"}, "import_s": import_s, "scale": scale, "traced": traced}

    p = record("a", 4.0)
    p["reps"] = [rep(0.01), rep(0.03), rep(0.05), {"error": "timed out"}]
    t = record("a", 4.0, trace=True)
    t["reps"] = [rep(0.02), rep(9.0, traced=True)]
    c = record("b", 3.0)
    c["reps"] = [rep(0.01, scale=1.0)]
    out = tmp_path / "BENCH.json"
    bench_entry.main(["--out", str(out), "--parent", write(tmp_path, "p.json", p),
                      write(tmp_path, "t.json", t), "--change", write(tmp_path, "c.json", c)])
    got = json.loads(out.read_text())["workloads"]["L-default"]["import_s"]
    # parent: 0.02, 0.04, 0.06 and 0.10 rescaled, the traced repetition left out
    assert got == pytest.approx({"parent": 0.05, "change": 0.01})
    bench_entry.main(["--out", str(out), "--parent", write(tmp_path, "q.json", record("a", 4.0)),
                      "--change", write(tmp_path, "d.json", record("b", 3.0))])
    assert json.loads(out.read_text())["workloads"]["L-default"]["import_s"] == {}


def test_entry_refuses_mixed_contexts_and_flags_digests(tmp_path):
    out = str(tmp_path / "BENCH.json")
    p = write(tmp_path, "p.json", record("a", 4.0))
    with pytest.raises(SystemExit):
        bench_entry.main(["--out", out, "--parent", p,
                          write(tmp_path, "q.json", record("z", 4.0)), "--change", p])
    c = write(tmp_path, "c.json", record("b", 3.0, digest="other"))
    bench_entry.main(["--out", out, "--parent", p, "--change", c])
    assert not json.loads(Path(out).read_text())["workloads"]["L-default"]["jobs"]["digests_equal"]


def test_entry_records_tier1_and_verify_times(tmp_path):
    p = write(tmp_path, "p.json", record("a", 4.0))
    c = write(tmp_path, "c.json", record("b", 3.0))
    logs = {
        "p.log": "....s..\n218 passed, 1 skipped in 98.70s (0:01:38)\n",
        "c.log": "== 1 failed, 217 passed, 1 skipped in 85.19s ==\n",
        "p.txt": "PASS charts: 3 golden charts, 181 rows, byte-exact [13.5s]\n"
                 "PASS eta-compare: 172436 summands commute [18.3s]\n",
        "c.txt": "PASS charts: 3 golden charts, 181 rows, byte-exact [12.0s]\n"
                 "FAIL eta-compare: over the 10s budget: took 11.0s [11.0s]\n",
    }
    for name, text in logs.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "BENCH.json"
    bench_entry.main(["--out", str(out), "--parent", p, "--change", c,
                      "--tier1", str(tmp_path / "p.log"), str(tmp_path / "c.log"),
                      "--verify", str(tmp_path / "p.txt"), str(tmp_path / "c.txt")])
    got = json.loads(out.read_text())
    assert got["tier1"] == {"parent": {"summary": "218 passed, 1 skipped", "seconds": 98.7},
                            "change": {"summary": "1 failed, 217 passed, 1 skipped", "seconds": 85.19}}
    assert got["verify"] == {
        "charts": {"parent": {"samples": [13.5], "min": 13.5},
                   "change": {"samples": [12.0], "min": 12.0}, "passed": True, "same_text": True},
        "eta-compare": {"parent": {"samples": [18.3], "min": 18.3},
                        "change": {"samples": [11.0], "min": 11.0}, "passed": False, "same_text": False},
    }
    with pytest.raises(SystemExit):
        bench_entry.main(["--out", str(out), "--parent", p, "--change", c,
                          "--verify", str(tmp_path / "p.log"), str(tmp_path / "c.txt")])


def test_entry_keeps_every_verify_round_and_the_minimum(tmp_path):
    """Rounds of ``--verify`` keep each side's seconds in round order, take
    their minimum, and pass a check only if every round passed it."""
    p = write(tmp_path, "p.json", record("a", 4.0))
    c = write(tmp_path, "c.json", record("b", 3.0))
    rounds = (("PASS charts: ok [2.0s]\nPASS iota-orders: ok [7.5s]\n", "PASS charts: ok [1.5s]\n"),
              ("PASS charts: ok [1.7s]\nPASS iota-orders: ok [7.1s]\n", "PASS charts: ok [1.0s]\n"),
              ("PASS charts: ok [2.5s]\nFAIL iota-orders: no [7.9s]\n", "PASS charts: ok [1.2s]\n"))
    argv = ["--out", str(tmp_path / "BENCH.json"), "--parent", p, "--change", c]
    for k, (ptext, ctext) in enumerate(rounds):
        (tmp_path / ("p%d.txt" % k)).write_text(ptext)
        (tmp_path / ("c%d.txt" % k)).write_text(ctext)
        argv += ["--verify", str(tmp_path / ("p%d.txt" % k)), str(tmp_path / ("c%d.txt" % k))]
    bench_entry.main(argv)
    got = json.loads((tmp_path / "BENCH.json").read_text())["verify"]
    assert got["charts"] == {"parent": {"samples": [2.0, 1.7, 2.5], "min": 1.7},
                             "change": {"samples": [1.5, 1.0, 1.2], "min": 1.0},
                             "passed": True, "same_text": True}
    # a check missing from one side's runs, or failed in one round, did not pass
    assert got["iota-orders"] == {"parent": {"samples": [7.5, 7.1, 7.9], "min": 7.1},
                                  "passed": False, "same_text": False}


def test_entry_compares_verify_text_without_the_seconds(tmp_path):
    """A check's line is the same text when only its seconds differ, in
    every round on both sides; any other byte, in one round of one side,
    makes it differ."""
    p = write(tmp_path, "p.json", record("a", 4.0))
    c = write(tmp_path, "c.json", record("b", 3.0))
    rounds = (("PASS charts: 3 charts [2.0s]\nPASS les: 6/13 rows [1.0s]\nPASS iota: 64 [7.5s]\n",
               "PASS charts: 3 charts [1.5s]\nPASS les: 6/13 rows [0.9s]\nPASS iota: 64 [7.1s]\n"),
              ("PASS charts: 3 charts [1.7s]\nPASS les: 6/13 rows [1.1s]\nPASS iota: 64 [7.2s]\n",
               "PASS charts: 3 charts [1.0s]\nPASS les: 6/14 rows [1.0s]\nFAIL iota: 64 [7.0s]\n"))
    argv = ["--out", str(tmp_path / "BENCH.json"), "--parent", p, "--change", c]
    for k, (ptext, ctext) in enumerate(rounds):
        (tmp_path / ("p%d.txt" % k)).write_text(ptext)
        (tmp_path / ("c%d.txt" % k)).write_text(ctext)
        argv += ["--verify", str(tmp_path / ("p%d.txt" % k)), str(tmp_path / ("c%d.txt" % k))]
    bench_entry.main(argv)
    got = json.loads((tmp_path / "BENCH.json").read_text())["verify"]
    assert {name: row["same_text"] for name, row in got.items()} == {
        "charts": True, "les": False, "iota": False}
    assert got["les"]["passed"] and not got["iota"]["passed"]


@pytest.mark.parametrize("change_walls,beyond", [((3.85, 3.9, 3.95), False), ((4.25, 4.3, 4.35), True),
                                                 ((4.05, 4.1, 4.15), False)])
def test_entry_compares_the_median_gap_with_the_parent_iqr(tmp_path, change_walls, beyond):
    """The gap between the medians must exceed the parent's q3 - q1 (0.2
    here), whichever way it goes and whether or not the runs pair up."""
    parent = [write(tmp_path, "p%d.json" % i, record("a", w)) for i, w in enumerate((3.8, 4.0, 4.2))]
    change = [write(tmp_path, "c%d.json" % i, record("b", w)) for i, w in enumerate(change_walls)]
    out = tmp_path / "BENCH.json"
    for runs in (change, change[:2]):
        bench_entry.main(["--out", str(out), "--parent", *parent, "--change", *runs])
        wall = json.loads(out.read_text())["workloads"]["L-default"]["end_to_end"]["wall_s"]
        assert wall["parent"]["q3"] - wall["parent"]["q1"] == pytest.approx(0.2)
        assert wall["beyond_parent_iqr"] is beyond, runs
        assert ("change_wins" in wall) == (len(runs) == 3)
