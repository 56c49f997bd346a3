"""Write a BENCH_<n>.json entry from perfbench run records.

    python3 tools/bench_entry.py --out BENCH_7.json \
        --parent RUN.json [RUN.json ...] --change RUN.json [RUN.json ...] \
        [--tier1 PARENT.log CHANGE.log] [--verify PARENT.txt CHANGE.txt ...]

Each RUN.json is a record that ``perfbench/run.py`` writes to
``.perfbench/<workload>-trace<k>.json``; copy it away after each run, as
the next run of the same workload overwrites it.  Records may cover any
workloads, traced or not, and are grouped by workload.

For each workload the entry holds:

* ``end_to_end``: one sample per untraced run (that run's median), and
  per side the samples, their median and quartiles.  When both sides
  have the same number of runs, run i of the parent is paired with run i
  of the change and the pairs the change won are counted.  With both
  sides, ``beyond_parent_iqr`` says whether the medians differ by more
  than the parent's interquartile range, q3 - q1.
* ``per_layer``: per side, the median over its traced runs of each
  per-layer metric.
* ``jobs``: attempted and failed jobs per side, and whether every output
  digest of every repetition equals the parent's.

``--tier1`` takes the output of the tier-1 pytest run on each side and
records its final summary (counts and wall seconds) under ``tier1``.
``--verify`` takes the output of one ``effss verify`` run on each side and
may be repeated, one round of both sides each time, since a check's
seconds move between runs of one tree.  Under ``verify`` it records, for
each check and side, every round's seconds and their minimum, and whether
the check passed in every round on both sides.

``context`` gives each side's cores, Python version, commit and source
sha256.  Records of one side must agree on all four; the script exits
with an error when they do not.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys

CONTEXT_KEYS = ("cores", "cores_usable", "python", "commit", "source_sha256")
#: metric units, directions and bounds
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def spread(samples):
    if len(samples) < 2:
        return {"samples": samples, "median": samples[0], "q1": samples[0], "q3": samples[0]}
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"samples": samples, "median": statistics.median(samples), "q1": q1, "q3": q3}


def side_context(records, side):
    ctx = {k: records[0]["context"].get(k) for k in CONTEXT_KEYS}
    for rec in records[1:]:
        other = {k: rec["context"].get(k) for k in CONTEXT_KEYS}
        if other != ctx:
            raise SystemExit("bench_entry: %s records disagree on context: %s vs %s"
                             % (side, ctx, other))
    return ctx


def digests(records):
    """The set of output digests over every repetition of the records."""
    return {json.dumps(rep.get("digests", {}), sort_keys=True)
            for rec in records for rep in rec["reps"] if "error" not in rep}


def workload_entry(bench, parent, change):
    by_name = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    entry = {"end_to_end": {}, "per_layer": {}, "jobs": {}}
    plain = {side: [r for r in recs if not r["trace"]] for side, recs in
             (("parent", parent), ("change", change))}
    traced = {side: [r for r in recs if r["trace"]] for side, recs in
              (("parent", parent), ("change", change))}

    for m in bench["end_to_end"]:
        name = m["name"]
        row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        for side, recs in plain.items():
            if recs:
                row[side] = spread([r["result"]["metrics"][name]["value"] for r in recs])
        if plain["parent"] and len(plain["parent"]) == len(plain["change"]):
            sign = 1 if m["better"] == "lower" else -1
            row["pairs"] = len(plain["parent"])
            row["change_wins"] = sum(
                1 for a, b in zip(row["parent"]["samples"], row["change"]["samples"])
                if sign * (b - a) < 0)
        if "parent" in row and "change" in row:
            p, c = row["parent"], row["change"]
            row["beyond_parent_iqr"] = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
        if "parent" in row or "change" in row:
            entry["end_to_end"][name] = row

    for side, recs in traced.items():
        for rec in recs:
            for name, v in rec["result"]["metrics"].items():
                row = entry["per_layer"].setdefault(name, {"unit": v["unit"],
                                                           "better": by_name[name]["better"]})
                row.setdefault(side, []).append(v["value"])
    for row in entry["per_layer"].values():
        for side in ("parent", "change"):
            if side in row:
                row[side] = statistics.median(row[side])

    for side, recs in (("parent", parent), ("change", change)):
        if recs:
            entry["jobs"][side] = {"attempted": sum(r["result"]["attempted"] for r in recs),
                                   "failed": sum(r["result"]["failed"] for r in recs)}
    if parent and change:
        entry["jobs"]["digests_equal"] = digests(parent) == digests(change) and len(digests(parent)) == 1
    return entry


#: pytest's final line, e.g. "218 passed, 1 skipped in 85.19s (0:01:25)"
PYTEST_SUMMARY = re.compile(r"^=*\s*(\d+ \w+(?:, \d+ \w+)*) in ([0-9.]+)s\b")
#: one line of ``effss verify``, e.g. "PASS charts: 3 golden charts ... [3.6s]"
VERIFY_LINE = re.compile(r"^(PASS|FAIL) ([\w-]+): .*\[([0-9.]+)s\]$")


def tier1_summary(path):
    """The last pytest summary line of a log, as counts and seconds."""
    found = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            m = PYTEST_SUMMARY.match(line.strip())
            if m:
                found = {"summary": m.group(1), "seconds": float(m.group(2))}
    if found is None:
        raise SystemExit("bench_entry: no pytest summary line in %s" % path)
    return found


def verify_checks(path):
    """{check: (passed, seconds)} from the output of ``effss verify``."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            m = VERIFY_LINE.match(line.strip())
            if m:
                out[m.group(2)] = (m.group(1) == "PASS", float(m.group(3)))
    if not out:
        raise SystemExit("bench_entry: no verify check lines in %s" % path)
    return out


def verify_entry(rounds):
    """Per check: each side's seconds over the rounds, with their minimum,
    and whether the check passed in every round on both sides."""
    runs = {side: [verify_checks(pair[k]) for pair in rounds] for k, side in enumerate(("parent", "change"))}
    entry = {}
    for name in sorted({name for checks in runs.values() for run in checks for name in run}):
        row = {"passed": all(name in run and run[name][0] for checks in runs.values() for run in checks)}
        for side, checks in runs.items():
            samples = [run[name][1] for run in checks if name in run]
            if samples:
                row[side] = {"samples": samples, "min": min(samples)}
        entry[name] = row
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--parent", nargs="+", required=True, metavar="RUN.json")
    ap.add_argument("--change", nargs="+", required=True, metavar="RUN.json")
    ap.add_argument("--tier1", nargs=2, metavar=("PARENT.log", "CHANGE.log"),
                    help="tier-1 pytest output of each side")
    ap.add_argument("--verify", nargs=2, action="append", metavar=("PARENT.txt", "CHANGE.txt"),
                    help="effss verify output of each side, one round; repeat for more rounds")
    args = ap.parse_args(argv)

    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    sides = {}
    for side in ("parent", "change"):
        recs = []
        for path in getattr(args, side):
            with open(path, encoding="utf-8") as fh:
                recs.append(json.load(fh))
        sides[side] = recs

    out = {"context": {side: side_context(recs, side) for side, recs in sides.items()},
           "workloads": {}}
    names = sorted({r["workload"] for recs in sides.values() for r in recs})
    for name in names:
        out["workloads"][name] = workload_entry(
            bench,
            [r for r in sides["parent"] if r["workload"] == name],
            [r for r in sides["change"] if r["workload"] == name])
    if args.tier1:
        out["tier1"] = {side: tier1_summary(path)
                        for side, path in zip(("parent", "change"), args.tier1)}
    if args.verify:
        out["verify"] = verify_entry(args.verify)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%s: %d workloads, %d parent and %d change records"
          % (os.path.basename(args.out), len(names), len(sides["parent"]), len(sides["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
