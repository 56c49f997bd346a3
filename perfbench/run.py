"""Benchmark entry point: run workloads, check outputs, print metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of a workload is a fresh
single-threaded interpreter (perfbench/workload.py) with ``src`` on its
path and PYTHONHASHSEED set to the seed; the seed also shuffles the job
order of cli-mix.  Repetitions start one after another (a closed loop with
one client) until the next one would end past --seconds.  A speed probe
runs before the first repetition and after each one, and each
repetition's times are rescaled to the reference speed by its two probes
(see speed.py).

With --trace 0 the program runs without counting wrappers and the
end-to-end metrics are the medians over repetitions.  With --trace 1
untraced and traced repetitions alternate; the per-layer metrics are the
medians over the traced ones and trace.overhead_s is the traced median
wall time minus the untraced one.

Every line but the last is for people: the context record (cores, Python,
platform, commit, source digest, speed probes before and after),
one line per repetition and one per metric.  The last line is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
status is 0 only when every job of every repetition passed its check.
A full record is also written to .perfbench/<workload>-trace<k>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from speed import probe, scale_between  # noqa: E402
from workload import WORKLOADS  # noqa: E402

# a repetition that runs longer than this is stopped and counted as failed
LIMIT_S = 170.0


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "effss")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def commit(root: str):
    """HEAD of the checkout's own .git, if it has one; never searches upward."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    env = dict(os.environ, GIT_DIR=os.path.join(root, ".git"))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def context(root: str) -> dict:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit(root),
        "source_sha256": source_digest(root),
    }


def run_rep(root: str, workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """One repetition in a fresh interpreter; returns its JSON record."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["PYTHONPATH"] = os.path.join(root, "src")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "timed out after %.0fs" % timeout, "elapsed": time.perf_counter() - t0}
    elapsed = time.perf_counter() - t0
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"error": "exit %d: %s" % (proc.returncode, tail[0]), "elapsed": elapsed}
    rec = json.loads(lines[-1])
    rec["elapsed"] = elapsed
    rec["traced"] = trace
    return rec


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_workload(root: str, bench: dict, workload: str, seed: int, seconds: int, trace: bool):
    """Repetitions for one workload; returns (result line, full record)."""
    ctx = context(root)
    t0 = time.perf_counter()
    deadline = t0 + seconds
    probes = [probe()]
    reps, rounds = [], []
    while True:
        t_round = time.perf_counter()
        traced = trace and len(reps) % 2 == 1
        rec = run_rep(root, workload, seed, traced, LIMIT_S - (t_round - t0))
        probes.append(probe())
        rec["scale"] = scale_between(probes[-2], probes[-1])
        reps.append(rec)
        rounds.append(time.perf_counter() - t_round)
        print("rep %d%s: %s" % (len(reps), " traced" if traced else "", rep_summary(rec)),
              flush=True)
        if "error" in rec:
            break
        now = time.perf_counter()
        est = statistics.median(rounds)
        if len(reps) >= (2 if trace else 1) and now + est > deadline:
            break
        if now - t0 + est > LIMIT_S:
            break
    # the first and last probes are the calibration record of the run
    ctx["calibration_before_s"], ctx["calibration_after_s"] = probes[0], probes[-1]
    ctx["probes_s"] = probes
    ctx["measured_s"] = time.perf_counter() - t0

    attempted = failed = 0
    for rec in reps:
        if "error" in rec:
            attempted, failed = attempted + 1, failed + 1
            continue
        attempted += len(rec["jobs"])
        failed += sum(1 for j in rec["jobs"] if not j["ok"])
    complete = [r for r in reps if "error" not in r]
    plain = [r for r in complete if not r["traced"]]
    traced_reps = [r for r in complete if r["traced"]]

    metrics = {}
    if plain and (traced_reps or not trace):
        if trace:
            values = {}
            for name in traced_reps[0]["layers"]:
                values[name] = [r["layers"].get(name, 0) * (r["scale"] if name.endswith("_s") else 1)
                                for r in traced_reps]
            values["trace.overhead_s"] = [
                statistics.median(r["wall_s"] * r["scale"] for r in traced_reps)
                - statistics.median(r["wall_s"] * r["scale"] for r in plain)]
            values["failed_ratio"] = [failed / attempted]
            wanted = bench["per_layer"]
        else:
            values = {
                "wall_s": [r["wall_s"] * r["scale"] for r in plain],
                "setup_s": [r["setup_s"] * r["scale"] for r in plain],
                "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            }
            print("unscaled: wall_s median %.6g s, setup_s median %.6g s"
                  % (statistics.median(r["wall_s"] for r in plain),
                     statistics.median(r["setup_s"] for r in plain)))
            wanted = bench["end_to_end"]
        for m in wanted:
            vals = values.get(m["name"], [0])
            lo, hi = quartiles(vals)
            metrics[m["name"]] = {"value": statistics.median(vals), "unit": m["unit"]}
            print("%-28s %14.6g %-6s median of %d, quartiles %.6g..%.6g"
                  % (m["name"], statistics.median(vals), m["unit"], len(vals), lo, hi))
    correct = failed == 0 and bool(metrics)
    for k in ("cores", "cores_usable", "python", "platform", "commit", "source_sha256",
              "calibration_before_s", "calibration_after_s"):
        print("context %s: %s" % (k, ctx[k]))
    print("jobs: %d attempted, %d failed (failed_ratio %.4g)" % (attempted, failed, failed / attempted))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "context": ctx, "reps": reps, "result": result}
    return result, record


def rep_summary(rec: dict) -> str:
    if "error" in rec:
        return "FAILED %s" % rec["error"]
    bad = [j for j in rec["jobs"] if not j["ok"]]
    text = "wall %.3fs setup %.3fs rss %.1fMB, %d jobs, scale %.3f" % (
        rec["wall_s"], rec["setup_s"], rec["peak_rss_mb"], len(rec["jobs"]), rec["scale"])
    if bad:
        text += ", FAILED %s" % "; ".join("%s: %s" % (j["name"], j["detail"]) for j in bad)
    return text


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "effss", "__init__.py")):
        print("perfbench: no src/effss in %s; run from the root of a checkout" % root,
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    # "all" is the workloads BENCHMARK.json lists; any workload workload.py
    # defines can be run by name
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (have: %s)" % (args.workload, ", ".join(WORKLOADS)),
              file=sys.stderr)
        return 2
    seconds = args.seconds or bench["run_seconds"]
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)

    results = {}
    for name in (names if args.workload == "all" else [args.workload]):
        print("== %s, seed %d, %ds, trace %d" % (name, args.seed, seconds, args.trace), flush=True)
        result, record = run_workload(root, bench, name, args.seed, seconds, bool(args.trace))
        with open(os.path.join(root, ".perfbench", "%s-trace%d.json" % (name, args.trace)),
                  "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        results[name] = result
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s:%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
