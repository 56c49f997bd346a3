"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench

Run from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workload  # noqa: E402
from tracing import Tracer  # noqa: E402


def traced_rep(seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "workload.py"), "ko_C-small", "--trace",
         "--seed", str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_counts_repeat_exactly_across_runs_and_seeds():
    a, b = traced_rep(0), traced_rep(7)
    assert all(j["ok"] for j in a["jobs"] + b["jobs"])
    counts_a = {k: v for k, v in a["layers"].items() if not k.endswith("_s")}
    counts_b = {k: v for k, v in b["layers"].items() if not k.endswith("_s")}
    assert counts_a == counts_b
    for name in ("grading.page1_monomials", "engine.valid_degrees", "grading.reduce_calls",
                 "intlinalg.snf_calls", "intlinalg.f2_calls"):
        assert counts_a[name] > 0, name


def test_gate_fails_a_job_whose_digest_moved():
    sess = workload.Session("w", Tracer(False), {"w": {"out": "0" * 64}}, record=False)
    sess.job("moved", lambda: sess.check_digest("out", "1" * 64))
    sess.job("unrecorded", lambda: sess.check_digest("other", "0" * 64))
    sess.job("same", lambda: sess.check_digest("out", "0" * 64))
    assert [j["ok"] for j in sess.jobs] == [False, False, True]


def test_chart_rows_below_the_edge_stem():
    tsv = "0\t2\ta\n3\t1\tb\n4\t1\tc-arrow\n"
    assert workload.stems_below(tsv, 4) == ["0\t2\ta", "3\t1\tb"]
    with pytest.raises(AssertionError):
        workload.stems_below(tsv, 0)


def test_order_in_matches_cyclic_orders():
    assert workload.order_in([8], [2]) == 4
    assert workload.order_in([4, 8], [1, 4]) == 4
    assert workload.order_in([0, 2], [1, 0]) == 0
    assert workload.order_in([2, 2], [0, 0]) == 1


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
