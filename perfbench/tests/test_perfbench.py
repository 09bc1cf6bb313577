"""Tests of the benchmark itself: python -m pytest perfbench/tests -q"""

import json
import math
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n, value, pct, beyond", [
    (1, 1, 50.0, 0),
    (15, 8, 50.0, 7),      # under 20 values nothing has 10 beyond: median
    (20, 10, 50.0, 10),
    (39, 20, 50.0, 19),
    (40, 30, 75.0, 10),
    (100, 90, 90.0, 10),
    (199, 180, 90.0, 19),
    (200, 190, 95.0, 10),
    (1000, 990, 99.0, 10),
    (10000, 9990, 99.9, 10),
])
def test_tail_percentile_keeps_ten_beyond(n, value, pct, beyond):
    xs = list(range(1, n + 1))
    random.Random(n).shuffle(xs)
    assert tracing.tail_percentile(xs) == (value, pct, beyond)
    assert tracing.percentile(xs, 50.0) == (n + 1) // 2


def test_ball_radial_integral_matches_hand_value():
    # R = 1: the average is arccos(r/2)/pi; r = 2 cos(t) integrates in closed form
    hand = 7.0 * math.pi / 18.0 - 1.0 / (2.0 * math.pi) - math.sqrt(3.0) / 3.0
    assert workloads.ball_radial_integral(1.0) == pytest.approx(hand, rel=1e-12)
    # the disc of radius R - 1 sees the whole circle; the rim adds less than its area
    for R in (2.0, 4.0, 6.0):
        v = workloads.ball_radial_integral(R)
        assert math.pi * (R - 1) ** 2 < v < math.pi * R ** 2


def test_bessel_series_matches_scipy():
    from scipy.special import j0

    for x in (0.0, 1.0, 2.0 * math.pi, 9.5):
        assert workloads.bessel_j0(x) == pytest.approx(j0(x), abs=1e-14)


def test_generated_graphs_are_trees_and_cacti():
    rng = random.Random(3)
    for n in (2, 3, 13, 14):
        edges = workloads.random_tree_edges(rng, n)
        assert len(set(edges)) == n - 1 == len(edges)
        assert _connected(n, edges)
    n, edges = workloads.cactus_edges(rng, (3, 4, 5), 3)
    assert n == 1 + 2 + 3 + 4 + 3
    assert len(set(edges)) == len(edges) == 3 + 4 + 5 + 3
    assert _connected(n, edges)


def _connected(n, edges):
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen, stack = {1}, [1]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


def test_polytope_oracle_catches_a_wrong_answer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.chdir(tmp_path)
    point = [Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)]
    code, data = workloads._run_cli(["polytope", "--kind", "chain3", "--check", "2/3", "2/3", "1/3"],
                                    "test-chain3")
    assert code == 0
    res = json.loads(data)["result"]
    assert workloads.check_polytope(res, "chain3", point) == []
    res["check"]["discrepant_point"] = False
    res["discrepancy"]["missing_endpoints"].pop()
    assert len(workloads.check_polytope(res, "chain3", point)) == 2


def _run(workload, trace):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace),
                           "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload, trace", [
    ("certify", 0), ("fft_forms", 0), ("triangle_oracles", 0), ("certify", 1)])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    details = json.loads(proc.stdout.splitlines()[-2])["details"]
    assert details["provenance"]["seed"] == 0
    assert details["provenance"]["threads"]["OMP_NUM_THREADS"] == "1"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
