"""Seeded inputs, operations and oracles of the three benchmark workloads.

certify           exact-LP certificates through `lpgraph certify --verify`
                  and `lpgraph polytope`; no grid work.
fft_forms         `lpgraph estimate --preset` on a 1025-point grid; FFT
                  averaging, no cubic shifts and no LP.
triangle_oracles  K3 Gaussian configurations through the Radon pair, the
                  direct quadrature and shell Monte Carlo; cubic shifts, no
                  FFT and no LP.

Every operation returns an `OpResult` whose failures list the oracle checks
it missed.  numpy and lpgraph are imported inside the build functions, never
at module level, because the runner times set-up from a fresh interpreter.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# scratch space, relative to the checkout root the runner changes into
WORK = Path(".perfbench_work")


@dataclass
class OpResult:
    digest: str  # compared across passes, traced and untraced
    values: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    pinned: bool = False  # digest is a certify/polytope artifact hash, pinned across runs


@dataclass
class Op:
    key: str
    run: Callable[[], OpResult]


@dataclass
class Workload:
    modules: tuple[str, ...]  # imported during timed set-up
    build: Callable[[int, bool], list[Op]]
    check: Callable[[list[OpResult]], tuple[dict[int, list[str]], dict[str, float]]]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _out_path(name: str) -> Path:
    out = WORK / "out"
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{name}.json"


def _run_cli(argv: list[str], name: str) -> tuple[int, bytes]:
    from lpgraph import cli

    out = _out_path(name)
    out.unlink(missing_ok=True)
    code = cli.main(argv + ["-o", str(out)])
    return code, out.read_bytes()


def _no_checks(results: list[OpResult]) -> tuple[dict[int, list[str]], dict[str, float]]:
    return {}, {}


# ---------------------------------------------------------------------------
# certify


# pinned (status, sum, witness) of the bundled graphs; None leaves it unchecked
BUNDLED = {
    "path3": ("proven", "5/3", ["2/3", "2/3", "1/3"]),
    "star3": ("proven", "2", None),
    "edge": ("proven", "4/3", None),
    "k3": ("proven", "3/2", None),
    "triangle_pendant": ("proven", "19/6", None),
    "two_triangles": ("proven", "2", None),
    "c4": ("conditional", None, None),
    "c6": ("conditional", None, None),
    "two_blocks_13": ("conditional", None, None),
}

CHAIN3_MISSING = [["1/2", "5/6", "1/3"], ["5/6", "1/2", "1/3"]]

# block sizes of the cactus graphs: triangles only certify exactly, a longer
# cycle goes through the rank probe and the regularity hull
CACTUS_BLOCKS = ((3, 3), (3, 3, 3), (3, 3, 4), (3, 4, 5))
CACTUS_PENDANTS = 3
RANDOM_TREE_SIZES = (13, 14)  # above the root-enumeration limit of 12


def graph_text(n: int, edges) -> str:
    return f"n {n}\n" + "".join(f"e {i} {j}\n" for i, j in sorted(edges))


def random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform labelled tree on 1..n by Pruefer decoding."""
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append(tuple(sorted((leaf, v))))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append(tuple(sorted((heapq.heappop(leaves), heapq.heappop(leaves)))))
    return edges


def cactus_edges(rng: random.Random, blocks, pendants: int) -> tuple[int, list]:
    """Cycles of the given sizes glued at random cut vertices, then pendant
    vertices hung on random vertices (so pendant trees form)."""
    n, edges, verts = 1, [], [1]
    order = list(blocks)
    rng.shuffle(order)
    for k in order:
        ring = [rng.choice(verts)] + list(range(n + 1, n + k))
        edges += [tuple(sorted((ring[i], ring[(i + 1) % k]))) for i in range(k)]
        n += k - 1
        verts += ring[1:]
    for _ in range(pendants):
        n += 1
        edges.append((rng.choice(verts), n))
        verts.append(n)
    return n, edges


def _write_graph(stem: str, text: str) -> str:
    gdir = WORK / "graphs"
    gdir.mkdir(parents=True, exist_ok=True)
    path = gdir / f"{stem}.graph"
    path.write_text(text)
    return str(path)


def _expect(status: str | None, total: str | None = None,
            witness=None) -> Callable[[dict], list[str]]:
    def check(res: dict) -> list[str]:
        bad = []
        if status is not None and res["status"] != status:
            bad.append(f"status {res['status']}, want {status}")
        if total is not None and res["sum"] != total:
            bad.append(f"sum {res['sum']}, want {total}")
        if witness is not None and res["witness"] != witness:
            bad.append(f"witness {res['witness']}, want {witness}")
        if res["status"] != "unknown" and Fraction(res["sum"]) <= 1:
            bad.append(f"sum {res['sum']} does not beat 1")
        return bad
    return check


def certify_op(path: str, name: str, expect: Callable[[dict], list[str]]) -> Op:
    def run() -> OpResult:
        code, data = _run_cli(["certify", path, "--verify"], name)
        res = json.loads(data)["result"]
        bad = [] if code == 0 else [f"exit code {code}"]
        replay = res.get("replay", {})
        if not replay.get("ok"):
            bad.append(f"replay failed: {replay.get('failure')}")
        bad += expect(res)
        return OpResult(sha256(data), {"status": res["status"]}, bad, pinned=True)
    return Op(f"certify:{path}", run)


def _rats(seq) -> list[Fraction]:
    return [Fraction(c) for c in seq]


def _combination_errors(vertices, weights, point, what: str) -> list[str]:
    lam = _rats(weights)
    verts = [_rats(v) for v in vertices]
    if len(lam) != len(verts) or any(w < 0 for w in lam) or sum(lam) != 1:
        return [f"{what} witness is not a convex combination"]
    for i, x in enumerate(point):
        if sum(w * v[i] for w, v in zip(lam, verts)) != x:
            return [f"{what} witness does not reproduce the point"]
    return []


def check_polytope(res: dict, kind: str, point: list[Fraction]) -> list[str]:
    """Recheck a polytope artifact with exact arithmetic of our own."""
    bad = []
    if not res["containment"]["contained"]:
        bad.append("sufficient region not inside the necessary system")
    chk = res["check"]
    rows = res["necessary"]["rows"]
    violated = []
    for row in rows:
        val = sum(c * x for c, x in zip(_rats(row["coeffs"]), point))
        rhs = Fraction(row["rhs"])
        if not (val <= rhs if row["relation"] == "<=" else val >= rhs):
            violated.append(row["label"])
    if chk["necessary"]["violated"] != violated or chk["necessary"]["satisfied"] != (not violated):
        bad.append(f"necessary check {chk['necessary']}, recomputed violations {violated}")
    inside = chk["sufficient"]["inside"]
    if inside:
        bad += _combination_errors(res["sufficient"]["vertices"],
                                   chk["sufficient"]["witness"], point, "sufficient")
        if violated:
            bad.append("point inside the sufficient region violates a necessary row")
    if kind == "chain3":
        c_inside = chk["constructed"]["inside"]
        if c_inside:
            bad += _combination_errors(res["constructed"]["vertices"],
                                       chk["constructed"]["witness"], point, "constructed")
        if chk["discrepant_point"] != (c_inside and not inside):
            bad.append("discrepant_point disagrees with the two memberships")
        disc = res["discrepancy"]
        if not disc["flagged"] or disc["missing_endpoints"] != CHAIN3_MISSING:
            bad.append(f"chain3 discrepancy not flagged with both endpoints: {disc}")
    return bad


def polytope_op(kind: str, point: list[Fraction], name: str,
                want_discrepant: bool | None = None) -> Op:
    text = [str(c) for c in point]

    def run() -> OpResult:
        code, data = _run_cli(["polytope", "--kind", kind, "--check", *text], name)
        res = json.loads(data)["result"]
        bad = [] if code == 0 else [f"exit code {code}"]
        bad += check_polytope(res, kind, point)
        if want_discrepant is not None and res["check"]["discrepant_point"] != want_discrepant:
            bad.append(f"discrepant_point should be {want_discrepant}")
        return OpResult(sha256(data), {}, bad, pinned=True)
    return Op(f"polytope:{kind}:{','.join(text)}", run)


def build_certify(seed: int, smoke: bool) -> list[Op]:
    import networkx as nx

    rng = random.Random(seed)
    ops = []
    for path in sorted(Path("graphs").glob("*.graph")):
        if smoke and path.stem not in ("path3", "k3", "c4"):
            continue
        pin = BUNDLED.get(path.stem, (None, None, None))
        ops.append(certify_op(f"graphs/{path.name}", path.stem, _expect(*pin)))
    for n in range(2, (4 if smoke else 7) + 1):
        for i, tree in enumerate(nx.nonisomorphic_trees(n)):
            edges = [(u + 1, v + 1) for u, v in tree.edges()]
            stem = f"tree{n}-{i}"
            ops.append(certify_op(_write_graph(stem, graph_text(n, edges)), stem,
                                  _expect("proven")))
    graphs = [(n, random_tree_edges(rng, n), "proven")
              for n in ((8,) if smoke else RANDOM_TREE_SIZES)]
    for blocks in CACTUS_BLOCKS[1:3] if smoke else CACTUS_BLOCKS:
        n, edges = cactus_edges(rng, blocks, CACTUS_PENDANTS)
        graphs.append((n, edges, "proven" if set(blocks) == {3} else "conditional"))
    for n, edges, status in graphs:
        text = graph_text(n, edges)
        stem = f"g{n}-{sha256(text.encode())[:12]}"
        ops.append(certify_op(_write_graph(stem, text), stem, _expect(status)))
    third = Fraction(1, 3)
    ops.append(polytope_op("chain3", [2 * third, 2 * third, third], "chain3-gap",
                           want_discrepant=True))
    for kind in ("triangle", "chain3"):
        point = [Fraction(rng.randint(0, 6), 6) for _ in range(3)]
        ops.append(polytope_op(kind, point, f"{kind}-check"))
    return ops


# ---------------------------------------------------------------------------
# fft_forms


FFT_GRID_POINTS = 1025
PRESETS = ("chain3-ball-ball-annulus", "chain3-annulus-annulus-ball",
           "chain3-ball-constant-annulus", "bigball", "ratio-bounded",
           "ratio-growing", "kernel-decay")
SLOPE_TOL = 0.2
BALL_TOL = 0.01
RATIO_SPREAD_MAX = 4.0
BESSEL_TOL = 1e-3


def ball_radial_integral(R: float, nodes: int = 64) -> float:
    """Integral over B_R of (A 1_{B_R})^2, A the unit-circle average.

    For |x| = r the circle around x lies inside B_R on the fraction
    1 - arccos(c)/pi of its length, c = (R^2 - r^2 - 1) / (2r); it is whole
    for r <= R - 1.  The substitution r = R - 1 + s^2 removes the square
    root at r = R - 1, so Gauss-Legendre converges fast.  Needs R >= 1.
    """
    import numpy as np

    if R < 1.0:
        raise ValueError("radius must be at least 1")
    lo = R - 1.0
    t, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * (t + 1.0)
    r = lo + s * s
    dr = s * w  # dr/ds = 2 s, times the half-length 1/2 of [0, 1]
    c = np.clip((R * R - r * r - 1.0) / (2.0 * r), -1.0, 1.0)
    a = 1.0 - np.arccos(c) / math.pi
    return math.pi * lo * lo + float(np.sum(2.0 * math.pi * r * a * a * dr))


def bessel_j0(x: float) -> float:
    """J0 by its power series; accurate to rounding for |x| <= 10."""
    term, total, k = 1.0, 1.0, 0
    while abs(term) > 1e-17 * max(1.0, abs(total)):
        k += 1
        term *= -(x * x / 4.0) / (k * k)
        total += term
    return total


def check_estimate(preset: str, res: dict) -> tuple[list[str], dict[str, float]]:
    bad: list[str] = []
    vals: dict[str, float] = {}
    if "expected_slope" in res and preset != "bigball":
        err = abs(res["slope"] - res["expected_slope"])
        vals["slope_abs_err"] = err
        if err > SLOPE_TOL:
            bad.append(f"slope {res['slope']:.4f}, want {res['expected_slope']} +- {SLOPE_TOL}")
    elif preset == "bigball":
        rel = max(abs(row["lambda"] / ball_radial_integral(row["param"]) - 1.0)
                  for row in res["rows"])
        vals["ball_oracle_rel"] = rel
        vals["bigball_slope"] = res["slope"]
        if rel > BALL_TOL:
            bad.append(f"bigball off the radial integral by {rel:.2%}")
    elif preset == "ratio-bounded":
        ratios = [row["ratio"] for row in res["rows"]]
        if not max(ratios) / min(ratios) < RATIO_SPREAD_MAX:
            bad.append(f"bounded ratios spread {max(ratios) / min(ratios):.3f}")
    elif preset == "ratio-growing":
        ratios = [row["ratio"] for row in res["rows"]]
        if not all(a < b for a, b in zip(ratios, ratios[1:])):
            bad.append(f"growing ratios not increasing: {ratios}")
    elif preset == "kernel-decay":
        rows = res["rows"]
        if max(row["normalized"] for row in rows) > 1.0:
            bad.append("decay-normalized magnitude above 1")
        at_one = next(row["magnitude"] for row in rows if row["freq"] == 1.0)
        if abs(at_one - abs(bessel_j0(2.0 * math.pi))) > BESSEL_TOL + res["epsilon"]:
            bad.append(f"|sigma_hat(1)| {at_one:.6f} off |J0(2 pi)|")
    return bad, vals


def estimate_op(preset: str, grid_points: int, seed: int) -> Op:
    argv = ["estimate", "--preset", preset, "--grid-points", str(grid_points),
            "--seed", str(seed)]

    def run() -> OpResult:
        code, data = _run_cli(argv, preset)
        bad, vals = check_estimate(preset, json.loads(data)["result"])
        if code != 0:
            bad.insert(0, f"exit code {code}")
        return OpResult(sha256(data), vals, bad)
    return Op(f"estimate:{preset}:{grid_points}", run)


def build_fft(seed: int, smoke: bool) -> list[Op]:
    presets = list(("ratio-bounded", "kernel-decay") if smoke else PRESETS)
    random.Random(seed).shuffle(presets)
    grid = 257 if smoke else FFT_GRID_POINTS
    return [estimate_op(p, grid, seed) for p in presets]


def check_fft(results: list[OpResult]) -> tuple[dict[int, list[str]], dict[str, float]]:
    figures: dict[str, float] = {}
    for res in results:
        for name, val in res.values.items():
            figures[name] = max(figures.get(name, val), val)
    return {}, figures


# ---------------------------------------------------------------------------
# triangle_oracles


TRI_L = 3.0  # room for the moved Gaussians plus the 1 + eps margin
TRI_POINTS = 129
TRI_WIDTH = 0.15
TRI_SHIFT = 0.3  # translation radius of the rigid motions
TRI_CONFIGS = 2
# 4e6 samples put the 10% grid-vs-MC tolerance at about 4 standard errors;
# at 1e6 (4.7% error) it would fail about one configuration in thirty by chance
MC_SAMPLES = 4_000_000
RADON_DIRECT_TOL = 1e-3
GRID_MC_TOL = 0.10
PULL_MAX = 3.0
TRI_KINDS = ("radon64", "direct64", "radon32", "mc32")


def build_triangle(seed: int, smoke: bool) -> list[Op]:
    from lpgraph import estimator, grids, rigidity
    from lpgraph.graphs import triangle

    rng = random.Random(seed)
    g = triangle()
    points = 97 if smoke else TRI_POINTS
    h = grids.grid_spacing(TRI_L, points)
    k64 = estimator.make_kernel(1.0 / 64.0, 512, radial_nodes=4)
    k32 = estimator.make_kernel(1.0 / 32.0, 512, radial_nodes=4)
    r0 = 1.0 / math.sqrt(3.0)
    ops = []
    for c in range(1 if smoke else TRI_CONFIGS):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = TRI_SHIFT * math.sqrt(rng.random())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        dx, dy = rad * math.cos(phi), rad * math.sin(phi)
        fields = []
        for a in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0):
            cx, cy = r0 * math.cos(a + ang) + dx, r0 * math.sin(a + ang) + dy
            fields.append(estimator.test_family("gaussian", TRI_L, h,
                                                center=(cx, cy), width=TRI_WIDTH))
        mc_seed = rng.randrange(2 ** 31)
        key = f"k3:{points}:{ang:.17g}:{dx:.17g}:{dy:.17g}"

        def form(k, method, kind, fields=fields, c=c):
            def run() -> OpResult:
                v = estimator.form_evaluate(g, fields, k, method=method)
                return OpResult(repr(v), {"config": c, "kind": kind, "value": v})
            return run

        def mc(fields=fields, c=c, mc_seed=mc_seed):
            est = rigidity.leray_mc_form(g, fields, epsilon=1.0 / 32.0,
                                         samples=MC_SAMPLES, master_seed=mc_seed)
            scale = (2.0 * math.pi) ** 3
            vals = {"config": c, "kind": "mc32", "value": est.value / scale,
                    "std_error": est.std_error / scale}
            return OpResult(repr((est.value, est.std_error, est.shell_hits)), vals)

        ops += [Op(f"{key}:radon64", form(k64, "radon-pair", "radon64")),
                Op(f"{key}:direct64", form(k64, "direct", "direct64")),
                Op(f"{key}:radon32", form(k32, "radon-pair", "radon32")),
                Op(f"{key}:mc32", mc)]
    return ops


def check_triangle(results: list[OpResult]) -> tuple[dict[int, list[str]], dict[str, float]]:
    """Cross-op oracles; each failure is charged to the op that completes it."""
    at: dict[tuple[int, str], int] = {}
    for i, res in enumerate(results):
        if res.values:
            at[(res.values["config"], res.values["kind"])] = i
    bad: dict[int, list[str]] = {}
    rd, gm, rse = [], [], []
    configs = sorted({c for c, _ in at})
    for c in configs:
        if any((c, k) not in at for k in TRI_KINDS):
            continue  # an op raised; it is already counted as failed
        v = {k: results[at[(c, k)]].values for k in TRI_KINDS}
        rel = abs(v["radon64"]["value"] - v["direct64"]["value"]) / abs(v["direct64"]["value"])
        rd.append(rel)
        if rel > RADON_DIRECT_TOL:
            bad.setdefault(at[(c, "direct64")], []).append(f"radon vs direct {rel:.2e}")
        mcv = v["mc32"]
        rel = abs(v["radon32"]["value"] - mcv["value"]) / abs(v["radon32"]["value"])
        gm.append(rel)
        rse.append(mcv["std_error"] / abs(mcv["value"]))
        if rel > GRID_MC_TOL:
            bad.setdefault(at[(c, "mc32")], []).append(f"grid vs MC {rel:.1%}")
    figures = {}
    if rd:
        figures = {"radon_direct_rel": max(rd), "grid_mc_rel": max(gm),
                   "mc_rel_se": statistics.median(rse)}
    if (0, "mc32") in at and (1, "mc32") in at:
        a, b = results[at[(0, "mc32")]].values, results[at[(1, "mc32")]].values
        pull = abs(a["value"] - b["value"]) / math.hypot(a["std_error"], b["std_error"])
        figures["rigid_motion_pull"] = pull
        if pull > PULL_MAX:
            bad.setdefault(at[(1, "mc32")], []).append(f"rigid-motion pull {pull:.2f} sigma")
    return bad, figures


WORKLOADS = {
    "certify": Workload(("lpgraph.cli", "lpgraph.certificates"), build_certify, _no_checks),
    "fft_forms": Workload(("lpgraph.cli", "lpgraph.estimator"), build_fft, check_fft),
    "triangle_oracles": Workload(("lpgraph.cli", "lpgraph.estimator", "lpgraph.rigidity"),
                                 build_triangle, check_triangle),
}
