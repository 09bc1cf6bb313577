"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned
here, not configurable.  Criterion 6's growing-ball sub-check asserts the
asymptotic exponent d = 2 where it holds (R in {20, 40, 80, 160}) and checks
the specified window R in {2..6} against the closed-form radial integral
`ball_radial_integral`, which imports nothing from `lpgraph`.
"""

import json
import math
import time
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import networkx as nx
import pytest

from lpgraph.certificates import certify, replay
from lpgraph.cli import main
from lpgraph.exponents import (
    chain3_constructed_region,
    halfspace_membership,
    hull_membership,
    necessary_halfspaces,
    region_compare,
    sufficient_vertices,
)
from lpgraph.estimator import (
    form_evaluate,
    kernel_decay_check,
    make_kernel,
    ratio_experiment,
    scaling_experiment,
    test_family as field_family,
)
from lpgraph.graphs import (
    Graph,
    path3,
    triangle,
)
from lpgraph.rigidity import (
    Realization,
    leray_mc_form,
    numerical_rank,
    regularity_probe,
    rigidity_jacobian,
)

from graph_figures import (cycle, star, triangle_with_pendant_tree, two_block_figure,
                           two_triangles)

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"
DELTAS = (0.125, 0.0625, 0.03125, 0.015625)


def ball_radial_integral(R: float, nodes: int = 64) -> float:
    """Integral over B_R of (A 1_{B_R})^2, A the unit-circle average.

    This is the 3-chain form on three balls of radius R as eps -> 0.  For
    |x| = r the unit circle around x lies inside B_R on the fraction
    1 - arccos(c)/pi of its length, c = (R^2 - r^2 - 1) / (2r); it is whole
    for r <= R - 1.  The substitution r = R - 1 + s^2 removes the square
    root at r = R - 1, so Gauss-Legendre in s converges fast.  Needs R >= 1.
    """
    if R < 1.0:
        raise ValueError("radius must be at least 1")
    lo = R - 1.0
    t, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * (t + 1.0)
    r = lo + s * s
    dr = s * w  # dr/ds = 2s, times the half-length 1/2 of [0, 1]
    c = np.clip((R * R - r * r - 1.0) / (2.0 * r), -1.0, 1.0)
    a = 1.0 - np.arccos(c) / math.pi
    return math.pi * lo * lo + float(np.sum(2.0 * math.pi * r * a * a * dr))


def test_ball_radial_integral_closed_form():
    # R = 1: the average is arccos(r/2)/pi; r = 2 cos(t) integrates in closed form
    hand = 7.0 * math.pi / 18.0 - 1.0 / (2.0 * math.pi) - math.sqrt(3.0) / 3.0
    assert abs(ball_radial_integral(1.0) - hand) <= 1e-12
    # the disc of radius R - 1 sees the whole circle; the rim adds less than its area
    for R in (2.0, 4.0, 6.0):
        v = ball_radial_integral(R)
        assert math.pi * (R - 1) ** 2 < v < math.pi * R ** 2


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_rank_probes():
    t0 = time.time()
    model = Realization(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0]]))
    rank, s, _ = numerical_rank(rigidity_jacobian(cycle(4), model))
    ok_model = rank == 3
    rep = regularity_probe(triangle(), num_seeds=100, master_seed=0)
    ok_k3 = rep.ranks == {3: 100} and rep.expected_rank == 3
    elapsed = time.time() - t0
    report(1, ok_model and ok_k3 and elapsed < 10.0,
           f"flat 4-cycle rank {rank} (want 3); triangle probe ranks "
           f"{rep.ranks} over 100 seeds; {elapsed:.1f}s")


def test_criterion_2_polytope_consistency():
    t0 = time.time()
    tri_nec = necessary_halfspaces("triangle", 2)
    tri_suf = sufficient_vertices("triangle")
    ok = all(halfspace_membership(tri_nec, v)[0] for v in tri_suf.vertices)
    center = (F(1, 2),) * 3
    _, _, tight = halfspace_membership(tri_nec, center)
    ok &= {"triangle-5", "triangle-6", "triangle-7"} <= set(tight)
    ok &= all(row.evaluate(center) == F(5) for row in tri_nec.rows[4:])
    ch_nec = necessary_halfspaces("chain3", 2)
    ch_suf = sufficient_vertices("chain3")
    ok &= all(halfspace_membership(ch_nec, v)[0] for v in ch_suf.vertices)
    ok &= region_compare(tri_suf, tri_nec).contained
    ok &= region_compare(ch_suf, ch_nec).contained
    elapsed = time.time() - t0
    report(2, ok and elapsed < 1.0,
           f"both sufficient polygons inside their necessary systems, "
           f"center tight on 5-7 at value 5; {elapsed:.2f}s")


def test_criterion_3_discrepancy_detection(tmp_path):
    t0 = time.time()
    constructed = chain3_constructed_region(2)
    suf = sufficient_vertices("chain3")
    pt = (F(2, 3), F(2, 3), F(1, 3))
    ok = hull_membership(constructed, pt)[0] and not hull_membership(suf, pt)[0]
    out = tmp_path / "poly.json"
    code = main(["polytope", "--kind", "chain3", "--check", "2/3", "2/3", "1/3",
                 "-o", str(out)])
    doc = json.loads(out.read_text())
    disc = doc["result"]["discrepancy"]
    ok &= code == 0 and disc["flagged"] is True
    ok &= disc["missing_endpoints"] == [["1/2", "5/6", "1/3"],
                                        ["5/6", "1/2", "1/3"]]
    elapsed = time.time() - t0
    report(3, ok and elapsed < 1.0,
           f"(2/3,2/3,1/3) inside the constructed region, outside the stated "
           f"polygon, flagged with both missing endpoints; {elapsed:.2f}s")


def test_criterion_4_tree_certificates():
    t0 = time.time()
    count = 0
    ok = True
    for n in range(2, 9):
        for T in nx.nonisomorphic_trees(n):
            g = Graph(n, tuple(tuple(sorted((u + 1, v + 1)))
                               for u, v in T.edges()))
            cert = certify(g)
            ok &= cert.status == "proven" and cert.total > 1
            ok &= bool(replay(cert))
            count += 1
    p3 = certify(path3())
    ok &= p3.total == F(5, 3) and p3.witness.entries == (F(2, 3), F(2, 3), F(1, 3))
    st = certify(star(3))
    ok &= st.total == F(2)
    elapsed = time.time() - t0
    report(4, ok and elapsed < 30.0,
           f"{count} trees (n<=8, up to isomorphism) proven and replayed; "
           f"chain sum 5/3 at (2/3,2/3,1/3), star sum 2; {elapsed:.1f}s")


def test_criterion_5_composition_coverage():
    t0 = time.time()
    pend = certify(triangle_with_pendant_tree())
    ok = pend.status == "proven" and pend.total > 1 and bool(replay(pend))
    tt = certify(two_triangles())
    ok &= tt.status == "proven" and tt.total > 1 and bool(replay(tt))
    big = certify(two_block_figure(), probe_seeds=8)
    ok &= big.status == "conditional" and big.total > 1 and bool(replay(big))
    ok &= any("regularity" in a or "hull" in a for a in big.assumptions)
    elapsed = time.time() - t0
    report(5, ok and elapsed < 10.0,
           f"pendant figure {pend.status} (sum {pend.total}), two triangles "
           f"{tt.status} (sum {tt.total}), two-block figure {big.status} "
           f"(sum {big.total}); {elapsed:.1f}s")


def test_criterion_6a_scaling_ball_ball_annulus():
    t0 = time.time()
    res = scaling_experiment(path3(), ("ball", "ball", "annulus"), DELTAS,
                             grid_points=513)
    elapsed = time.time() - t0
    report(6, abs(res.slope - 3.0) <= 0.2 and elapsed < 300.0,
           f"(ball, ball, annulus) slope {res.slope:.3f} (want 3.0 +- 0.2); "
           f"{elapsed:.0f}s")


def test_criterion_6b_scaling_annulus_annulus_ball():
    t0 = time.time()
    res = scaling_experiment(path3(), ("annulus", "annulus", "ball"), DELTAS,
                             grid_points=513)
    elapsed = time.time() - t0
    report(6, abs(res.slope - 2.0) <= 0.2 and elapsed < 300.0,
           f"(annulus, annulus, ball) slope {res.slope:.3f} (want 2.0 +- 0.2); "
           f"{elapsed:.0f}s")


def test_criterion_6c_scaling_ball_constant_annulus():
    t0 = time.time()
    res = scaling_experiment(path3(), ("ball", "constant", "annulus"), DELTAS,
                             grid_points=513)
    elapsed = time.time() - t0
    report(6, abs(res.slope - 2.0) <= 0.2 and elapsed < 300.0,
           f"(ball, constant, annulus) slope {res.slope:.3f} (want 2.0 +- 0.2); "
           f"{elapsed:.0f}s")


def test_criterion_6d_scaling_growing_balls():
    # Lambda(1_{B_R}, 1_{B_R}, 1_{B_R}) on the 3-chain grows like |B_R| ~ R^2
    # only for R >> 1: the averaged indicator has a plateau of radius R - 1,
    # so the (R-1)^2 term steers the fit at small R.  The closed form gives
    # log-log slopes 2.433 on R in {2..6}, 2.140 on {6, 8, 10, 12}, 2.067 on
    # {10, 15, 20, 30} and 2.022 on {20, 40, 80, 160}.  So (a) the exponent
    # d = 2 is asserted on {20, 40, 80, 160}, and (b) the specified window
    # {2..6} is checked value by value against the closed form.
    t0 = time.time()
    far = scaling_experiment(path3(), ("ball", "ball", "ball"),
                             [20.0, 40.0, 80.0, 160.0], grid_points=513,
                             epsilon_policy="fixed", fixed_epsilon=1.0 / 16.0)
    near_radii = [2.0, 3.0, 4.0, 5.0, 6.0]
    near = scaling_experiment(path3(), ("ball", "ball", "ball"), near_radii,
                              grid_points=513, epsilon_policy="fixed",
                              fixed_epsilon=1.0 / 16.0)
    elapsed = time.time() - t0
    ok = abs(far.slope - 2.0) <= 0.2
    rel = max(abs(row.value / ball_radial_integral(row.param) - 1.0)
              for row in near.rows)
    ok &= rel <= 0.01
    closed = float(np.polyfit(np.log(near_radii),
                              np.log([ball_radial_integral(R)
                                      for R in near_radii]), 1)[0])
    ok &= abs(near.slope - closed) <= 0.02
    report(6, ok and elapsed < 300.0,
           f"growing balls: slope {far.slope:.3f} on R in {{20..160}} (want "
           f"2.0 +- 0.2); on R in {{2..6}} max deviation {rel:.2%} from the "
           f"closed-form radial integral (<=1%) and slope {near.slope:.3f} vs "
           f"closed form {closed:.3f} (+-0.02; window slopes 2.433 on {{2..6}}, "
           f"2.140 on {{6..12}}, 2.067 on {{10..30}}, 2.022 on {{20..160}}); "
           f"{elapsed:.0f}s")


def _k3_gaussians(L, n_points, width=0.15):
    h = 2 * L / (n_points - 1)
    r0 = 1.0 / math.sqrt(3.0)
    centers = [(r0 * math.cos(a), r0 * math.sin(a))
               for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    return [field_family("gaussian", L, h, center=c, width=width)
            for c in centers]


def test_criterion_7_oracle_cross_validation():
    t0 = time.time()
    g = triangle()
    fields = _k3_gaussians(2.6, 257)
    k64 = make_kernel(1.0 / 64.0, 512, radial_nodes=4)
    v_radon = form_evaluate(g, fields, k64, method="radon-pair")
    v_direct = form_evaluate(g, fields, k64, method="direct")
    rel_rd = abs(v_radon - v_direct) / abs(v_direct)
    ok = rel_rd <= 1e-3

    k32 = make_kernel(1.0 / 32.0, 512, radial_nodes=4)
    v_grid = form_evaluate(g, fields, k32, method="radon-pair")
    est = leray_mc_form(g, fields, epsilon=1.0 / 32.0, samples=10 ** 6,
                        master_seed=11)
    scale = (2.0 * math.pi) ** 3
    v_mc = est.value / scale
    rel_gm = abs(v_grid - v_mc) / abs(v_grid)
    ok &= rel_gm <= 0.10

    ang, dx, dy = 0.7, 0.25, -0.15
    r0 = 1.0 / math.sqrt(3.0)
    moved_centers = []
    for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3):
        cx, cy = r0 * math.cos(a), r0 * math.sin(a)
        moved_centers.append((cx * math.cos(ang) - cy * math.sin(ang) + dx,
                              cx * math.sin(ang) + cy * math.cos(ang) + dy))
    h = 2 * 2.6 / 256
    moved = [field_family("gaussian", 2.6, h, center=c, width=0.15)
             for c in moved_centers]
    est2 = leray_mc_form(g, moved, epsilon=1.0 / 32.0, samples=10 ** 6,
                         master_seed=12)
    sigma = math.hypot(est.std_error, est2.std_error)
    pull = abs(est.value - est2.value) / sigma
    ok &= pull <= 3.0
    elapsed = time.time() - t0
    report(7, ok and elapsed < 600.0,
           f"radon vs direct {rel_rd:.2e} (<=1e-3); grid vs MC {rel_gm:.1%} "
           f"(<=10%); rigid-motion pull {pull:.2f} sigma (<=3); {elapsed:.0f}s")


def test_criterion_8_improving_evidence():
    t0 = time.time()
    bounded = ratio_experiment(1.5, 3.0, "annulus", DELTAS, grid_points=1025)
    rb = [r.ratio for r in bounded]
    ok = max(rb) / min(rb) < 4.0
    growing = ratio_experiment(1.5, 6.0, "annulus", DELTAS, grid_points=1025)
    rg = [r.ratio for r in growing]
    ok &= all(a < b for a, b in zip(rg, rg[1:]))
    elapsed = time.time() - t0
    report(8, ok and elapsed < 300.0,
           f"(3/2,3) max/min {max(rb)/min(rb):.2f} (<4); (3/2,6) ratios "
           f"{[f'{r:.3f}' for r in rg]} strictly increasing; {elapsed:.0f}s")


def test_criterion_9_kernel_decay():
    t0 = time.time()
    from scipy.special import j0

    eps = 1.0 / 64.0
    k = make_kernel(eps, 512, radial_nodes=6)
    rows = kernel_decay_check(k, [float(v) for v in range(2, 65, 2)],
                              h=1.0 / 256.0)
    ok = max(r[2] for r in rows) <= 1.0
    at_one = kernel_decay_check(k, [1.0], h=1.0 / 256.0)[0][1]
    bessel = abs(j0(2.0 * math.pi))
    ok &= abs(at_one - bessel) <= 1e-3 + eps
    elapsed = time.time() - t0
    report(9, ok and elapsed < 60.0,
           f"decay-normalized magnitude max {max(r[2] for r in rows):.3f} on "
           f"[2,64] (<=1); at |xi|=1: {at_one:.6f} vs Bessel {bessel:.6f}; "
           f"{elapsed:.0f}s")


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    pairs = []
    for tag, args in [
        ("certify", ["certify", str(GRAPHS / "two_triangles.graph"),
                     "--seed", "7"]),
        ("realize", ["realize", str(GRAPHS / "k3.graph"), "--seeds", "8",
                     "--seed", "7"]),
        ("polytope", ["polytope", "--kind", "chain3",
                      "--check", "2/3", "2/3", "1/3"]),
        ("estimate", ["estimate", "--preset", "kernel-decay", "--seed", "7"]),
    ]:
        a = tmp_path / f"{tag}_a.json"
        b = tmp_path / f"{tag}_b.json"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        pairs.append((tag, a.read_bytes() == b.read_bytes()))
    ok = all(same for _, same in pairs)
    elapsed = time.time() - t0
    report(10, ok, f"byte-identical reruns: "
           f"{', '.join(t for t, s in pairs if s)}; {elapsed:.0f}s")
