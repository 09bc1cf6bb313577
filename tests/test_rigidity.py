import math

import numpy as np
import pytest

from lpgraph.graphs import Graph, cycle, path3, single_edge, triangle
from lpgraph.rigidity import (
    CoincidentEndpointsError,
    Realization,
    RealizationNotFound,
    ZeroAcceptanceError,
    degenerate_cycle_start,
    leray_mc_form,
    numerical_rank,
    pin_to_M0,
    regularity_probe,
    rigidity_jacobian,
    rigidity_map,
    solve_realization,
)
from lpgraph.estimator import test_family as field_family
from lpgraph import grids

EQUILATERAL = Realization(np.array([[0.0, 0.0], [1.0, 0.0],
                                    [0.5, math.sqrt(3.0) / 2.0]]))
C4_FLAT = Realization(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0]]))


def test_rigidity_map_equilateral():
    np.testing.assert_allclose(rigidity_map(triangle(), EQUILATERAL),
                               [1.0, 1.0, 1.0])


def test_rigidity_map_flat_cycle():
    np.testing.assert_allclose(rigidity_map(cycle(4), C4_FLAT), np.ones(4))


def test_rigidity_map_345():
    x = Realization(np.array([[0.0, 0.0], [3.0, 4.0]]))
    np.testing.assert_allclose(rigidity_map(single_edge(), x), [5.0])


def test_rigidity_map_coincident_flagged():
    x = Realization(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(CoincidentEndpointsError):
        rigidity_map(single_edge(), x)


def test_jacobian_rank_flat_cycle_is_three():
    J = rigidity_jacobian(cycle(4), C4_FLAT)
    assert J.shape == (4, 8)
    rank, s, _ = numerical_rank(J)
    assert rank == 3
    assert s[3] < 1e-12  # exactly one vanishing direction


def test_jacobian_rank_equilateral():
    rank, _, _ = numerical_rank(rigidity_jacobian(triangle(), EQUILATERAL))
    assert rank == 3


def test_jacobian_rank_single_edge():
    x = Realization(np.array([[0.0, 0.0], [0.6, 0.8]]))
    rank, _, _ = numerical_rank(rigidity_jacobian(single_edge(), x))
    assert rank == 1


def test_rank_invariant_under_rigid_motion():
    rng = np.random.default_rng(5)
    th = rng.uniform(0, 2 * math.pi)
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    shift = rng.uniform(-3, 3, 2)
    moved = Realization(C4_FLAT.points @ R.T + shift)
    r1, _, _ = numerical_rank(rigidity_jacobian(cycle(4), C4_FLAT))
    r2, _, _ = numerical_rank(rigidity_jacobian(cycle(4), moved))
    assert r1 == r2 == 3


def test_pin_translation_rotation():
    x = Realization(np.array([[5.0, 5.0], [5.0, 6.0]]))
    p = pin_to_M0(x)
    np.testing.assert_allclose(p.points, [[0.0, 0.0], [1.0, 0.0]], atol=1e-12)


def test_pin_preserves_distances_and_orientation():
    pts = np.array([[0.3, -1.2], [1.1, 0.4], [-0.5, 0.9]])
    x = Realization(pts)
    p = pin_to_M0(x)
    for i in range(3):
        for j in range(i + 1, 3):
            assert math.isclose(np.linalg.norm(pts[i] - pts[j]),
                                np.linalg.norm(p.points[i] - p.points[j]),
                                rel_tol=1e-12)
    def cross2(a, b):
        return a[0] * b[1] - a[1] * b[0]

    cross = cross2(pts[1] - pts[0], pts[2] - pts[0])
    cross_p = cross2(p.points[1] - p.points[0], p.points[2] - p.points[0])
    assert np.sign(cross) == np.sign(cross_p)


def test_pin_identity_when_already_pinned():
    p = pin_to_M0(EQUILATERAL)
    np.testing.assert_allclose(p.points, EQUILATERAL.points, atol=1e-15)


def test_pin_when_first_two_points_coincide():
    # non-adjacent vertices 1 and 2 may share a point in a unit realization;
    # the first point distinct from x1 then goes onto the positive x-axis
    pts = np.array([[2.0, 1.0], [2.0, 1.0], [2.0, 1.0], [2.0, 3.0], [3.0, 1.0]])
    p = pin_to_M0(Realization(pts))
    np.testing.assert_allclose(p.points, [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                                          [2.0, 0.0], [0.0, -1.0]], atol=1e-12)
    with pytest.raises(ValueError, match="all points coincide"):
        pin_to_M0(Realization(np.ones((3, 2))))


def test_solve_triangle():
    x = solve_realization(triangle(), seed=3)
    assert x.residual(triangle()) < 1e-10
    np.testing.assert_allclose(rigidity_map(triangle(), x), np.ones(3),
                               atol=1e-8)


def test_solve_four_cycle_is_rhombus():
    x = solve_realization(cycle(4), seed=9)
    np.testing.assert_allclose(rigidity_map(cycle(4), x), np.ones(4), atol=1e-8)


def test_solve_edge_pins_exactly():
    x = solve_realization(single_edge(), seed=0)
    np.testing.assert_allclose(x.points, [[0.0, 0.0], [1.0, 0.0]], atol=1e-10)


def test_solve_impossible_graph_reports_best():
    # K4 has no planar unit realization: some pair is forced off unit distance
    k4 = Graph(4, tuple((i, j) for i in range(1, 5) for j in range(i + 1, 5)))
    with pytest.raises(RealizationNotFound) as exc:
        solve_realization(k4, seed=1, restarts=4)
    assert exc.value.best_residual > 1e-6


def test_probe_triangle_regular():
    rep = regularity_probe(triangle(), num_seeds=25, master_seed=2)
    assert rep.verdict == "regular-at-all-samples"
    assert rep.ranks == {3: 25}
    assert rep.expected_rank == 3
    assert rep.manifold_dim == 3
    assert "cannot prove" in rep.note


def test_probe_four_cycle_with_flat_start():
    rep = regularity_probe(cycle(4), num_seeds=0,
                           starts=[degenerate_cycle_start(4)])
    assert rep.verdict == "rank-deficient-sample-found"
    assert rep.ranks == {3: 1}


def test_probe_six_cycle_emits_report():
    rep = regularity_probe(cycle(6), num_seeds=8, master_seed=1)
    assert rep.samples == 8
    assert rep.manifold_dim == 2 * 6 - 6
    payload = rep.to_json_dict()
    assert payload["verdict"] == rep.verdict


# ---------------------------------------------------------------------------
# shell Monte Carlo


def _gaussians(L, h, centers, width=0.2):
    return [field_family("gaussian", L, h, center=c, width=width)
            for c in centers]


def test_mc_edge_matches_grid_value():
    from lpgraph.estimator import form_evaluate, make_kernel

    L, N = 2.6, 257
    h = 2 * L / (N - 1)
    fs = _gaussians(L, h, [(0.0, 0.0), (1.0, 0.0)])
    k = make_kernel(1 / 32, 512, radial_nodes=4)
    v_grid = form_evaluate(single_edge(), fs, k, method="tree-factor")
    est = leray_mc_form(single_edge(), fs, epsilon=1 / 32, samples=300_000,
                        master_seed=4)
    v_mc = est.value / (2 * math.pi)
    assert est.shell_hits > 0
    assert abs(v_mc - v_grid) <= max(0.1 * v_grid, 4 * est.std_error / (2 * math.pi))


def test_mc_zero_factor_gives_exact_zero():
    L, N = 2.6, 129
    h = 2 * L / (N - 1)
    f = field_family("gaussian", L, h, center=(0, 0), width=0.2)
    zero = f.copy_with(np.zeros_like(f.values))
    est = leray_mc_form(triangle(), [f, f, zero], epsilon=1 / 16,
                        samples=10_000, master_seed=0)
    assert est.value == 0.0 and est.std_error == 0.0


def test_mc_determinism():
    L, N = 2.6, 129
    h = 2 * L / (N - 1)
    fs = _gaussians(L, h, [(0.0, 0.0), (1.0, 0.0)])
    a = leray_mc_form(single_edge(), fs, epsilon=1 / 16, samples=50_000,
                      master_seed=7)
    b = leray_mc_form(single_edge(), fs, epsilon=1 / 16, samples=50_000,
                      master_seed=7)
    assert a.value == b.value and a.std_error == b.std_error


def test_mc_zero_acceptance_raises():
    # functions supported far from any unit-distance pair: the non-tree
    # window of the triangle never fires with so few samples
    L, N = 2.6, 129
    h = 2 * L / (N - 1)
    fs = _gaussians(L, h, [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0)], width=0.05)
    with pytest.raises(ZeroAcceptanceError):
        leray_mc_form(triangle(), fs, epsilon=1e-4, samples=200, master_seed=0)


def test_mc_linear_in_each_factor():
    L, N = 2.6, 129
    h = 2 * L / (N - 1)
    fs = _gaussians(L, h, [(0.0, 0.0), (1.0, 0.0)])
    est1 = leray_mc_form(single_edge(), fs, epsilon=1 / 16, samples=50_000,
                         master_seed=3)
    doubled = [fs[0], fs[1].copy_with(2.0 * fs[1].values)]
    est2 = leray_mc_form(single_edge(), doubled, epsilon=1 / 16,
                         samples=50_000, master_seed=3)
    assert math.isclose(est2.value, 2.0 * est1.value, rel_tol=1e-12)


def test_mc_results_pinned():
    # (value, std_error, shell_hits) recorded before the factors were sampled
    # at accepted points only; a partial last batch is included
    L = 2.6
    h = grids.grid_spacing(L, 97)
    r0 = 1 / math.sqrt(3)
    tri = _gaussians(L, h, [(r0 * math.cos(a), r0 * math.sin(a))
                            for a in (0, 2 * math.pi / 3, 4 * math.pi / 3)],
                     width=0.15)
    est = leray_mc_form(triangle(), tri, epsilon=1 / 32, samples=250_000,
                        master_seed=7)
    assert (est.value, est.std_error, est.shell_hits) == (
        0.019099117577497507, 0.0016927687940635873, 5742)
    chain = [field_family("ball", L, h, delta=0.3),
             field_family("annulus", L, h, delta=0.25),
             field_family("gaussian", L, h, center=(0.2, -0.1), width=0.2)]
    est = leray_mc_form(path3(), chain, epsilon=1 / 16, samples=150_000,
                        master_seed=3)
    assert (est.value, est.std_error, est.shell_hits) == (
        0.0013459331171096123, 4.6403516337823e-05, 150000)
