import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lpgraph.graphs import Graph, path3, triangle
from lpgraph.rigidity import (
    RESIDUAL_TOL,
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

from graph_figures import cycle, single_edge

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


def _cactus(sizes, anchors):
    """Cycles of the given sizes, each glued at one vertex of those before."""
    n, edges = 1, []
    for k, a in zip(sizes, anchors):
        ring = [a % n + 1] + list(range(n + 1, n + k))
        edges += [(ring[i], ring[(i + 1) % k]) for i in range(k)]
        n += k - 1
    return Graph(n, tuple(edges))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(3, 9), min_size=1, max_size=3),
       st.lists(st.integers(0, 50), min_size=3, max_size=3),
       st.integers(0, 2 ** 32))
def test_solve_cycles_and_cacti(sizes, anchors, seed):
    # one size is a cycle of that length; more glue a cactus
    g = _cactus(sizes, anchors)
    x = solve_realization(g, seed=seed)
    assert x.residual(g) < RESIDUAL_TOL
    # pinned: x1 at the origin, the first point apart from it on the +x axis
    assert x.points[0].tolist() == [0.0, 0.0]
    apart = x.points[np.hypot(x.points[:, 0], x.points[:, 1]) > 0][0]
    assert apart[0] > 0 and abs(apart[1]) < 1e-12


@pytest.mark.parametrize("n", range(4, 9))
@pytest.mark.parametrize("master_seed", [0, 7])
def test_probe_cycles_find_every_sample(n, master_seed):
    rep = regularity_probe(cycle(n), 12, master_seed)
    assert rep.samples == 12 and rep.failed_seeds == 0
    assert rep.verdict == "regular-at-all-samples"


class _Starts:
    """Stands in for the solver's generator and hands out fixed starts."""

    def __init__(self, *starts):
        self.starts = list(starts)

    def uniform(self, low, high, size):
        return np.array(self.starts.pop(0), dtype=float)


@pytest.mark.parametrize("first_step", [False, True])
def test_collapsed_edge_fails_the_restart(monkeypatch, first_step):
    # an edge of length zero has no gradient.  The first start has one at
    # the start itself or, after its first Newton step, at (0.25, 0.25);
    # exact arithmetic never collapses an edge, so that step is substituted
    start = [0.0, 0.0, 0.5, 0.5] if first_step else [1.0, 1.0, 1.0, 1.0]
    lstsq = np.linalg.lstsq
    steps = []
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda J, r: (steps.pop(),) if steps else lstsq(J, r))

    def solve(restarts):
        steps[:] = [np.subtract(start, 0.25)] if first_step else []
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _Starts(start, [0.0, 0.0, 2.0, 0.0]))
        return solve_realization(single_edge(), seed=0, restarts=restarts)

    with pytest.raises(RealizationNotFound):
        solve(1)
    np.testing.assert_allclose(solve(2).points, [[0.0, 0.0], [1.0, 0.0]],
                               atol=1e-12)
    assert not steps


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


def _guide_cases():
    rng = np.random.default_rng(11)
    smooth = field_family("gaussian", 2.6, grids.grid_spacing(2.6, 97),
                          center=(0.3, -0.2), width=0.15).values.ravel()
    sparse = rng.standard_normal(5000) * (rng.random(5000) < 0.02)
    one = np.zeros(300)
    one[137] = 2.5
    return {
        "smooth": smooth,
        "zero plateaus and negatives": sparse,
        "all mass in one cell": one,
        "single cell": np.array([-3.0]),
        "mass at both ends": np.r_[1.0, np.zeros(100), -1e-300, np.zeros(50), 7.0],
        "wide range": rng.standard_normal(2000) * 10.0 ** rng.integers(-200, 5, 2000),
    }


@pytest.mark.parametrize("name", list(_guide_cases()))
def test_guide_table_inverts_like_searchsorted(name):
    from lpgraph.rigidity import GUIDE_BUCKETS, _cdf_guide, _invert_cdf

    cum = np.cumsum(np.abs(_guide_cases()[name]))
    total = cum[-1]
    edges = np.arange(GUIDE_BUCKETS + 1) * (total / GUIDE_BUCKETS)
    draws = np.concatenate([
        np.random.default_rng(3).random(200_000) * total,
        cum, np.nextafter(cum, 0.0), np.nextafter(cum, np.inf),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        [0.0, total]])
    draws = draws[(draws >= 0.0) & (draws <= total)]
    got = _invert_cdf(cum, _cdf_guide(cum), draws)
    assert np.array_equal(got, np.searchsorted(cum, draws, side="right"))


def test_mc_results_pinned():
    # (value, std_error, shell_hits), a partial last batch included.
    # Recorded when the strata came to be drawn first and the radii and
    # root cells for windowed samples only: 0.46 and 0.20 combined standard
    # errors from the pins of the draw order before (CHANGES.md)
    L = 2.6
    h = grids.grid_spacing(L, 97)
    r0 = 1 / math.sqrt(3)
    tri = _gaussians(L, h, [(r0 * math.cos(a), r0 * math.sin(a))
                            for a in (0, 2 * math.pi / 3, 4 * math.pi / 3)],
                     width=0.15)
    est = leray_mc_form(triangle(), tri, epsilon=1 / 32, samples=250_000,
                        master_seed=7)
    assert (est.value, est.std_error, est.shell_hits) == (
        0.018014357450219804, 0.0016701762939287457, 5838)
    chain = [field_family("ball", L, h, delta=0.3),
             field_family("annulus", L, h, delta=0.25),
             field_family("gaussian", L, h, center=(0.2, -0.1), width=0.2)]
    est = leray_mc_form(path3(), chain, epsilon=1 / 16, samples=150_000,
                        master_seed=3)
    assert (est.value, est.std_error, est.shell_hits) == (
        0.0013591300737468143, 4.5946219321335206e-05, 150000)


@pytest.mark.parametrize("epsilon", [0.0, -0.5, 1.0, 2.0])
def test_mc_rejects_epsilon_outside_unit_interval(epsilon):
    # at eps >= 1 the shell radii reach zero or below, and the weight 2 pi r
    # with them
    L = 2.6
    fs = _gaussians(L, grids.grid_spacing(L, 33), [(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        leray_mc_form(single_edge(), fs, epsilon=epsilon, samples=100,
                      master_seed=0)


K4 = Graph(4, tuple((i, j) for i in range(1, 5) for j in range(i + 1, 5)))
# K4 without the edge 1-4: the BFS tree from 1 is 1-2, 1-3, 2-4, so the
# non-tree edge 2-3 joins two children of 1 and 3-4 does not
K4_MINUS_14 = Graph(4, ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)))
_HALF_ROOT3 = math.sqrt(3.0) / 2.0
# graph, centers, gaussian width, epsilon, samples, seed, (value, std_error,
# shell_hits), recorded with test_mc_results_pinned: 1.30, 1.20 and 1.67
# combined standard errors from the pins of the draw order before
SIBLING_PINS = {
    "C4, no sibling edge": (
        cycle(4), [(0, 0), (1, 0), (1, 1), (0, 1)], 0.15, 1 / 16, 130_000, 5,
        (0.006207121982918868, 0.0017671534545307468, 11298)),
    "K4, three sibling windows": (
        K4, [(-0.41, -0.41), (0.41, -0.41), (0.41, 0.41), (-0.41, 0.41)],
        0.25, 0.3, 230_000, 6,
        (0.003521546861066727, 0.0012845018264060126, 839)),
    "K4 - 14, one sibling window": (
        K4_MINUS_14, [(0, 0), (0.5, _HALF_ROOT3), (1, 0), (1.5, _HALF_ROOT3)],
        0.15, 1 / 8, 170_000, 8,
        (0.0028735898970133843, 0.00104494311948138, 1525)),
}


@pytest.mark.parametrize("name", list(SIBLING_PINS))
def test_mc_sibling_windows_pinned(name):
    g, centers, width, epsilon, samples, seed, pinned = SIBLING_PINS[name]
    L = 2.6
    fs = _gaussians(L, grids.grid_spacing(L, 97), centers, width=width)
    est = leray_mc_form(g, fs, epsilon=epsilon, samples=samples,
                        master_seed=seed)
    assert (est.value, est.std_error, est.shell_hits) == pinned


# as eps rises to 1/3 the window's lower end falls to 0 and its upper end
# rises to pi; from there on it keeps every angle
_THIRD = 1.0 / 3.0
_TIGHT_EPSILONS = [1 / 32, 1 / 16, 0.3, _THIRD, np.nextafter(_THIRD, 0.0),
                   np.nextafter(_THIRD, 1.0), _THIRD - 1e-12, _THIRD + 1e-12,
                   _THIRD - 1e-8]
_EPSILONS = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                      st.sampled_from(_TIGHT_EPSILONS))


def _shell_edges(epsilon):
    """The folded angles at which two children at extreme radii lie exactly
    1 - eps and 1 + eps apart, the edges of the unpadded window."""
    low = (1 - epsilon) ** 2 - 4 * epsilon ** 2
    high = (1 + epsilon) / (2 * (1 - epsilon))
    return [2 * math.asin(math.sqrt(max(low, 0.0)) / (2 * (1 + epsilon))),
            2 * math.asin(min(high, 1.0))]


@st.composite
def _sibling_pair(draw):
    """epsilon, a parent point, and two children's radii and angles.  Half
    the pairs are tight: radii at the ends of [1 - eps, 1 + eps] or an ulp
    inside, and an angle difference a few ulps from a window end, where a
    window that is too narrow loses accepted samples."""
    from lpgraph.rigidity import _sibling_window

    epsilon = draw(_EPSILONS)
    lo, hi = 1.0 - epsilon, 1.0 + epsilon
    ends = [*_sibling_window(epsilon), *_shell_edges(epsilon)]
    if draw(st.booleans()):
        radius = st.sampled_from([lo, np.nextafter(lo, 2.0), hi, np.nextafter(hi, 0.0)])
        diff = st.builds(lambda e, k: e + k * np.spacing(e),
                         st.sampled_from(ends), st.integers(-4, 4))
    else:
        radius = st.floats(lo, hi)
        diff = st.floats(0.0, math.pi)
    r = (draw(radius), draw(radius))
    delta = draw(diff)
    th_j = draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    th_i = th_j + draw(st.sampled_from([delta, -delta, 2.0 * math.pi - delta]))
    th_i = float(np.mod(th_i, 2.0 * math.pi))
    assume(0.0 <= th_i < 2.0 * math.pi)
    rad = draw(st.floats(0.0, 3.0))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    return epsilon, (rad * math.cos(phi), rad * math.sin(phi)), r, (th_i, th_j)


@settings(max_examples=1000, deadline=None)
@given(_sibling_pair())
@example((_THIRD, (0.0, 0.0), (4 / 3, 2 / 3), (6.283185300277053, 0.0)))
def test_sibling_window_keeps_every_accepted_pair(pair):
    # positions and distance computed exactly as the sampler does, on
    # arrays: whenever the exact shell test accepts, the window keeps
    from lpgraph.rigidity import _in_sibling_window, _sibling_window

    epsilon, p, r, th = pair
    r, th = np.array(r), np.array(th)
    x = p[0] + r * np.cos(th)
    y = p[1] + r * np.sin(th)
    dx, dy = np.array([x[0], y[0]]) - np.array([x[1], y[1]])
    d = np.sqrt(dx * dx + dy * dy)
    if np.abs(d - 1.0) <= epsilon:
        assert _in_sibling_window(th[:1], th[1:], _sibling_window(epsilon))[0], pair


def test_sibling_window_keeps_every_tight_pair():
    # every combination of the tight choices above, on one array per
    # epsilon; a window padded in angle instead of distance loses some of
    # these at eps = 1/3 and the float below it
    from lpgraph.rigidity import _in_sibling_window, _sibling_window

    for epsilon in _TIGHT_EPSILONS:
        lo, hi = 1.0 - epsilon, 1.0 + epsilon
        radii = [lo, np.nextafter(lo, 2.0), hi, np.nextafter(hi, 0.0)]
        ends = np.array([*_sibling_window(epsilon), *_shell_edges(epsilon)])
        delta = (ends[:, None] + np.arange(-4, 5) * np.spacing(ends)[:, None]).ravel()
        turns = np.concatenate([delta, -delta, 2.0 * math.pi - delta])
        parents = np.array([[0.0, 0.0], [-2.9, 0.7], [1.3, 2.6]])
        r_i, r_j, turn, th_j, k = (a.ravel() for a in np.meshgrid(
            radii, radii, turns, [0.0, 1.0, 3.0, 5.5], range(len(parents)),
            indexing="ij"))
        px, py = parents[k].T
        th_i = np.mod(th_j + turn, 2.0 * math.pi)
        dx = (px + r_i * np.cos(th_i)) - (px + r_j * np.cos(th_j))
        dy = (py + r_i * np.sin(th_i)) - (py + r_j * np.sin(th_j))
        d = np.sqrt(dx * dx + dy * dy)
        accepted = np.abs(d - 1.0) <= epsilon
        kept = _in_sibling_window(th_i, th_j, _sibling_window(epsilon))
        assert not np.any(accepted & ~kept), epsilon


def test_trig_of_gathered_angles_matches_full_array():
    # the sampler takes np.cos and np.sin of the kept angles, arrays of any
    # length, while the window tests above place one or two samples at a
    # time; their guarantee carries over only if each element rounds alike
    # whichever SIMD lane or loop tail it lands in
    m = 10 ** 6
    rng = np.random.default_rng(19)
    th = (rng.permutation(m) + rng.random(m)) * (2.0 * math.pi / m)
    full = {fn: fn(th) for fn in (np.cos, np.sin)}
    for density in (0.001, 0.023, 0.047, 0.5, 0.99):
        kept = np.flatnonzero(rng.random(m) < density)
        for length in (kept.size, kept.size - 1, kept.size - 3, 13, 7, 1):
            sel = kept[:length]
            for fn, out in full.items():
                assert np.array_equal(fn(th[sel]), out[sel]), (fn, density, length)


_JITTERS = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                     st.sampled_from([0.0, np.nextafter(1.0, 0.0)]))


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 49), _EPSILONS, st.data())
def test_stratum_prefilter_keeps_every_windowed_sample(m, epsilon, data):
    # the sampler draws the angle jitters only where the strata leave a
    # pair near the window; testing the angles there must keep exactly the
    # samples that the window keeps on the full batch
    from lpgraph.rigidity import _in_sibling_window, _near_sibling_window, _sibling_window

    window = _sibling_window(epsilon)
    strata = [np.arange(m), np.array(data.draw(st.permutations(range(m))))]
    jitter = [np.array(data.draw(st.lists(_JITTERS, min_size=m, max_size=m)))
              for _ in strata]

    def angles(at):
        return [(s[at] + u[at]) * (2.0 * math.pi / m) for s, u in zip(strata, jitter)]

    full = np.flatnonzero(_in_sibling_window(*angles(slice(None)), window))
    near = np.flatnonzero(_near_sibling_window(*strata, m, window))
    assert np.array_equal(near[_in_sibling_window(*angles(near), window)], full)


@pytest.mark.parametrize("m", [1, 2, 7, 1000, 100_000])
def test_child_strata_cover_every_stratum_once(m):
    # with no sibling window every sample is kept, and each child's angles
    # fall one into each stratum [s, s + 1] 2 pi / m, s in range(m)
    from lpgraph.rigidity import _window_angles

    k, angle = _window_angles(np.random.default_rng(m), m, [2, 3, 4], [],
                              (0.0, math.pi))
    assert k == m and list(angle) == [2, 3, 4]
    step = 2.0 * math.pi / m
    for th in angle.values():
        th = np.sort(th)
        assert np.all(np.arange(m) * step <= th) and np.all(th <= np.arange(1, m + 1) * step)
