"""Unit-distance realizations, rank probes, and shell Monte-Carlo integrals.

The distance map F sends a planar configuration to its edge-length vector;
a graph is well-behaved exactly when the all-ones vector is a regular value
of F.  Sampling can refute that but never prove it, so every probe verdict
is phrased as a statement about the samples drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, bfs_tree

RESIDUAL_TOL = 1e-10
RANK_TOL_SHIFT = 2.0 ** -40
# Gauss-Newton iterations per random start of solve_realization
MAX_NFEV = 200
# Monte Carlo samples drawn per random stream; a run's value depends on it
MC_BATCH = 100_000
# equal buckets of the guide table that inverts the root factor's cell masses
GUIDE_BUCKETS = 2 ** 16
# distance by which the shell bounds behind a sibling angle window are
# widened, far above the rounding of the sampled positions
WINDOW_PAD = 1e-9


class CoincidentEndpointsError(ValueError):
    def __init__(self, edge):
        self.edge = edge
        super().__init__(f"edge {edge} has coincident endpoints; "
                         "the distance gradient is undefined there")


class RealizationNotFound(RuntimeError):
    def __init__(self, best_residual: float):
        self.best_residual = best_residual
        super().__init__(
            f"no unit realization found; best residual {best_residual:.3e}")


class ZeroAcceptanceError(RuntimeError):
    """No Monte-Carlo sample landed inside every edge shell."""


@dataclass
class Realization:
    points: np.ndarray  # (n, 2)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def residual(self, g: Graph) -> float:
        return float(np.max(np.abs(rigidity_map(g, self) - 1.0)))

    def to_json(self) -> list[list[float]]:
        return [[float(x), float(y)] for x, y in self.points]


def rigidity_map(g: Graph, x: Realization) -> np.ndarray:
    """Edge lengths in lexicographic edge order."""
    return _edge_geometry(g, x.points)[0]


def rigidity_jacobian(g: Graph, x: Realization) -> np.ndarray:
    """|E| x 2n gradient of the distance map, rows normalized to unit blocks.

    Row scaling by the (positive) edge length does not change the rank, so
    this matches the unnormalized difference-vector convention rank-wise.
    """
    return _edge_geometry(g, x.points)[1]


def _edge_geometry(g: Graph, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge lengths and the unit-row Jacobian at the (n, 2) points pts.

    Raises CoincidentEndpointsError for the first edge of length zero.
    """
    if len(pts) != g.n:
        raise ValueError(f"realization has {len(pts)} points, graph has {g.n}")
    idx = np.array(g.edges, dtype=np.intp).reshape(-1, 2) - 1
    diff = pts[idx[:, 0]] - pts[idx[:, 1]]
    d = np.linalg.norm(diff, axis=1)
    if not d.all():
        raise CoincidentEndpointsError(g.edges[int(np.argmin(d))])
    rows = np.arange(g.num_edges)
    J = np.zeros((g.num_edges, g.n, 2))
    u = diff / d[:, None]
    J[rows, idx[:, 0]] = u
    J[rows, idx[:, 1]] = -u
    return d, J.reshape(g.num_edges, -1)


def numerical_rank(J: np.ndarray) -> tuple[int, np.ndarray, float]:
    """Rank by singular-value gap: sigma counts iff above the spectral floor."""
    s = np.linalg.svd(J, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0, s, 0.0
    tol = max(J.shape) * s[0] * RANK_TOL_SHIFT
    return int(np.sum(s > tol)), s, tol


def pin_to_M0(x: Realization) -> Realization:
    """Rigid motion taking x1 to the origin and x2 onto the positive x-axis.

    Non-adjacent vertices may share a point: when x2 == x1, the first point
    distinct from x1 goes onto the axis instead.  Orientation preserving:
    translation plus rotation, never a reflection.
    """
    p = x.points.copy()
    d = p[1:] - p[0]
    norms = np.hypot(d[:, 0], d[:, 1])
    apart = np.flatnonzero(norms)
    if apart.size == 0:
        raise ValueError("all points coincide; cannot pin")
    k = apart[0]
    c, s = d[k] / norms[k]
    rot = np.array([[c, s], [-s, c]])
    return Realization((p - p[0]) @ rot.T)


def solve_realization(g: Graph, seed: int, restarts: int = 20) -> Realization:
    """Gauss-Newton search for a unit realization from seeded random starts.

    Each start takes up to MAX_NFEV minimum-norm steps x -= J^+ (F(x) - 1)
    (Ben-Israel 1966) and fails if an edge collapses to length zero.
    Success requires max |F(x) - 1| below RESIDUAL_TOL; the result is pinned.
    Raises RealizationNotFound with the best residual after the retry budget.
    """
    rng = np.random.default_rng(seed)
    if g.num_edges == 0:
        return Realization(np.zeros((g.n, 2)))

    best = math.inf
    for _ in range(restarts):
        x = rng.uniform(-g.n, g.n, size=2 * g.n).reshape(-1, 2)
        for _ in range(MAX_NFEV):
            try:
                d, J = _edge_geometry(g, x)
            except CoincidentEndpointsError:
                break
            r = d - 1.0
            res = float(np.max(np.abs(r)))
            best = min(best, res)
            if res < RESIDUAL_TOL:
                return pin_to_M0(Realization(x))
            if not math.isfinite(res):
                break
            x = x - np.linalg.lstsq(J, r)[0].reshape(-1, 2)
    raise RealizationNotFound(best)


@dataclass
class RigidityReport:
    graph: Graph
    samples: int
    ranks: dict[int, int]
    expected_rank: int
    manifold_dim: int
    verdict: str  # regular-at-all-samples | rank-deficient-sample-found | no-realization-found
    singular_values: list[list[float]]
    failed_seeds: int
    note: str = ("sampling cannot prove regularity; this verdict only "
                 "describes the realizations that were found")
    # seed stream 0's realization and residual (best residual if not found)
    example: Realization | None = None
    example_residual: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "samples": self.samples,
            "ranks": {str(k): v for k, v in sorted(self.ranks.items())},
            "expected_rank": self.expected_rank,
            "manifold_dim": self.manifold_dim,
            "verdict": self.verdict,
            "singular_values": self.singular_values,
            "failed_seeds": self.failed_seeds,
            "note": self.note,
        }


def regularity_probe(g: Graph, num_seeds: int, master_seed: int = 0,
                     starts: Sequence[Realization] = ()) -> RigidityReport:
    """Probe the rank of the distance Jacobian at sampled unit realizations.

    Extra deterministic starting configurations can be supplied (e.g. a
    known degenerate point); they are evaluated before the random seeds.
    """
    if num_seeds < 1 and not starts:
        raise ValueError("need at least one seed or start")
    ranks: dict[int, int] = {}
    spectra: list[list[float]] = []
    found = 0
    failed = 0

    def record(x: Realization) -> None:
        nonlocal found
        rank, s, _ = numerical_rank(rigidity_jacobian(g, x))
        ranks[rank] = ranks.get(rank, 0) + 1
        spectra.append([float(v) for v in s])
        found += 1

    for x0 in starts:
        if x0.residual(g) < RESIDUAL_TOL:
            record(pin_to_M0(x0) if x0.n >= 2 else x0)
        else:
            failed += 1

    example = example_residual = None
    for k in range(num_seeds):
        try:
            x = solve_realization(g, seed=_mix_seed(master_seed, k))
        except RealizationNotFound as exc:
            failed += 1
            if k == 0:
                example_residual = exc.best_residual
            continue
        if k == 0:
            example, example_residual = x, x.residual(g)
        record(x)

    expected = g.num_edges
    if found == 0:
        verdict = "no-realization-found"
    elif all(r == expected for r in ranks):
        verdict = "regular-at-all-samples"
    else:
        verdict = "rank-deficient-sample-found"
    return RigidityReport(
        graph=g, samples=found, ranks=ranks, expected_rank=expected,
        manifold_dim=2 * g.n - g.num_edges, verdict=verdict,
        singular_values=spectra, failed_seeds=failed,
        example=example, example_residual=example_residual,
    )


def _mix_seed(master_seed: int, stream: int) -> int:
    return (master_seed * 1_000_003 + stream) % (2 ** 63)


def degenerate_cycle_start(n: int) -> Realization:
    """The folded zig-zag unit configuration of an even cycle (rank drops)."""
    if n < 4 or n % 2 != 0:
        raise ValueError("degenerate fold needs an even cycle, n >= 4")
    pts = []
    for k in range(n):
        # walk right to the turning point, then retrace
        pos = k if k <= n // 2 else n - k
        pts.append((float(pos), 0.0))
    return Realization(np.array(pts))


@dataclass
class LerayEstimate:
    value: float
    std_error: float
    epsilon: float
    samples: int
    shell_hits: int


def _cdf_guide(cum: np.ndarray) -> np.ndarray:
    """Guide table for inverting the nondecreasing cumulative sums `cum`
    (Chen and Asau, AIIE Trans. 6, 1974): entry b counts the entries of
    `cum` whose bucket lies below b, for b = 0 .. GUIDE_BUCKETS."""
    first = np.zeros(GUIDE_BUCKETS + 1, dtype=np.intp)
    np.cumsum(np.bincount(_guide_bucket(cum, cum[-1]), minlength=GUIDE_BUCKETS),
              out=first[1:])
    return first


def _guide_bucket(x: np.ndarray, total: float) -> np.ndarray:
    """Bucket of each x in [0, total] among GUIDE_BUCKETS equal ones: a
    nondecreasing function of x, with x = total clipped to the last bucket."""
    b = (x / total * GUIDE_BUCKETS).astype(np.intp)
    return np.minimum(b, GUIDE_BUCKETS - 1, out=b)


def _invert_cdf(cum: np.ndarray, first: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """np.searchsorted(cum, draws, side="right"), exactly.

    The bucket is monotone in its argument, so an entry of `cum` in a lower
    bucket than a draw lies below it and one in a higher bucket lies above.
    A draw whose bucket holds no entry therefore has exactly first[b]
    entries at or below it; the others (about 1% of the draws of a smooth
    factor) fall back to the binary search.
    """
    b = _guide_bucket(draws, cum[-1])
    idx = first[b]
    slow = np.flatnonzero(first[b + 1] != idx)
    idx[slow] = np.searchsorted(cum, draws[slow], side="right")
    return idx


def _sibling_window(epsilon: float) -> tuple[float, float]:
    """Folded angles [lo, hi] outside which an edge between two children of
    one parent misses its shell, for 0 < epsilon < 1.

    Children at radii r_i, r_j in [1 - eps, 1 + eps] whose angles differ by
    D lie |p_i - p_j|^2 = (r_i - r_j)^2 + 4 r_i r_j sin^2(D / 2) apart, and
    the folded angle min(|D|, 2 pi - |D|) in [0, pi] gives the same sine.
    As (r_i - r_j)^2 <= 4 eps^2 and r_i r_j <= (1 + eps)^2, a distance of at
    least a = 1 - eps needs sin(D / 2) >= sqrt(a^2 - 4 eps^2) / (2 (1 + eps));
    as r_i r_j >= (1 - eps)^2, one of at most b = 1 + eps needs
    sin(D / 2) <= b / (2 (1 - eps)).  Both distances are widened by
    WINDOW_PAD first.  A pad on the angles instead would not cover the
    rounding of the positions near eps = 1/3, where the window ends reach 0
    and pi and the distance stops moving with the angle.
    """
    a = 1.0 - epsilon - WINDOW_PAD
    b = 1.0 + epsilon + WINDOW_PAD
    low = math.sqrt(max(a * a - 4.0 * epsilon * epsilon, 0.0)) / (2.0 * (1.0 + epsilon))
    high = min(1.0, b / (2.0 * (1.0 - epsilon)))
    return 2.0 * math.asin(low), 2.0 * math.asin(high)


def _in_sibling_window(th_i: np.ndarray, th_j: np.ndarray,
                       window: tuple[float, float]) -> np.ndarray:
    """Whether the folded angle between th_i and th_j lies in the window."""
    d = np.abs(th_i - th_j)
    np.minimum(d, 2.0 * math.pi - d, out=d)
    return (d >= window[0]) & (d <= window[1])


def _near_sibling_window(s_i: np.ndarray, s_j: np.ndarray, m: int,
                         window: tuple[float, float]) -> np.ndarray:
    """Whether the stratified angles (s + U) 2 pi / m, 0 <= U < 1, of the
    strata s_i and s_j can lie in the window: a superset of the samples
    that _in_sibling_window keeps, whatever the jitters U.

    The folded difference min(|D|, m - |D|) of the angles in strata moves by
    less than one from that of the strata, as the fold is 1-Lipschitz on
    (-m, m); the bounds round outward to whole strata and take one more for
    the rounding of the angles, which moves them by far less."""
    d = np.abs(s_i - s_j)
    np.minimum(d, m - d, out=d)
    scale = m / (2.0 * math.pi)
    return (d >= math.floor(window[0] * scale) - 1) & (d <= math.ceil(window[1] * scale) + 1)


def _window_angles(rng: np.random.Generator, m: int, children: Sequence[int],
                   siblings: Sequence[tuple[int, int]], window: tuple[float, float]
                   ) -> tuple[int, dict[int, np.ndarray]]:
    """The samples of a batch of m whose children's stratified angles lie in
    the window for every pair of siblings: their number, and per child its
    angles at them, in sample order.

    Child v's angle at sample s is (pi_v(s) + U) 2 pi / m, U uniform on
    [0, 1): pi is the identity for the first child and a random permutation
    of range(m) for each other, drawn in order.  The jitters U are drawn, in
    the same order, only at the samples that the strata alone leave near
    every window (_near_sibling_window)."""
    strata = dict(zip(children, [np.arange(m), *(rng.permutation(m) for _ in children[1:])]))
    near = np.ones(m, dtype=bool)
    for i, j in siblings:
        near &= _near_sibling_window(strata[i], strata[j], m, window)
    near = np.flatnonzero(near)
    angle = {v: (s[near] + rng.random(near.size)) * (2.0 * math.pi / m)
             for v, s in strata.items()}
    fits = np.ones(near.size, dtype=bool)
    for i, j in siblings:
        fits &= _in_sibling_window(angle[i], angle[j], window)
    kept = np.flatnonzero(fits)
    return kept.size, {v: th[kept] for v, th in angle.items()}


def leray_mc_form(g: Graph, functions: Sequence, epsilon: float, samples: int,
                  master_seed: int) -> LerayEstimate:
    """Monte-Carlo integral of prod f_i(x_i) against the box-window shell.

    The shell factor is (2 eps)^{-|E|} prod 1[|dist - 1| <= eps] over the
    edges, for 0 < eps < 1.  Sampling walks a spanning tree: the first point
    is drawn from the first function's cell-mass distribution (its factor is
    consumed by the sampler at cell resolution, through a guide table over
    the cumulative cell masses), every child is drawn in the annulus shell
    around its parent (importance weight 2 pi r per tree edge); the
    remaining edge windows are evaluated as-is.

    Each batch of m <= MC_BATCH samples draws from its own random stream
    and makes only the draws that a sample can use.  Sample s of child v
    has its angle in stratum pi_v(s) of m equal ones (random stratum pairing
    cuts the variance of the angular hit windows without biasing the mean).
    The first child in BFS order takes pi = identity, and every other child
    a random permutation drawn in BFS order.  Relabelling the samples of a batch
    by pi_1^-1 leaves its sum unchanged, every other draw is i.i.d. per
    sample, and each pi_v o pi_1^-1 is again uniform and independent, so
    this is the law of drawing a permutation for every child.

    A non-tree edge between two children of one parent can only fire when
    their folded angle lies in the window of _sibling_window.  The strata
    alone rule out most samples (_near_sibling_window); the angle jitters
    are drawn for the others, in BFS order, and their angles tested against
    every window.  Then, for the samples inside every window only (all m,
    when the graph has no such edge), the root cell, the two root jitters
    and each child's radius are drawn in that order, and the samples are
    placed, tested and weighed; the samples outside weigh exactly zero and
    are left out of the sums.  Deterministic for a fixed master seed.
    """
    if not 0.0 < epsilon < 1.0:
        # radii on [1 - eps, 1 + eps] must be positive
        raise ValueError(f"epsilon must lie in the interval (0, 1), got {epsilon}")
    if len(functions) != g.n:
        raise ValueError(f"need {g.n} functions, got {len(functions)}")
    if samples < 1:
        raise ValueError("need at least one sample")
    if any(not np.any(f.values) for f in functions):
        # identically zero factor: the integrand vanishes exactly
        return LerayEstimate(value=0.0, std_error=0.0, epsilon=epsilon,
                             samples=samples, shell_hits=0)

    order, parent = bfs_tree(g, 1)
    tree_edges = {(min(v, w), max(v, w)) for v, w in parent.items()}
    non_tree = [e for e in g.edges if e not in tree_edges]
    siblings = [(i, j) for i, j in non_tree if parent.get(i) == parent.get(j)]
    window = _sibling_window(epsilon)

    f1 = functions[0]
    flat = f1.values.ravel()
    cum = np.cumsum(np.abs(flat))
    guide = _cdf_guide(cum)
    mass1 = float(cum[-1]) * f1.h ** 2
    ncols = f1.size

    def batch(rng: np.random.Generator, m: int) -> tuple[float, float, int]:
        """(sum, sum of squares, hits) of m weighted samples."""
        k, angle = _window_angles(rng, m, order[1:], siblings, window)
        draws = rng.random(k) * cum[-1]
        jitter = rng.random(k), rng.random(k)
        children = [(v, rng.uniform(1.0 - epsilon, 1.0 + epsilon, k), angle[v])
                    for v in order[1:]]
        pts = np.empty((g.n, 2, k))  # one contiguous row per vertex and axis
        # root point from the first factor's cell-mass distribution
        idx = _invert_cdf(cum, guide, draws)
        idx = np.minimum(idx, flat.size - 1)
        jj, ii = np.divmod(idx, ncols)
        pts[0, 0] = -f1.L + ii * f1.h + (jitter[0] - 0.5) * f1.h
        pts[0, 1] = -f1.L + jj * f1.h + (jitter[1] - 0.5) * f1.h
        w = np.sign(flat[idx]) * mass1
        for v, r, th in children:
            pv = parent[v]
            pts[v - 1, 0] = pts[pv - 1, 0] + r * np.cos(th)
            pts[v - 1, 1] = pts[pv - 1, 1] + r * np.sin(th)
            w *= 2.0 * math.pi * r  # kernel (2eps)^-1 vs density (2pi 2eps r)^-1
        ok = np.ones(k, dtype=bool)
        for (i, j) in non_tree:
            dx, dy = pts[i - 1] - pts[j - 1]
            d = np.sqrt(dx * dx + dy * dy)  # rounded as np.linalg.norm rounds it
            ok &= np.abs(d - 1.0) <= epsilon
        # rejected weights are exactly zero: sample the factors only where
        # every window fired
        acc = np.flatnonzero(ok)
        wa = w[acc] * (2.0 * epsilon) ** (-len(non_tree))
        for v in range(2, g.n + 1):
            wa *= functions[v - 1].sample_bilinear(pts[v - 1][:, acc].T)
        return float(np.sum(wa)), float(np.sum(wa * wa)), acc.size

    total = total_sq = 0.0
    hits = 0
    for stream, done in enumerate(range(0, samples, MC_BATCH)):
        rng = np.random.default_rng([master_seed, stream])
        s, s2, k = batch(rng, min(MC_BATCH, samples - done))
        total += s
        total_sq += s2
        hits += k

    if hits == 0:
        raise ZeroAcceptanceError(
            f"none of {samples} samples satisfied every edge shell")
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    std_err = math.sqrt(var / samples)
    return LerayEstimate(value=mean, std_error=std_err, epsilon=epsilon,
                         samples=samples, shell_hits=hits)
