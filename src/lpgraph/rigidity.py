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
from scipy.optimize import least_squares

from .graphs import Graph, bfs_tree

RESIDUAL_TOL = 1e-10
RANK_TOL_SHIFT = 2.0 ** -40
# least-squares evaluations per random start of solve_realization
MAX_NFEV = 200
# Monte Carlo samples drawn per random stream; a run's value depends on it
MC_BATCH = 100_000


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
    if x.n != g.n:
        raise ValueError(f"realization has {x.n} points, graph has {g.n}")
    out = np.empty(g.num_edges)
    for k, (i, j) in enumerate(g.edges):
        d = np.linalg.norm(x.points[i - 1] - x.points[j - 1])
        if d == 0.0:
            raise CoincidentEndpointsError((i, j))
        out[k] = d
    return out


def rigidity_jacobian(g: Graph, x: Realization) -> np.ndarray:
    """|E| x 2n gradient of the distance map, rows normalized to unit blocks.

    Row scaling by the (positive) edge length does not change the rank, so
    this matches the unnormalized difference-vector convention rank-wise.
    """
    lengths = rigidity_map(g, x)  # also validates coincidence
    J = np.zeros((g.num_edges, 2 * g.n))
    for k, (i, j) in enumerate(g.edges):
        u = (x.points[i - 1] - x.points[j - 1]) / lengths[k]
        J[k, 2 * (i - 1):2 * i] = u
        J[k, 2 * (j - 1):2 * j] = -u
    return J


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
    """Least-squares search for a unit realization from seeded random starts.

    Success requires max |F(x) - 1| below 1e-10; the result is pinned.
    Raises RealizationNotFound with the best residual after the retry budget.
    """
    g.require_connected()
    rng = np.random.default_rng(seed)
    idx = np.array(g.edges) - 1

    def resid(flat: np.ndarray) -> np.ndarray:
        pts = flat.reshape(-1, 2)
        d = np.linalg.norm(pts[idx[:, 0]] - pts[idx[:, 1]], axis=1)
        return d - 1.0

    def jac(flat: np.ndarray) -> np.ndarray:
        pts = flat.reshape(-1, 2)
        diff = pts[idx[:, 0]] - pts[idx[:, 1]]
        d = np.linalg.norm(diff, axis=1)
        d = np.where(d == 0.0, 1.0, d)
        J = np.zeros((len(idx), flat.size))
        for k, (a, b) in enumerate(idx):
            u = diff[k] / d[k]
            J[k, 2 * a:2 * a + 2] = u
            J[k, 2 * b:2 * b + 2] = -u
        return J

    if g.num_edges == 0:
        return Realization(np.zeros((g.n, 2)))

    best = math.inf
    for _ in range(restarts):
        start = rng.uniform(-g.n, g.n, size=2 * g.n)
        sol = least_squares(resid, start, jac=jac, method="trf",
                            max_nfev=MAX_NFEV, xtol=1e-15, ftol=1e-15,
                            gtol=1e-15)
        r = float(np.max(np.abs(sol.fun)))
        if r < best:
            best = r
        if r < RESIDUAL_TOL:
            return pin_to_M0(Realization(sol.x.reshape(-1, 2)))
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

    for k in range(num_seeds):
        try:
            record(solve_realization(g, seed=_mix_seed(master_seed, k)))
        except RealizationNotFound:
            failed += 1

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

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "epsilon": self.epsilon,
            "samples": self.samples,
            "shell_hits": self.shell_hits,
        }


def leray_mc_form(g: Graph, functions: Sequence, epsilon: float, samples: int,
                  master_seed: int) -> LerayEstimate:
    """Monte-Carlo integral of prod f_i(x_i) against the box-window shell.

    The shell factor is (2 eps)^{-|E|} prod 1[|dist - 1| <= eps] over the
    edges.  Sampling walks a spanning tree: the first point is drawn from
    the first function's cell-mass distribution (its factor is consumed by
    the sampler at cell resolution), every child is drawn in the annulus
    shell around its parent (importance weight 2 pi r per tree edge); the
    remaining edge windows are evaluated as-is.  Deterministic for a fixed
    master seed.
    """
    g.require_connected()
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
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

    f1 = functions[0]
    flat = f1.values.ravel()
    cum = np.cumsum(np.abs(flat))
    mass1 = float(cum[-1]) * f1.h ** 2
    ncols = f1.size

    total = 0.0
    total_sq = 0.0
    hits = 0
    done = 0
    stream = 0
    while done < samples:
        m = min(MC_BATCH, samples - done)
        rng = np.random.default_rng([master_seed, stream])
        stream += 1
        pts = np.empty((m, g.n, 2))
        # root point from the first factor's cell-mass distribution
        draws = rng.random(m) * cum[-1]
        idx = np.searchsorted(cum, draws, side="right")
        idx = np.minimum(idx, flat.size - 1)
        jj, ii = np.divmod(idx, ncols)
        pts[:, 0, 0] = -f1.L + ii * f1.h + (rng.random(m) - 0.5) * f1.h
        pts[:, 0, 1] = -f1.L + jj * f1.h + (rng.random(m) - 0.5) * f1.h
        w = np.sign(flat[idx]) * mass1
        for v in order[1:]:
            pv = parent[v]
            r = rng.uniform(1.0 - epsilon, 1.0 + epsilon, m)
            # stratified angles (random stratum pairing) cut the variance of
            # the angular hit windows without biasing the mean
            th = (rng.permutation(m) + rng.random(m)) * (2.0 * math.pi / m)
            pts[:, v - 1, 0] = pts[:, pv - 1, 0] + r * np.cos(th)
            pts[:, v - 1, 1] = pts[:, pv - 1, 1] + r * np.sin(th)
            w *= 2.0 * math.pi * r  # kernel (2eps)^-1 vs density (2pi 2eps r)^-1
        ok = np.ones(m, dtype=bool)
        for (i, j) in non_tree:
            d = np.linalg.norm(pts[:, i - 1] - pts[:, j - 1], axis=1)
            inside = np.abs(d - 1.0) <= epsilon
            ok &= inside
        w = np.where(ok, w, 0.0)
        hits += int(np.sum(ok))
        w *= (2.0 * epsilon) ** (-len(non_tree))
        # rejected weights are exactly zero: sample the factors only where
        # every window fired
        acc = np.flatnonzero(ok)
        wa = w[acc]
        for v in range(2, g.n + 1):
            wa *= functions[v - 1].sample_bilinear(pts[acc, v - 1])
        w[acc] = wa
        total += float(np.sum(w))
        total_sq += float(np.sum(w * w))
        done += m

    if hits == 0:
        raise ZeroAcceptanceError(
            f"none of {samples} samples satisfied every edge shell")
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    std_err = math.sqrt(var / samples)
    return LerayEstimate(value=mean, std_error=std_err, epsilon=epsilon,
                         samples=samples, shell_hits=hits)
