"""Discretized evaluation of mollified circle-kernel forms on planar grids.

The kernel is the unit circle measure convolved with a quartic bump of
width epsilon and normalized to total mass one, so averaging a constant
returns that constant.  Quadrature nodes (angular midpoints times a radial
Gauss rule across the bump) are shared between the splatted-kernel FFT
path and the explicit node-sum paths, which makes the two agree to
rounding error by construction.

The FFT path transforms only the nonzero bounding box of the averaged
field, and only on the cells its reader needs: the whole grid for
`circular_average`, the bounding box of the parent vertex's factor in a
tree form, whose product vanishes elsewhere.  Each axis then takes the
shortest fast real-FFT length that keeps wrap-around out of that window,
and every cell outside it is an exact zero.  Cropping drops only exact
zeros, so in exact arithmetic the values are those of the full-size
"same" convolution.

A tree form averages each distinct leaf field once per parent: a leaf's
average depends only on its field and on its parent's window, and no
average is written in place, so leaves that hold the same field object
share one array and the value is unchanged to the bit.  The scaling
experiments build one field object per distinct family, so the equal
endpoints of a chain (ball-ball, annulus-annulus) take one average.

The triangle form is a Radon pair: the inner product of f with the
bilinear rotation transform of (g, h) at theta = +-pi/3.  Its form path
never builds the transform: at each kernel node u it forms f * S_u g once,
shares it between the two rotations, and pairs it with each rotated
h-shift through a fused cubic inner product.  The direct quadrature forms
the same product at each outer node; the lens nodes around one circle
crossing lie within a few cells of each other, so their h-shift inner
products are read off one correlation of the product with h's spline
coefficients over the box of lags they span.

Both triangle quadratures work at each node only where all three factors
exceed CROP_REL_TOL of their largest: on f's box, cut to the tap boxes of
g's and h's spline coefficients (the cells that a shift reads from such
coefficients).  A cubic shift never exceeds the largest |coefficient| (its
weights are nonnegative and sum to one), and off its tap box it reads at
most CROP_REL_TOL of it, which bounds the dropped terms; a quadrature whose
bound exceeds 1e-13 of its value reruns on the exact-zero supports, which
drop nothing (`_cropped`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import irfft2, next_fast_len, rfft2

from .graphs import Graph, bfs_tree, is_tree
from . import grids
from .grids import Box, GridField, MarginError, field_from_function, lp_norm

TWO_PI = 2.0 * math.pi

# two-rotation reduction prefactor for the triple kernel: the crossing of two
# unit circles is transversal at 60 degrees, contributing 2/sqrt(3) per
# crossing on top of the two 1/(2 pi) mass normalizations
RADON_PAIR_FACTOR = 1.0 / (2.0 * math.sqrt(3.0) * math.pi ** 2)

# the triangle quadratures sum over the cells where the outer factor f
# exceeds this fraction of max |f| (`_cropped`)
CROP_REL_TOL = 1e-16

DECAY_DIRECTIONS = 8  # directions of xi per `kernel_decay_check` magnitude


def bump(t: np.ndarray | float) -> np.ndarray | float:
    """C^1 quartic bump on [-1, 1] with unit integral."""
    t = np.asarray(t, dtype=float)
    out = np.where(np.abs(t) < 1.0, (15.0 / 16.0) * (1.0 - t * t) ** 2, 0.0)
    return out


@dataclass(frozen=True)
class MollifiedCircleKernel:
    epsilon: float
    M: int  # angular nodes
    radial_nodes: int = 8

    def __post_init__(self):
        if not (0.0 < self.epsilon < 0.5):
            raise ValueError(f"epsilon must lie in (0, 1/2), got {self.epsilon}")
        if self.M < 64:
            raise ValueError(f"need at least 64 angular nodes, got {self.M}")
        if self.radial_nodes < 2:
            raise ValueError("need at least 2 radial nodes")

    def radial_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Radii and weights of the bump cross-section, sum of weights 1."""
        t, w = leggauss(self.radial_nodes)
        r = 1.0 + self.epsilon * t
        wt = w * bump(t) * r
        return r, wt / np.sum(wt)

    def angles(self) -> np.ndarray:
        return TWO_PI * (np.arange(self.M) + 0.5) / self.M

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """All quadrature node offsets (K, 2) and weights summing to one."""
        r, wr = self.radial_rule()
        th = self.angles()
        rr, tt = np.meshgrid(r, th)
        ww = np.broadcast_to(wr / self.M, tt.shape)
        pts = np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1)
        return pts.reshape(-1, 2), ww.reshape(-1).copy()

    def raster(self, like: GridField) -> np.ndarray:
        """Quadrature weights splatted bilinearly onto a grid patch.

        Discrete convolution with this patch equals the node-sum with
        bilinear field interpolation, term for term.
        """
        h = like.h
        half = int(math.ceil((1.0 + self.epsilon) / h)) + 1
        size = 2 * half + 1
        K = np.zeros((size, size))
        pts, ww = self.nodes()
        gx = pts[:, 0] / h + half
        gy = pts[:, 1] / h + half
        i0 = np.floor(gx).astype(int)
        j0 = np.floor(gy).astype(int)
        fx = gx - i0
        fy = gy - j0
        for di in (0, 1):
            for dj in (0, 1):
                wgt = ww * (fx if di else 1 - fx) * (fy if dj else 1 - fy)
                np.add.at(K, (j0 + dj, i0 + di), wgt)
        return K


def make_kernel(epsilon: float, M: int, radial_nodes: int = 8) -> MollifiedCircleKernel:
    return MollifiedCircleKernel(epsilon=epsilon, M=M, radial_nodes=radial_nodes)


def policy_angular_nodes(h: float) -> int:
    """Resolve the annulus at the working grid spacing."""
    return max(512, int(math.ceil(16.0 / h)))


# ---------------------------------------------------------------------------
# averaging and the bilinear rotation transform


def fftconvolve(block: np.ndarray, kernel: np.ndarray,
                window: Sequence[tuple[int, int]]) -> np.ndarray:
    """Cells [start, stop) per axis of the full linear convolution of block
    and kernel, by real FFTs of the shortest fast length whose wrap-around
    misses the window."""
    shape = [next_fast_len(max(nb, nk, nb + nk - 1 - a, b), real=True)
             for nb, nk, (a, b) in zip(block.shape, kernel.shape, window)]
    full = irfft2(rfft2(block, shape) * rfft2(kernel, shape), shape)
    (a0, b0), (a1, b1) = window
    return full[a0:b0, a1:b1]


def _support_box(values: np.ndarray, rel: float = 0.0) -> list[tuple[int, int]]:
    """Per axis, the [start, stop) of the cells whose |value| exceeds rel
    times the largest, the nonzero cells at rel = 0; (0, 0) if none."""
    if rel:
        a = np.abs(values)
        keep = a > rel * np.max(a)
    else:
        keep = values != 0.0
    box = []
    for other in (1, 0):
        nz = np.flatnonzero(keep.any(axis=other))
        box.append((int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0))
    return box


def _windowed_average(values: np.ndarray, kernel: np.ndarray,
                      window: Sequence[tuple[int, int]]) -> np.ndarray:
    """The "same"-aligned convolution of values with kernel on the output
    cells [start, stop) per axis of window, and exact zeros elsewhere.

    Only the nonzero bounding box of values is transformed.  Output cell j
    is cell j + (K - 1) // 2 of the full convolution of values, which is
    cell j + (K - 1) // 2 - lo of the full convolution of the box at lo.
    """
    out = np.zeros(values.shape)
    box = _support_box(values)
    full_window, out_window = [], []
    for (lo, hi), (w0, w1), kn in zip(box, window, kernel.shape):
        off = (kn - 1) // 2 - lo
        a, b = max(w0 + off, 0), min(w1 + off, hi - lo + kn - 1)
        if lo == hi or a >= b:
            return out
        full_window.append((a, b))
        out_window.append(slice(a - off, b - off))
    block = values[box[0][0]:box[0][1], box[1][0]:box[1][1]]
    out[tuple(out_window)] = fftconvolve(block, kernel, full_window)
    return out


def circular_average(f: GridField, k: MollifiedCircleKernel,
                     allow_boundary: bool = False) -> GridField:
    """Af(x): average of f over the mollified unit circle around x.

    With the unit-mass normalization the average of the constant one stays
    one on the interior.  Fields standing for global objects (boundary_free)
    are accepted; their averages are then only valid 1 + eps away from the
    boundary.

    The convolution transforms only the nonzero bounding box of f and reads
    the whole grid as its window, so the FFT length per axis is at most
    N + K // 2 for a K-cell kernel raster instead of the N + K - 1 of a
    full convolution.
    """
    if not allow_boundary and not f.boundary_free:
        f.check_margin(1.0 + k.epsilon)
    out = _windowed_average(f.values, k.raster(f),
                            [(0, n) for n in f.values.shape])
    return f.copy_with(out, boundary_free=f.boundary_free)


def circular_average_nodesum(f: GridField, k: MollifiedCircleKernel) -> GridField:
    """Same operator as an explicit quadrature loop (no FFT)."""
    pts, ww = k.nodes()
    out = np.zeros_like(f.values)
    for (ox, oy), w in zip(pts, ww):
        out += w * grids.shift_bilinear(f, ox, oy)
    return f.copy_with(out)


def _check_radon_factors(g: GridField, h: GridField,
                         k: MollifiedCircleKernel) -> None:
    if not g.compatible(h):
        raise ValueError("fields must share a grid")
    for fld in (g, h):
        # global (boundary_free) factors are allowed; the result is then only
        # trusted 1 + eps inside, mirroring circular_average
        if not fld.boundary_free:
            fld.check_margin(1.0 + k.epsilon)


def bilinear_radon(g: GridField, h: GridField, theta: float,
                   k: MollifiedCircleKernel) -> GridField:
    """B_theta(g, h)(x) = average over y of g(x - y) h(x - R_theta y).

    Shared angular/radial quadrature with cubic-spline field sampling;
    the rotation is applied to the quadrature node, not the grid.  The
    triangle form does not call this: it fuses f into the product and
    shares the g-shift between the two rotations (`_radon_pair`), and this
    field-valued transform is the oracle that path is tested against.
    """
    _check_radon_factors(g, h, k)
    gp = grids.cubic_prefilter(g, 1.0 + k.epsilon)
    hp = grids.cubic_prefilter(h, 1.0 + k.epsilon)
    ct, st = math.cos(theta), math.sin(theta)
    r, wr = k.radial_rule()
    out = np.zeros_like(g.values)
    for th in k.angles():
        ux, uy = math.cos(th), math.sin(th)
        vx, vy = ct * ux - st * uy, st * ux + ct * uy
        for rad, w in zip(r, wr):
            gs = grids.shift_cubic(gp, g.h, rad * ux, rad * uy)
            hs = grids.shift_cubic(hp, g.h, rad * vx, rad * vy)
            out += (w / k.M) * gs * hs
    return g.copy_with(out)


# ---------------------------------------------------------------------------
# form evaluation


class MethodError(ValueError):
    pass


def _tree_root(g: Graph) -> int:
    adj = g.adjacency()
    best, score = 1, -1
    for v in range(1, g.n + 1):
        d = len(adj[v])
        if d > score:
            best, score = v, d
    return best


def _tree_factor(g: Graph, fields: Sequence[GridField],
                 k: MollifiedCircleKernel, use_fft: bool = True) -> float:
    """Leaf-to-root nested averages; integrate against the root factor.

    A leaf's average depends only on its field and on its parent's window,
    so leaves of one parent that hold the same field object share one
    average, computed once.  No partial is written in place, so sharing
    the array leaves every product, and the value, as it was.
    """
    root = _tree_root(g)
    adj = g.adjacency()
    order, parent = bfs_tree(g, root)
    depth = {root: 0}
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1

    _guard_tree_margins(fields, depth, k.epsilon)

    # all fields share one grid, so one raster serves every vertex
    kernel = k.raster(fields[0]) if use_fft else None
    partial: dict[int, np.ndarray] = {}
    leaf_average: dict[tuple[int, int], np.ndarray] = {}
    for v in reversed(order):
        vals = fields[v - 1].values
        kids = [w for w in adj[v] if parent.get(w) == v]
        for w in kids:
            # forget a shared average here, so that it is freed as soon as
            # its parent has multiplied it in
            leaf_average.pop((id(fields[w - 1]), v), None)
            vals = vals * partial.pop(w)
        if v == root:
            return float(np.sum(vals)) * fields[0].h ** 2
        leaf = (id(fields[v - 1]), parent[v]) if not kids else None
        if leaf in leaf_average:
            partial[v] = leaf_average[leaf]
        elif use_fft:
            # the parent's product vanishes off its own factor's support, so
            # the average is needed only on that bounding box
            window = _support_box(fields[parent[v] - 1].values)
            partial[v] = _windowed_average(vals, kernel, window)
        else:
            partial[v] = circular_average_nodesum(fields[v - 1].copy_with(vals), k).values
        if leaf is not None:
            leaf_average[leaf] = partial[v]
    raise AssertionError("unreachable")


def _guard_tree_margins(fields: Sequence[GridField], depth: dict[int, int],
                        eps: float) -> None:
    """Global (boundary_free) factors poison a boundary layer that grows by
    1 + eps per averaging level; the read region of the root integrand must
    stay clear of it."""
    L = fields[0].L
    free = [v for v in depth if fields[v - 1].boundary_free]
    if not free:
        return
    bounded = [v for v in depth if not fields[v - 1].boundary_free]
    if not bounded:
        raise MarginError("all factors are global objects; nothing bounds the read region")
    read = min(fields[v - 1].support_radius() + (1.0 + eps) * depth[v]
               for v in bounded)
    for v in free:
        valid = L - (1.0 + eps) * max(depth[v], 1)
        if read > valid:
            raise MarginError(
                f"global factor at vertex {v} is only valid within radius "
                f"{valid:.3f} but the integrand reaches {read:.3f}")


def _cropped(f: GridField, quad: Callable[[Box, float], tuple[float, float]],
             scale: float) -> tuple[float, float]:
    """quad(box, rel) on f's box of cells above rel = CROP_REL_TOL * max |f|,
    and a bound on the terms that the crop dropped: scale * (mass of |f| off
    the box + the cut that quad returns beside its value, `_overlaps`).
    scale carries the largest spline coefficients of g and h, which bound
    every cubic shift, and the l1 norm of the node weights.  Above 1e-13 of
    the value, quad reruns on the exact-zero supports (rel = 0), which drop
    nothing: the bound is then 0.  An all-zero f gives 0.0."""
    box = _support_box(f.values, CROP_REL_TOL)
    if box[0] == (0, 0):
        return 0.0, 0.0
    (r0, r1), (c0, c1) = box
    off = np.abs(f.values)
    off[r0:r1, c0:c1] = 0.0
    value, cut = quad(box, CROP_REL_TOL)
    bound = scale * (float(np.sum(off)) + cut)
    if bound > 1e-13 * abs(value):
        return quad(_support_box(f.values), 0.0)[0], 0.0
    return value, bound


def _coeff_max(c: grids.CubicCoeffs) -> float:
    return float(np.max(np.abs(c.padded)))


def _box_masses(values: np.ndarray, boxes) -> np.ndarray:
    """The sum of |values| on each box (..., 2, 2), 0 on an empty one."""
    s = np.zeros(np.add(values.shape, 1))
    s[1:, 1:] = np.abs(values).cumsum(0).cumsum(1)
    (r0, r1), (c0, c1) = np.moveaxis(np.asarray(boxes), (-2, -1), (0, 1))
    return np.where((r0 < r1) & (c0 < c1),
                    s[r1, c1] - s[r0, c1] - s[r1, c0] + s[r0, c0], 0.0)


def _overlaps(f: GridField, box: Box, rel: float, g: grids.CubicCoeffs,
              h: grids.CubicCoeffs, u: np.ndarray, v: np.ndarray, weight: np.ndarray):
    """Box cut per node j to g's tap box at u[j], and per group v[j, i] (K, 2)
    of h offsets also to h's, of the coefficients above rel times their
    largest: off a tap box a shift reads at most rel times that.  Returns
    the cut of `_cropped`, rel times the mass of |f| that a group cuts off
    box, in the mean by weight[j]; and, per node j with a nonempty cut, j and
    per group the pair (P, box) of P = f * S_u g on the group's cut or None."""
    inner = [c.padded[c.pad:-c.pad, c.pad:-c.pad] for c in (g, h)]
    bu = grids.tap_boxes(_support_box(inner[0], rel), f.h, u[:, None], box)
    bv = grids.tap_boxes(_support_box(inner[1], rel), f.h, v, bu[:, None])
    dropped = _box_masses(f.values, box) - _box_masses(f.values, bv).mean(axis=1)

    def reads():
        for j in np.flatnonzero((bu[:, :, 0] < bu[:, :, 1]).all(axis=1)).tolist():
            (r0, r1), (c0, c1) = b = bu[j].tolist()
            P = f.values[r0:r1, c0:c1] * grids.shift_cubic(g, f.h, *u[j].tolist(), b)
            yield j, [(P[s0 - r0:s1 - r0, t0 - c0:t1 - c0], [(s0, s1), (t0, t1)])
                      if s0 < s1 and t0 < t1 else None
                      for (s0, s1), (t0, t1) in bv[j].tolist()]
    return rel * float(np.sum(weight * dropped) / np.sum(weight)), reads()


def _radon_pair_terms(fields: Sequence[GridField], k: MollifiedCircleKernel
                      ) -> tuple[Callable[[Box, float], tuple[float, float]], float]:
    """The Radon pair as a sum over the cells of f's box at rel with its
    cut, and the factor that turns the masses of |f| into a bound on the
    terms it drops (`_cropped`)."""
    f, gg, hh = fields
    _check_radon_factors(gg, hh, k)
    g, h = (grids.cubic_prefilter(x, 1.0 + k.epsilon) for x in (gg, hh))
    r, wr = k.radial_rule()
    # the node offsets u in angle-major order, their rotations v by +-pi/3
    # (a rotation by 0 is exact), and the node weights w / M
    ux, uy = np.array([(math.cos(t), math.sin(t)) for t in k.angles()]).T
    u, *vs = [(np.stack((c * ux - s * uy, s * ux + c * uy), -1)[:, None]
               * r[:, None]).reshape(-1, 2)
              for c, s in [(1.0, 0.0), *((math.cos(t), math.sin(t))
                                         for t in (math.pi / 3.0, -math.pi / 3.0))]]
    v, weight = np.stack(vs, 1)[:, :, None], np.tile(wr / k.M, k.M)

    def on_box(box, rel):
        cut, nodes = _overlaps(f, box, rel, g, h, u, v, weight)
        sums = [0.0, 0.0]
        for j, reads in nodes:
            for i, read in enumerate(reads):
                if read:
                    sums[i] += weight[j] * grids.cubic_inner(
                        read[0], h, f.h, *v[j, i, 0].tolist(), read[1])
        return float(RADON_PAIR_FACTOR * sum(s * f.h ** 2 for s in sums)), cut

    # the node weights w / M are positive and sum to one per rotation
    return on_box, RADON_PAIR_FACTOR * f.h ** 2 * 2.0 * _coeff_max(g) * _coeff_max(h)


def _radon_pair(g: Graph, fields: Sequence[GridField],
                k: MollifiedCircleKernel) -> float:
    """sum over theta = +-pi/3 of inner(f, bilinear_radon(g, h, theta)),
    fused: at each node u the product P = f * S_u g is formed once and paired
    with the h-shift of both rotations by cubic_inner.

    P is formed on f's box at CROP_REL_TOL cut to g's tap box at u, and each
    inner product also to h's tap box at v (`_cropped`); the dropped terms
    are bounded by RADON_PAIR_FACTOR * h^2 * 2 * max |c_g| * max |c_h| * (sum
    of |f| off the box + CROP_REL_TOL * the mean sum of |f| that a node cuts
    off it), c_g and c_h the spline coefficients.  Above 1e-13 of the value
    the exact-zero supports are used.
    """
    return _cropped(fields[0], *_radon_pair_terms(fields, k))[0]


def _direct_triangle_terms(fields: Sequence[GridField], k: MollifiedCircleKernel,
                           m_alpha: int, n_radial: int, n_lens: int
                           ) -> tuple[Callable[[Box, float], tuple[float, float]], float]:
    """The direct quadrature as a sum over the cells of f's box at rel with
    its cut, and the factor that turns the masses of |f| into a bound on the
    terms it drops (`_cropped`)."""
    f, gg, hh = fields
    for fld in fields:
        if fld.boundary_free:
            raise MarginError("direct quadrature needs compactly supported fields")
    eps = k.epsilon
    g, h = (grids.cubic_prefilter(x, 1.0 + eps) for x in (gg, hh))
    tu, wu = leggauss(n_radial)
    tl, wl = leggauss(n_lens)
    bu, bl = bump(tu), bump(tl)
    h2 = f.h ** 2

    # radial nodes r with weight w_u, and the lens nodes (b, c) of each, whose
    # circle crossings sit at d u +- perp u_perp.  A pair that does not cross
    # (perp^2 <= 0) weighs 0 at the place of the diagonal pair of the largest
    # radius, which always crosses, so it adds no lag
    r = 1.0 + eps * tu
    w_u = bu * r * wu / (TWO_PI) * (TWO_PI / m_alpha)
    R1, R2, rr = (1.0 + eps * tl)[:, None], 1.0 + eps * tl, r[:, None, None]
    d = (rr * rr + R1 * R1 - R2 * R2) / (2.0 * rr)
    perp_sq = R1 * R1 - d * d
    cross = perp_sq > 0.0
    d, perp = (np.where(cross, x, x[:, -1:, -1:]) for x in (d, np.sqrt(np.abs(perp_sq))))
    wb = bl * wl / TWO_PI
    w_lens = np.where(cross, wb[:, None] * wb * ((R1 * R2) / (rr * perp)), 0.0)
    w_lens, d, perp = (x.reshape(n_radial, -1) for x in (w_lens, d, perp))
    size = d.shape[1]
    # outer offsets r u in angle-major order, the lens offsets of both
    # crossings (sign, lens node) of each, and their tap weights, planned once
    th = TWO_PI * (np.arange(m_alpha) + 0.5) / m_alpha
    ux, uy = np.array([(math.cos(t), math.sin(t)) for t in th]).T
    u = np.stack((ux[:, None] * r, uy[:, None] * r), -1).reshape(-1, 2)
    ux, uy = ux[:, None, None, None], uy[:, None, None, None]
    d, sp = d[:, None], perp[:, None] * [[1.0], [-1.0]]
    v = np.stack((d * ux - sp * uy, d * uy + sp * ux), -1).reshape(-1, 2, size, 2)
    plans = grids.inner_sum_plans(h, f.h, v.reshape(-1, size, 2),
                                  np.tile(np.repeat(w_lens, 2, axis=0), (m_alpha, 1)))
    w_at = np.tile(w_u, m_alpha).tolist()
    # per outer node, |w_u| times the l1 norm of either crossing's lens weights
    weight = np.tile(np.abs(w_u) * np.sum(np.abs(w_lens), axis=1), m_alpha)

    def on_box(box, rel):
        cut, nodes = _overlaps(f, box, rel, g, h, u, v, weight)
        total = 0.0
        for j, reads in nodes:
            inner_sum = 0.0
            for s, read in enumerate(reads):
                if read:
                    inner_sum += grids.planned_inner_sum(
                        read[0], h, plans[2 * j + s], read[1])
            total += w_at[j] * inner_sum * h2
        return float(total), cut

    return on_box, h2 * 2.0 * float(np.sum(weight)) * _coeff_max(g) * _coeff_max(h)


def _direct_triangle(g: Graph, fields: Sequence[GridField],
                     k: MollifiedCircleKernel, m_alpha: int = 128,
                     n_radial: int = 3, n_lens: int = 3) -> float:
    """Honest quadrature of the triple-kernel form.

    Outer polar nodes on the first kernel annulus; for each node the inner
    double shell is integrated in annular offset coordinates around the two
    exact circle intersections, with the transversality Jacobian.  The
    lens nodes of one crossing lie within a few cells of each other, so
    their h-shift inner products with P = f * S_u g are read off one spline
    correlation: two per outer node, of tap weights planned once for all
    crossings (`grids.inner_sum_plans`).

    As in the Radon pair, P lives on f's box cut to g's tap box at u, and a
    crossing reads it on the union of its lens offsets' tap boxes of h; the
    bound takes the sum of |node weights| * h^2 in place of the Radon
    pair's 2 * RADON_PAIR_FACTOR * h^2 (`_cropped`).
    """
    terms = _direct_triangle_terms(fields, k, m_alpha, n_radial, n_lens)
    return _cropped(fields[0], *terms)[0]


def form_evaluate(g: Graph, fields: Sequence[GridField],
                  k: MollifiedCircleKernel, method: str = "auto",
                  mc_samples: int = 200_000, master_seed: int = 0,
                  direct_params: dict | None = None) -> float:
    """Value of the mollified n-linear form of the graph.

    Methods: "tree-factor" (trees, FFT convolutions), "radon-pair"
    (triangle only, two-rotation reduction), "direct" (n <= 3, explicit
    quadrature), "leray-mc" (any graph, shell Monte Carlo normalized to
    the unit-mass kernel), "auto" picks the cheapest applicable one.
    """
    if len(fields) != g.n:
        raise MethodError(f"need {g.n} fields, got {len(fields)}")
    for fld in fields[1:]:
        if not fields[0].compatible(fld):
            raise MethodError("fields must share one grid")

    if method == "auto":
        if is_tree(g):
            method = "tree-factor"
        elif g.n == 3 and g.num_edges == 3:
            method = "radon-pair"
        else:
            method = "leray-mc"

    if method == "tree-factor":
        if not is_tree(g):
            raise MethodError("tree-factor applies to trees only")
        if g.n == 1:
            return fields[0].integral()
        return _tree_factor(g, fields, k)
    if method == "radon-pair":
        if not (g.n == 3 and g.num_edges == 3):
            raise MethodError("radon-pair applies to the triangle only")
        return _radon_pair(g, fields, k)
    if method == "direct":
        if g.n > 3:
            raise MethodError("direct quadrature restricted to n <= 3")
        if g.n == 1:
            return fields[0].integral()
        if is_tree(g):
            return _tree_factor(g, fields, k, use_fft=False)
        return _direct_triangle(g, fields, k, **(direct_params or {}))
    if method == "leray-mc":
        from .rigidity import leray_mc_form

        est = leray_mc_form(g, fields, epsilon=k.epsilon, samples=mc_samples,
                            master_seed=master_seed)
        return est.value / (TWO_PI ** g.num_edges)
    raise MethodError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# test families


def test_family(kind: str, L: float, h: float, delta: float | None = None,
                center: tuple[float, float] = (0.0, 0.0),
                width: float | None = None) -> GridField:
    """Indicator and reference inputs sampled with the cell-center rule."""
    cx, cy = center
    if kind == "ball":
        if delta is None or delta <= 0:
            raise ValueError("ball needs a positive radius")
        if math.hypot(cx, cy) + delta >= L:
            raise ValueError("ball does not fit inside the domain")
        return field_from_function(
            L, h, lambda X, Y: ((X - cx) ** 2 + (Y - cy) ** 2 <= delta ** 2) * 1.0)
    if kind == "annulus":
        if delta is None or delta <= 0:
            raise ValueError("annulus needs a positive thickness")
        if 1.0 + delta / 2.0 >= L:
            raise ValueError("annulus does not fit inside the domain")
        lo, hi = 1.0 - delta / 2.0, 1.0 + delta / 2.0
        return field_from_function(
            L, h, lambda X, Y: ((X ** 2 + Y ** 2 >= lo ** 2)
                                & (X ** 2 + Y ** 2 <= hi ** 2)) * 1.0)
    if kind == "constant":
        return field_from_function(L, h, lambda X, Y: np.ones((Y.size, X.size)),
                                   boundary_free=True)
    if kind == "gaussian":
        if width is None or width <= 0:
            raise ValueError("gaussian needs a positive width")
        return field_from_function(
            L, h,
            lambda X, Y: np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * width ** 2)))
    raise ValueError(f"unknown family {kind!r}")


# ---------------------------------------------------------------------------
# experiments


@dataclass
class ScalingRow:
    param: float
    value: float
    norms: list[float]
    slope_running: float | None


@dataclass
class ScalingResult:
    rows: list[ScalingRow]
    slope: float
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "rows": [
                {
                    "param": r.param,
                    "lambda": r.value,
                    "norms": r.norms,
                    "slope_running": r.slope_running,
                }
                for r in self.rows
            ],
            "slope": self.slope,
            "residual": self.residual,
        }

    def csv_lines(self) -> list[str]:
        n = len(self.rows[0].norms) if self.rows else 0
        head = "param,lambda," + ",".join(f"norm_{i+1}" for i in range(n)) \
            + ",slope_running"
        lines = [head]
        for r in self.rows:
            cells = [f"{r.param:.17g}", f"{r.value:.17g}"]
            cells += [f"{v:.17g}" for v in r.norms]
            cells.append("" if r.slope_running is None else f"{r.slope_running:.17g}")
            lines.append(",".join(cells))
        return lines


def fit_loglog(params: Sequence[float], values: Sequence[float]
               ) -> tuple[float, float]:
    """Least-squares slope of log value against log param, plus residual."""
    pairs = [(p, v) for p, v in zip(params, values) if v > 0.0]
    if len(pairs) < 2:
        raise ValueError("need at least two positive rows to fit a slope")
    x = np.log([p for p, _ in pairs])
    y = np.log([v for _, v in pairs])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    residual = float(res[0]) if res.size else 0.0
    return float(coef[0]), residual


def scaling_experiment(g: Graph, assignment: Sequence[str],
                       params: Sequence[float], grid_points: int = 513,
                       L: float | None = None,
                       epsilon: float | None = None,
                       master_seed: int = 0, mc_samples: int = 200_000) -> ScalingResult:
    """Form values along a shrinking-parameter family, with a log-log fit.

    Each vertex takes the test family its assignment entry names ("ball",
    "annulus" or "constant") at the row's parameter.  epsilon is the kernel
    width of every row; None couples it to the parameter (eps = param / 4)
    so mollification never smears the test geometry, and the growing-ball
    runs pass a fixed width.  master_seed seeds the shell Monte Carlo of
    mc_samples samples, which evaluates every graph that is neither a tree
    nor a triangle.

    A growing-ball fit on the 3-chain reaches the slope d = 2 of |B_R| only
    for R >> 1: the averaged indicator has a plateau of radius R - 1, so the
    (R-1)^2 term steers small windows (slope 2.43 on R in {2..6}, 2.02 on
    R in {20, 40, 80, 160}).
    """
    if len(assignment) != g.n:
        raise ValueError("assignment must name one family per vertex")
    rows: list[ScalingRow] = []
    for p in sorted(params, reverse=True):
        eps = p / 4.0 if epsilon is None else epsilon
        if L is None:
            # the outer radius of the balls and annuli
            geom = max([0.0, *(p if spec == "ball" else 1.0 + p / 2.0
                               for spec in assignment if spec in ("ball", "annulus"))])
            if "constant" in assignment:
                # a global factor is only averaged correctly 1+eps inside
                dom = geom + 1.0 + eps + 0.05
            else:
                # zero padding is exact for compact supports: keep the grid
                # tight so the fixed point count buys resolution
                dom = geom + 0.1
        else:
            dom = L
        h = grids.grid_spacing(dom, grid_points)
        k = make_kernel(eps, policy_angular_nodes(h))
        # one field object per distinct entry, so equal leaves average once
        built = {spec: test_family(spec, dom, h, delta=p)
                 for spec in dict.fromkeys(assignment)}
        val = form_evaluate(g, [built[spec] for spec in assignment], k,
                            mc_samples=mc_samples, master_seed=master_seed)
        norm = {spec: lp_norm(f, 1.0) for spec, f in built.items()}
        rows.append(ScalingRow(param=p, value=val,
                               norms=[norm[spec] for spec in assignment],
                               slope_running=None))
    for prev, cur in zip(rows, rows[1:]):
        if prev.value > 0 and cur.value > 0:
            cur.slope_running = (math.log(cur.value) - math.log(prev.value)) / (
                math.log(cur.param) - math.log(prev.param))
    if all(r.value <= 0 for r in rows):
        raise ValueError("all form values vanished; nothing to fit")
    slope, residual = fit_loglog([r.param for r in rows],
                                 [r.value for r in rows])
    return ScalingResult(rows=rows, slope=slope, residual=residual)


@dataclass
class RatioRow:
    param: float
    input_norm: float
    output_norm: float

    @property
    def ratio(self) -> float:
        return self.output_norm / self.input_norm


def ratio_experiment(p: float, q: float, params: Sequence[float],
                     grid_points: int = 1025) -> list[RatioRow]:
    """Averaging-operator norm ratios |Af|_q / |f|_p along the annuli of
    width delta = param, with kernel width eps = param / 4."""
    if p < 1 or q < 1:
        raise ValueError("exponents must be >= 1")
    rows = []
    for prm in sorted(params, reverse=True):
        eps = prm / 4.0
        dom = 1.0 + prm / 2.0 + 1.0 + eps + 0.05
        h = grids.grid_spacing(dom, grid_points)
        k = make_kernel(eps, policy_angular_nodes(h))
        f = test_family("annulus", dom, h, delta=prm)
        nf = lp_norm(f, p)
        if nf == 0.0:
            raise ValueError(f"zero-norm input at parameter {prm}")
        af = circular_average(f, k)
        rows.append(RatioRow(param=prm, input_norm=nf,
                             output_norm=lp_norm(af, q)))
    return rows


def kernel_decay_check(k: MollifiedCircleKernel, freqs: Sequence[float],
                       h: float = 1.0 / 256.0) -> list[tuple[float, float, float]]:
    """Fourier magnitude of the rasterized kernel with the decay weight.

    Returns rows (|xi|, |sigma_hat|, |sigma_hat| * (1 + |xi|)^(1/2)), the
    magnitude averaged over DECAY_DIRECTIONS directions of xi in [0, pi).
    Frequencies beyond the grid Nyquist limit are rejected.
    """
    nyquist = 0.5 / h
    for xi in freqs:
        if xi > nyquist:
            raise ValueError(f"frequency {xi} beyond Nyquist {nyquist}")
    m = int(math.ceil((1.0 + k.epsilon) / h)) + 1
    probe = GridField(m * h, h, np.zeros((2 * m + 1, 2 * m + 1)))
    K = k.raster(probe)
    half = K.shape[0] // 2
    ax = (np.arange(K.shape[0]) - half) * h
    X, Y = np.meshgrid(ax, ax)
    nz = K != 0.0
    xs, ys, ws = X[nz], Y[nz], K[nz]
    rows = []
    for xi in freqs:
        mags = []
        for dstep in range(DECAY_DIRECTIONS):
            ang = math.pi * dstep / DECAY_DIRECTIONS
            kx, ky = xi * math.cos(ang), xi * math.sin(ang)
            z = np.sum(ws * np.exp(-2j * math.pi * (kx * xs + ky * ys)))
            mags.append(abs(z))
        mag = float(np.mean(mags))
        rows.append((float(xi), mag, mag * math.sqrt(1.0 + xi)))
    return rows
