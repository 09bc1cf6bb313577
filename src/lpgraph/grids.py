"""Sampled fields on centered square grids, with the shift machinery used
by the quadrature code.

A field lives on the (2m+1)^2 grid over [-L, L]^2 with spacing h = L/m.
Integrals carry the cell weight h^2.  Two interpolation flavors exist on
purpose: bilinear shifts match the splatted-kernel convolution identically,
cubic spline shifts are used where smooth inputs need the extra order.  A
cubic shift reads 4 x 4 coefficients per cell with nonnegative weights of
sum one; the cells that read a box of coefficients form its tap box, and
off the tap box of a support a shift stays below the largest |coefficient|
off that support.

Shifts by nearby offsets read coefficients at nearby lags, so the
quadratures plan them together (`lag_plans`): each offset becomes a kernel
on its group's rectangle of lags, and the coefficients read at each lag
over a box (`lag_windows`) turn a group of shifts, or of inner products
with them, into one correlation or one matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class MarginError(ValueError):
    """Field support reaches too close to the grid boundary."""


SUPPORT_REL_TOL = 1e-9


@dataclass
class GridField:
    L: float
    h: float
    values: np.ndarray
    boundary_free: bool = False  # stands for a global object (e.g. constant 1)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        m = int(round(self.L / self.h))
        if abs(m * self.h - self.L) > 1e-12 * self.L:
            raise ValueError("L must be an integer multiple of h")
        if self.L < 1.0 + self.h:
            raise ValueError("domain must extend past the unit circle")
        n = 2 * m + 1
        if self.values.shape != (n, n):
            raise ValueError(f"values must be ({n}, {n}), got {self.values.shape}")

    @property
    def m(self) -> int:
        return int(round(self.L / self.h))

    @property
    def size(self) -> int:
        return 2 * self.m + 1

    def copy_with(self, values: np.ndarray, boundary_free: bool = False) -> "GridField":
        return GridField(self.L, self.h, values, boundary_free)

    def compatible(self, other: "GridField") -> bool:
        return self.size == other.size and abs(self.h - other.h) < 1e-15

    def integral(self) -> float:
        return float(np.sum(self.values)) * self.h ** 2

    def support_radius(self) -> float:
        """Chebyshev radius of the cells above SUPPORT_REL_TOL * max |value|."""
        amax = float(np.max(np.abs(self.values)))
        if amax == 0.0:
            return 0.0
        mask = np.abs(self.values) > SUPPORT_REL_TOL * amax
        idx = np.argwhere(mask)
        m = self.m
        cheb = np.max(np.abs(idx - m))
        return float(cheb) * self.h

    def check_margin(self, clearance: float) -> None:
        """Require support to stay `clearance` away from the boundary."""
        if self.boundary_free:
            return
        if self.support_radius() > self.L - clearance:
            raise MarginError(
                f"support radius {self.support_radius():.4f} leaves less than "
                f"{clearance:.4f} of boundary margin on [-{self.L}, {self.L}]^2")

    def sample_bilinear(self, pts: np.ndarray) -> np.ndarray:
        """Bilinear values at (k, 2) physical coordinates; zero outside."""
        pts = np.asarray(pts, dtype=float)
        gx = (pts[..., 0] + self.L) / self.h
        gy = (pts[..., 1] + self.L) / self.h
        n = self.size
        i0 = np.floor(gx).astype(int)
        j0 = np.floor(gy).astype(int)
        fx = gx - i0
        fy = gy - j0
        out = np.zeros(pts.shape[:-1])
        for di in (0, 1):
            for dj in (0, 1):
                ii = i0 + di
                jj = j0 + dj
                ok = (ii >= 0) & (ii < n) & (jj >= 0) & (jj < n)
                wgt = (fx if di else 1 - fx) * (fy if dj else 1 - fy)
                vals = np.zeros_like(out)
                vals[ok] = self.values[jj[ok], ii[ok]]  # rows are y
                out += wgt * vals
        return out


def field_from_function(L: float, h: float,
                        fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        boundary_free: bool = False) -> GridField:
    """Sample fn(x, y) at cell centers.

    fn gets x as one row and y as one column and must broadcast them to the
    whole grid, so no full coordinate grid is ever allocated.
    """
    m = int(round(L / h))
    ax = np.linspace(-m * h, m * h, 2 * m + 1)
    X, Y = np.meshgrid(ax, ax, sparse=True)  # rows index y
    return GridField(m * h, h, fn(X, Y), boundary_free)


def grid_spacing(L: float, points: int) -> float:
    """Spacing so the grid has `points` samples per axis, an odd count >= 3."""
    if points < 3:
        raise ValueError(f"a grid needs at least 3 points per axis, got {points}")
    if points % 2 == 0:
        raise ValueError(f"a grid needs an odd number of points per axis, got {points}")
    m = (points - 1) // 2
    return L / m


# shifts -------------------------------------------------------------------


def _shift_int(arr: np.ndarray, di: int, dj: int) -> np.ndarray:
    """Integer shift with zero fill: out[j, i] = arr[j - dj, i - di]."""
    out = np.zeros_like(arr)
    n, m = arr.shape
    if abs(dj) >= n or abs(di) >= m:
        return out  # shifted entirely off the grid
    js = slice(max(dj, 0), n + min(dj, 0))
    is_ = slice(max(di, 0), m + min(di, 0))
    js_src = slice(max(-dj, 0), n + min(-dj, 0))
    is_src = slice(max(-di, 0), m + min(-di, 0))
    out[js, is_] = arr[js_src, is_src]
    return out


def shift_bilinear(f: GridField, dx: float, dy: float) -> np.ndarray:
    """Values of x -> f(x - (dx, dy)) on the same grid, bilinear, zero fill."""
    sx = dx / f.h
    sy = dy / f.h
    i0 = math.floor(sx)
    j0 = math.floor(sy)
    fx = sx - i0
    fy = sy - j0
    a = f.values
    out = np.zeros_like(a)
    for di, wx in ((0, 1 - fx), (1, fx)):
        if wx == 0.0:
            continue
        for dj, wy in ((0, 1 - fy), (1, fy)):
            if wy == 0.0:
                continue
            out += (wx * wy) * _shift_int(a, i0 + di, j0 + dj)
    return out


_CUBIC_MODE = "constant"

# output cells ((row start, stop), (column start, stop)) of a cubic shift
Box = Sequence[tuple[int, int]]


@dataclass(frozen=True)
class CubicCoeffs:
    """Order-3 spline coefficients of an n x n field, stored zero-padded by
    `pad` cells on every side.

    A shift whose taps stay inside the padding reads its four taps per axis
    as views of `padded`; the zeros stand for the zero fill outside the grid.
    """
    padded: np.ndarray
    pad: int

    @property
    def n(self) -> int:
        return self.padded.shape[0] - 2 * self.pad

    @property
    def size(self) -> int:
        return self.n * self.n


def cubic_prefilter(f: GridField, reach: float = 0.0) -> CubicCoeffs:
    """Spline coefficients for repeated order-3 shifted sampling.

    Shifts up to `reach` (physical units) in each axis read views of the
    padded coefficients; longer ones pad a temporary copy.
    """
    from scipy import ndimage  # only the quadrature path pays for it

    coeffs = ndimage.spline_filter(f.values, order=3, mode=_CUBIC_MODE)
    pad = int(math.ceil(reach / f.h)) + 3
    return CubicCoeffs(np.pad(coeffs, pad), pad)


def _bspline3_weights(t: float) -> tuple[float, float, float, float]:
    """Cubic B-spline evaluation weights at taps floor-1..floor+2."""
    s = 1.0 - t
    w0 = s * s * s / 6.0
    w1 = (4.0 - 6.0 * t * t + 3.0 * t * t * t) / 6.0
    w2 = (4.0 - 6.0 * s * s + 3.0 * s * s * s) / 6.0
    w3 = t * t * t / 6.0
    return w0, w1, w2, w3


def _cubic_x_pass(c: CubicCoeffs, h: float, dx: float, dy: float,
                  box: Box | None = None):
    """The x filter of a cubic shift, on the rows its y pass reads.

    box ((row start, stop), (column start, stop)) selects the output cells,
    the whole n x n grid by default.  Returns (tmp, wy): output row j of the
    box is the sum over the y taps k = -1..2 of wy[k + 1] * tmp[2 - k + j];
    tmp is None when every tap falls outside the grid, so the shift is zero.
    """
    sx = dx / h
    sy = dy / h
    i0 = math.floor(sx)
    j0 = math.floor(sy)
    wx = _bspline3_weights(sx - i0)
    wy = _bspline3_weights(sy - j0)
    n, a, p = c.n, c.padded, c.pad
    # taps i0 - 1 .. i0 + 2 (and likewise in y) of every output cell read
    # inside a padding of `need` cells; past n + 2 they all miss the grid
    need = max(i0 + 2, 1 - i0, j0 + 2, 1 - j0)
    if need > n + 2:
        return None, wy
    if need > p:
        a = np.pad(a[p:p + n, p:p + n], need)
        p = need
    (r0, r1), (c0, c1) = box or ((0, n), (0, n))
    rows = a[p - j0 - 2 + r0:p - j0 + r1 + 1]
    tmp = None
    for k, w in enumerate(wx, start=-1):
        if w == 0.0:
            continue
        col = p - i0 - k + c0
        part = w * rows[:, col:col + c1 - c0]
        if tmp is None:
            tmp = part
        else:
            tmp += part
    return tmp, wy


def shift_cubic(prefiltered: CubicCoeffs, h: float, dx: float, dy: float,
                box: Box | None = None) -> np.ndarray:
    """Order-3 spline values of x -> f(x - (dx, dy)); zero outside.

    With a box, only its cells: the full shift sliced to the box, bit for
    bit.
    """
    tmp, wy = _cubic_x_pass(prefiltered, h, dx, dy, box)
    if tmp is None:
        n = prefiltered.n
        (r0, r1), (c0, c1) = box or ((0, n), (0, n))
        return np.zeros((r1 - r0, c1 - c0))
    rows = tmp.shape[0] - 3
    out = None
    for k, w in enumerate(wy, start=-1):
        if w == 0.0:
            continue
        part = w * tmp[2 - k:2 - k + rows]
        if out is None:
            out = part
        else:
            out += part
    return out


def cubic_inner(P: np.ndarray, prefiltered: CubicCoeffs, h: float,
                dx: float, dy: float, box: Box | None = None) -> float:
    """sum(P * shift_cubic(prefiltered, h, dx, dy, box)) without forming the
    shift: the y pass becomes one dot product per tap.  P has the box's
    shape."""
    tmp, wy = _cubic_x_pass(prefiltered, h, dx, dy, box)
    if tmp is None:
        return 0.0
    rows = P.shape[0]
    flat = P.ravel()
    total = 0.0
    for k, w in enumerate(wy, start=-1):
        if w == 0.0:
            continue
        total += w * np.dot(flat, tmp[2 - k:2 - k + rows].ravel())
    return float(total)


def tap_boxes(support: Box, h: float, offsets, within) -> np.ndarray:
    """Per group (..., K, 2) of shift offsets, the box (..., 2, 2) of the
    cells inside `within` that some shift of the group reads from the
    coefficient box `support` by one of its 4 x 4 taps; empty where
    a start is not below its stop, and for an empty support.  Output row J
    of the shift by (dx, dy) reads rows J - j0 - 2 .. J - j0 + 1, with the
    j0 = floor(dy / h) of _cubic_x_pass, and the columns likewise."""
    cell = np.floor(np.asarray(offsets) / h).astype(int)[..., ::-1]  # (j0, i0)
    s, w = np.asarray(support), np.asarray(within)
    box = np.stack([s[:, 0] + cell.min(axis=-2) - 1,
                    s[:, 1] + cell.max(axis=-2) + 2], axis=-1)
    box = np.clip(box, w[..., :1], w[..., 1:])
    # no cell reads an empty support: stop at the start on every axis
    empty = (s[:, 0] >= s[:, 1]).any()
    return np.concatenate([box[..., :1], box[..., :1]], -1) if empty else box


def lag_plans(n: int, h: float, offsets, starts):
    """The one lag planner of the correlation quadratures.

    Tap (kx, ky) of the shift by (dx, dy) reads, for cell (J, I), coefficient
    (J - j0 - ky, I - i0 - kx) of the n x n grid, so a shift is a kernel on
    lags: its 4 x 4 tap weights wy x wx, reversed into ascending lags.  For
    each group of offsets, rows starts[c]:starts[c + 1] of offsets (N, 2),
    returns the padding need (C,) that their taps read, the lag lo (C, 2)
    (row, column) of the corner of the rectangle of lags that they span and
    its size (C, 2); and per offset, the corner at (N, 2) of its kernel in
    its group's rectangle and its reversed weights taps (N, 2, 4), wy then
    wx (`lag_kernels`).  As in _cubic_x_pass, the taps of an offset that
    needs more than n + 2 cells of padding all miss the grid: it weighs 0
    at the corner and adds no lag, and a group of such offsets has size
    (0, 0)."""
    s = np.asarray(offsets, dtype=float).reshape(-1, 2) / h
    base = np.floor(s)
    cell = base.astype(int)[:, ::-1]  # (j0, i0) of each offset
    need = np.maximum(cell + 2, 1 - cell).max(axis=1)
    hit = need <= n + 2
    # tap k = -1..2 reads lag -2 - j0 + (2 - k): reversed weights in ascending lags
    wy, wx = (np.stack(_bspline3_weights(s[:, i] - base[:, i])[::-1], -1)
              for i in (1, 0))
    lag, big = -2 - cell, 1 << 40
    lo = np.minimum.reduceat(np.where(hit[:, None], lag, big), starts)
    top = np.maximum.reduceat(np.where(hit[:, None], lag, -big), starts)
    size = np.where(lo < big, top - lo + 4, 0)
    group = np.repeat(np.arange(len(lo)), np.diff(starts, append=len(s)))
    at = np.where(hit[:, None], lag - lo[group], 0)
    taps = np.where(hit[:, None, None], np.stack([wy, wx], 1), 0.0)
    need = np.maximum.reduceat(np.where(hit, need, 0), starts)
    return need, lo, size, at, taps


def lag_kernels(at, taps, size) -> np.ndarray:
    """The kernels (K, rows, cols) of K offsets on a rectangle of lags of the
    given size: the outer product wy x wx of each offset's taps (K, 2, 4),
    placed at its corner at (K, 2) (`lag_plans`)."""
    W, t = np.zeros((len(at), *size)), np.arange(4)
    W[np.arange(len(at))[:, None, None], at[:, :1, None] + t[:, None],
      at[:, 1:, None] + t] = taps[:, 0, :, None] * taps[:, 1, None, :]
    return W


def lag_windows(prefiltered: CubicCoeffs, need: int, lo, size, box: Box) -> np.ndarray:
    """The coefficients that a rectangle of lags reads over a box, as a view
    (lag rows, lag cols, box rows, box cols): [a, b] holds the coefficients
    at lag lo + (a, b) of the box's cells, padded by need (lag_plans)."""
    n, a, p = prefiltered.n, prefiltered.padded, prefiltered.pad
    if need > p:
        a = np.pad(a[p:p + n, p:p + n], need)
        p = need
    (r0, r1), (c0, c1) = box
    y0, x0 = p + lo[0] + r0, p + lo[1] + c0
    span = a[y0:y0 + size[0] + r1 - r0 - 1, x0:x0 + size[1] + c1 - c0 - 1]
    return sliding_window_view(span, (r1 - r0, c1 - c0))


def inner_sum_plans(prefiltered: CubicCoeffs, h: float, offsets, weights) -> list:
    """In one pass, the plan (need, lo, W) of each row c of offsets (C, K, 2)
    and weights (C, K), the sum over k of weights[c, k] * cubic_inner(P,
    prefiltered, h, *offsets[c, k], box), or None when every tap misses the
    grid.  W is the weighted sum of the row's lag_plans kernels, added in
    offset order, with W[0, 0] at lag lo; need is the padding they read."""
    offsets = np.asarray(offsets, dtype=float)
    C, K = offsets.shape[:2]
    if K == 0:
        return [None] * C
    need, lo, size, at, taps = lag_plans(prefiltered.n, h, offsets,
                                         np.arange(0, C * K, K))
    w = np.asarray(weights, dtype=float)
    W = np.zeros((C, *size.max(axis=0, initial=4)))
    for k in range(K):
        W += w[:, k, None, None] * lag_kernels(at[k::K], taps[k::K], W.shape[1:])
    return [(nd, tuple(o), W[i, :bh, :bw]) if bh > 0 else None for i, (nd, o, (bh, bw))
            in enumerate(zip(need.tolist(), lo.tolist(), size.tolist()))]


def planned_inner_sum(P: np.ndarray, prefiltered: CubicCoeffs, plan,
                      box: Box | None = None) -> float:
    """The sum that a plan of inner_sum_plans stands for, as one correlation
    of P with the coefficients per lag of the plan (Unser, IEEE SPM 16(6),
    1999): its cost grows with the rectangle of lags that the offsets span,
    not with their number.  P has the box's shape."""
    if plan is None:
        return 0.0
    need, lo, W = plan
    n = prefiltered.n
    windows = lag_windows(prefiltered, need, lo, W.shape, box or ((0, n), (0, n)))
    return float(np.sum(W * np.einsum("ij,abij->ab", P, windows)))


# norms and inner products --------------------------------------------------


def lp_norm(f: GridField, p: float) -> float:
    """Discrete L^p norm with cell weight h^2; max norm at p = inf."""
    if p != math.inf and p < 1:
        raise ValueError(f"norm exponent must be >= 1, got {p}")
    a = np.abs(f.values)
    if p == math.inf:
        return float(np.max(a))
    if p != 1:
        # 0 ** p is 0, so raising only the nonzero cells gives the array of
        # a ** p, and the sum adds the same cells in the same order
        np.power(a, p, out=a, where=a != 0.0)
    return float(np.sum(a) * f.h ** 2) ** (1.0 / p)
