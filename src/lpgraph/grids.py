"""Sampled fields on centered square grids, with the shift machinery used
by the quadrature code.

A field lives on the (2m+1)^2 grid over [-L, L]^2 with spacing h = L/m.
Integrals carry the cell weight h^2.  Two interpolation flavors exist on
purpose: bilinear shifts match the splatted-kernel convolution identically,
cubic spline shifts are used where smooth inputs need the extra order.
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


def cubic_inner_sum(P: np.ndarray, prefiltered: CubicCoeffs, h: float,
                    offsets, weights, box: Box | None = None) -> float:
    """sum over k of weights[k] * cubic_inner(P, prefiltered, h, *offsets[k],
    box), read off one correlation of P with the coefficients.

    Tap (kx, ky) of the shift by (dx, dy) reads the padded coefficients
    through the window of P's shape at the integer lag (p - j0 - ky,
    p - i0 - kx) past the box's origin.  The 4 x 4 tap weights of every
    offset are collected onto their lags first, so each lag in the rectangle
    that the offsets span is correlated with P once (Unser, IEEE SPM 16(6),
    1999).  Clustered offsets share most lags; the cost grows with that
    rectangle, not with the number of offsets.
    """
    n, a, p = prefiltered.n, prefiltered.padded, prefiltered.pad
    (r0, _), (c0, _) = box or ((0, n), (0, n))
    rows, cols = P.shape
    s = np.asarray(offsets, dtype=float).reshape(-1, 2) / h
    w = np.asarray(weights, dtype=float).ravel()
    base = np.floor(s)
    cell = base.astype(int)  # (i0, j0) of each offset
    # as in _cubic_x_pass: the taps of an offset needing more than n + 2
    # cells of padding all miss the grid
    need = np.maximum(cell + 2, 1 - cell).max(axis=1)
    hit = need <= n + 2
    if not hit.any():
        return 0.0
    s, base, cell, w, need = s[hit], base[hit], cell[hit], w[hit], int(need[hit].max())
    if need > p:
        a = np.pad(a[p:p + n, p:p + n], need)
        p = need
    # tap k = -1..2 reads lag p - i0 - k: reversed weights in ascending lags
    wx = np.array(_bspline3_weights(s[:, 0] - base[:, 0]))[::-1]
    wy = np.array(_bspline3_weights(s[:, 1] - base[:, 1]))[::-1]
    lag = p - 2 - cell  # lowest lag of each offset, (x, y)
    lo = lag.min(axis=0)
    bw, bh = lag.max(axis=0) - lo + 4
    W = np.zeros((bh, bw))
    for k, (lx, ly) in enumerate(lag - lo):
        W[ly:ly + 4, lx:lx + 4] += w[k] * np.multiply.outer(wy[:, k], wx[:, k])
    y0, x0 = lo[1] + r0, lo[0] + c0
    span = a[y0:y0 + bh + rows - 1, x0:x0 + bw + cols - 1]
    corr = np.einsum("ij,abij->ab", P, sliding_window_view(span, (rows, cols)))
    return float(np.sum(W * corr))


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
