import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import ndimage
from scipy.special import j0

from lpgraph.estimator import (
    RADON_PAIR_FACTOR,
    MethodError,
    _windowed_average,
    bilinear_radon,
    bump,
    circular_average,
    circular_average_nodesum,
    form_evaluate,
    kernel_decay_check,
    make_kernel,
    ratio_experiment,
    scaling_experiment,
    test_family as field_family,
)
from lpgraph.graphs import Graph, path3, triangle
from lpgraph.grids import GridField, MarginError, lp_norm
from lpgraph import estimator, grids

L0 = 2.2
H0 = L0 / 256


def inner(f: GridField, g_values: np.ndarray) -> float:
    """Discrete L^2 inner product with cell weight h^2."""
    return float(np.sum(f.values * g_values)) * f.h ** 2


def test_kernel_parameter_validation():
    with pytest.raises(ValueError):
        make_kernel(0.6, 512)
    with pytest.raises(ValueError):
        make_kernel(1 / 16, 32)


def test_kernel_mass_one():
    k = make_kernel(1 / 16, 512)
    _, w = k.nodes()
    assert abs(w.sum() - 1.0) < 1e-12
    probe = field_family("ball", L0, H0, delta=0.5)
    assert abs(k.raster(probe).sum() - 1.0) < 1e-6


def test_bump_support_and_symmetry():
    assert bump(1.0) == 0.0 and bump(-1.0) == 0.0
    ts = np.linspace(0, 0.99, 20)
    np.testing.assert_allclose(bump(ts), bump(-ts))
    # unit integral
    t = np.linspace(-1, 1, 20001)
    assert abs(np.trapezoid(bump(t), t) - 1.0) < 1e-6


def test_average_of_constant_is_one_inside():
    k = make_kernel(1 / 16, 512)
    f = field_family("constant", L0, H0)
    af = circular_average(f, k)
    mid = af.size // 2
    inner = af.values[mid - 40:mid + 41, mid - 40:mid + 41]
    np.testing.assert_allclose(inner, 1.0, atol=1e-12)


def test_average_of_big_ball_is_nearly_one_deep_inside():
    L = 4.2
    h = L / 256
    k = make_kernel(1 / 16, 512)
    f = field_family("ball", L, h, delta=3.0)
    af = circular_average(f, k)
    mid = af.size // 2
    assert af.values[mid, mid] > 0.999


def test_average_of_thin_annulus_peaks_at_origin():
    k = make_kernel(1 / 32, 512)
    f = field_family("annulus", L0, H0, delta=1 / 8)
    af = circular_average(f, k)
    mid = af.size // 2
    assert af.values[mid, mid] > 0.95


@pytest.mark.parametrize("kind,kw", [("ball", {"delta": 0.5}), ("annulus", {"delta": 0.25}),
                                     ("constant", {}), ("gaussian", {"width": 0.3})])
def test_families_sample_without_coordinate_grids(kind, kw):
    # the sampled function sees one row of x and one column of y; full
    # coordinate grids and their temporaries peaked at 3 to 4 result sizes
    import tracemalloc

    tracemalloc.start()
    try:
        f = field_family(kind, 2.0, 2.0 / 256, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.values.shape == (513, 513)
    assert peak < 2.5 * f.values.nbytes


def test_margin_guard_raises():
    k = make_kernel(1 / 16, 512)
    f = field_family("ball", 1.5, 1.5 / 256, delta=1.4)
    with pytest.raises(MarginError):
        circular_average(f, k)
    circular_average(f, k, allow_boundary=True)  # explicit opt-in works


def test_fft_equals_node_sum():
    k = make_kernel(1 / 16, 128, radial_nodes=4)
    L, h = 1.6, 1.6 / 64
    f = field_family("ball", L, h, delta=0.4)
    a1 = circular_average(f, k, allow_boundary=True).values
    a2 = circular_average_nodesum(f, k).values
    assert np.max(np.abs(a1 - a2)) < 1e-10


# ---------------------------------------------------------------------------
# windowed FFT averaging


def _same_span(lo, hi, kn, n):
    """Output cells [start, stop) on one axis where the "same" convolution of
    a support [lo, hi) with a kn-cell kernel can be nonzero."""
    off = (kn - 1) // 2
    return max(lo - off, 0), min(hi + kn - 1 - off, n)


@st.composite
def _windowed_case(draw):
    kn = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    shape = tuple(draw(st.integers(k + 3, 24)) for k in kn)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kernel = rng.uniform(0.0, 1.0, kn)
    support = draw(st.sampled_from(["empty", "cell", "edge", "constant", "box"]))
    values = np.zeros(shape)
    box = [(0, 0), (0, 0)]
    if support == "constant":
        values[:] = 1.0
        box = [(0, n) for n in shape]
    elif support != "empty":
        for axis, n in enumerate(shape):
            lo = draw(st.integers(0, n - 1))
            hi = lo + 1 if support == "cell" else draw(st.integers(lo + 1, n))
            box[axis] = (lo, hi)
        if support == "edge":
            axis = draw(st.integers(0, 1))
            n, (lo, hi) = shape[axis], box[axis]
            box[axis] = (0, hi) if draw(st.booleans()) else (lo, n)
        (r0, r1), (c0, c1) = box
        values[r0:r1, c0:c1] = rng.uniform(-1.0, 1.0, (r1 - r0, c1 - c0))
    kind = draw(st.sampled_from(["full", "sub", "disjoint"]))
    if kind == "full":
        window = [(0, n) for n in shape]
    elif kind == "sub":
        window = []
        for n in shape:
            a = draw(st.integers(0, n - 1))
            window.append((a, draw(st.integers(a + 1, n))))
    else:
        # a band on one axis that support + kernel cannot reach
        window = [(0, n) for n in shape]
        gaps = []
        for axis, n in enumerate(shape):
            a, b = _same_span(*box[axis], kn[axis], n)
            gaps += [(axis, 0, a), (axis, b, n)]
        gaps = [g for g in gaps if g[1] < g[2]]
        if support != "empty":
            assume(gaps)
            axis, a, b = draw(st.sampled_from(gaps))
            window[axis] = (a, b)
    return values, kernel, window, kind


@settings(max_examples=300, deadline=None)
@given(_windowed_case())
def test_windowed_average_matches_full_convolution(case):
    from scipy.signal import fftconvolve

    values, kernel, window, kind = case
    got = _windowed_average(values, kernel, window)
    want = fftconvolve(values, kernel, mode="same")
    (r0, r1), (c0, c1) = window
    inside = np.zeros(values.shape, dtype=bool)
    inside[r0:r1, c0:c1] = True
    tol = 1e-12 * np.max(np.abs(values)) * np.sum(np.abs(kernel))
    assert got.shape == values.shape
    assert np.max(np.abs(got - want)[inside]) <= tol
    assert not got[~inside].any()
    if kind == "disjoint":
        assert not got.any()


def test_tree_and_ratio_values_pinned():
    # recorded with the full-size "same" convolution of scipy.signal, before
    # the windowed average; row order is the descending parameter order
    params = (0.125, 0.0625, 0.03125, 0.015625)
    pinned = {
        ("ball", "ball", "annulus"): (
            0.0011230076053864548, 0.00014373623945331397,
            1.590470188681722e-05, 1.7877590025617804e-06),
        ("annulus", "annulus", "ball"): (
            0.0206745453996241, 0.005142393940876511,
            0.0012490212422828898, 0.0002690871518949879),
        ("ball", "constant", "annulus"): (
            0.029922980431290203, 0.007104534685965666,
            0.001604813361314165, 0.00019357834581506522),
    }
    for assignment, want in pinned.items():
        res = scaling_experiment(path3(), assignment, params, grid_points=257)
        for row, w in zip(res.rows, want, strict=True):
            assert abs(row.value - w) <= 1e-12 * w
    rows = ratio_experiment(1.5, 3.0, params, grid_points=257)
    want_norms = ((0.8520614100611806, 0.27617328382100975),
                  (0.5246370192134759, 0.1663242888352169),
                  (0.3461113063054117, 0.1055335395168971),
                  (0.21190985997761433, 0.05932294105566715))
    for row, (n_in, n_out) in zip(rows, want_norms, strict=True):
        assert abs(row.input_norm - n_in) <= 1e-12 * n_in
        assert abs(row.output_norm - n_out) <= 1e-12 * n_out


def test_bigball_and_growing_ratio_values_pinned():
    # recorded before equal leaf fields shared one average and before
    # lp_norm raised only the nonzero cells; rows in descending order
    res = scaling_experiment(path3(), ("ball", "ball", "ball"),
                             (2.0, 3.0, 4.0, 5.0, 6.0), grid_points=257,
                             epsilon=1.0 / 16.0)
    want = ((93.76563013240624, 113.06761779785154),
            (62.538724312953654, 78.5586456298828),
            (37.52410148340459, 50.25044982910156),
            (18.834003419747848, 28.262808227539065),
            (6.453839162488463, 12.563816528320313))
    for row, (value, norm) in zip(res.rows, want, strict=True):
        assert abs(row.value - value) <= 1e-12 * value
        assert len(row.norms) == 3
        for n in row.norms:
            assert abs(n - norm) <= 1e-12 * norm
    rows = ratio_experiment(1.5, 6.0, (0.125, 0.0625, 0.03125, 0.015625),
                            grid_points=257)
    want_norms = ((0.8520614100611806, 0.4705436424935144),
                  (0.5246370192134759, 0.36062717290557983),
                  (0.3461113063054117, 0.27604333079852694),
                  (0.21190985997761433, 0.19031592840575898))
    for row, (n_in, n_out) in zip(rows, want_norms, strict=True):
        assert abs(row.input_norm - n_in) <= 1e-12 * n_in
        assert abs(row.output_norm - n_out) <= 1e-12 * n_out


def _equal_copy(f: GridField) -> GridField:
    return f.copy_with(f.values.copy())


@pytest.mark.parametrize("method", ["tree-factor", "direct"])
def test_shared_leaf_field_equals_distinct_copy_on_the_chain(method):
    # path3's center is vertex 3, so vertices 1 and 2 are leaves of one parent
    k = make_kernel(1 / 16, 128, radial_nodes=3)
    L, h = 2.2, 2.2 / 32
    f = field_family("ball", L, h, delta=0.3)
    g = field_family("annulus", L, h, delta=0.3)
    shared = form_evaluate(path3(), [f, f, g], k, method=method)
    distinct = form_evaluate(path3(), [f, _equal_copy(f), g], k, method=method)
    assert shared > 0.0
    assert shared == distinct


def test_shared_leaf_field_equals_distinct_copies_on_trees():
    from graph_figures import star

    k = make_kernel(1 / 16, 128, radial_nodes=3)
    L, h = 3.2, 3.2 / 48
    f = field_family("ball", L, h, delta=0.3)
    g = field_family("annulus", L, h, delta=0.3)
    shared = form_evaluate(star(3), [g, f, f, f], k)
    distinct = form_evaluate(star(3), [g, f, _equal_copy(f), _equal_copy(f)], k)
    assert shared > 0.0
    assert shared == distinct
    # one field object on leaves of three different parents: each parent's
    # window gives its own average.  The root is center 1, and leaf 6 under
    # the annulus is averaged first, on a box narrower than the root's
    spider = Graph(6, ((1, 2), (1, 3), (1, 4), (2, 5), (3, 6)))
    big = field_family("ball", L, h, delta=2.0)
    wide = field_family("ball", L, h, delta=1.1)
    shared = form_evaluate(spider, [big, wide, g, f, f, f], k)
    distinct = form_evaluate(spider, [big, wide, g, f, _equal_copy(f),
                                      _equal_copy(f)], k)
    assert shared > 0.0
    assert shared == distinct


@pytest.mark.parametrize("assignment, want", [
    (("ball", "ball", "annulus"), 4),
    (("ball", "constant", "annulus"), 8),
])
def test_scaling_experiment_averages_equal_leaves_once(monkeypatch, assignment, want):
    calls = [0]
    real = estimator.fftconvolve

    def counted(*args):
        calls[0] += 1
        return real(*args)
    monkeypatch.setattr(estimator, "fftconvolve", counted)
    res = scaling_experiment(path3(), assignment, (0.125, 0.0625, 0.03125, 0.015625),
                             grid_points=257)
    assert calls[0] == want
    # the norms keep one entry per vertex
    assert all(len(row.norms) == 3 for row in res.rows)


def _old_lp_norm(f: GridField, p: float) -> float:
    return float(np.sum(np.abs(f.values) ** p) * f.h ** 2) ** (1 / p)


@st.composite
def _sparse_fields(draw):
    """Small fields with isolated nonzero cells, zero runs, negative values,
    no zeros at all, or no nonzero cell."""
    m = draw(st.integers(2, 24))
    n = 2 * m + 1
    kind = draw(st.sampled_from(["isolated", "runs", "dense", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal(n * n) * 10.0 ** draw(st.integers(-3, 3))
    if kind == "isolated":
        keep = np.zeros(n * n, dtype=bool)
        keep[rng.integers(0, n * n, draw(st.integers(1, 4)))] = True
        a[~keep] = 0.0
    elif kind == "runs":
        for _ in range(draw(st.integers(1, 6))):
            start = int(rng.integers(0, n * n))
            a[start:start + int(rng.integers(1, n * n))] = 0.0
    elif kind == "dense":
        a[a == 0.0] = 1.0
    else:
        a[:] = 0.0
    return GridField(2.0, 2.0 / m, a.reshape(n, n))


@given(_sparse_fields(), st.sampled_from([1.0, 1.5, 3.0, 6.0]))
@settings(max_examples=80, deadline=None)
def test_lp_norm_bit_identical_to_full_power(f, p):
    before = f.values.copy()
    assert lp_norm(f, p) == _old_lp_norm(f, p)
    assert np.array_equal(f.values, before)


def test_lp_norm_bit_identical_on_indicators():
    for kind in ("ball", "annulus"):
        f = field_family(kind, 2.2, 2.2 / 256, delta=0.125)
        before = f.values.copy()
        for p in (1.0, 1.5, 3.0, 6.0):
            assert lp_norm(f, p) == _old_lp_norm(f, p)
        assert lp_norm(f, math.inf) == 1.0
        with pytest.raises(ValueError):
            lp_norm(f, 0.99)
        assert np.array_equal(f.values, before)
    neg = f.copy_with(-2.0 * f.values)
    assert lp_norm(neg, math.inf) == 2.0
    assert lp_norm(neg, 1.5) == _old_lp_norm(neg, 1.5)


def test_import_skips_scipy_signal():
    import lpgraph

    src = str(Path(lpgraph.__file__).resolve().parents[1])
    # scipy.ndimage loads with the first cubic prefilter, so the exact-LP
    # subcommands do not carry it
    code = ("import sys, lpgraph.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats', 'scipy.ndimage') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_radon_second_factor_constant_reduces_to_average():
    # with h == 1 everywhere the transform collapses to the plain average
    k = make_kernel(1 / 16, 128, radial_nodes=3)
    L, h = 2.4, 2.4 / 128
    g = field_family("gaussian", L, h, center=(0.2, -0.1), width=0.15)
    ones = field_family("constant", L, h)
    b = bilinear_radon(g, ones, math.pi / 3, k)
    a = circular_average(g, k)
    mid = b.size // 2
    sl = slice(mid - 30, mid + 31)
    np.testing.assert_allclose(b.values[sl, sl], a.values[sl, sl], atol=2e-4)


def test_radon_zero_angle_pairs_the_same_point():
    k = make_kernel(1 / 16, 128, radial_nodes=3)
    L, h = 2.4, 2.4 / 128
    g = field_family("gaussian", L, h, center=(0.3, 0.0), width=0.15)
    hfield = field_family("gaussian", L, h, center=(0.3, 0.0), width=0.15)
    b0 = bilinear_radon(g, hfield, 0.0, k)
    # same quadrature applied to the pointwise product
    prod = g.copy_with(g.values * hfield.values)

    def sq(field):
        out = np.zeros_like(field.values)
        pf = grids.cubic_prefilter(field)
        r, wr = k.radial_rule()
        for th in k.angles():
            for rad, w in zip(r, wr):
                out += (w / k.M) * grids.shift_cubic(
                    pf, field.h, rad * math.cos(th), rad * math.sin(th))
        return out

    # separate interpolation of the two factors vs interpolation of their
    # product: equal in the continuum, equal here to interpolation accuracy
    ref = sq(prod)
    tol = 1e-4 * float(np.max(np.abs(ref)))
    np.testing.assert_allclose(b0.values, ref, atol=tol)


def test_radon_matches_dense_double_quadrature_at_origin():
    # independent oracle: brute-force polar double integral of
    # g(x-y) h(x-Theta y) w(|y|) at x = 0, much denser than the kernel rule;
    # centers chosen so the transform is large at the origin
    theta = math.pi / 3
    cg = (-1.0, 0.0)
    ch = (-math.cos(theta), -math.sin(theta))
    k = make_kernel(1 / 32, 256, radial_nodes=4)
    L, h = 3.1, 3.1 / 96
    g = field_family("gaussian", L, h, center=cg, width=0.15)
    hf = field_family("gaussian", L, h, center=ch, width=0.15)
    b = bilinear_radon(g, hf, theta, k)
    mid = b.size // 2

    def ga(x, y, c, w=0.15):
        return math.exp(-((x - c[0]) ** 2 + (y - c[1]) ** 2) / (2 * w * w))

    ct, st_ = math.cos(theta), math.sin(theta)
    val = 0.0
    nr, na = 40, 4096
    for tr in np.linspace(-1 + 1e-9, 1 - 1e-9, nr):
        r = 1 + k.epsilon * tr
        wr = bump(tr) * r
        for a in range(na):
            th = 2 * math.pi * (a + 0.5) / na
            ux, uy = r * math.cos(th), r * math.sin(th)
            vx, vy = ct * ux - st_ * uy, st_ * ux + ct * uy
            val += wr * ga(-ux, -uy, cg) * ga(-vx, -vy, ch)
    # normalize the oracle rule the same way (weights sum to one)
    norm = 0.0
    for tr in np.linspace(-1 + 1e-9, 1 - 1e-9, nr):
        norm += bump(tr) * (1 + k.epsilon * tr) * na
    val /= norm
    assert abs(b.values[mid, mid] - val) / abs(val) < 1e-3


# ---------------------------------------------------------------------------
# cubic shifts and the fused Radon-pair inner products


def _zero_fill_shift(arr, di, dj):
    """out[j, i] = arr[j - dj, i - di], zero where that falls off the grid."""
    n, m = arr.shape
    pad = max(abs(di), abs(dj), 1)
    big = np.pad(arr, pad)
    return big[pad - dj:pad - dj + n, pad - di:pad - di + m]


def _reference_shift_cubic(values, h, dx, dy):
    """The separable zero-fill cubic shift as it was written before the
    padded coefficients: one zero-filled integer-shift copy per tap."""
    coeffs = ndimage.spline_filter(values, order=3, mode="constant")
    sx, sy = dx / h, dy / h
    i0, j0 = math.floor(sx), math.floor(sy)
    wx = grids._bspline3_weights(sx - i0)
    wy = grids._bspline3_weights(sy - j0)
    tmp = None
    for k, w in enumerate(wx, start=-1):
        if w == 0.0:
            continue
        part = w * _zero_fill_shift(coeffs, i0 + k, 0)
        tmp = part if tmp is None else tmp + part
    out = None
    for k, w in enumerate(wy, start=-1):
        if w == 0.0:
            continue
        part = w * _zero_fill_shift(tmp, 0, j0 + k)
        out = part if out is None else out + part
    return out


def _reference_shift_bilinear(f, dx, dy):
    sx, sy = dx / f.h, dy / f.h
    i0, j0 = math.floor(sx), math.floor(sy)
    fx, fy = sx - i0, sy - j0
    out = np.zeros_like(f.values)
    for di, wx in ((0, 1 - fx), (1, fx)):
        for dj, wy in ((0, 1 - fy), (1, fy)):
            if wx != 0.0 and wy != 0.0:
                out += (wx * wy) * _zero_fill_shift(f.values, i0 + di, j0 + dj)
    return out


@st.composite
def _field_and_shift(draw):
    m = draw(st.integers(4, 20))
    L = 1.5
    h = L / m
    n = 2 * m + 1
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = GridField(L, h, rng.uniform(-1.0, 1.0, (n, n)))
    width = 2.0 * L
    dx = draw(st.floats(-width, width, exclude_min=True, exclude_max=True))
    dy = draw(st.floats(-width, width, exclude_min=True, exclude_max=True))
    reach = draw(st.sampled_from([0.0, 0.5, width]))
    return f, dx, dy, reach


@settings(max_examples=200, deadline=None)
@given(_field_and_shift())
def test_shift_cubic_bit_identical_to_zero_fill_reference(case):
    # the padded coefficients read the taps as views; the zeros of the padding
    # must reproduce the zero fill bit for bit, whether the shift stays inside
    # the padding (reach = width) or needs a wider temporary (reach = 0)
    f, dx, dy, reach = case
    got = grids.shift_cubic(grids.cubic_prefilter(f, reach), f.h, dx, dy)
    want = _reference_shift_cubic(f.values, f.h, dx, dy)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_shifts_beyond_the_grid_fill_with_zeros():
    f = field_family("gaussian", 3.0, grids.grid_spacing(3.0, 129),
                     center=(0.2, -0.1), width=0.3)
    n = f.size
    pf = grids.cubic_prefilter(f)
    for cells in (n, 1.5 * n, 2 * n, 6.5 / f.h):
        for sx, sy in ((1, 0), (0, -1), (-1, 1)):
            dx, dy = sx * cells * f.h, sy * cells * f.h
            cub = grids.shift_cubic(pf, f.h, dx, dy)
            lin = grids.shift_bilinear(f, dx, dy)
            assert np.array_equal(cub, _reference_shift_cubic(f.values, f.h, dx, dy))
            assert np.array_equal(lin, _reference_shift_bilinear(f, dx, dy))
            if cells > n + 2:
                assert not cub.any() and not lin.any()
    for d in (n, n + 1, 3 * n // 2, 2 * n - 1, 2 * n):
        assert not grids._shift_int(f.values, d, 0).any()
        assert not grids._shift_int(f.values, 0, -d).any()


def test_cubic_inner_equals_sum_of_product():
    rng = np.random.default_rng(5)
    L, h = 3.0, grids.grid_spacing(3.0, 97)
    g = field_family("gaussian", L, h, center=(0.4, -0.3), width=0.2)
    P = field_family("gaussian", L, h, center=(-0.2, 0.5), width=0.4).values
    P = P * (1.0 + 0.1 * rng.standard_normal(P.shape))
    for reach in (0.0, 1.5):
        pg = grids.cubic_prefilter(g, reach)
        for dx, dy in rng.uniform(-1.5, 1.5, (40, 2)):
            prod = P * grids.shift_cubic(pg, h, dx, dy)
            want = float(np.sum(prod))
            got = grids.cubic_inner(P, pg, h, dx, dy)
            assert abs(got - want) <= 1e-12 * float(np.sum(np.abs(prod)))


def _cubic_inner_sum(P, pg, h, offsets, weights, box=None):
    """sum over k of weights[k] * cubic_inner(P, pg, h, *offsets[k], box),
    planned as one row of grids.inner_sum_plans."""
    plan, = grids.inner_sum_plans(pg, h, np.reshape(offsets, (1, -1, 2)),
                                  np.reshape(weights, (1, -1)))
    return grids.planned_inner_sum(P, pg, plan, box)


@settings(max_examples=80, deadline=None)
@given(points=st.sampled_from([17, 25, 33]),
       reach=st.sampled_from([0.0, 0.4]),
       center=st.tuples(st.floats(-1.3, 1.3), st.floats(-1.3, 1.3)),
       spread=st.sampled_from([0.0, 0.4, 1.5, 6.0]),
       count=st.integers(1, 9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cubic_inner_sum_equals_weighted_cubic_inners(points, reach, center,
                                                      spread, count, seed):
    # offsets cluster around a centre anywhere from the grid's middle to past
    # its edge (in units of n + 3 cells, where every tap misses); at reach 0
    # the padding holds 3 cells, so most offsets pad a temporary copy
    rng = np.random.default_rng(seed)
    L = 2.0
    h = grids.grid_spacing(L, points)
    g = GridField(L, h, rng.standard_normal((points, points)))
    P = rng.standard_normal((points, points))
    pg = grids.cubic_prefilter(g, reach)
    cells = np.array(center) * (points + 3) + spread * rng.uniform(-1, 1, (count, 2))
    offsets = cells * h
    weights = rng.uniform(-1.0, 1.0, count)
    want = sum(w * grids.cubic_inner(P, pg, h, dx, dy)
               for (dx, dy), w in zip(offsets, weights))
    scale = sum(abs(w) * float(np.sum(np.abs(P * grids.shift_cubic(pg, h, dx, dy))))
                for (dx, dy), w in zip(offsets, weights))
    got = _cubic_inner_sum(P, pg, h, offsets, weights)
    assert type(got) is float
    assert abs(got - want) <= 1e-12 * scale
    if scale == 0.0:
        assert got == 0.0


def test_cubic_inner_sum_of_offsets_off_the_grid_is_zero():
    L, h = 2.0, grids.grid_spacing(2.0, 17)
    g = field_family("gaussian", L, h, width=0.5)
    P = np.ones((17, 17))
    pg = grids.cubic_prefilter(g, 0.0)
    far = [(20 * h, 0.0), (0.0, -20 * h), (-19.5 * h, 19.5 * h)]
    assert _cubic_inner_sum(P, pg, h, far, [1.0, 2.0, 3.0]) == 0.0
    assert _cubic_inner_sum(P, pg, h, np.zeros((0, 2)), []) == 0.0
    # one offset on the grid next to the far ones reads only its own taps
    near = far + [(0.3 * h, -0.7 * h)]
    assert math.isclose(_cubic_inner_sum(P, pg, h, near, [1.0, 2.0, 3.0, 0.5]),
                        0.5 * grids.cubic_inner(P, pg, h, 0.3 * h, -0.7 * h),
                        rel_tol=1e-13)


@st.composite
def _box(draw, n):
    """((row start, stop), (column start, stop)), nonempty, inside n x n."""
    out = []
    for _ in range(2):
        a = draw(st.integers(0, n - 1))
        out.append((a, draw(st.integers(a + 1, n))))
    return out


@settings(max_examples=200, deadline=None)
@given(_field_and_shift(), st.data())
def test_shift_cubic_on_a_box_is_the_full_shift_sliced(case, data):
    # the same taps, weights and additions per cell: bit for bit, whether the
    # shift reads the padding (reach = width) or pads a temporary (reach = 0)
    f, dx, dy, reach = case
    (r0, r1), (c0, c1) = box = data.draw(_box(f.size))
    pf = grids.cubic_prefilter(f, reach)
    got = grids.shift_cubic(pf, f.h, dx, dy, box)
    assert np.array_equal(got, grids.shift_cubic(pf, f.h, dx, dy)[r0:r1, c0:c1])


def test_shift_cubic_on_edge_boxes_and_off_the_grid():
    f = field_family("gaussian", 3.0, grids.grid_spacing(3.0, 65),
                     center=(0.2, -0.1), width=0.3)
    n = f.size
    edges = [[(0, 7), (0, n)], [(n - 7, n), (n - 1, n)], [(0, n), (0, 1)],
             [(3, 40), (n - 20, n)], [(0, n), (0, n)]]
    for reach in (0.0, 1.1):
        pf = grids.cubic_prefilter(f, reach)
        # inside the padding, past it (a temporary pad), and off the grid
        for cells in (0.4, 1.7, 5.3, 30.6, n + 2.5, 2 * n):
            for sx, sy in ((1, 0), (-1, 1), (0.3, -1)):
                dx, dy = sx * cells * f.h, sy * cells * f.h
                full = grids.shift_cubic(pf, f.h, dx, dy)
                for (r0, r1), (c0, c1) in edges:
                    box = [(r0, r1), (c0, c1)]
                    got = grids.shift_cubic(pf, f.h, dx, dy, box)
                    assert np.array_equal(got, full[r0:r1, c0:c1])


@settings(max_examples=80, deadline=None)
@given(points=st.sampled_from([17, 25, 33]),
       reach=st.sampled_from([0.0, 0.4]),
       center=st.tuples(st.floats(-1.3, 1.3), st.floats(-1.3, 1.3)),
       spread=st.sampled_from([0.0, 0.4, 1.5, 6.0]),
       count=st.integers(1, 9),
       seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_cubic_inners_on_a_box_equal_the_full_grid(points, reach, center, spread,
                                                    count, seed, data):
    # P vanishes off the box, so the box drops only zero terms; the sums
    # differ only in their order, by a few ulps of the sum of |terms|.  Both
    # x passes of cubic_inner form the same rows of tmp, so its terms are
    # those of the y pass, |P| * |tmp| per tap; sum |P * shift| can be far
    # smaller, as the taps cancel
    rng = np.random.default_rng(seed)
    L = 2.0
    h = grids.grid_spacing(L, points)
    g = GridField(L, h, rng.standard_normal((points, points)))
    pg = grids.cubic_prefilter(g, reach)
    (r0, r1), (c0, c1) = box = data.draw(_box(points))
    Pb = rng.standard_normal((r1 - r0, c1 - c0))
    P = np.zeros((points, points))
    P[r0:r1, c0:c1] = Pb
    cells = np.array(center) * (points + 3) + spread * rng.uniform(-1, 1, (count, 2))
    offsets = cells * h
    weights = rng.uniform(-1.0, 1.0, count)
    ulps = 8 * np.finfo(float).eps
    terms = 0.0
    for (dx, dy), w in zip(offsets, weights):
        scale = float(np.sum(np.abs(P * grids.shift_cubic(pg, h, dx, dy))))
        terms += abs(w) * scale
        tmp, wy = grids._cubic_x_pass(pg, h, dx, dy)
        y_terms = 0.0 if tmp is None else sum(
            wt * float(np.sum(np.abs(P * tmp[2 - k:2 - k + points])))
            for k, wt in enumerate(wy, start=-1))
        got = grids.cubic_inner(Pb, pg, h, dx, dy, box)
        assert abs(got - grids.cubic_inner(P, pg, h, dx, dy)) <= ulps * y_terms
    got = _cubic_inner_sum(Pb, pg, h, offsets, weights, box)
    want = _cubic_inner_sum(P, pg, h, offsets, weights)
    assert type(got) is float
    assert abs(got - want) <= ulps * terms


def _triangle_terms(method, fs, k):
    if method == "radon-pair":
        return estimator._radon_pair_terms(fs, k)
    return estimator._direct_triangle_terms(fs, k, 32, 3, 3)


@pytest.mark.parametrize("method", ["radon-pair", "direct"])
def test_cropped_triangle_forms_agree_with_the_full_grid_within_the_bound(method):
    fs = _moved_triangle_gaussians()
    k = make_kernel(1 / 16, 128, radial_nodes=3)
    n = fs[0].size
    (r0, r1), (c0, c1) = estimator._support_box(fs[0].values, estimator.CROP_REL_TOL)
    assert r1 - r0 < n // 2 and c1 - c0 < n // 2  # the crop saves work
    on_box, scale = _triangle_terms(method, fs, k)
    full, _ = on_box([(0, n), (0, n)], 0.0)
    value, bound = estimator._cropped(fs[0], on_box, scale)
    assert 0.0 < bound <= 1e-13 * abs(value)
    # all factors are positive, so the rounding of either sum is a few ulps
    # of the value on top of the truncation bound
    assert abs(value - full) <= bound + 1e-14 * abs(full)
    params = dict(direct_params=dict(m_alpha=32)) if method == "direct" else {}
    assert form_evaluate(triangle(), fs, k, method=method, **params) == value


@st.composite
def _triangle_factors(draw):
    """f, g and h near the corners of the unit triangle: sums of 1-3
    Gaussians at random centres, widths and weights, and in one drawn slot a
    compact bump instead."""
    L, h = 3.5, grids.grid_spacing(3.5, 57)
    r0 = 1 / math.sqrt(3)
    jitter = st.floats(-0.15, 0.15)
    bumped = draw(st.integers(0, 2))
    fields = []
    for slot in range(3):
        a = 0.3 + slot * 2 * math.pi / 3
        if slot == bumped:
            cx, cy = r0 * math.cos(a) + draw(jitter), r0 * math.sin(a) + draw(jitter)
            rad = draw(st.floats(0.3, 0.6))
            fields.append(grids.field_from_function(
                L, h, lambda X, Y, cx=cx, cy=cy, rad=rad: bump(np.hypot(X - cx, Y - cy) / rad)))
            continue
        parts = [(r0 * math.cos(a) + draw(jitter), r0 * math.sin(a) + draw(jitter),
                  draw(st.floats(0.1, 0.2)), draw(st.floats(0.2, 1.0)))
                 for _ in range(draw(st.integers(1, 3)))]
        fields.append(grids.field_from_function(
            L, h, lambda X, Y, parts=parts: sum(
                c * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * w * w))
                for cx, cy, w, c in parts)))
    return fields


@settings(max_examples=20, deadline=None)
@given(fs=_triangle_factors(), method=st.sampled_from(["radon-pair", "direct"]),
       eps=st.sampled_from([1 / 32, 1 / 8]))
def test_cropped_triangle_forms_of_random_factors_stay_within_the_bound(fs, method, eps):
    # the crop cuts f's box at each node to the tap boxes of g's and h's
    # coefficients; the whole grid at the exact-zero supports drops nothing
    k = make_kernel(eps, 64, radial_nodes=2)
    n = fs[0].size
    if method == "radon-pair":
        on_box, scale = estimator._radon_pair_terms(fs, k)
    else:
        on_box, scale = estimator._direct_triangle_terms(fs, k, 16, 2, 2)
    full, _ = on_box([(0, n), (0, n)], 0.0)
    value, bound = estimator._cropped(fs[0], on_box, scale)
    assert 0.0 <= bound <= 1e-13 * abs(value)  # 0 when the fallback ran
    assert abs(value - full) <= bound + 1e-14 * abs(full)


@settings(max_examples=150, deadline=None)
@given(points=st.sampled_from([9, 17, 25]), reach=st.sampled_from([0.0, 0.6]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_cubic_shifts_vanish_off_the_tap_box_of_their_support(points, reach, seed, data):
    # only the support cells of the coefficients are kept; shifts inside the
    # padding, past it (a temporary pad) and off the grid all read zeros
    # outside the tap box of their group
    rng = np.random.default_rng(seed)
    h = grids.grid_spacing(2.0, points)
    (r0, r1), (c0, c1) = support = data.draw(_box(points))
    coeffs = np.zeros((points, points))
    coeffs[r0:r1, c0:c1] = rng.uniform(0.5, 1.5, (r1 - r0, c1 - c0)) * rng.choice(
        [-1.0, 1.0], (r1 - r0, c1 - c0))
    pad = int(math.ceil(reach / h)) + 3
    c = grids.CubicCoeffs(np.pad(coeffs, pad), pad)
    cell = st.floats(-(points + 6.0), points + 6.0)
    centre = np.array([data.draw(cell), data.draw(cell)])
    offsets = (centre + rng.uniform(-2.0, 2.0, (data.draw(st.integers(1, 3)), 2))) * h
    whole = [(0, points), (0, points)]
    (s0, s1), (t0, t1) = grids.tap_boxes(support, h, offsets[None], whole)[0]
    off = np.ones((points, points), bool)
    off[s0:s1, t0:t1] = False
    for dx, dy in offsets:
        assert not grids.shift_cubic(c, h, dx, dy)[off].any()


@pytest.mark.parametrize("method", ["radon-pair", "direct"])
def test_compact_factors_that_no_node_cuts_keep_a_zero_bound(method):
    # a ball f well inside the reach of the annuli g and h: f vanishes off
    # its box and every node's tap boxes cover that box, so the crop drops
    # nothing, the bound is 0 and the quadrature runs once
    p = 0.4
    L = 2.0 + p / 2 + p / 4 + 0.05
    h = grids.grid_spacing(L, 65)
    f = field_family("ball", L, h, delta=p)
    a = field_family("annulus", L, h, delta=p)
    on_box, scale = _triangle_terms(method, [f, a, a], make_kernel(p / 4, 128, radial_nodes=3))
    rels = []

    def counted(box, rel):
        rels.append(rel)
        return on_box(box, rel)
    value, bound = estimator._cropped(f, counted, scale)
    assert (bound, rels) == (0.0, [estimator.CROP_REL_TOL])
    assert value == on_box(estimator._support_box(f.values), 0.0)[0]


@pytest.mark.parametrize("method", ["radon-pair", "direct"])
def test_far_outer_factor_falls_back_to_the_full_grid(method):
    # f's tail off its box carries the whole form, so the bound exceeds the
    # value and the quadrature reruns on the exact-zero box: for a Gaussian
    # the whole grid, bit for bit
    _, g, hf = _moved_triangle_gaussians()
    f = field_family("gaussian", g.L, g.h, center=(-2.3, 2.2), width=0.15)
    fs = [f, g, hf]
    k = make_kernel(1 / 16, 128, radial_nodes=3)
    n = f.size
    assert estimator._support_box(f.values) == [(0, n), (0, n)]
    # the crop would drop cells, so a zero bound means the fallback ran
    assert estimator._support_box(f.values, estimator.CROP_REL_TOL) != [(0, n), (0, n)]
    on_box, scale = _triangle_terms(method, fs, k)
    full, _ = on_box([(0, n), (0, n)], 0.0)
    value, bound = estimator._cropped(f, on_box, scale)
    assert (value, bound) == (full, 0.0)
    params = dict(direct_params=dict(m_alpha=32)) if method == "direct" else {}
    assert form_evaluate(triangle(), fs, k, method=method, **params) == full


@pytest.mark.parametrize("method", ["radon-pair", "direct"])
def test_zero_outer_factor_gives_zero(method):
    # so does a zero g or h, whose empty support leaves only zero terms
    fs = _moved_triangle_gaussians()
    k = make_kernel(1 / 16, 128, radial_nodes=3)
    for slot in range(3):
        zeroed = list(fs)
        zeroed[slot] = fs[slot].copy_with(np.zeros_like(fs[slot].values))
        got = form_evaluate(triangle(), zeroed, k, method=method)
        assert got == 0.0 and type(got) is float


def test_direct_triangle_reads_lens_sums_not_single_inners(monkeypatch):
    calls = {"cubic_inner": 0, "planned_inner_sum": 0}

    def counted(name):
        real = getattr(grids, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(grids, name, counted(name))
    fs = _moved_triangle_gaussians()
    k = make_kernel(1 / 16, 128, radial_nodes=3)
    form_evaluate(triangle(), fs, k, method="direct",
                  direct_params=dict(m_alpha=8, n_radial=3))
    # one read per circle crossing of every outer node, of tap weights that
    # were planned once for all of them
    assert calls == {"cubic_inner": 0, "planned_inner_sum": 2 * 8 * 3}


def test_direct_triangle_on_ragged_lens_clusters_equals_single_inners():
    # at eps = 0.45 some pairs of lens radii do not cross (perp^2 <= 0), so
    # the radial nodes hold different numbers of lens nodes; the planned lens
    # sums must equal one cubic_inner per lens node on the whole grid
    from numpy.polynomial.legendre import leggauss

    eps, m_alpha, n_radial, n_lens = 0.45, 8, 3, 3
    f, g, hf = _moved_triangle_gaussians()
    h = f.h
    gp, hp = (grids.cubic_prefilter(x, 1.0 + eps) for x in (g, hf))
    tu, wu = leggauss(n_radial)
    tl, wl = leggauss(n_lens)
    want, dropped = 0.0, []
    for mi in range(m_alpha):
        th = 2 * math.pi * (mi + 0.5) / m_alpha
        ux, uy = math.cos(th), math.sin(th)
        for a in range(n_radial):
            r = 1 + eps * tu[a]
            w_u = bump(tu[a]) * r * wu[a] / m_alpha
            P = f.values * grids.shift_cubic(gp, h, r * ux, r * uy)
            for b in range(n_lens):
                for c in range(n_lens):
                    R1, R2 = 1 + eps * tl[b], 1 + eps * tl[c]
                    d = (r * r + R1 * R1 - R2 * R2) / (2 * r)
                    if R1 * R1 - d * d <= 0:
                        dropped.append((a, b, c))
                        continue
                    perp = math.sqrt(R1 * R1 - d * d)
                    w = (bump(tl[b]) * wl[b] * bump(tl[c]) * wl[c] / (2 * math.pi) ** 2
                         * R1 * R2 / (r * perp))
                    for sgn in (1, -1):
                        want += w_u * w * h * h * grids.cubic_inner(
                            P, hp, h, d * ux - sgn * perp * uy, d * uy + sgn * perp * ux)
    lens_nodes = [n_lens ** 2 - len({x for x in dropped if x[0] == a}) for a in range(n_radial)]
    assert len(set(lens_nodes)) > 1  # ragged
    got = form_evaluate(triangle(), [f, g, hf], make_kernel(eps, 64), method="direct",
                        direct_params=dict(m_alpha=m_alpha, n_radial=n_radial,
                                           n_lens=n_lens))
    assert abs(got - want) <= 1e-12 * abs(want)


def _moved_triangle_gaussians(L=3.0, N=65):
    h = 2 * L / (N - 1)
    r0 = 1 / math.sqrt(3)
    return [field_family("gaussian", L, h, width=0.15,
                         center=(r0 * math.cos(a) + 0.05, r0 * math.sin(a) - 0.03))
            for a in (0.3, 0.3 + 2 * math.pi / 3, 0.3 + 4 * math.pi / 3)]


def test_radon_pair_equals_inner_with_bilinear_radon():
    # the form path fuses f into the product and shares the g-shift between
    # the two rotations; bilinear_radon is the field-valued oracle
    f, g, hf = _moved_triangle_gaussians()
    k = make_kernel(1 / 16, 128, radial_nodes=3)
    fused = form_evaluate(triangle(), [f, g, hf], k, method="radon-pair")
    oracle = RADON_PAIR_FACTOR * sum(
        inner(f, bilinear_radon(g, hf, theta, k).values)
        for theta in (math.pi / 3, -math.pi / 3))
    assert abs(fused - oracle) <= 1e-12 * abs(oracle)


def test_triangle_forms_pinned_and_python_floats():
    # values of the unfused quadrature (one shift per tap, field-valued
    # transform), recorded before the fused inner products
    fs = _moved_triangle_gaussians()
    k = make_kernel(1 / 16, 128, radial_nodes=3)
    radon = form_evaluate(triangle(), fs, k, method="radon-pair")
    direct = form_evaluate(triangle(), fs, k, method="direct",
                           direct_params=dict(m_alpha=32))
    assert abs(radon - 8.193522202603178e-05) <= 1e-12 * 8.193522202603178e-05
    assert abs(direct - 8.14995506916131e-05) <= 1e-12 * 8.14995506916131e-05
    chain = form_evaluate(path3(), fs, k, method="direct")
    tree = form_evaluate(path3(), fs, k, method="tree-factor")
    mc = form_evaluate(triangle(), fs, k, method="leray-mc", mc_samples=20_000)
    for v in (radon, direct, chain, tree, mc):
        assert type(v) is float


def test_form_tree_factor_equals_direct_chain():
    k = make_kernel(1 / 16, 256, radial_nodes=6)
    L, h = 2.2, 2.2 / 128
    fs = [field_family("ball", L, h, delta=0.25),
          field_family("ball", L, h, delta=0.25),
          field_family("annulus", L, h, delta=0.25)]
    v1 = form_evaluate(path3(), fs, k, method="tree-factor")
    v2 = form_evaluate(path3(), fs, k, method="direct")
    assert abs(v1 - v2) / abs(v1) < 1e-6


def test_form_radon_vs_direct_triangle():
    k = make_kernel(1 / 64, 384, radial_nodes=4)
    L, N = 2.6, 193
    h = 2 * L / (N - 1)
    r0 = 1 / math.sqrt(3)
    cs = [(r0 * math.cos(a), r0 * math.sin(a))
          for a in (0, 2 * math.pi / 3, 4 * math.pi / 3)]
    fs = [field_family("gaussian", L, h, center=c, width=0.15) for c in cs]
    v1 = form_evaluate(triangle(), fs, k, method="radon-pair")
    v2 = form_evaluate(triangle(), fs, k, method="direct",
                       direct_params=dict(m_alpha=96, n_radial=3, n_lens=3))
    assert abs(v1 - v2) / abs(v2) < 2e-3


def test_form_zero_field_gives_zero():
    k = make_kernel(1 / 16, 128, radial_nodes=3)
    L, h = 2.2, 2.2 / 64
    f = field_family("ball", L, h, delta=0.3)
    z = f.copy_with(np.zeros_like(f.values))
    assert form_evaluate(path3(), [f, z, f], k) == 0.0


def test_form_multilinearity():
    k = make_kernel(1 / 16, 128, radial_nodes=3)
    L, h = 2.2, 2.2 / 64
    f = field_family("ball", L, h, delta=0.3)
    g = field_family("annulus", L, h, delta=0.3)
    hh = field_family("ball", L, h, delta=0.5)
    base = form_evaluate(path3(), [f, g, hh], k)
    scaled = form_evaluate(path3(), [f.copy_with(3.0 * f.values), g, hh], k)
    assert abs(scaled - 3.0 * base) <= 1e-12 * max(1.0, abs(base) * 3)
    f2 = field_family("ball", L, h, delta=0.45)
    add = form_evaluate(path3(), [f.copy_with(f.values + f2.values), g, hh], k)
    parts = base + form_evaluate(path3(), [f2, g, hh], k)
    assert abs(add - parts) <= 1e-10 * max(1.0, abs(parts))


def test_form_positivity_and_monotonicity():
    k = make_kernel(1 / 16, 128, radial_nodes=3)
    L, h = 2.2, 2.2 / 64
    f = field_family("ball", L, h, delta=0.3)
    g = field_family("annulus", L, h, delta=0.3)
    hh = field_family("ball", L, h, delta=0.5)
    v = form_evaluate(path3(), [f, g, hh], k)
    assert v >= 0
    bigger = field_family("ball", L, h, delta=0.4)
    assert form_evaluate(path3(), [bigger, g, hh], k) >= v


def test_form_symmetry_leaf_swap_and_triangle_permutations():
    k = make_kernel(1 / 16, 128, radial_nodes=3)
    L, h = 2.2, 2.2 / 64
    f = field_family("ball", L, h, delta=0.3)
    g = field_family("annulus", L, h, delta=0.2)
    hh = field_family("ball", L, h, delta=0.5)
    assert math.isclose(form_evaluate(path3(), [f, g, hh], k),
                        form_evaluate(path3(), [g, f, hh], k), rel_tol=1e-12)
    import itertools

    ks = make_kernel(1 / 16, 128, radial_nodes=3)
    cs = [(0.4, 0.0), (-0.3, 0.3), (0.0, -0.5)]
    fields = [field_family("gaussian", 2.6, 2.6 / 96, center=c, width=0.15)
              for c in cs]
    vals = [form_evaluate(triangle(), [fields[i] for i in perm], ks,
                          method="radon-pair")
            for perm in itertools.permutations(range(3))]
    # permuting swaps which factor the quadrature treats as the weight, so
    # the symmetry holds at quadrature accuracy, not rounding accuracy
    assert max(vals) - min(vals) <= 1e-4 * max(map(abs, vals))


def test_form_translation_covariance():
    # shifting every sampled array by the same whole number of cells (with
    # the supports staying clear of the boundary) leaves the value unchanged
    from lpgraph.grids import _shift_int

    k = make_kernel(1 / 16, 128, radial_nodes=3)
    L, h = 2.4, 2.4 / 96
    fs = [field_family("ball", L, h, delta=0.3),
          field_family("ball", L, h, delta=0.3),
          field_family("annulus", L, h, delta=0.25)]
    moved = [f.copy_with(_shift_int(f.values, 4, 4)) for f in fs]
    v1 = form_evaluate(path3(), fs, k)
    v2 = form_evaluate(path3(), moved, k)
    assert abs(v1 - v2) / abs(v1) < 1e-9


def test_form_method_guards():
    k = make_kernel(1 / 16, 128, radial_nodes=3)
    L, h = 2.2, 2.2 / 64
    f = field_family("ball", L, h, delta=0.3)
    with pytest.raises(MethodError):
        form_evaluate(triangle(), [f, f, f], k, method="tree-factor")
    with pytest.raises(MethodError):
        form_evaluate(path3(), [f, f, f], k, method="radon-pair")
    with pytest.raises(MethodError):
        form_evaluate(path3(), [f, f], k)


def test_families_geometry():
    ball = field_family("ball", L0, H0, delta=1 / 8)
    assert abs(ball.integral() - math.pi / 64) / (math.pi / 64) < 0.05
    ann = field_family("annulus", L0, H0, delta=1 / 8)
    assert abs(ann.integral() - 2 * math.pi / 8) / (2 * math.pi / 8) < 0.05
    const = field_family("constant", L0, H0)
    assert np.all(const.values == 1.0) and const.boundary_free
    with pytest.raises(ValueError):
        field_family("ball", 1.0 + H0, H0, delta=1.5)


def test_lp_norm_values():
    ball = field_family("ball", L0, H0, delta=1 / 8)
    for p in (1.0, 1.5, 2.0, 3.0):
        ref = (math.pi / 64) ** (1 / p)
        assert abs(lp_norm(ball, p) - ref) / ref < 0.05
    const = field_family("constant", L0, H0)
    assert lp_norm(const, math.inf) == 1.0
    with pytest.raises(ValueError):
        lp_norm(ball, 0.5)


@given(st.floats(min_value=1.0, max_value=8.0),
       st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=20, deadline=None)
def test_lp_norm_homogeneity(p, c):
    ball = field_family("ball", 1.5, 1.5 / 64, delta=0.4)
    scaled = ball.copy_with(c * ball.values)
    assert math.isclose(lp_norm(scaled, p), c * lp_norm(ball, p),
                        rel_tol=1e-9)


def test_scaling_experiment_shape_and_csv():
    res = scaling_experiment(path3(), ("ball", "ball", "annulus"),
                             [1 / 8, 1 / 16], grid_points=257)
    assert len(res.rows) == 2
    assert res.rows[0].param == 1 / 8  # descending order
    lines = res.csv_lines()
    assert lines[0] == "param,lambda,norm_1,norm_2,norm_3,slope_running"
    assert lines[1].endswith(",")  # first row has no running slope
    assert len(lines) == 3


def test_ratio_experiment_l1_contraction():
    rows = ratio_experiment(1.0, 1.0, [1 / 8], grid_points=257)
    assert rows[0].ratio <= 1.0 + 1e-6


def test_refinement_convergence():
    k = make_kernel(1 / 8, 256, radial_nodes=4)
    vals = []
    for n in (129, 257, 513):
        L = 2.2
        h = 2 * L / (n - 1)
        fs = [field_family("ball", L, h, delta=0.25),
              field_family("ball", L, h, delta=0.25),
              field_family("annulus", L, h, delta=0.25)]
        vals.append(form_evaluate(path3(), fs, k))
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 < d1


def test_kernel_decay_unit_mass_at_zero():
    k = make_kernel(1 / 32, 256, radial_nodes=4)
    rows = kernel_decay_check(k, [0.0], h=1 / 128)
    assert abs(rows[0][1] - 1.0) < 1e-6


def test_kernel_decay_matches_bessel_oracle():
    eps = 1 / 64
    k = make_kernel(eps, 512, radial_nodes=6)
    rows = kernel_decay_check(k, [1.0], h=1 / 256)
    assert abs(rows[0][1] - abs(j0(2 * math.pi))) < 1e-3 + eps


def test_kernel_decay_bound_on_band():
    k = make_kernel(1 / 64, 512, radial_nodes=6)
    freqs = [float(v) for v in range(2, 65, 2)]
    rows = kernel_decay_check(k, freqs, h=1 / 256)
    assert max(r[2] for r in rows) <= 1.0


def test_kernel_decay_rejects_aliased_frequencies():
    k = make_kernel(1 / 32, 256, radial_nodes=4)
    with pytest.raises(ValueError, match="Nyquist"):
        kernel_decay_check(k, [200.0], h=1 / 128)
