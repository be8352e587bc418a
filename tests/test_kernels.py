import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from astn import _kernels as k
from astn.metrics import _gaussian_window


def _ssim_map_2d(x, y, window, c1, c2):
    # reference: weighted local moments as one 2-D pass per moment, with
    # window axis 0 running down the image's rows
    xs = sliding_window_view(x, window.shape)
    ys = sliding_window_view(y, window.shape)
    mu1 = np.tensordot(xs, window, axes=([2, 3], [0, 1]))
    mu2 = np.tensordot(ys, window, axes=([2, 3], [0, 1]))
    s11 = np.tensordot(xs * xs, window, axes=([2, 3], [0, 1])) - mu1 * mu1
    s22 = np.tensordot(ys * ys, window, axes=([2, 3], [0, 1])) - mu2 * mu2
    s12 = np.tensordot(xs * ys, window, axes=([2, 3], [0, 1])) - mu1 * mu2
    num = (2.0 * mu1 * mu2 + c1) * (2.0 * s12 + c2)
    den = (mu1 * mu1 + mu2 * mu2 + c1) * (s11 + s22 + c2)
    return num / den


def test_active_backend_name():
    assert k.active_backend() == "numpy"


@pytest.mark.parametrize(
    "shape, constant_x",
    [((11, 11), False), ((30, 26), False), ((64, 64), True), ((64, 64), False), ((256, 200), False)],
)
def test_separable_ssim_matches_2d_window(rng, shape, constant_x):
    # the two 1-D passes sum in another order than the 2-D pass: 1e-12 is the
    # stated tolerance (about 5e-15 is seen at these sizes)
    x = np.full(shape, 0.4) if constant_x else rng.random(shape)
    y = rng.random(shape)
    win = _gaussian_window(11, 1.5)
    got = k.ssim_map(x, y, win, 1e-4, 9e-4)
    want = _ssim_map_2d(x, y, win, 1e-4, 9e-4)
    assert got.shape == want.shape == (shape[0] - 10, shape[1] - 10)
    assert np.abs(got - want).max() <= 1e-12


def _asymmetric_window(rows=11, cols=7):
    g = np.exp(-0.5 * ((np.arange(rows) - 4.0) / 2.0) ** 2)
    h = np.exp(-0.5 * ((np.arange(cols) - 2.5) / 1.2) ** 2) + np.linspace(0.0, 0.3, cols)
    return np.outer(g / g.sum(), h / h.sum())


@pytest.mark.parametrize("layout", ["contiguous", "strided", "transposed"])
def test_ssim_map_axis_order_on_rectangular_inputs(rng, layout):
    # a window with different, asymmetric marginals on a non-square image
    # pins which window axis filters which image axis
    win = _asymmetric_window()
    x, y = rng.random((2, 40, 23))
    if layout == "strided":
        x, y = rng.random((2, 80, 46))[:, ::2, ::2]
    elif layout == "transposed":
        x, y = rng.random((2, 23, 40)).transpose(0, 2, 1)
    got = k.ssim_map(x, y, win, 1e-4, 9e-4)
    want = _ssim_map_2d(x, y, win, 1e-4, 9e-4)
    assert got.shape == want.shape == (30, 17)
    assert np.abs(got - want).max() <= 1e-12
    # the window is asymmetric enough that reversed taps would show
    assert np.abs(_ssim_map_2d(x, y, win[::-1, ::-1], 1e-4, 9e-4) - want).max() > 1e-3


def test_ssim_map_moments_round_in_input_precision(rng):
    # float32 images: the moment products round in float32, as the 2-D
    # reference's do, and only the filter works in float64
    x, y = rng.random((2, 30, 26)).astype(np.float32)
    win = _gaussian_window(11, 1.5)
    got = k.ssim_map(x, y, win, 1e-4, 9e-4)
    assert got.dtype == np.float64
    assert np.abs(got - _ssim_map_2d(x, y, win, 1e-4, 9e-4)).max() <= 1e-12


def test_ssim_map_rejects_non_separable_window(rng):
    x = rng.random((20, 20))
    with pytest.raises(ValueError, match="separable"):
        k.ssim_map(x, x, np.eye(11), 1e-4, 9e-4)


@pytest.mark.parametrize(
    "window",
    [np.zeros((11, 11)), 2.0 * _gaussian_window(11, 1.5), np.full((11, 11), np.nan)],
    ids=["all_zero", "sums_to_two", "nan"],
)
def test_ssim_map_rejects_window_not_summing_to_one(rng, window):
    # outer(0, 0) is the zero window, so only the sum check stops it; it
    # would score any two images 1.0
    x, y = rng.random((2, 20, 20))
    with pytest.raises(ValueError, match="separable window summing to 1"):
        k.ssim_map(x, y, window, 1e-4, 9e-4)


@pytest.mark.parametrize("shape, window", [
    ((64, 64), "gaussian"), ((256, 256), "gaussian"),
    ((40, 23), "asymmetric"), ((80, 46), "asymmetric_strided"), ((23, 40), "asymmetric_transposed"),
])
def test_ssim_map_window_views_match_sliding_window_view(rng, monkeypatch, shape, window):
    # the directly built views are the ones sliding_window_view builds, so
    # matmul sees the same operands and the map is bit-identical
    x, y = rng.random((2,) + shape)
    if window.endswith("strided"):
        x, y = x[::2, ::2], y[::2, ::2]
    elif window.endswith("transposed"):
        x, y = x.T, y.T
    win = _gaussian_window(11, 1.5) if window == "gaussian" else _asymmetric_window()
    got = k.ssim_map(x, y, win, 1e-4, 9e-4)
    monkeypatch.setattr(k, "_windows", lambda st, size: sliding_window_view(st, size, axis=1))
    assert np.array_equal(got, k.ssim_map(x, y, win, 1e-4, 9e-4))


@pytest.mark.parametrize("shape", [(10, 20), (20, 10), (5, 5)])
def test_ssim_map_rejects_images_smaller_than_window(rng, shape):
    x, y = rng.random((2,) + shape)
    with pytest.raises(ValueError, match="at least as large as the window"):
        k.ssim_map(x, y, _gaussian_window(11, 1.5), 1e-4, 9e-4)


def _add_ellipses_reference(img, params):
    # the whole-image rasteriser: every ellipse is evaluated at every pixel
    h, w = img.shape
    ys = (np.arange(h, dtype=np.float64)[:, None] + 0.5) / h * 2.0 - 1.0
    xs = (np.arange(w, dtype=np.float64)[None, :] + 0.5) / w * 2.0 - 1.0
    out = img.copy()
    for i in range(params.shape[0]):
        cx, cy, inv_ax, inv_ay, ct, st, val = params[i]
        dx = xs - cx
        dy = ys - cy
        u = (dx * ct + dy * st) * inv_ax
        v = (dy * ct - dx * st) * inv_ay
        out = out + np.where(u * u + v * v <= 1.0, val, 0.0)
    return out


def _random_ellipses(rng, n):
    # centres in and around the image, semi-axes from below a pixel to
    # several image widths, aspect ratios up to 50, axis-aligned angles
    # among the rest
    ax = np.exp(rng.uniform(math.log(1e-3), math.log(3.0), n))
    ay = ax * np.exp(rng.uniform(-math.log(50.0), math.log(50.0), n))
    theta = rng.choice([0.0, 0.5 * math.pi, -0.5 * math.pi, math.pi], n)
    theta = np.where(rng.random(n) < 0.5, theta, rng.uniform(0.0, 2.0 * math.pi, n))
    return np.column_stack([rng.uniform(-1.8, 1.8, (n, 2)), 1.0 / ax, 1.0 / ay,
                            np.cos(theta), np.sin(theta), rng.uniform(-0.3, 0.5, n)])


def test_add_ellipses_matches_whole_image_reference(rng):
    shapes = [(32, 32), (33, 33), (64, 64), (32, 47), (47, 32), (1, 9), (9, 1), (256, 257)]
    cases = 0
    for case in range(400):
        shape = shapes[case % len(shapes)]
        if shape == (256, 257) and case % 16:
            continue
        params = _random_ellipses(rng, int(rng.integers(0, 9)))
        img = rng.random(shape)
        img[0, 0] = -0.0  # a whole-image pass turns it into +0.0
        want = _add_ellipses_reference(img, params)
        got = k.add_ellipses(img, params)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        cases += 1
    assert cases > 300


def test_add_ellipses_covers_edge_cases():
    # one pixel, wholly outside, straddling the border, axis-aligned with
    # aspect ratio 50, a rotation vector that is not a unit vector, a zero
    # rotation vector (u = v = 0 paints everywhere), and none
    params = np.array([
        [0.0, 0.025, 1e4, 1e4, 1.0, 0.0, 0.25],
        [1.5, 0.0, 4.0, 4.0, 1.0, 0.0, 0.5],
        [-1.0, 0.95, 2.0, 20.0, 0.0, 1.0, 0.125],
        [0.3, -0.225, 2.0, 100.0, 1.0, 0.0, -0.25],
        [0.1, 0.1, 3.0, 1.5, 0.6, 2.4, 0.0625],
        [0.2, -0.1, 3.0, 3.0, 0.0, 0.0, 0.03125],
    ])
    img = np.full((40, 33), 0.1)
    painted = [1, 0, None, None, None, img.size]
    for i, pixels in enumerate(painted):
        want = _add_ellipses_reference(img, params[i:i + 1])
        assert np.array_equal(k.add_ellipses(img, params[i:i + 1]), want)
        count = np.count_nonzero(want != img)
        assert count == pixels if pixels is not None else 1 < count < img.size
    assert np.array_equal(k.add_ellipses(img, params), _add_ellipses_reference(img, params))
    for dtype in (np.float32, np.float64):
        got = k.add_ellipses(img.astype(dtype), np.empty((0, 7)))
        assert got.dtype == dtype and np.array_equal(got, img.astype(dtype))


@pytest.mark.parametrize("img_dtype", [np.float32, np.float64, np.int64])
@pytest.mark.parametrize("params_dtype", [np.float32, np.float64])
def test_add_ellipses_result_dtype(rng, img_dtype, params_dtype):
    img = np.ones((20, 30), img_dtype)
    params = _random_ellipses(rng, 3).astype(params_dtype)
    want = _add_ellipses_reference(img, params)
    got = k.add_ellipses(img, params)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("change, match", [
    (lambda p: p[:, :6], r"an \(n, 7\) array"),
    (lambda p: p[0], r"an \(n, 7\) array"),
    (lambda p: np.concatenate([p, p], axis=1), r"an \(n, 7\) array"),
    (lambda p: np.where(np.arange(7) == 0, np.nan, p), "finite"),
    (lambda p: np.where(np.arange(7) == 4, np.inf, p), "finite"),
    (lambda p: np.where(np.arange(7) == 2, 0.0, p), "positive"),
    (lambda p: np.where(np.arange(7) == 3, -2.0, p), "positive"),
], ids=["six_columns", "one_row_1d", "fourteen_columns", "nan", "inf", "zero_inv_ax", "negative_inv_ay"])
def test_add_ellipses_rejects_bad_parameters(rng, change, match):
    # an inverse semi-axis of 0 used to paint an endless band, and a NaN row nothing
    params = change(_random_ellipses(rng, 3))
    with pytest.raises(ValueError, match=match):
        k.add_ellipses(np.zeros((16, 16)), params)


def _lincomb_operands(rng, shape=(17, 13), dtype=np.float64, coef=float):
    arr = lambda: rng.standard_normal(shape).astype(dtype)
    return coef(0.7), arr(), coef(-0.3), arr(), coef(1.9), arr()


def _allocating_cases(*aliases):
    """(out alias, array dtype, coefficient type) cases. Without out the result
    has the expression's dtype: float64 for float32 arrays with numpy float64
    coefficients and for int64 arrays."""
    return [pytest.param(alias, np.float64, float, id=str(alias)) for alias in aliases] + [
        pytest.param(None, np.float32, np.float64, id="float32-np.float64"),
        pytest.param(None, np.int64, float, id="int64"),
    ]


@pytest.mark.parametrize("alias, dtype, coef", _allocating_cases(None, "a", "b"))
def test_lincomb2_out_matches_allocating_form(rng, alias, dtype, coef):
    ca, a, cb, b, _, _ = _lincomb_operands(rng, dtype=dtype, coef=coef)
    want = k.lincomb2(ca, a, cb, b)
    expr = ca * a + cb * b
    assert want.dtype == expr.dtype and np.array_equal(want, expr)
    out = {None: np.empty_like(want), "a": a, "b": b}[alias]
    got = k.lincomb2(ca, a, cb, b, out=out, tmp=np.empty_like(want))
    assert got is out
    assert np.array_equal(got, want)


@pytest.mark.parametrize("alias, dtype, coef", _allocating_cases(None, "a"))
def test_lincomb3_out_matches_allocating_form(rng, alias, dtype, coef):
    ca, a, cb, b, cc, c = _lincomb_operands(rng, dtype=dtype, coef=coef)
    want = k.lincomb3(ca, a, cb, b, cc, c)
    expr = (ca * a + cb * b) + cc * c
    assert want.dtype == expr.dtype and np.array_equal(want, expr)
    out = a if alias == "a" else np.empty_like(want)
    got = k.lincomb3(ca, a, cb, b, cc, c, out=out, tmp=np.empty_like(want))
    assert got is out
    assert np.array_equal(got, want)


@pytest.mark.parametrize("fn", ["lincomb2", "lincomb3"])
def test_lincomb_out_without_tmp(rng, fn):
    ops = _lincomb_operands(rng)
    args = ops[:4] if fn == "lincomb2" else ops
    want = getattr(k, fn)(*args)
    out = np.empty_like(ops[1])
    got = getattr(k, fn)(*args, out=out)
    assert got is out
    assert np.array_equal(got, want)


@pytest.mark.parametrize("out_alias", [None, "a"])
def test_lincomb2_tmp_may_be_b(rng, out_alias):
    ca, a, cb, b, _, _ = _lincomb_operands(rng)
    want = k.lincomb2(ca, a, cb, b)
    out = a if out_alias == "a" else np.empty_like(a)
    got = k.lincomb2(ca, a, cb, b, out=out, tmp=b)
    assert got is out
    assert np.array_equal(got, want)


@pytest.mark.parametrize("out_alias", [None, "a"])
def test_lincomb3_tmp_may_be_b(rng, out_alias):
    ca, a, cb, b, cc, c = _lincomb_operands(rng)
    want = k.lincomb3(ca, a, cb, b, cc, c)
    out = a if out_alias == "a" else np.empty_like(a)
    got = k.lincomb3(ca, a, cb, b, cc, c, out=out, tmp=b)
    assert got is out
    assert np.array_equal(got, want)


def test_lincomb2_unit_coefficient_in_place(rng):
    # y += cb*b in two passes equals the three-pass 1.0*y + cb*b bit for bit
    _, a, cb, b, _, _ = _lincomb_operands(rng)
    a[0, :4] = (-0.0, 5e-324, -1e308, 0.0)
    want = np.add(np.multiply(1.0, a), np.multiply(cb, b))
    got = k.lincomb2(1.0, a, cb, b, out=a, tmp=np.empty_like(a))
    assert got is a
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))

