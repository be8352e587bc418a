import numpy as np
import pytest

from astn import _kernels as k
from astn.metrics import _gaussian_window


def _ssim_map_2d(x, y, window, c1, c2):
    # reference: weighted local moments as one w*w-tap 2-D pass per moment
    w = window.shape[0]
    xs = np.lib.stride_tricks.sliding_window_view(x, (w, w))
    ys = np.lib.stride_tricks.sliding_window_view(y, (w, w))
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
    [((11, 11), False), ((30, 26), False), ((64, 64), True)],
)
def test_separable_ssim_matches_2d_window(rng, shape, constant_x):
    x = np.full(shape, 0.4) if constant_x else rng.random(shape)
    y = rng.random(shape)
    win = _gaussian_window(11, 1.5)
    got = k.ssim_map(x, y, win, 1e-4, 9e-4)
    want = _ssim_map_2d(x, y, win, 1e-4, 9e-4)
    assert got.shape == want.shape == (shape[0] - 10, shape[1] - 10)
    assert np.abs(got - want).max() <= 1e-12


def test_ssim_map_rejects_non_separable_window(rng):
    x = rng.random((20, 20))
    with pytest.raises(ValueError, match="separable"):
        k.ssim_map(x, x, np.eye(11), 1e-4, 9e-4)
