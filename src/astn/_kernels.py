"""Hot numeric kernels, in plain numpy.

Every sampler step, oracle evaluation and metric window reduces to a handful
of elementwise kernels defined here. Scalar transcendentals (exp, log) are
always computed outside the kernels.

Aliasing rules. With ``out`` given, a kernel writes only ``out`` and, for
``lincomb2``/``lincomb3``, ``tmp``. Each docstring says which operands
``out`` and ``tmp`` may alias; within those rules every operand is read
before it is overwritten, and outside them the result is silently wrong.
``tmp`` may be ``b`` itself, which leaves ``b`` overwritten: the samplers
pass the predictor's estimate buffer as ``tmp`` once they have read the
estimate, so no kernel needs scratch of its own.

``ssim_map`` exploits that the SSIM window is separable (the Gaussian window
of Wang et al., IEEE TIP 2004, is ``outer(g, g)``): each local moment is two
1-D valid-mode passes of ``w`` taps instead of one 2-D pass of ``w * w``.
"""

import numpy as np

__all__ = [
    "active_backend",
    "lincomb2",
    "lincomb3",
    "scaled_residual",
    "ssim_map",
    "add_ellipses",
]


def active_backend():
    """Name of the kernel backend in use."""
    return "numpy"


def lincomb2(ca, a, cb, b, out=None, tmp=None):
    """``ca*a + cb*b``, into ``out`` when it is given.

    ``tmp`` is optional scratch for ``cb*b``, shaped like ``out``. Both forms
    evaluate ``ca*a``, ``cb*b`` and their sum with the same elementwise
    operations, so they are bit-identical; ``1.0*a`` is exact, so with
    ``ca == 1.0`` and ``out`` being ``a`` that pass is skipped. ``cb*b`` is
    formed first, so ``out`` may alias ``a`` or ``b``. ``tmp`` may be ``b``
    (which is then overwritten) when ``out`` is not ``b``, and must alias
    nothing else.
    """
    if out is None:
        return ca * a + cb * b
    t = np.multiply(cb, b, out=tmp)
    if not (out is a and ca == 1.0):
        np.multiply(ca, a, out=out)
    return np.add(out, t, out=out)


def lincomb3(ca, a, cb, b, cc, c, out=None, tmp=None):
    """``(ca*a + cb*b) + cc*c``, into ``out`` when it is given.

    Bit-identical to the allocating form, like :func:`lincomb2`. ``out`` may
    alias ``a`` but not ``b`` or ``c``. ``tmp`` may be ``b`` (which is then
    overwritten) when ``c`` is not ``b``, and must alias nothing else.
    """
    if out is None:
        return (ca * a + cb * b) + cc * c
    np.multiply(ca, a, out=out)
    t = np.multiply(cb, b, out=tmp)
    np.add(out, t, out=out)
    t = np.multiply(cc, c, out=tmp)
    return np.add(out, t, out=out)


def scaled_residual(c, a, cb, b, out=None):
    """``c*(a - cb*b)``, into ``out`` when it is given.

    Three in-place passes over ``out`` with no scratch; without ``out`` the
    same passes run in one fresh array, so the two forms are bit-identical.
    ``out`` may alias ``b`` but not ``a``.
    """
    if out is None:
        out = np.empty(np.broadcast(a, b).shape, np.result_type(a, b, 1.0))
    np.multiply(cb, b, out=out)
    np.subtract(a, out, out=out)
    return np.multiply(c, out, out=out)


def ssim_map(x, y, window, c1, c2):
    """Valid-mode SSIM map of ``x`` against ``y`` under a separable window."""
    # a unit-sum rank-1 window equals the outer product of its marginals
    g = window.sum(axis=1)
    h = window.sum(axis=0)
    if not np.allclose(np.outer(g, h), window, rtol=1e-12, atol=0.0):
        raise ValueError("ssim_map needs a separable window summing to 1")
    moments = np.stack((x, y, x * x, y * y, x * y))
    # weighted local moments: filter down the columns, then along the rows
    cols = np.lib.stride_tricks.sliding_window_view(moments, g.size, axis=1) @ g
    mu1, mu2, m11, m22, m12 = np.lib.stride_tricks.sliding_window_view(cols, h.size, axis=2) @ h
    s11 = m11 - mu1 * mu1
    s22 = m22 - mu2 * mu2
    s12 = m12 - mu1 * mu2
    num = (2.0 * mu1 * mu2 + c1) * (2.0 * s12 + c2)
    den = (mu1 * mu1 + mu2 * mu2 + c1) * (s11 + s22 + c2)
    return num / den


def add_ellipses(img, params):
    # params rows: cx, cy, inv_ax, inv_ay, cos_t, sin_t, value
    h, w = img.shape
    ys = (np.arange(h, dtype=np.float64)[:, None] + 0.5) / h * 2.0 - 1.0
    xs = (np.arange(w, dtype=np.float64)[None, :] + 0.5) / w * 2.0 - 1.0
    out = img.copy()
    for k in range(params.shape[0]):
        cx, cy, inv_ax, inv_ay, ct, st, val = params[k]
        dx = xs - cx
        dy = ys - cy
        u = (dx * ct + dy * st) * inv_ax
        v = (dy * ct - dx * st) * inv_ay
        out = out + np.where(u * u + v * v <= 1.0, val, 0.0)
    return out
