"""Hot numeric kernels, in plain numpy.

Every sampler step, oracle evaluation and metric window reduces to a handful
of elementwise kernels defined here. Scalar transcendentals (exp, log) are
always computed outside the kernels.

``lincomb2`` and ``lincomb3`` run one pass sequence: without ``out`` they
allocate it and run the same passes, so the two forms are bit-identical.

Aliasing rules. With ``out`` given, a kernel writes only ``out`` and
``tmp``. Each docstring says which operands ``out`` and ``tmp`` may alias;
within those rules every operand is read before it is overwritten, and
outside them the result is silently wrong. ``tmp`` may be ``b`` itself,
which leaves ``b`` overwritten. The samplers pass one scratch buffer of
their workspace as ``tmp``, so no kernel needs scratch of its own.

``ssim_map`` exploits that the SSIM window is separable (the Gaussian window
of Wang et al., IEEE TIP 2004, is ``outer(g, g)``): each local moment is two
1-D valid-mode passes of ``w`` taps instead of one 2-D pass of ``w * w``.
Both passes window along a strided axis, where ``matmul`` hands each window
row to BLAS gemv; along the contiguous axis the windows overlap and numpy
falls back to its own per-element dot. So the column pass writes its result,
which is then copied to a contiguous transposed layout whose columns the
second pass filters. That sums in a different order than the 2-D formula, so
the map agrees with it to 1e-12, not bit for bit. The window views are built
as plain strided arrays; ``sliding_window_view``'s argument checks would cost
more than the views.

``add_ellipses`` rasterises each phantom ellipse over its bounding box only:
the half-extents ``sqrt((a_x cos)^2 + (a_y sin)^2)`` across and
``sqrt((a_x sin)^2 + (a_y cos)^2)`` down, mapped to a pixel window padded by
one pixel and clipped to the image. Inside the window each pixel goes
through the same operations, in the same order, as under a whole-image pass,
and outside it that pass would only add 0.0, so the phantoms are
bit-identical to it.
"""

import numpy as np

__all__ = [
    "active_backend",
    "lincomb2",
    "lincomb3",
    "ssim_map",
    "add_ellipses",
]


def active_backend():
    """Name of the kernel backend in use."""
    return "numpy"


def lincomb2(ca, a, cb, b, out=None, tmp=None):
    """``ca*a + cb*b``, into ``out`` when it is given.

    ``tmp`` is optional scratch for ``cb*b``, shaped like ``out``. Without
    ``out`` the result has the expression's dtype. ``1.0*a`` is exact, so
    with ``ca == 1.0`` and ``out`` being ``a`` that pass is skipped.
    ``cb*b`` is formed first, so ``out`` may alias ``a`` or ``b``. ``tmp``
    may be ``b`` (which is then overwritten) when ``out`` is not ``b``, and
    must alias nothing else.
    """
    if out is None:
        out = np.empty(np.broadcast(a, b).shape, np.result_type(ca, a, cb, b))
    # ufuncs take ``out`` positionally for less call overhead than by keyword
    t = np.multiply(cb, b, tmp)
    if not (out is a and ca == 1.0):
        np.multiply(ca, a, out)
    return np.add(out, t, out)


def lincomb3(ca, a, cb, b, cc, c, out=None, tmp=None):
    """``(ca*a + cb*b) + cc*c``, into ``out`` when it is given.

    ``out`` may alias ``a`` but not ``b`` or ``c``. ``tmp`` may be ``b``
    (which is then overwritten) when ``c`` is not ``b``, and must alias
    nothing else.
    """
    if out is None:
        out = np.empty(np.broadcast(a, b, c).shape, np.result_type(ca, a, cb, b, cc, c))
    np.multiply(ca, a, out)
    t = np.multiply(cb, b, tmp)
    np.add(out, t, out)
    t = np.multiply(cc, c, tmp)
    return np.add(out, t, out)


def ssim_map(x, y, window, c1, c2):
    """Valid-mode SSIM map of ``x`` against ``y`` under a separable window.

    Raises ``ValueError`` unless ``window`` sums to 1 within 1e-12 and equals
    the outer product of its marginals within 1e-12 of each entry, and
    unless the images are at least as large as the window. The map
    is returned as a transposed view of the filter's contiguous output.
    """
    # for a rank-1 window summing to s, outer(g, h) is s * window, so with
    # the sum pinned to 1 the outer-product test is exactly separability
    g = window.sum(axis=1)
    h = window.sum(axis=0)
    unit_sum = abs(g.sum() - 1.0) <= 1e-12
    if not (unit_sum and (np.abs(np.outer(g, h) - window) <= 1e-12 * np.abs(window)).all()):
        raise ValueError("ssim_map needs a separable window summing to 1")
    # two flat buffers hold every intermediate stack, each used twice: at
    # 256^2 fresh memory costs more in page faults than the arithmetic. The
    # moment products still round in np.result_type(x, y); only their store
    # and the filter use the filter's dtype.
    m, n = x.shape
    if m < g.size or n < h.size:
        raise ValueError(f"ssim_map needs images at least as large as the window, got {x.shape}")
    rows = m - g.size + 1
    dtype = np.result_type(x, y, g)
    a = np.empty(5 * m * n, dtype)
    b = np.empty(5 * rows * n, dtype)
    moments = a.reshape(5, m, n)
    moments[0] = x
    moments[1] = y
    np.multiply(x, x, out=moments[2])
    np.multiply(y, y, out=moments[3])
    np.multiply(x, y, out=moments[4])
    # weighted local moments: filter down the columns, transpose, filter down
    # the columns again; both passes window along a strided axis, so matmul
    # runs each as BLAS gemv
    cols = np.matmul(_windows(moments, g.size), g, out=b.reshape(5, rows, n))
    cols_t = a[:cols.size].reshape(5, n, rows)
    cols_t[...] = cols.transpose(0, 2, 1)
    filtered = b[:5 * (n - h.size + 1) * rows].reshape(5, -1, rows)
    mu1, mu2, s11, s22, s12 = np.matmul(_windows(cols_t, h.size), h, out=filtered)
    # the SSIM formula, in place over the filtered moments for the same
    # reason. The second moments become covariances, then
    # num = (2 mu1 mu2 + c1)(2 s12 + c2), den = (mu1^2 + mu2^2 + c1)(s11 + s22 + c2)
    mu12 = mu1 * mu2
    mu1 *= mu1
    mu2 *= mu2
    s11 -= mu1
    s22 -= mu2
    s12 -= mu12
    num, den = mu12, mu1
    num *= 2.0
    num += c1
    s12 *= 2.0
    s12 += c2
    num *= s12
    den += mu2
    den += c1
    s11 += s22
    s11 += c2
    den *= s11
    num /= den
    return num.T


def _windows(stack, size):
    """``sliding_window_view(stack, size, axis=1)`` of a C-contiguous 3-D stack.

    The same strided view, built directly: sliding_window_view's argument
    checks cost over ten times as much as the view itself.
    """
    k, rows, cols = stack.shape
    s0, s1, s2 = stack.strides
    return np.ndarray((k, rows - size + 1, cols, size), stack.dtype, stack, 0, (s0, s1, s2, s1))


def add_ellipses(img, params):
    """``img`` plus each ellipse's value on the pixels whose centres it covers.

    ``params`` holds one row ``cx, cy, inv_ax, inv_ay, cos_t, sin_t, value``
    per ellipse, in image coordinates running over [-1, 1] along each axis.
    It must be an (n, 7) finite array with positive inverse semi-axes, or
    ``ValueError`` is raised. Each ellipse is painted only over the pixel
    window around its bounding box, where every pixel goes through the same
    operations as a whole-image pass would put it through.
    """
    params = np.asarray(params)
    if params.ndim != 2 or params.shape[1] != 7:
        raise ValueError(f"ellipse parameters must be an (n, 7) array, got shape {params.shape}")
    if not np.isfinite(params).all():
        raise ValueError("ellipse parameters must be finite")
    if not (params[:, 2:4] > 0.0).all():
        raise ValueError("ellipse inverse semi-axes must be positive")
    if params.shape[0] == 0:
        return img.copy()
    h, w = img.shape
    ys = (np.arange(h, dtype=np.float64)[:, None] + 0.5) / h * 2.0 - 1.0
    xs = (np.arange(w, dtype=np.float64)[None, :] + 0.5) / w * 2.0 - 1.0
    # adding 0.0 everywhere, as a whole-image pass adds it outside every
    # ellipse, sets the painted dtype and turns -0.0 into +0.0
    out = np.add(img, 0.0, dtype=np.result_type(img, params, 0.0))
    # half-extents of {u^2 + v^2 <= 1} along x and y; (cos_t, sin_t) need
    # not be a unit vector, hence the division by its squared length
    cx, cy, inv_ax, inv_ay, ct, st = params[:, :6].T
    with np.errstate(all="ignore"):
        r2 = ct * ct + st * st
        half_x = np.hypot(ct / inv_ax, st / inv_ay) / r2
        half_y = np.hypot(st / inv_ax, ct / inv_ay) / r2
    spans = zip(params, *_pixel_span(cy, half_y, h), *_pixel_span(cx, half_x, w))
    for (cx, cy, inv_ax, inv_ay, ct, st, val), i0, i1, j0, j1 in spans:
        if i0 >= i1 or j0 >= j1:
            continue
        dx = xs[:, j0:j1] - cx
        dy = ys[i0:i1] - cy
        u = (dx * ct + dy * st) * inv_ax
        v = (dy * ct - dx * st) * inv_ay
        window = out[i0:i1, j0:j1]
        window += np.where(u * u + v * v <= 1.0, val, 0.0)
    return out


def _pixel_span(centre, half, n):
    """Pixel index ranges [lo, hi) along an axis of ``n`` pixels covering
    ``centre - half .. centre + half``, padded by one pixel for rounding."""
    # pixel k's centre is at (k + 0.5) / n * 2 - 1; fmax/fmin send a NaN
    # half-extent (a zero rotation vector paints everywhere) to the whole axis
    lo = np.ceil((centre - half + 1.0) * (n / 2.0) - 0.5) - 1.0
    hi = np.floor((centre + half + 1.0) * (n / 2.0) - 0.5) + 2.0
    lo = np.fmin(np.fmax(lo, 0.0), n)
    hi = np.fmax(np.fmin(hi, n), 0.0)
    return lo.astype(np.intp).tolist(), hi.astype(np.intp).tolist()
