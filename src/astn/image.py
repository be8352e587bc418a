"""Image buffers and shape/finiteness validation.

Images are plain 2D float64 numpy arrays (rows = height, row-major). Clean
images live in [0, 1]; noised latents may leave that range. The helpers here
are the single place where shape and finiteness contracts are enforced.
"""

import numpy as np

__all__ = ["as_image", "require_same_shape"]


def as_image(data):
    """Coerce to a 2D float64 array, rejecting NaN/Inf entries."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"image must be 2D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"image dimensions must be positive, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite values in image")
    return arr


def require_same_shape(a, b, what="images"):
    if a.shape != b.shape:
        raise ValueError(f"{what} have mismatched shapes {a.shape} vs {b.shape}")
