"""Deterministic DDIM inversion: walk an image up the noise levels.

The inversion traverses a sampling grid in ascending order, iterating

    x_{t'} = a_{t'} x0_ref + s_{t'} (x_t - a_t x0_ref) / s_t

with sigma = 0 throughout. In ``literal_x0`` mode x0_ref stays pinned to the
input image for every hop (which collapses to a closed-form rescaling,
independent of the model); in ``predicted_x0`` mode x0_ref is the model's
per-step data prediction, the convention that makes inversion the exact
inverse of deterministic DDIM sampling under an exact predictor. The walk
starts from the deterministic embedding x = a_t0 * input at the lowest grid
step t0.
"""

import math

import numpy as np

from astn import _kernels as k
from astn.samplers import _workspace, predict_x0, run_sampler

__all__ = ["ddim_invert", "invert_then_reconstruct"]

INVERSION_MODES = ("literal_x0", "predicted_x0")


def ddim_invert(x_start, pred, cond, sched, grid, mode="predicted_x0"):
    """Map ``x_start`` to an approximate latent at ``grid.origin``.

    ``grid`` is an ordinary (descending) sampling grid; it is traversed in
    reverse. Deterministic: identical inputs give bit-identical latents.
    The walk updates one latent in place and evaluates into a workspace of
    its own, so ``x_start`` and ``cond`` are never written.
    """
    if mode not in INVERSION_MODES:
        raise ValueError(f"unknown inversion mode {mode!r}")
    if mode == "predicted_x0":
        eps = pred.bind(cond)
    ascending = grid.steps[::-1]
    t0 = ascending[0]
    # a fresh array, so the walk updates it in place
    x = math.sqrt(sched.alpha_bar(t0)) * np.asarray(x_start, dtype=np.float64)
    ws = _workspace(x.shape)
    for t, t_next in zip(ascending[:-1], ascending[1:]):
        if mode == "literal_x0":
            x0_ref = x_start
        else:
            eps_hat = eps(x, t, out=ws["eps"])
            x0_ref = predict_x0(x, t, eps_hat, sched, out=ws["x0"], tmp=ws["tmp"])
        ab_t, ab_n = sched.alpha_bar(t), sched.alpha_bar(t_next)
        a_t, s_t = math.sqrt(ab_t), math.sqrt(1.0 - ab_t)
        a_n, s_n = math.sqrt(ab_n), math.sqrt(1.0 - ab_n)
        # x_{t+1} = a_n x0_ref + s_n * (x - a_t x0_ref)/s_t
        x = k.lincomb2(a_n - s_n / s_t * a_t, x0_ref, s_n / s_t, x, out=x, tmp=ws["tmp"])
        if not np.isfinite(x).all():
            raise RuntimeError(f"inversion produced non-finite values at t={t_next}")
    return x


def invert_then_reconstruct(x_start, pred, cond, sched, invert_grid, sample_spec, rng=None):
    """Invert along ``invert_grid`` then sample back with ``sample_spec``."""
    latent = ddim_invert(x_start, pred, cond, sched, invert_grid, mode="predicted_x0")
    out, _ = run_sampler(sample_spec, latent, pred, cond, sched, rng=rng)
    return out
