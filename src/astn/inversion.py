"""Deterministic DDIM inversion: walk an image up the noise levels.

The inversion traverses a sampling grid in ascending order with the
deterministic DDIM update (Song et al. 2021) run upwards: each hop t -> u,
t < u, is

    x_u = a_u x0_hat + s_u eps_hat,    x0_hat = (x_t - s_t eps_hat) / a_t

with eps_hat the model's estimate at (x_t, t). The walk is a plan of
ordinary DDIM hops run by the samplers' executor, so it is the exact inverse
of deterministic DDIM sampling under an exact predictor, and inverting then
sampling costs twice the evaluations of sampling alone. The walk starts from
the deterministic embedding x = a_t0 * input at the lowest grid step t0.
The ``inverted`` regime of :func:`astn.regimes.reconstruct` inverts along a
grid and samples back down it.
"""

import math

import numpy as np

from astn.samplers import _compiled, _execute, _plan

__all__ = ["ddim_invert"]


def ddim_invert(x_start, pred, cond, sched, grid):
    """Map ``x_start`` to an approximate latent at ``grid.origin``.

    ``grid`` is an ordinary (descending) sampling grid; it is traversed in
    reverse. A given ``cond`` must have ``x_start``'s shape. Deterministic:
    identical inputs give bit-identical latents. ``x_start`` and ``cond``
    are never written, and the result is a fresh array.
    """
    up = grid.steps[::-1]
    x = math.sqrt(sched.alpha_bar(up[0])) * np.asarray(x_start, dtype=np.float64)
    plan = _compiled("inversion", grid, sched, lambda: _plan("ddim", up, sched, 0.0))
    return _execute("inversion", plan, x, pred, cond)
