"""Reverse-process solvers sharing one step interface.

All solvers convert between noise prediction eps_hat and data prediction
x0_hat through the same identity, and the exponential-integrator steps are
parameterised by the half log-SNR lambda_t = 0.5*log(ab_t/(1-ab_t)). Writing
a_t = sqrt(ab_t), s_t = sqrt(1-ab_t) and h = lambda_u - lambda_t for a hop
t -> u, the update rules are:

  DDIM (eta):    x_u = a_u x0_hat + sqrt(1-ab_u-sig^2) eps_hat + sig z,
                 sig = eta sqrt((1-ab_u)/(1-ab_t)) sqrt(1-ab_t/ab_u), eta in [0, 1]
  DDPM:          posterior mean of the generalised ancestral transition with
                 effective one-step beta 1-ab_t/ab_u, plus sqrt(btilde) z
  DPM-1:         x_u = (a_u/a_t) x_t - s_u (e^h - 1) eps_hat
  DPM-2:         midpoint rule: half-step in lambda, re-evaluate, apply the
                 first-order formula with the midpoint estimate
  DPM++(2M):     data-prediction multistep,
                 x_u = (s_u/s_t) x_t + a_u (1 - e^{-h}) D, with D linearly
                 extrapolated from the current and previous x0_hat
  UniPC-2:       the multistep predictor above plus a corrector that re-solves
                 the step including a fresh evaluation at the landing point
                 (B(h) = h variant)

The terminal hop to t = 0 always returns x0_hat, for every sampler.

Each kind's hop is split in two: a coefficient function of (t, u, schedule,
eta, history log-SNR) holds all of the hop's scalar math and names the apply
function that does the array update: its predictor evaluations, then one
linear combination that writes x_u. Intermediates that the update uses only
linearly (x0_hat, the DDPM mean, DPM-Solver++'s D, UniPC's d1_0, m_land and
d1_t) are folded into that combination's coefficients instead of being
written out; the multistep kinds still write x0_hat, their history. DDIM
hops apply as DPM-1's (eta = 0) or DDPM's (eta > 0). One compile step,
``_plan``, turns a walk into a plan, the ``(t, u, apply, coefficients)``
hops between its consecutive steps, holding every scalar of the run (the
grid fixes the multistep step ratio r0). One executor function,
``_execute``, which binds the predictor to the condition once, runs the
plans of the three walks: ``run_sampler``'s grid and 0, ``sampler_step``'s
(t, t_prev) (one hop from no history: for the multistep kinds, the
first-order hop their grids start with) and DDIM inversion's reversed grid
(see ``astn.inversion``). In each thread, ``run_sampler`` and DDIM inversion
each keep their last plan with the spec or grid and the schedule it was
compiled from, so calls that repeat those objects, as a sweep cell's pairs
do, compile once, however many threads a sweep runs.

Every evaluation is folded into the combination that reads it. A bound
predictor returns its estimate at latent x as ``(a, img, b)`` with eps_hat
= a x + b img (``EpsilonPredictor.bind``), and x is always a term of that
combination: x_t in the ddpm, ddim and dpm1 hops, the terminal hop, DDIM
inversion's hops and the x0_hat of dpmpp2m and unipc2; x_pred in unipc2's
landing evaluation; x_mid, which the final combination overwrites, in
dpm2's midpoint evaluation. So c_x x + c_eps eps_hat is written as (c_x +
c_eps a) x + (c_eps b) img. For the Gaussian oracles that costs no array
pass; a predictor that returns (0, eps_hat, 1) gets exactly c_x x + c_eps
eps_hat.

The executor owns one call's workspace of named latent-shaped buffers,
allocated on first use and dropped on return, the finiteness check after
every hop and the optional list of snapshots. The buffers are the two
latents the result ping-pongs between, the kernels' scratch ``tmp`` (see
the aliasing rules in ``astn._kernels``), the noise draw ``noise`` (ddpm
and eta > 0 ddim) and, for the multistep kinds, the data prediction ``x0``
and the history ``x0_prev`` it swaps with. An estimate's ``img`` is never
written: it may be the predictor's own table or the caller's condition. A
ddim or dpm1 hop with an oracle thus touches four latent-sized arrays,
x_t, the prior or posterior mean (read), ``tmp`` and the output (written),
in one ``lincomb2``; ddpm and eta > 0 ddim add ``noise``, and dpmpp2m and
unipc2 add the history pair. Once every buffer is in use (after the first
hop, the second for the multistep kinds) a plan allocates no images, except
what a predictor allocates for its own estimate. Noise is drawn in place
after the hop's evaluations. The kernels write into these buffers with the
same operations as their allocating forms. No workspace is kept between
calls, so concurrent runs share no array memory, and the multistep history
lives in the workspace alone.
"""

import math
import threading
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from astn import _kernels as k
from astn.image import require_same_shape
from astn.schedule import TimestepGrid

__all__ = [
    "SAMPLER_KINDS",
    "SamplerSpec",
    "sampler_step",
    "run_sampler",
    "evaluations_per_run",
]

@dataclass(frozen=True)
class SamplerSpec:
    """Sampler kind, timestep grid, and DDIM stochasticity eta in [0, 1]."""

    kind: str
    grid: TimestepGrid
    eta: float = 0.0

    def __post_init__(self):
        _check_kind(self.kind, self.eta)
        if not isinstance(self.grid, TimestepGrid):
            raise ValueError(f"sampler grid must be a TimestepGrid, got {type(self.grid).__name__}")


def _x0_coefs(t, sched):
    """(c_x, c_eps) at grid step t of x0_hat = (x_t - s_t eps_hat)/a_t = c_x x_t + c_eps eps_hat."""
    ab = sched._alpha_bar_values[t]
    a_t = math.sqrt(ab)
    return 1.0 / a_t, -math.sqrt(1.0 - ab) / a_t


# A kind's coefficient function ``(t, u, schedule, eta, lam_prev) -> (apply,
# coefficients)`` compiles one internal hop. ``t`` and ``u`` are int indices
# into the schedule's ``_alpha_bar_values`` and ``_log_snr_values`` tables,
# checked by ``_plan``; ``lam_prev`` is the previous hop's log-SNR, where a
# multistep kind predicted its history, or None. An apply ``(x_t, t,
# coefs, eps, rng, ws, out) -> x_u`` takes a bound predictor ``eps(x, t) ->
# (a, img, b)`` and the run's workspace ``ws``; it writes x_u into ``out``,
# may use ``out`` as scratch before that, and never writes ``x_t``. The
# terminal hop to 0 is the same for every kind: _x0_coefs + _apply_linear.


def _apply_linear(x_t, t, c, eps, rng, ws, out):
    """c_x x_t + c_eps eps_hat: x0_hat, and the DPM-1 and eta = 0 DDIM updates."""
    c_x, c_eps = c
    a, img, b = eps(x_t, t)
    return k.lincomb2(c_x + c_eps * a, x_t, c_eps * b, img, out=out, tmp=ws["tmp"])


def _apply_noisy(x_t, t, c, eps, rng, ws, out):
    """c_x x_t + c_eps eps_hat + sd z: the DDPM and eta > 0 DDIM updates."""
    c_x, c_eps, noise_sd = c
    if rng is None:
        raise ValueError("stochastic sampling (ddpm, or ddim at eta > 0) needs an rng")
    a, img, b = eps(x_t, t)
    z = rng.standard_normal(out=ws["noise"])
    return k.lincomb3(c_x + c_eps * a, x_t, c_eps * b, img, noise_sd, z, out=out, tmp=ws["tmp"])


def _ddpm_coefs(t, u, sched, eta, lam_prev):
    ab = sched._alpha_bar_values
    ab_t, ab_u = ab[t], ab[u]
    alpha_ratio = ab_t / ab_u
    beta_eff = 1.0 - alpha_ratio
    btilde = (1.0 - ab_u) / (1.0 - ab_t) * beta_eff
    # posterior mean c0 x0_hat + ct x_t with x0_hat = c_x x_t + c_eps eps_hat
    c0 = math.sqrt(ab_u) * beta_eff / (1.0 - ab_t)
    ct = math.sqrt(alpha_ratio) * (1.0 - ab_u) / (1.0 - ab_t)
    c_x, c_eps = _x0_coefs(t, sched)
    return _apply_noisy, (c0 * c_x + ct, c0 * c_eps, math.sqrt(btilde))


def _ddim_coefs(t, u, sched, eta, lam_prev):
    ab = sched._alpha_bar_values
    ab_t, ab_u = ab[t], ab[u]
    # sigma's roots are real only for t > u; inversion's upward hops run at
    # eta 0 and must not take them
    sigma = eta * math.sqrt((1.0 - ab_u) / (1.0 - ab_t)) * math.sqrt(1.0 - ab_t / ab_u) if eta > 0.0 else 0.0
    # >= ab_t (1 - ab_u)^2 / (ab_u (1 - ab_t)) for eta <= 1; the clamp is for rounding
    resid = max(1.0 - ab_u - sigma * sigma, 0.0)
    # a_u x0_hat + sqrt(resid) eps_hat with x0_hat = c_x x_t + c_eps eps_hat
    c_x, c_eps = _x0_coefs(t, sched)
    a_u = math.sqrt(ab_u)
    c = a_u * c_x, a_u * c_eps + math.sqrt(resid)
    return (_apply_linear, c) if sigma == 0.0 else (_apply_noisy, c + (sigma,))


def _dpm1_pair(ab_t, ab_u, h):
    """(c_x, c_eps) of the first-order DPM-Solver update over log-SNR step h."""
    return math.sqrt(ab_u / ab_t), -math.sqrt(1.0 - ab_u) * math.expm1(h)


def _dpm1_coefs(t, u, sched, eta, lam_prev):
    ab, lam = sched._alpha_bar_values, sched._log_snr_values
    return _apply_linear, _dpm1_pair(ab[t], ab[u], lam[u] - lam[t])


def _dpm2_coefs(t, u, sched, eta, lam_prev):
    ab, lam = sched._alpha_bar_values, sched._log_snr_values
    lam_t = lam[t]
    h = lam[u] - lam_t
    # midpoint in log-SNR; the matching fractional timestep locates the
    # predictor evaluation between the two integer steps
    lam_mid = lam_t + 0.5 * h
    t_mid = sched.timestep_at_log_snr(lam_mid, u, t)
    ab_mid = 1.0 / (1.0 + math.exp(-2.0 * lam_mid))
    return _dpm2_apply, (t_mid, _dpm1_pair(ab[t], ab_mid, 0.5 * h), _dpm1_pair(ab[t], ab[u], h))


def _dpm2_apply(x_t, t, c, eps, rng, ws, out):
    t_mid, mid, (c_x, c_eps) = c
    # the midpoint latent lives in ``out`` until the final combination overwrites it
    x_mid = _apply_linear(x_t, t, mid, eps, rng, ws, out)
    a, img, b = eps(x_mid, t_mid)
    return k.lincomb3(c_eps * a, x_mid, c_x, x_t, c_eps * b, img, out=x_mid, tmp=ws["tmp"])


def _data_hop(t, u, sched):
    """x0 coefficients, lambda_t, h and the first-order update x_u = c_x x_t + c_m x0_hat."""
    ab, lam = sched._alpha_bar_values, sched._log_snr_values
    lam_t = lam[t]
    h = lam[u] - lam_t
    ab_t, ab_u = ab[t], ab[u]
    return _x0_coefs(t, sched), lam_t, h, math.sqrt((1.0 - ab_u) / (1.0 - ab_t)), -math.sqrt(ab_u) * math.expm1(-h)


def _dpmpp2m_coefs(t, u, sched, eta, lam_prev):
    x0c, lam_t, h, c_x, c_d = _data_hop(t, u, sched)
    if lam_prev is None:
        return _dpmpp2m_apply, (x0c, c_x, c_d, None)
    # D = (1 - 0.5/r0) x0_hat + (0.5/r0) x0_prev, the data prediction
    # extrapolated to the half step, folded into x_u = c_x x_t + c_d D
    w = 0.5 / ((lam_prev - lam_t) / h)
    return _dpmpp2m_apply, (x0c, c_x, c_d * (1.0 - w), c_d * w)


def _dpmpp2m_apply(x_t, t, c, eps, rng, ws, out):
    """x0_hat, which becomes the history, then c_x x_t + c_m x0_hat, plus
    c_prev x0_prev once there is a history."""
    x0c, c_x, c_m, c_prev = c
    x0_hat = _apply_linear(x_t, t, x0c, eps, rng, ws, ws["x0"])
    # the next hop's x0_hat goes to the buffer of this hop's history
    prev = ws["x0_prev"]
    ws["x0"], ws["x0_prev"] = prev, x0_hat
    if c_prev is None:
        return k.lincomb2(c_x, x_t, c_m, x0_hat, out=out, tmp=ws["tmp"])
    return k.lincomb3(c_x, x_t, c_m, x0_hat, c_prev, prev, out=out, tmp=ws["tmp"])


def _unipc_coefs(t, u, sched, eta, lam_prev):
    """UniPC-2 with every difference of data predictions folded into coefficients.

    With m0 = x0_hat(x_t, t), d1_0 = (x0_prev - m0)/r0, the predictor
    x_pred = c_x x_t + c_m m0 + c_half d1_0 and the landing prediction
    m_land = l_x x_pred + l_eps eps_hat(x_pred, u), the corrected step is
    c_x x_t + c_m m0 + c_corr (rho0 d1_0 + rho1 (m_land - m0)). Eliminating
    c_x x_t through x_pred leaves x_pred, eps_hat(x_pred, u), m0 and x0_prev;
    without history it is x_pred + c_half (m_land - m0).
    """
    x0c, lam_t, h, c_x, c_m = _data_hop(t, u, sched)
    hh = -h
    a_u = math.sqrt(sched._alpha_bar_values[u])
    l_x, l_eps = _x0_coefs(u, sched)
    c_half, c_corr = -a_u * hh * 0.5, -a_u * hh
    if lam_prev is None:
        return _unipc_apply, ((x0c, c_x, c_m, None), u, (1.0 + c_half * l_x, c_half * l_eps, -c_half, None))
    # bh1 quadrature weights; the corrector solves [[1, 1], [r0, 1]] rho = [b1, b2]
    phi_k = math.expm1(hh) / hh - 1.0
    b1 = phi_k / hh
    phi_k = phi_k / hh - 0.5
    b2 = phi_k * 2.0 / hh
    r0 = (lam_prev - lam_t) / h
    p = c_half / r0
    det = 1.0 - r0
    rho0 = (b1 - b2) / det
    rho1 = (b2 - r0 * b1) / det
    q = c_corr * rho1
    c_prev = c_corr * rho0 / r0 - p
    return _unipc_apply, ((x0c, c_x, c_m - p, p), u, (1.0 + q * l_x, q * l_eps, -c_prev - q, c_prev))


def _unipc_apply(x_t, t, c, eps, rng, ws, out):
    """The predictor is a dpmpp2m hop with UniPC's coefficients; the corrector
    evaluates at its landing point and re-combines."""
    pred_c, u, (k_x, k_eps, k_m, c_prev) = c
    # the predicted landing latent lives in ``out`` until its evaluation is done
    x_pred = _dpmpp2m_apply(x_t, t, pred_c, eps, rng, ws, out)
    m0, prev, tmp = ws["x0_prev"], ws["x0"], ws["tmp"]
    a, img, b = eps(x_pred, u)
    out = k.lincomb3(k_x + k_eps * a, x_pred, k_eps * b, img, k_m, m0, out=x_pred, tmp=tmp)
    if c_prev is None:
        return out
    # two passes: c_prev x0_prev into the scratch buffer, then added in
    # place (lincomb2 skips the exact 1.0 * out)
    return k.lincomb2(1.0, out, c_prev, prev, out=out, tmp=tmp)


# one row per sampler kind: (coefficient function, predictor evaluations per
# internal hop); the terminal hop always costs one
_STEPS = {
    "ddpm": (_ddpm_coefs, 1),
    "ddim": (_ddim_coefs, 1),
    "dpm1": (_dpm1_coefs, 1),
    "dpm2": (_dpm2_coefs, 2),
    "dpmpp2m": (_dpmpp2m_coefs, 1),
    "unipc2": (_unipc_coefs, 2),
}

SAMPLER_KINDS = tuple(_STEPS)


def _check_kind(kind, eta):
    if kind not in _STEPS:
        raise ValueError(f"unknown sampler kind {kind!r}")
    if not eta >= 0.0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if eta > 0.0 and kind != "ddim":
        raise ValueError(f"eta applies only to ddim, not {kind!r}")
    if eta > 1.0:
        raise ValueError(f"eta must be <= 1, got {eta}")


def _plan(kind, steps, sched, eta):
    """Compile sampler ``kind``'s hops ``(t, u)`` between consecutive ``steps``.

    A plan is a list of ``(t, u, apply, coefficients)`` and holds every
    scalar of the run. Each step is checked once here, as
    ``NoiseSchedule.alpha_bar`` checks it, and the coefficient functions
    index the schedule's tables with it. The first hop starts from no
    history, and each internal hop passes the next its own log-SNR as
    ``lam_prev``: the multistep kinds predict their history there, and the
    other kinds never read it. A hop to 0 returns x0_hat.
    """
    coefs, _ = _STEPS[kind]
    index = sched._step_index
    plan, lam_prev = [], None
    for t, u in zip(steps, steps[1:]):
        i, j = index(t), index(u)
        if j == 0:
            plan.append((t, u, _apply_linear, _x0_coefs(i, sched)))
            continue
        plan.append((t, u) + coefs(i, j, sched, eta, lam_prev))
        lam_prev = sched._log_snr_values[i]
    return plan


# per thread, entry point -> (source, schedule, plan): the last plan that
# "sampling" (run_sampler, source a SamplerSpec) and "inversion" (ddim_invert,
# source a grid) compiled in the calling thread, so sweep threads share no
# entry. Specs, grids and schedules are frozen, so a call whose source and
# schedule are those very objects has that plan; holding them keeps their
# identities from being reused.
_last_plans = threading.local()


def _compiled(entry, source, sched, build):
    """``entry``'s last plan in this thread if it came from ``source`` and
    ``sched``, else ``build()``, kept as that thread's last plan: the pairs
    of a sweep cell share one spec, so they compile once."""
    plans = vars(_last_plans)
    last = plans.get(entry)
    if last is None or last[0] is not source or last[1] is not sched:
        last = plans[entry] = source, sched, build()
    return last[2]


def _execute(what, plan, x, pred, cond, rng=None, snapshots=None):
    """The one executor: run the hops of ``plan`` from latent ``x`` and
    return the final latent.

    ``plan`` comes from :func:`_plan`. ``x`` is taken as float64, a given
    ``cond`` must have its shape, and ``pred`` is bound to ``cond`` once.
    The hops write into a workspace owned by this call: the latent
    ping-pongs between two of its buffers, so ``x`` is never written, and an
    ``x_t`` handed to the predictor is valid only during that evaluation.
    Aborts naming ``what`` and the hop on non-finite values. A ``snapshots``
    list gets each hop's ``(u, copy of x_u)`` appended.
    """
    x = np.asarray(x, dtype=np.float64)
    if cond is not None:
        require_same_shape(x, cond, "latent and condition")
    eps = pred.bind(cond)
    ws = defaultdict(lambda: np.empty(x.shape))
    for i, (t, u, apply, c) in enumerate(plan):
        x = apply(x, t, c, eps, rng, ws, ws[("latent", i % 2)])
        if not np.logical_and.reduce(np.isfinite(x), axis=None):
            raise RuntimeError(f"{what} produced non-finite values stepping {t} -> {u}")
        if snapshots is not None:
            snapshots.append((u, x.copy()))
    return x


def sampler_step(kind, x_t, t, t_prev, pred, cond, sched, *, eta=0.0, rng=None):
    """One hop t -> t_prev of sampler ``kind`` from no history; t_prev = 0
    returns x0_hat.

    ``eta``, in [0, 1], applies to ddim only, and ddpm and eta > 0 ddim
    need ``rng``. For the history-free kinds, folding this over a grid with
    one rng reproduces ``run_sampler`` bit for bit; for the multistep kinds
    (dpmpp2m, unipc2) the hop is the first-order one their grids start
    with. A given ``cond`` must have ``x_t``'s shape. ``x_t`` and ``cond``
    are never written, and the result is a fresh array.
    """
    _check_kind(kind, eta)
    if not t > t_prev >= 0:
        raise ValueError(f"reverse hop needs t > t_prev >= 0, got {t} -> {t_prev}")
    return _execute(kind, _plan(kind, (t, t_prev), sched, eta), x_t, pred, cond, rng)


def run_sampler(spec, x_init, pred, cond, sched, rng=None, record=False):
    """Fold ``spec.kind``'s hops over the grid plus a final hop to 0.

    Deterministic kinds never touch ``rng``; stochastic ones require it. A
    given ``cond`` must have the latent's shape, and a non-finite hop
    aborts the run, naming its timesteps. ``x_init`` and ``cond`` are never
    written, and an ``x_t`` handed to the predictor is valid only during
    that evaluation. Returns (fresh final image, snapshots): each hop's
    ``(t_prev, latent copy)`` if ``record`` is set, else empty.
    """
    plan = _compiled("sampling", spec, sched, lambda: _plan(spec.kind, (*spec.grid.steps, 0), sched, spec.eta))
    snapshots = []
    x = _execute(spec.kind, plan, x_init, pred, cond, rng, snapshots if record else None)
    return x, snapshots


def evaluations_per_run(kind, n_steps):
    """Exact predictor evaluation count for a grid of ``n_steps`` entries:
    the kind's evaluations per internal hop, plus one for the terminal hop."""
    _, evals = _STEPS[kind]
    return 1 + (n_steps - 1) * evals
