"""Reverse-process solvers sharing one step interface.

All solvers convert between noise prediction eps_hat and data prediction
x0_hat through the same identity, and the exponential-integrator steps are
parameterised by the half log-SNR lambda_t = 0.5*log(ab_t/(1-ab_t)). Writing
a_t = sqrt(ab_t), s_t = sqrt(1-ab_t) and h = lambda_u - lambda_t for a hop
t -> u, the update rules are:

  DDIM (eta):    x_u = a_u x0_hat + sqrt(1-ab_u-sig^2) eps_hat + sig z,
                 sig = eta sqrt((1-ab_u)/(1-ab_t)) sqrt(1-ab_t/ab_u)
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
eta) holds all of the hop's scalar math, and an apply function does the
array update with those coefficients and the predictor. An apply function
does two things: its predictor evaluations, then one linear combination
that writes x_u. Intermediates that the update uses only linearly (x0_hat,
the DDPM mean, DPM-Solver++'s D, UniPC's d1_0, m_land and d1_t) are folded
into that combination's coefficients instead of being written out; the
multistep kinds still write x0_hat, because it is their history. Scalars
that depend on the history's step ratio r0 are computed in the apply
function, since the history is known only at run time. A plan is a list of
``(t, u, apply, coefficients)`` hops, computed before the first evaluation,
and one executor runs every plan: ``run_sampler``'s grid, ``sampler_step``
(a one-hop plan, so a fold of it reproduces ``run_sampler`` bit for bit)
and DDIM inversion (upward DDIM hops, see ``astn.inversion``). Callers
bind the predictor to the condition once (``EpsilonPredictor.bind``).

The executor owns one call's workspace of named latent-shaped buffers,
allocated on first use and dropped on return, the finiteness check after
every hop and the optional ``TrajectoryRecord``. The buffers are the two
latents the result ping-pongs between, the predictor's estimate ``eps``,
the noise draw ``noise`` (ddpm and eta > 0 ddim) and, for the multistep
kinds, the data prediction ``x0`` and the history ``x0_prev`` it swaps
with. There is no scratch buffer: once an estimate has been read, ``eps``
is the kernels' ``tmp`` (see the aliasing rules in ``astn._kernels``), and
the Gaussian oracles need none. A ddim, dpm1 or dpm2 hop with an oracle
thus touches four latent-sized arrays (x_t, the prior or posterior mean,
``eps`` and the output), ddpm and eta > 0 ddim add ``noise``, and dpmpp2m
and unipc2 add the history pair. Once every buffer is in use (after the
first hop, the second for the multistep kinds) a plan allocates no images,
except what a predictor that ignores ``out`` returns. Noise is drawn in
place after the hop's evaluations, and the bound predictor may write its
estimate into a buffer it is offered. The kernels write into these buffers
with the same operations as their allocating forms. Nothing is kept between
calls, so concurrent runs share no memory.
"""

import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from astn import _kernels as k
from astn.image import require_same_shape

__all__ = [
    "SAMPLER_KINDS",
    "SamplerSpec",
    "TrajectoryRecord",
    "MultistepState",
    "predict_x0",
    "sampler_step",
    "run_sampler",
    "evaluations_per_run",
]

@dataclass(frozen=True)
class SamplerSpec:
    """Sampler kind, timestep grid, and DDIM stochasticity."""

    kind: str
    grid: object
    eta: float = 0.0

    def __post_init__(self):
        _check_kind(self.kind, self.eta)
        if len(self.grid) == 0:
            raise ValueError("sampler grid is empty")


@dataclass
class TrajectoryRecord:
    """Optional (t, latent snapshot) pairs and per-step wall times."""

    snapshots: list = field(default_factory=list)
    step_times: list = field(default_factory=list)


@dataclass
class MultistepState:
    """One-slot history of (log-SNR, data prediction) for multistep solvers."""

    prev_log_snr: float = None
    prev_x0: np.ndarray = None


def _x0_coefs(t, sched):
    """(c_x, c_eps) of predict_x0 at t: x0_hat = c_x x_t + c_eps eps_hat."""
    ab = sched.alpha_bar_at(t)
    a_t = math.sqrt(ab)
    return 1.0 / a_t, -math.sqrt(1.0 - ab) / a_t


def predict_x0(x_t, t, eps_hat, sched):
    """Data prediction implied by a noise estimate: (x_t - s_t eps_hat)/a_t."""
    c_x, c_eps = _x0_coefs(t, sched)
    return k.lincomb2(c_x, x_t, c_eps, eps_hat)


def _check_hop(t, t_prev):
    if not t > t_prev >= 0:
        raise ValueError(f"reverse hop needs t > t_prev >= 0, got {t} -> {t_prev}")


# Each kind is a coefficient function of one internal hop (t, u, schedule,
# eta) and an apply function ``(x_t, t, coefs, eps, state, rng, ws, out) ->
# x_u`` doing the array work, where ``eps(x, t, out=)`` is a bound predictor
# and ``ws`` the run's workspace. The apply writes x_u into ``out``, may use
# ``out`` as scratch before that, and never writes ``x_t``. The terminal hop
# to 0 is the same for every kind: _x0_coefs + _apply_linear.


def _apply_linear(x_t, t, c, eps, state, rng, ws, out):
    """c_x x_t + c_eps eps_hat: the terminal hop's x0_hat and the DPM-1 update."""
    c_x, c_eps = c
    return k.lincomb2(c_x, x_t, c_eps, eps(x_t, t, out=ws["eps"]), out=out, tmp=ws["eps"])


def _ddpm_coefs(t, u, sched, eta):
    ab_t, ab_u = sched.alpha_bar(t), sched.alpha_bar(u)
    alpha_ratio = ab_t / ab_u
    beta_eff = 1.0 - alpha_ratio
    btilde = (1.0 - ab_u) / (1.0 - ab_t) * beta_eff
    # posterior mean c0 x0_hat + ct x_t with x0_hat = c_x x_t + c_eps eps_hat
    c0 = math.sqrt(ab_u) * beta_eff / (1.0 - ab_t)
    ct = math.sqrt(alpha_ratio) * (1.0 - ab_u) / (1.0 - ab_t)
    c_x, c_eps = _x0_coefs(t, sched)
    return c0 * c_x + ct, c0 * c_eps, math.sqrt(btilde)


def _ddpm_apply(x_t, t, c, eps, state, rng, ws, out):
    c_x, c_eps, noise_sd = c
    if rng is None:
        raise ValueError("ddpm sampling needs an rng")
    eps_hat = eps(x_t, t, out=ws["eps"])
    z = rng.standard_normal(out=ws["noise"])
    return k.lincomb3(c_x, x_t, c_eps, eps_hat, noise_sd, z, out=out, tmp=ws["eps"])


def _ddim_coefs(t, u, sched, eta):
    ab_t, ab_u = sched.alpha_bar(t), sched.alpha_bar(u)
    # sigma's roots are real only for t > u; inversion's upward hops run at
    # eta 0 and must not take them
    sigma = 0.0
    if eta > 0.0:
        sigma = eta * math.sqrt((1.0 - ab_u) / (1.0 - ab_t)) * math.sqrt(1.0 - ab_t / ab_u)
    resid = 1.0 - ab_u - sigma * sigma
    if resid < 0.0:
        raise ValueError(f"eta={eta} makes sigma^2 exceed 1 - alpha_bar at t_prev={u}")
    # a_u x0_hat + sqrt(resid) eps_hat with x0_hat = c_x x_t + c_eps eps_hat
    c_x, c_eps = _x0_coefs(t, sched)
    a_u = math.sqrt(ab_u)
    return a_u * c_x, a_u * c_eps + math.sqrt(resid), sigma


def _ddim_apply(x_t, t, c, eps, state, rng, ws, out):
    c_x, c_eps, sigma = c
    eps_hat = eps(x_t, t, out=ws["eps"])
    if sigma == 0.0:
        return k.lincomb2(c_x, x_t, c_eps, eps_hat, out=out, tmp=ws["eps"])
    if rng is None:
        raise ValueError("stochastic ddim step (eta > 0) needs an rng")
    z = rng.standard_normal(out=ws["noise"])
    return k.lincomb3(c_x, x_t, c_eps, eps_hat, sigma, z, out=out, tmp=ws["eps"])


def _dpm1_pair(ab_t, ab_u, h):
    """(c_x, c_eps) of the first-order DPM-Solver update over log-SNR step h."""
    return math.sqrt(ab_u / ab_t), -math.sqrt(1.0 - ab_u) * math.expm1(h)


def _dpm1_coefs(t, u, sched, eta):
    return _dpm1_pair(sched.alpha_bar(t), sched.alpha_bar(u), sched.log_snr(u) - sched.log_snr(t))


def _dpm2_coefs(t, u, sched, eta):
    lam_t, lam_u = sched.log_snr(t), sched.log_snr(u)
    h = lam_u - lam_t
    # midpoint in log-SNR; the matching fractional timestep locates the
    # predictor evaluation between the two integer steps
    lam_mid = lam_t + 0.5 * h
    t_mid = sched.timestep_at_log_snr(lam_mid, u, t)
    ab_mid = 1.0 / (1.0 + math.exp(-2.0 * lam_mid))
    ab_t = sched.alpha_bar(t)
    return t_mid, _dpm1_pair(ab_t, ab_mid, 0.5 * h), _dpm1_pair(ab_t, sched.alpha_bar(u), h)


def _dpm2_apply(x_t, t, c, eps, state, rng, ws, out):
    t_mid, (m_x, m_eps), (c_x, c_eps) = c
    # the midpoint latent lives in ``out`` until its evaluation is done
    x_mid = _apply_linear(x_t, t, (m_x, m_eps), eps, state, rng, ws, out)
    e_mid = eps(x_mid, t_mid, out=ws["eps"])
    return k.lincomb2(c_x, x_t, c_eps, e_mid, out=x_mid, tmp=ws["eps"])


def _dpmpp2m_coefs(t, u, sched, eta):
    lam_t, lam_u = sched.log_snr(t), sched.log_snr(u)
    h = lam_u - lam_t
    ab_t, ab_u = sched.alpha_bar(t), sched.alpha_bar(u)
    return (
        _x0_coefs(t, sched), lam_t, h,
        math.sqrt((1.0 - ab_u) / (1.0 - ab_t)), -math.sqrt(ab_u) * math.expm1(-h),
    )


def _keep_x0(state, lam_t, x0_hat, ws):
    """Make ``x0_hat`` the multistep history; the next hop's x0 goes to the other buffer."""
    state.prev_log_snr = lam_t
    state.prev_x0 = x0_hat
    ws["x0"], ws["x0_prev"] = ws["x0_prev"], ws["x0"]


def _dpmpp2m_apply(x_t, t, c, eps, state, rng, ws, out):
    x0c, lam_t, h, c_x, c_d = c
    if state is None:
        raise ValueError("dpmpp2m sampling needs a MultistepState")
    x0_hat = _apply_linear(x_t, t, x0c, eps, state, rng, ws, ws["x0"])
    if state.prev_x0 is None:
        out = k.lincomb2(c_x, x_t, c_d, x0_hat, out=out, tmp=ws["eps"])
    else:
        # D = (1 - 0.5/r0) x0_hat + (0.5/r0) prev_x0, the data prediction
        # extrapolated to the half step, folded into x_u = c_x x_t + c_d D
        w = 0.5 / ((state.prev_log_snr - lam_t) / h)
        out = k.lincomb3(c_x, x_t, c_d * (1.0 - w), x0_hat, c_d * w, state.prev_x0, out=out, tmp=ws["eps"])
    _keep_x0(state, lam_t, x0_hat, ws)
    return out


def _unipc_coefs(t, u, sched, eta):
    # x0 coefficients, log-SNR step and first-order update as in DPM-Solver++(2M)
    x0c, lam_t, h, sig_ratio, c_m = _dpmpp2m_coefs(t, u, sched, eta)
    hh = -h
    a_u = math.sqrt(sched.alpha_bar(u))
    # bh1 quadrature weights; the corrector solves [[1, 1], [r0, 1]] rho = [b1, b2]
    phi_k = math.expm1(hh) / hh - 1.0
    b1 = phi_k / hh
    phi_k = phi_k / hh - 0.5
    b2 = phi_k * 2.0 / hh
    return (
        x0c, _x0_coefs(u, sched), u, lam_t, h, b1, b2,
        sig_ratio, c_m, -a_u * hh * 0.5, -a_u * hh,
    )


def _unipc_apply(x_t, t, c, eps, state, rng, ws, out):
    """UniPC-2 with every difference of data predictions folded into coefficients.

    With m0 = x0_hat(x_t, t), d1_0 = (prev_x0 - m0)/r0, the predictor
    x_pred = c_x x_t + c_m m0 + c_half d1_0 and the landing prediction
    m_land = l_x x_pred + l_eps eps_hat(x_pred, u), the corrected step is
    c_x x_t + c_m m0 + c_corr (rho0 d1_0 + rho1 (m_land - m0)). Eliminating
    c_x x_t through x_pred leaves x_pred, eps_hat(x_pred, u), m0 and prev_x0;
    without history it is x_pred + c_half (m_land - m0).
    """
    x0c, (l_x, l_eps), u, lam_t, h, b1, b2, c_x, c_m, c_half, c_corr = c
    if state is None:
        raise ValueError("unipc2 sampling needs a MultistepState")
    m0 = _apply_linear(x_t, t, x0c, eps, state, rng, ws, ws["x0"])
    prev = state.prev_x0
    # the estimate buffer is the kernels' scratch whenever no estimate is live
    tmp = ws["eps"]
    # the predicted landing latent lives in ``out`` until its evaluation is done
    if prev is None:
        x_pred = k.lincomb2(c_x, x_t, c_m, m0, out=out, tmp=tmp)
        e_land = eps(x_pred, u, out=tmp)
        out = k.lincomb3(1.0 + c_half * l_x, x_pred, c_half * l_eps, e_land, -c_half, m0, out=x_pred, tmp=tmp)
    else:
        r0 = (state.prev_log_snr - lam_t) / h
        p = c_half / r0
        x_pred = k.lincomb3(c_x, x_t, c_m - p, m0, p, prev, out=out, tmp=tmp)
        e_land = eps(x_pred, u, out=tmp)
        det = 1.0 - r0
        rho0 = (b1 - b2) / det
        rho1 = (b2 - r0 * b1) / det
        q = c_corr * rho1
        c_prev = c_corr * rho0 / r0 - p
        out = k.lincomb3(1.0 + q * l_x, x_pred, q * l_eps, e_land, -c_prev - q, m0, out=x_pred, tmp=tmp)
        # two passes: c_prev prev into the dead estimate buffer, then added
        # in place (lincomb2 skips the exact 1.0 * out)
        out = k.lincomb2(1.0, out, c_prev, prev, out=out, tmp=tmp)
    _keep_x0(state, lam_t, m0, ws)
    return out


# one row per sampler kind: (coefficient function, apply function, predictor
# evaluations per internal hop); the terminal hop always costs one
_STEPS = {
    "ddpm": (_ddpm_coefs, _ddpm_apply, 1),
    "ddim": (_ddim_coefs, _ddim_apply, 1),
    "dpm1": (_dpm1_coefs, _apply_linear, 1),
    "dpm2": (_dpm2_coefs, _dpm2_apply, 2),
    "dpmpp2m": (_dpmpp2m_coefs, _dpmpp2m_apply, 1),
    "unipc2": (_unipc_coefs, _unipc_apply, 2),
}

SAMPLER_KINDS = tuple(_STEPS)


def _check_kind(kind, eta):
    if kind not in _STEPS:
        raise ValueError(f"unknown sampler kind {kind!r}")
    if not eta >= 0.0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if eta > 0.0 and kind != "ddim":
        raise ValueError(f"eta applies only to ddim, not {kind!r}")


def _hop(kind, t, u, sched, eta):
    """(apply, coefficients) of one hop t -> u of sampler ``kind``."""
    _check_hop(t, u)
    if u == 0:
        return _apply_linear, _x0_coefs(t, sched)
    coefs, apply, _ = _STEPS[kind]
    return apply, coefs(t, u, sched, eta)


def _walk(what, plan, x, eps, rng, state, record=False):
    """Run the hops of ``plan`` from latent ``x``; the one sampler executor.

    ``plan`` is a list of ``(t, u, apply, coefficients)`` and ``eps`` a bound
    predictor. The hops write into a workspace owned by this call: the
    latent ping-pongs between two of its buffers, so ``x`` is never written,
    and an ``x_t`` handed to the predictor is valid only during that
    evaluation. Aborts naming ``what`` and the hop if a hop produces
    non-finite values. Returns (final latent, TrajectoryRecord); the record
    is empty unless ``record`` is set.
    """
    ws = defaultdict(lambda: np.empty(x.shape))
    traj = TrajectoryRecord()
    for i, (t, u, apply, c) in enumerate(plan):
        t0 = time.perf_counter()
        x = apply(x, t, c, eps, state, rng, ws, ws[("latent", i % 2)])
        if not np.isfinite(x).all():
            raise RuntimeError(f"{what} produced non-finite values stepping {t} -> {u}")
        if record:
            traj.step_times.append(time.perf_counter() - t0)
            traj.snapshots.append((u, x.copy()))
    return x, traj


def sampler_step(kind, x_t, t, t_prev, pred, cond, sched, *, state=None, eta=0.0, rng=None):
    """One hop t -> t_prev of sampler ``kind``; t_prev = 0 returns x0_hat.

    ``eta`` applies to ddim only. ddpm and eta > 0 ddim need ``rng``, and
    the internal hops of the multistep kinds (dpmpp2m, unipc2) need a
    ``MultistepState``, which the hop reads and updates. Folding this over
    a grid with one state and one rng reproduces ``run_sampler`` bit for
    bit. ``x_t`` and ``cond`` are never written, and the result is a fresh
    array.
    """
    _check_kind(kind, eta)
    # a one-hop plan with a workspace of its own, so the state's history and
    # every returned image outlive the call untouched
    plan = [(t, t_prev) + _hop(kind, t, t_prev, sched, eta)]
    return _walk(kind, plan, np.asarray(x_t, dtype=np.float64), pred.bind(cond), rng, state)[0]


def run_sampler(spec, x_init, pred, cond, sched, rng=None, record=False):
    """Fold ``spec.kind``'s hops over the grid plus a final hop to 0.

    Every hop's coefficients are computed before the first predictor
    evaluation, and the predictor is bound to ``cond`` once. Deterministic
    kinds never touch ``rng``; stochastic ones require it. Aborts with the
    offending timestep if a step produces non-finite values.

    ``x_init`` and ``cond`` are never written, and an ``x_t`` handed to the
    predictor is valid only during that evaluation.

    Returns (final image, TrajectoryRecord); the record is empty unless
    ``record`` is set. The final image is the last latent buffer, not
    shared with anything else.
    """
    grid = spec.grid.steps
    if cond is not None:
        require_same_shape(x_init, cond, "latent and condition")
    hops = list(zip(grid[:-1], grid[1:])) + [(grid[-1], 0)]
    plan = [(t, u) + _hop(spec.kind, t, u, sched, spec.eta) for t, u in hops]
    x = np.asarray(x_init, dtype=np.float64)
    return _walk(spec.kind, plan, x, pred.bind(cond), rng, MultistepState(), record)


def evaluations_per_run(kind, n_steps):
    """Exact predictor evaluation count for a grid of ``n_steps`` entries:
    the kind's evaluations per internal hop, plus one for the terminal hop."""
    _, _, evals = _STEPS[kind]
    return 1 + (n_steps - 1) * evals
