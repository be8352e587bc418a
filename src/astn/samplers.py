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
eta, history log-SNR) holds all of the hop's scalar math and names the apply
function that does the array update: its predictor evaluations, then one
linear combination that writes x_u. Intermediates that the update uses only
linearly (x0_hat, the DDPM mean, DPM-Solver++'s D, UniPC's d1_0, m_land and
d1_t) are folded into that combination's coefficients instead of being
written out; the multistep kinds still write x0_hat, their history. DDIM
hops apply as DPM-1's (eta = 0) or DDPM's (eta > 0). One compile step,
``_plan``, turns hops into a plan, a list of ``(t, u, apply, coefficients)``
holding every scalar of the run (the grid fixes the multistep step ratio
r0), and one executor runs every plan: ``run_sampler``'s grid,
``sampler_step`` (a one-hop plan from no history: for the multistep kinds,
the first-order hop every grid of theirs starts with) and DDIM inversion
(upward DDIM hops, see ``astn.inversion``). Callers bind the predictor to
the condition once (``EpsilonPredictor.bind``).

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
calls, so concurrent runs share no memory, and the multistep history lives
in the workspace alone.
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


def _x0_coefs(t, sched):
    """(c_x, c_eps) of predict_x0 at t: x0_hat = c_x x_t + c_eps eps_hat."""
    ab = sched.alpha_bar_at(t)
    a_t = math.sqrt(ab)
    return 1.0 / a_t, -math.sqrt(1.0 - ab) / a_t


def predict_x0(x_t, t, eps_hat, sched):
    """Data prediction implied by a noise estimate: (x_t - s_t eps_hat)/a_t."""
    c_x, c_eps = _x0_coefs(t, sched)
    return k.lincomb2(c_x, x_t, c_eps, eps_hat)


# A kind's coefficient function ``(t, u, schedule, eta, lam_prev) -> (apply,
# coefficients)`` compiles one internal hop; ``lam_prev`` is the log-SNR at
# which the multistep history was predicted, or None. An apply ``(x_t, t,
# coefs, eps, rng, ws, out) -> x_u`` takes a bound predictor ``eps(x, t,
# out=)`` and the run's workspace ``ws``; it writes x_u into ``out``, may use
# ``out`` as scratch before that, and never writes ``x_t``. The terminal hop
# to 0 is the same for every kind: _x0_coefs + _apply_linear.


def _apply_linear(x_t, t, c, eps, rng, ws, out):
    """c_x x_t + c_eps eps_hat: x0_hat, and the DPM-1 and eta = 0 DDIM updates."""
    c_x, c_eps = c
    return k.lincomb2(c_x, x_t, c_eps, eps(x_t, t, out=ws["eps"]), out=out, tmp=ws["eps"])


def _apply_noisy(x_t, t, c, eps, rng, ws, out):
    """c_x x_t + c_eps eps_hat + sd z: the DDPM and eta > 0 DDIM updates."""
    c_x, c_eps, noise_sd = c
    if rng is None:
        raise ValueError("stochastic sampling (ddpm, or ddim at eta > 0) needs an rng")
    eps_hat = eps(x_t, t, out=ws["eps"])
    z = rng.standard_normal(out=ws["noise"])
    return k.lincomb3(c_x, x_t, c_eps, eps_hat, noise_sd, z, out=out, tmp=ws["eps"])


def _ddpm_coefs(t, u, sched, eta, lam_prev):
    ab_t, ab_u = sched.alpha_bar(t), sched.alpha_bar(u)
    alpha_ratio = ab_t / ab_u
    beta_eff = 1.0 - alpha_ratio
    btilde = (1.0 - ab_u) / (1.0 - ab_t) * beta_eff
    # posterior mean c0 x0_hat + ct x_t with x0_hat = c_x x_t + c_eps eps_hat
    c0 = math.sqrt(ab_u) * beta_eff / (1.0 - ab_t)
    ct = math.sqrt(alpha_ratio) * (1.0 - ab_u) / (1.0 - ab_t)
    c_x, c_eps = _x0_coefs(t, sched)
    return _apply_noisy, (c0 * c_x + ct, c0 * c_eps, math.sqrt(btilde))


def _ddim_coefs(t, u, sched, eta, lam_prev):
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
    c = a_u * c_x, a_u * c_eps + math.sqrt(resid)
    return (_apply_linear, c) if sigma == 0.0 else (_apply_noisy, c + (sigma,))


def _dpm1_pair(ab_t, ab_u, h):
    """(c_x, c_eps) of the first-order DPM-Solver update over log-SNR step h."""
    return math.sqrt(ab_u / ab_t), -math.sqrt(1.0 - ab_u) * math.expm1(h)


def _dpm1_coefs(t, u, sched, eta, lam_prev):
    return _apply_linear, _dpm1_pair(sched.alpha_bar(t), sched.alpha_bar(u), sched.log_snr(u) - sched.log_snr(t))


def _dpm2_coefs(t, u, sched, eta, lam_prev):
    lam_t, lam_u = sched.log_snr(t), sched.log_snr(u)
    h = lam_u - lam_t
    # midpoint in log-SNR; the matching fractional timestep locates the
    # predictor evaluation between the two integer steps
    lam_mid = lam_t + 0.5 * h
    t_mid = sched.timestep_at_log_snr(lam_mid, u, t)
    ab_mid = 1.0 / (1.0 + math.exp(-2.0 * lam_mid))
    ab_t = sched.alpha_bar(t)
    return _dpm2_apply, (t_mid, _dpm1_pair(ab_t, ab_mid, 0.5 * h), _dpm1_pair(ab_t, sched.alpha_bar(u), h))


def _dpm2_apply(x_t, t, c, eps, rng, ws, out):
    t_mid, mid, (c_x, c_eps) = c
    # the midpoint latent lives in ``out`` until its evaluation is done
    x_mid = _apply_linear(x_t, t, mid, eps, rng, ws, out)
    e_mid = eps(x_mid, t_mid, out=ws["eps"])
    return k.lincomb2(c_x, x_t, c_eps, e_mid, out=x_mid, tmp=ws["eps"])


def _data_hop(t, u, sched):
    """x0 coefficients, lambda_t, h and the first-order update x_u = c_x x_t + c_m x0_hat."""
    lam_t, lam_u = sched.log_snr(t), sched.log_snr(u)
    h = lam_u - lam_t
    ab_t, ab_u = sched.alpha_bar(t), sched.alpha_bar(u)
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
        return k.lincomb2(c_x, x_t, c_m, x0_hat, out=out, tmp=ws["eps"])
    return k.lincomb3(c_x, x_t, c_m, x0_hat, c_prev, prev, out=out, tmp=ws["eps"])


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
    a_u = math.sqrt(sched.alpha_bar(u))
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
    # the estimate buffer is the kernels' scratch whenever no estimate is live
    m0, prev, tmp = ws["x0_prev"], ws["x0"], ws["eps"]
    e_land = eps(x_pred, u, out=tmp)
    out = k.lincomb3(k_x, x_pred, k_eps, e_land, k_m, m0, out=x_pred, tmp=tmp)
    if c_prev is None:
        return out
    # two passes: c_prev x0_prev into the dead estimate buffer, then added in
    # place (lincomb2 skips the exact 1.0 * out)
    return k.lincomb2(1.0, out, c_prev, prev, out=out, tmp=tmp)


# one row per sampler kind: (coefficient function, predictor evaluations per
# internal hop, keeps a history); the terminal hop always costs one
_STEPS = {
    "ddpm": (_ddpm_coefs, 1, False),
    "ddim": (_ddim_coefs, 1, False),
    "dpm1": (_dpm1_coefs, 1, False),
    "dpm2": (_dpm2_coefs, 2, False),
    "dpmpp2m": (_dpmpp2m_coefs, 1, True),
    "unipc2": (_unipc_coefs, 2, True),
}

SAMPLER_KINDS = tuple(_STEPS)


def _check_kind(kind, eta):
    if kind not in _STEPS:
        raise ValueError(f"unknown sampler kind {kind!r}")
    if not eta >= 0.0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if eta > 0.0 and kind != "ddim":
        raise ValueError(f"eta applies only to ddim, not {kind!r}")


def _plan(kind, hops, sched, eta):
    """Compile the hops ``(t, u)`` of sampler ``kind`` into a plan.

    A plan is a list of ``(t, u, apply, coefficients)`` and holds every
    scalar of the run. The first hop starts from no history; each internal
    hop of a multistep kind predicts the next hop's history at its own t,
    and ``lam_prev`` is that history's log-SNR. A hop to 0 returns x0_hat.
    """
    coefs, _, keeps_history = _STEPS[kind]
    plan, lam_prev = [], None
    for t, u in hops:
        if u == 0:
            plan.append((t, u, _apply_linear, _x0_coefs(t, sched)))
            continue
        plan.append((t, u) + coefs(t, u, sched, eta, lam_prev))
        if keeps_history:
            lam_prev = sched.log_snr(t)
    return plan


def _walk(what, plan, x, eps, rng, record=False):
    """Run the hops of ``plan`` from latent ``x``; the one sampler executor.

    ``plan`` comes from :func:`_plan` and ``eps`` is a bound predictor. The
    hops write into a workspace owned by this call: the latent ping-pongs
    between two of its buffers, so ``x`` is never written, and an ``x_t``
    handed to the predictor is valid only during that evaluation. Aborts
    naming ``what`` and the hop on non-finite values. Returns (final latent,
    TrajectoryRecord); the record is empty unless ``record`` is set.
    """
    ws = defaultdict(lambda: np.empty(x.shape))
    traj = TrajectoryRecord()
    for i, (t, u, apply, c) in enumerate(plan):
        t0 = time.perf_counter()
        x = apply(x, t, c, eps, rng, ws, ws[("latent", i % 2)])
        if not np.isfinite(x).all():
            raise RuntimeError(f"{what} produced non-finite values stepping {t} -> {u}")
        if record:
            traj.step_times.append(time.perf_counter() - t0)
            traj.snapshots.append((u, x.copy()))
    return x, traj


def sampler_step(kind, x_t, t, t_prev, pred, cond, sched, *, eta=0.0, rng=None):
    """One hop t -> t_prev of sampler ``kind`` from no history; t_prev = 0
    returns x0_hat.

    ``eta`` applies to ddim only, and ddpm and eta > 0 ddim need ``rng``.
    For the history-free kinds, folding this over a grid with one rng
    reproduces ``run_sampler`` bit for bit; for the multistep kinds
    (dpmpp2m, unipc2) the hop is the first-order one their grids start
    with. ``x_t`` and ``cond`` are never written, and the result is a
    fresh array.
    """
    _check_kind(kind, eta)
    if not t > t_prev >= 0:
        raise ValueError(f"reverse hop needs t > t_prev >= 0, got {t} -> {t_prev}")
    plan = _plan(kind, [(t, t_prev)], sched, eta)
    return _walk(kind, plan, np.asarray(x_t, dtype=np.float64), pred.bind(cond), rng)[0]


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
    plan = _plan(spec.kind, list(zip(grid[:-1], grid[1:])) + [(grid[-1], 0)], sched, spec.eta)
    x = np.asarray(x_init, dtype=np.float64)
    return _walk(spec.kind, plan, x, pred.bind(cond), rng, record)


def evaluations_per_run(kind, n_steps):
    """Exact predictor evaluation count for a grid of ``n_steps`` entries:
    the kind's evaluations per internal hop, plus one for the terminal hop."""
    _, evals, _ = _STEPS[kind]
    return 1 + (n_steps - 1) * evals
