import inspect
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from astn import _kernels as k
from astn import samplers
from astn.denoiser import (
    AffinePredictor,
    EpsilonPredictor,
    GaussianDataModel,
    GaussianOracle,
    ZeroPredictor,
    conditioned_oracle,
)
from astn.forward import q_sample
from astn.inversion import ddim_invert
from astn.regimes import make_regime_spec, reconstruct
from astn.samplers import (
    SamplerSpec,
    evaluations_per_run,
    run_sampler,
    sampler_step,
)
from astn.schedule import TimestepGrid, make_linear_schedule, make_timestep_grid


class ConstantEps(EpsilonPredictor):
    """Stub returning a fixed noise image regardless of (x, t)."""

    def __init__(self, eps):
        self.eps = eps

    def predict(self, x_t, t, cond=None):
        return self.eps.copy()


class ConstantX0(EpsilonPredictor):
    """Stub whose implied data prediction is a fixed image."""

    def __init__(self, x0, sched):
        self.x0 = x0
        self.sched = sched

    def predict(self, x_t, t, cond=None):
        ab = self.sched.alpha_bar_at(t)
        return (x_t - math.sqrt(ab) * self.x0) / math.sqrt(1.0 - ab)


class CountingPredictor(EpsilonPredictor):
    """Counts ``inner``'s evaluations through the default ``bind``, which
    returns ``(0, eps_hat, 1)``: every estimate is an array from ``predict``,
    and each hop's combination is exactly c_x x_t + c_eps eps_hat."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def predict(self, x_t, t, cond=None):
        self.calls += 1
        return self.inner.predict(x_t, t, cond)


class ExplodingPredictor(EpsilonPredictor):
    def predict(self, x_t, t, cond=None):
        return np.full_like(x_t, np.inf)


@pytest.fixture(scope="module")
def toy(sched):
    rng = np.random.default_rng(31)
    model = GaussianDataModel(mean=np.full((8, 8), 0.3), var=0.5)
    return model, GaussianOracle(model, sched), rng.standard_normal((8, 8))


def _x0_hat(x_t, t, eps_hat, sched):
    """The data prediction (x_t - s_t eps_hat)/a_t, in the terminal hop's arithmetic."""
    a_t = math.sqrt(sched.alpha_bar_at(t))
    return k.lincomb2(1.0 / a_t, x_t, -math.sqrt(1.0 - sched.alpha_bar_at(t)) / a_t, eps_hat)


def _run(kind, N, x_init, pred, sched, seed=1, eta=0.0, origin=1000):
    spec = SamplerSpec(kind=kind, grid=make_timestep_grid(origin, N, sched.T), eta=eta)
    out, _ = run_sampler(spec, x_init, pred, None, sched, rng=np.random.default_rng(seed))
    return out


# ---------------------------------------------------------------------- ddpm


def test_ddpm_terminal_step_returns_x0hat(sched, rng):
    x0 = rng.random((5, 5))
    eps = rng.standard_normal((5, 5))
    x1 = q_sample(x0, 1, eps, sched)
    pred = GaussianOracle(GaussianDataModel(x0, 0.0), sched)
    out = sampler_step("ddpm", x1, 1, 0, pred, None, sched, rng=rng)
    assert np.abs(out - x0).max() < 1e-12


def test_ddpm_exact_oracle_converges_to_x0(sched):
    rng = np.random.default_rng(8)
    x0 = rng.random((8, 8))
    x_init = rng.standard_normal((8, 8))
    out = _run("ddpm", 1000, x_init, GaussianOracle(GaussianDataModel(x0, 0.0), sched), sched, seed=9)
    assert math.sqrt(float(((out - x0) ** 2).mean())) < 1e-6


def test_ddpm_full_grid_matches_standard_normal(sched):
    # m=0, s^2=1 oracle from pure noise: output marginal must match N(0,1)
    model = GaussianDataModel(mean=np.zeros((100, 100)), var=1.0)
    pred = GaussianOracle(model, sched)
    rng = np.random.default_rng(10)
    out = _run("ddpm", 1000, rng.standard_normal((100, 100)), pred, sched, seed=11)
    n = out.size
    assert abs(out.mean()) <= 5.0 / math.sqrt(n)
    assert abs(out.var() - 1.0) <= 5.0 * math.sqrt(2.0 / (n - 1))


def test_ddpm_hop_order_validation(sched, toy, rng):
    _, pred, x = toy
    with pytest.raises(ValueError):
        sampler_step("ddpm", x, 100, 100, pred, None, sched, rng=rng)


# ---------------------------------------------------------------------- ddim


def test_ddim_step_lands_on_forward_marginal(sched, rng):
    # one deterministic step with the exact-noise oracle maps
    # q_sample(x0, t, eps) onto q_sample(x0, t_prev, eps) exactly
    x0 = rng.random((6, 6))
    pred = GaussianOracle(GaussianDataModel(x0, 0.0), sched)
    eps = rng.standard_normal((6, 6))
    for t, t_prev in [(1000, 500), (500, 37), (150, 1), (42, 41)]:
        x_t = q_sample(x0, t, eps, sched)
        got = sampler_step("ddim", x_t, t, t_prev, pred, None, sched)
        want = q_sample(x0, t_prev, eps, sched)
        assert np.abs(got - want).max() < 1e-10


def test_ddim_terminal_returns_x0hat(sched, rng):
    x0 = rng.random((4, 4))
    x1 = q_sample(x0, 1, rng.standard_normal((4, 4)), sched)
    out = sampler_step("ddim", x1, 1, 0, GaussianOracle(GaussianDataModel(x0, 0.0), sched), None, sched)
    assert np.abs(out - x0).max() < 1e-12


def test_ddim_eta1_matches_ddpm_marginals(sched, toy):
    # one-hop two-sample moment comparison over repeated trials
    model, pred, _ = toy
    t, t_prev = 500, 400
    rng = np.random.default_rng(12)
    outs_ddim, outs_ddpm = [], []
    for i in range(300):
        x0 = model.sample(rng, 1)[0]
        x_t = q_sample(x0, t, rng.standard_normal(x0.shape), sched)
        outs_ddim.append(sampler_step("ddim", x_t, t, t_prev, pred, None, sched, eta=1.0,
                                      rng=np.random.default_rng(1000 + i)))
        outs_ddpm.append(sampler_step("ddpm", x_t, t, t_prev, pred, None, sched,
                                      rng=np.random.default_rng(1000 + i)))
    a, b = np.asarray(outs_ddim), np.asarray(outs_ddpm)
    n = a.size
    pooled_sd = math.sqrt((a.var() + b.var()) / 2.0)
    assert abs(a.mean() - b.mean()) <= 5.0 * pooled_sd * math.sqrt(2.0 / n)
    assert abs(a.var() - b.var()) <= 5.0 * pooled_sd**2 * math.sqrt(2.0 / (n - 1)) * math.sqrt(2)


def test_ddim_sigma_domain_error(sched, toy, rng):
    # eta's domain is [0, 1] on every grid: beyond 1 is rejected before any hop compiles
    _, pred, x = toy
    with pytest.raises(ValueError, match=r"^eta must be <= 1, got 50.0$"):
        sampler_step("ddim", x, 500, 499, pred, None, sched, eta=50.0, rng=rng)


@pytest.mark.parametrize("regime", ["full", "ast"])
@settings(max_examples=120, deadline=None)
@given(T=st.integers(1, 4000), beta_start=st.floats(1e-6, 0.5), beta_rise=st.floats(0.0, 1.0),
       n_frac=st.floats(0.0, 1.0), eta=st.floats(0.0, 1.0))
def test_every_eta_in_unit_interval_is_feasible(regime, T, beta_start, beta_rise, n_frac, eta):
    # for eta <= 1, 1 - ab_u - sigma^2 is >= ab_t (1 - ab_u)^2 / (ab_u (1 - ab_t)) >= 0
    # exactly, so rounding alone can take it below 0 and the clamp absorbs it
    beta_end = beta_start + beta_rise * (0.999 - beta_start)
    try:
        sched = make_linear_schedule(T, beta_start, beta_end)
    except ValueError:  # alpha_bar underflows to 0 or stops decreasing
        assume(False)
    n = 1 + round(n_frac * (T - 1))
    steps = make_regime_spec(regime, n, "ddim", sched, eta=eta).sampler.grid.steps
    for t, u in zip(steps, steps[1:]):
        _, coefs = samplers._ddim_coefs(t, u, sched, eta, None)
        assert not any(math.isnan(c) for c in coefs), (t, u, coefs)


def test_ddim_eta_needs_rng(sched, toy):
    _, pred, x = toy
    with pytest.raises(ValueError, match="rng"):
        sampler_step("ddim", x, 500, 400, pred, None, sched, eta=1.0, rng=None)


# ------------------------------------------------------------------- dpm solvers


def test_dpm1_equals_deterministic_ddim(sched, toy):
    _, pred, x_init = toy
    for N in (10, 50, 250):
        grid = make_timestep_grid(1000, N, sched.T)
        x_d = x_init.copy()
        x_s = x_init.copy()
        hops = list(zip(grid.steps[:-1], grid.steps[1:])) + [(grid.steps[-1], 0)]
        for t, u in hops:
            x_d = sampler_step("ddim", x_d, t, u, pred, None, sched)
            x_s = sampler_step("dpm1", x_s, t, u, pred, None, sched)
            assert np.abs(x_d - x_s).max() < 1e-8


def test_dpm1_small_hop_limit(sched, toy):
    _, pred, x = toy
    # shrinking hops give shrinking updates: |x_u - x_t| = O(h)
    prev_delta = None
    for t_prev in (400, 450, 490, 499):
        out = sampler_step("dpm1", x, 500, t_prev, pred, None, sched)
        delta = float(np.abs(out - x).max())
        if prev_delta is not None:
            assert delta < prev_delta
        prev_delta = delta
    assert prev_delta < 0.05


def test_dpm2_exact_for_deterministic_data(sched, rng):
    x0 = rng.random((6, 6))
    pred = GaussianOracle(GaussianDataModel(x0, 0.0), sched)
    eps = rng.standard_normal((6, 6))
    x_t = q_sample(x0, 800, eps, sched)
    got = sampler_step("dpm2", x_t, 800, 123, pred, None, sched)
    assert np.abs(got - q_sample(x0, 123, eps, sched)).max() < 1e-10


def test_dpm2_collapses_to_dpm1_for_constant_eps(sched, rng):
    eps = rng.standard_normal((5, 5))
    pred = ConstantEps(eps)
    x = rng.standard_normal((5, 5))
    a = sampler_step("dpm2", x, 700, 300, pred, None, sched)
    b = sampler_step("dpm1", x, 700, 300, pred, None, sched)
    assert np.abs(a - b).max() < 1e-12


@pytest.mark.parametrize("kind", ["dpm2", "dpmpp2m"])
def test_second_order_error_ratio(sched, toy, kind):
    # error vs a dense reference should shrink ~4x per step-count doubling
    _, pred, x_init = toy
    ref = _run("unipc2", 1000, x_init, pred, sched)
    e50 = float(np.sqrt(((_run(kind, 50, x_init, pred, sched) - ref) ** 2).mean()))
    e100 = float(np.sqrt(((_run(kind, 100, x_init, pred, sched) - ref) ** 2).mean()))
    assert 2.8 <= e50 / e100 <= 5.5


def test_dpmpp2m_first_step_is_first_order(sched, toy):
    _, pred, x = toy
    out = sampler_step("dpmpp2m", x, 1000, 600, pred, None, sched)
    # first-order data-prediction step, written out directly
    eps_hat = pred.predict(x, 1000)
    m0 = _x0_hat(x, 1000, eps_hat, sched)
    ab_t, ab_u = sched.alpha_bar(1000), sched.alpha_bar(600)
    h = sched.log_snr(600) - sched.log_snr(1000)
    want = math.sqrt((1 - ab_u) / (1 - ab_t)) * x - math.sqrt(ab_u) * math.expm1(-h) * m0
    assert np.abs(out - want).max() < 1e-12


def test_dpmpp2m_constant_x0_extrapolation(sched, rng):
    target = rng.random((6, 6))
    pred = ConstantX0(target, sched)
    out = _run("dpmpp2m", 100, rng.standard_normal((6, 6)), pred, sched)
    assert np.abs(out - target).max() < 1e-9


def test_unipc_corrector_noop_for_constant_eps(sched, rng):
    # constant eps_hat makes the first-order step exact, so the corrector
    # evaluation sees the same data prediction and contributes nothing
    eps = rng.standard_normal((5, 5))
    x = rng.standard_normal((5, 5))
    a = sampler_step("unipc2", x, 900, 400, ConstantEps(eps), None, sched)
    b = sampler_step("dpm1", x, 900, 400, ConstantEps(eps), None, sched)
    assert np.abs(a - b).max() < 1e-10


def test_unipc_single_hop_scalar_reference(sched):
    # hand-rolled scalar computation of one predictor+corrector hop
    rng = np.random.default_rng(55)
    model = GaussianDataModel(mean=np.full((1, 1), 0.4), var=0.3)
    pred = GaussianOracle(model, sched)
    x = rng.standard_normal((1, 1))
    t, u = 800, 350
    got = float(sampler_step("unipc2", x.copy(), t, u, pred, None, sched)[0, 0])

    ab_t, ab_u = sched.alpha_bar(t), sched.alpha_bar(u)
    lam = lambda tt: 0.5 * math.log(sched.alpha_bar(tt) / (1 - sched.alpha_bar(tt)))
    h = lam(u) - lam(t)
    oracle = lambda v, tt: (
        math.sqrt(1 - sched.alpha_bar(tt)) * (v - math.sqrt(sched.alpha_bar(tt)) * 0.4)
        / (sched.alpha_bar(tt) * 0.3 + 1 - sched.alpha_bar(tt))
    )
    xv = float(x[0, 0])
    m0 = (xv - math.sqrt(1 - ab_t) * oracle(xv, t)) / math.sqrt(ab_t)
    xp = math.sqrt((1 - ab_u) / (1 - ab_t)) * xv - math.sqrt(ab_u) * math.expm1(-h) * m0
    m_land = (xp - math.sqrt(1 - ab_u) * oracle(xp, u)) / math.sqrt(ab_u)
    want = xp - math.sqrt(ab_u) * (-h) * 0.5 * (m_land - m0)
    assert got == pytest.approx(want, rel=1e-12)


def test_unipc_beats_2m_on_fine_grids(sched, toy):
    _, pred, x_init = toy
    ref = _run("unipc2", 1000, x_init, pred, sched)
    for N in (100, 200):
        e_2m = float(np.sqrt(((_run("dpmpp2m", N, x_init, pred, sched) - ref) ** 2).mean()))
        e_uni = float(np.sqrt(((_run("unipc2", N, x_init, pred, sched) - ref) ** 2).mean()))
        assert e_uni <= e_2m


# ---------------------------------------------------------------- run_sampler


def test_run_sampler_single_step_grid(sched, rng):
    x0 = rng.random((4, 4))
    pred = GaussianOracle(GaussianDataModel(x0, 0.0), sched)
    x1 = q_sample(x0, 1, rng.standard_normal((4, 4)), sched)
    spec = SamplerSpec(kind="ddim", grid=make_timestep_grid(1, 1, sched.T))
    out, _ = run_sampler(spec, x1, pred, None, sched)
    assert np.abs(out - x0).max() < 1e-12


def test_run_sampler_ddim_terminal_statistics(sched):
    model = GaussianDataModel(mean=np.zeros((100, 100)), var=1.0)
    pred = GaussianOracle(model, sched)
    rng = np.random.default_rng(16)
    out = _run("ddim", 1000, rng.standard_normal((100, 100)), pred, sched)
    n = out.size
    assert abs(out.mean()) <= 5.0 / math.sqrt(n)
    assert abs(out.var() - 1.0) <= 5.0 * math.sqrt(2.0 / (n - 1)) + 0.01


@pytest.mark.parametrize("kind", ["ddpm", "ddim"])
def test_run_sampler_seed_determinism(sched, toy, kind):
    _, pred, x_init = toy
    eta = 1.0 if kind == "ddim" else 0.0
    a = _run(kind, 50, x_init, pred, sched, seed=7, eta=eta)
    b = _run(kind, 50, x_init, pred, sched, seed=7, eta=eta)
    c = _run(kind, 50, x_init, pred, sched, seed=8, eta=eta)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_run_sampler_records_trajectory(sched, toy):
    _, pred, x_init = toy
    spec = SamplerSpec(kind="ddim", grid=make_timestep_grid(1000, 10, sched.T))
    _, snapshots = run_sampler(spec, x_init, pred, None, sched, record=True)
    ts = [t for t, _ in snapshots]
    assert ts == sorted(ts, reverse=True)
    assert ts[-1] == 0
    assert len(ts) == 10
    shapes = {snap.shape for _, snap in snapshots}
    assert shapes == {x_init.shape}
    assert run_sampler(spec, x_init, pred, None, sched)[1] == []


# each public way into the executor, called on a latent x along a grid
_ENTRIES = {
    "run_sampler": lambda x, pred, cond, sched, grid: run_sampler(SamplerSpec("ddim", grid), x, pred, cond, sched),
    "sampler_step": lambda x, pred, cond, sched, grid: sampler_step("ddim", x, 500, 400, pred, cond, sched),
    "ddim_invert": lambda x, pred, cond, sched, grid: ddim_invert(x, pred, cond, sched, grid),
}


@pytest.mark.parametrize("entry", _ENTRIES)
@pytest.mark.parametrize("pred", ["gaussian_oracle", "zero"])
def test_every_walk_rejects_a_condition_of_another_shape(sched, entry, pred):
    # neither predictor reads the condition, so only the executor's entry can reject it
    pred = {"gaussian_oracle": GaussianOracle(GaussianDataModel(np.full((8, 8), 0.3), 0.5), sched),
            "zero": ZeroPredictor()}[pred]
    x = np.random.default_rng(4).standard_normal((8, 8))
    with pytest.raises(ValueError, match="latent and condition have mismatched shapes"):
        _ENTRIES[entry](x, pred, np.zeros((4, 4)), sched, make_timestep_grid(sched.T, 5, sched.T))


# every (kind, eta) case, keyed by its test id
_STEP_CASES = {"ddpm": ("ddpm", 0.0), "ddim": ("ddim", 0.0), "ddim_eta1": ("ddim", 1.0),
               "dpm1": ("dpm1", 0.0), "dpm2": ("dpm2", 0.0), "dpmpp2m": ("dpmpp2m", 0.0),
               "unipc2": ("unipc2", 0.0)}
_KIND_ETAS = list(_STEP_CASES.values())


# a step starts from no history, so the multistep kinds fold only over
# grids whose one internal hop is their first
@pytest.mark.parametrize("name, N", [(name, N) for name in _STEP_CASES for N in (1, 2, 10, 50)
                                     if N <= 2 or name not in ("dpmpp2m", "unipc2")])
def test_run_sampler_equals_fold_of_step_functions(sched, name, N):
    rng = np.random.default_rng(77)
    model = GaussianDataModel(mean=np.full((8, 8), 0.4), var=0.06)
    pred = conditioned_oracle(model, 0.05, sched)
    cond = rng.random((8, 8))
    x_init = rng.standard_normal((8, 8))
    kind, eta = _STEP_CASES[name]
    spec = SamplerSpec(kind=kind, grid=make_timestep_grid(sched.T, N, sched.T), eta=eta)
    out, recorded = run_sampler(spec, x_init, pred, cond, sched, rng=np.random.default_rng(3), record=True)

    fold_rng = np.random.default_rng(3)
    x, snapshots = x_init, []
    steps = spec.grid.steps
    for t, u in list(zip(steps[:-1], steps[1:])) + [(steps[-1], 0)]:
        x = sampler_step(kind, x, t, u, pred, cond, sched, eta=eta, rng=fold_rng)
        snapshots.append((u, x))
    # both paths run the same coefficient and apply functions, so every kind,
    # dpm2 with its fractional midpoint included, must match bit for bit
    assert np.array_equal(out, x)
    assert [u for u, _ in recorded] == [u for u, _ in snapshots]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(recorded, snapshots))


# (kind, eta, match, hop t -> t_prev); ids name the first three
_BAD_STEP_CALLS = [
    ("euler", 0.0, "unknown sampler kind", (500, 400)),
    ("ddim", -1.0, "eta must be >= 0", (500, 400)),
    ("dpm1", -0.5, "eta must be >= 0", (500, 400)),
    ("dpm1", 0.5, "eta applies only to ddim", (500, 400)),
    ("ddpm", 1.0, "eta applies only to ddim", (500, 400)),
    # a fractional start is rejected on the terminal hop as on any other
    ("ddim", 0.0, "alpha_bar needs an integral timestep", (500.5, 0)),
]


@pytest.mark.parametrize("kind, eta, match, hop", _BAD_STEP_CALLS,
                         ids=[f"{k}-{e}-{m}" for k, e, m, _ in _BAD_STEP_CALLS])
def test_sampler_step_rejects_bad_calls(sched, toy, kind, eta, match, hop):
    _, pred, x = toy
    with pytest.raises(ValueError, match=match):
        sampler_step(kind, x, *hop, pred, None, sched, eta=eta, rng=np.random.default_rng(0))


def test_sampler_step_options_are_keyword_only(sched, toy):
    _, pred, x = toy
    params = inspect.signature(sampler_step).parameters
    assert [p for p in params if params[p].kind is inspect.Parameter.KEYWORD_ONLY] == ["eta", "rng"]
    with pytest.raises(TypeError):
        sampler_step("ddpm", x, 500, 400, pred, None, sched, np.random.default_rng(0))


class SpyPredictor(EpsilonPredictor):
    """Forwards to ``inner``'s bound function, keeping every latent it is given."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = []  # the x_t objects themselves
        self.copies = []  # their values at evaluation time

    def predict(self, x_t, t, cond=None):
        return self.inner.predict(x_t, t, cond)

    def bind(self, cond):
        inner = self.inner.bind(cond)

        def eps(x_t, t):
            self.seen.append(x_t)
            self.copies.append(x_t.copy())
            return inner(x_t, t)

        return eps


def _buffer_case(sched, kind, eta, N=10):
    rng = np.random.default_rng(12)
    model = GaussianDataModel(mean=np.full((8, 8), 0.4), var=0.06)
    spec = SamplerSpec(kind=kind, grid=make_timestep_grid(sched.T, N, sched.T), eta=eta)
    return spec, conditioned_oracle(model, 0.05, sched), rng.random((8, 8)), rng.standard_normal((8, 8))


@pytest.mark.parametrize("kind, eta", _KIND_ETAS)
def test_run_sampler_leaves_inputs_and_results_alone(sched, kind, eta):
    spec, pred, cond, x_init = _buffer_case(sched, kind, eta)
    x_before, cond_before = x_init.copy(), cond.copy()
    a, _ = run_sampler(spec, x_init, pred, cond, sched, rng=np.random.default_rng(2))
    a_before = a.copy()
    b, _ = run_sampler(spec, x_init, pred, cond, sched, rng=np.random.default_rng(2))
    assert np.array_equal(x_init, x_before) and np.array_equal(cond, cond_before)
    assert not np.shares_memory(a, b)
    assert np.array_equal(a, a_before) and np.array_equal(a, b)


@pytest.mark.parametrize("kind, eta", _KIND_ETAS)
def test_run_sampler_snapshots_keep_their_values(sched, kind, eta):
    spec, pred, cond, x_init = _buffer_case(sched, kind, eta)
    spy = SpyPredictor(pred)
    out, snapshots = run_sampler(spec, x_init, spy, cond, sched, rng=np.random.default_rng(2), record=True)
    snaps = [snap for _, snap in snapshots]
    assert np.array_equal(snaps[-1], out)
    assert not any(np.shares_memory(snap, x) for snap in snaps for x in spy.seen + [out])
    # hop j's first evaluation sees the latent hop j - 1 produced and recorded
    per_hop = evaluations_per_run(kind, 2) - 1
    for j in range(1, len(snaps)):
        assert np.array_equal(snaps[j - 1], spy.copies[j * per_hop])


@pytest.mark.parametrize("kind", ["ddim", "unipc2"])
def test_run_sampler_reuses_two_latent_buffers(sched, kind):
    spec, pred, cond, x_init = _buffer_case(sched, kind, 0.0, N=50)
    spy = SpyPredictor(pred)
    run_sampler(spec, x_init, spy, cond, sched)
    assert len(spy.seen) == evaluations_per_run(kind, 50)
    # x_init plus the two buffers the latent ping-pongs between
    assert spy.seen[0] is x_init
    assert len({id(x) for x in spy.seen}) <= 3


def test_run_sampler_ddpm_needs_rng(sched, toy):
    _, pred, x_init = toy
    spec = SamplerSpec(kind="ddpm", grid=make_timestep_grid(1000, 5, sched.T))
    with pytest.raises(ValueError, match="rng"):
        run_sampler(spec, x_init, pred, None, sched)


def test_run_sampler_nan_abort_names_timestep(sched, toy):
    _, _, x_init = toy
    spec = SamplerSpec(kind="ddim", grid=make_timestep_grid(1000, 5, sched.T))
    with np.errstate(invalid="ignore"):
        with pytest.raises(RuntimeError, match=r"1000 -> "):
            run_sampler(spec, x_init, ExplodingPredictor(), None, sched)


@pytest.mark.parametrize("name", list(_STEP_CASES))
def test_step_functions_abort_on_non_finite_values(sched, toy, name):
    _, _, x = toy
    kind, eta = _STEP_CASES[name]
    with np.errstate(invalid="ignore"):
        with pytest.raises(RuntimeError, match=r"non-finite values stepping 500 -> 400"):
            sampler_step(kind, x, 500, 400, ExplodingPredictor(), None, sched,
                         eta=eta, rng=np.random.default_rng(0))


def test_inversion_reuses_two_latent_buffers(sched):
    rng = np.random.default_rng(14)
    model = GaussianDataModel(mean=np.full((8, 8), 0.4), var=0.06)
    spy = SpyPredictor(conditioned_oracle(model, 0.05, sched))
    x_start, cond = rng.random((8, 8)), rng.random((8, 8))
    x_before, cond_before = x_start.copy(), cond.copy()
    grid = make_timestep_grid(sched.T, 51, sched.T)
    a = ddim_invert(x_start, spy, cond, sched, grid)
    assert len(spy.seen) == 50
    # the embedding plus the two buffers the latent ping-pongs between
    assert np.array_equal(spy.seen[0], math.sqrt(sched.alpha_bar(grid.steps[-1])) * x_start)
    assert len({id(x) for x in spy.seen}) <= 3
    b = ddim_invert(x_start, spy, cond, sched, grid)
    assert np.array_equal(x_start, x_before) and np.array_equal(cond, cond_before)
    assert not np.shares_memory(a, b) and np.array_equal(a, b)


def test_inversion_hop_is_the_ddim_update(sched):
    rng = np.random.default_rng(15)
    model = GaussianDataModel(mean=np.full((8, 8), 0.4), var=0.06)
    pred = conditioned_oracle(model, 0.05, sched)
    x_start, cond = rng.random((8, 8)), rng.random((8, 8))
    for lo, hi in [(1, 1000), (250, 800), (41, 42)]:
        x = math.sqrt(sched.alpha_bar(lo)) * x_start
        eps_hat = pred.predict(x, lo, cond)
        grid = TimestepGrid(steps=(hi, lo))
        got = ddim_invert(x_start, CountingPredictor(pred), cond, sched, grid)
        # the hop's fused form: a_hi x0_hat + s_hi eps_hat with x0_hat expanded
        ab_lo, ab_hi = sched.alpha_bar(lo), sched.alpha_bar(hi)
        a_lo, a_hi = math.sqrt(ab_lo), math.sqrt(ab_hi)
        c_x, c_eps = 1.0 / a_lo, -math.sqrt(1.0 - ab_lo) / a_lo
        fused = k.lincomb2(a_hi * c_x, x, a_hi * c_eps + math.sqrt(1.0 - ab_hi), eps_hat)
        assert np.array_equal(got, fused)
        # the oracle's estimate folded into the hop changes only the rounding
        folded = ddim_invert(x_start, pred, cond, sched, grid)
        assert np.abs(folded - fused).max() <= 1e-12 * np.abs(fused).max()
        # the textbook two-stage update, up to rounding
        x0_hat = _x0_hat(x, lo, eps_hat, sched)
        two_stage = k.lincomb2(a_hi, x0_hat, math.sqrt(1.0 - ab_hi), eps_hat)
        assert np.abs(got - two_stage).max() <= 1e-12 * np.abs(two_stage).max()


# ------------------------------------------- fused hops vs two-stage updates
# The hop updates as they were written before each kind's scalar algebra was
# folded into one linear combination: x0_hat, the ddpm mean, DPM-Solver++'s
# D and UniPC's d1_0, m_land and d1_t are formed as arrays. Reference only.


def _two_stage_hop(kind, x, t, u, eps, sched, eta, rng, state):
    eps_hat = eps(x, t)
    x0_hat = _x0_hat(x, t, eps_hat, sched)
    if u == 0:
        return x0_hat
    ab_t, ab_u = sched.alpha_bar(t), sched.alpha_bar(u)
    lam_t, lam_u = sched.log_snr(t), sched.log_snr(u)
    h = lam_u - lam_t
    if kind == "ddpm":
        beta_eff = 1.0 - ab_t / ab_u
        btilde = (1.0 - ab_u) / (1.0 - ab_t) * beta_eff
        c0 = math.sqrt(ab_u) * beta_eff / (1.0 - ab_t)
        ct = math.sqrt(ab_t / ab_u) * (1.0 - ab_u) / (1.0 - ab_t)
        mean = k.lincomb2(c0, x0_hat, ct, x)
        return k.lincomb2(1.0, mean, math.sqrt(btilde), rng.standard_normal(x.shape))
    if kind == "ddim":
        sigma = 0.0
        if eta > 0.0:
            sigma = eta * math.sqrt((1.0 - ab_u) / (1.0 - ab_t)) * math.sqrt(1.0 - ab_t / ab_u)
        out = k.lincomb2(math.sqrt(ab_u), x0_hat, math.sqrt(1.0 - ab_u - sigma * sigma), eps_hat)
        if sigma > 0.0:
            out = k.lincomb2(1.0, out, sigma, rng.standard_normal(x.shape))
        return out
    if kind == "dpm1":
        return k.lincomb2(math.sqrt(ab_u / ab_t), x, -math.sqrt(1.0 - ab_u) * math.expm1(h), eps_hat)
    if kind == "dpm2":
        lam_mid = lam_t + 0.5 * h
        ab_mid = 1.0 / (1.0 + math.exp(-2.0 * lam_mid))
        x_mid = k.lincomb2(math.sqrt(ab_mid / ab_t), x,
                           -math.sqrt(1.0 - ab_mid) * math.expm1(0.5 * h), eps_hat)
        e_mid = eps(x_mid, sched.timestep_at_log_snr(lam_mid, u, t))
        return k.lincomb2(math.sqrt(ab_u / ab_t), x, -math.sqrt(1.0 - ab_u) * math.expm1(h), e_mid)
    c_x = math.sqrt((1.0 - ab_u) / (1.0 - ab_t))
    hist = state.prev_x0 is not None
    r0 = (state.prev_log_snr - lam_t) / h if hist else None
    if kind == "dpmpp2m":
        d = k.lincomb2(1.0 - 0.5 / r0, x0_hat, 0.5 / r0, state.prev_x0) if hist else x0_hat
        out = k.lincomb2(c_x, x, -math.sqrt(ab_u) * math.expm1(-h), d)
    else:  # unipc2
        hh = -h
        phi = math.expm1(hh) / hh - 1.0
        b1 = phi / hh
        b2 = (phi / hh - 0.5) * 2.0 / hh
        a_u = math.sqrt(ab_u)
        c_m, c_half, c_corr = -a_u * math.expm1(hh), -a_u * hh * 0.5, -a_u * hh
        if hist:
            d1_0 = (state.prev_x0 - x0_hat) / r0
            x_pred = k.lincomb3(c_x, x, c_m, x0_hat, c_half, d1_0)
        else:
            x_pred = k.lincomb2(c_x, x, c_m, x0_hat)
        d1_t = _x0_hat(x_pred, u, eps(x_pred, u), sched) - x0_hat
        if hist:
            rho0 = (b1 - b2) / (1.0 - r0)
            rho1 = (b2 - r0 * b1) / (1.0 - r0)
            out = k.lincomb3(c_x, x, c_m, x0_hat, c_corr, k.lincomb2(rho0, d1_0, rho1, d1_t))
        else:
            out = k.lincomb3(c_x, x, c_m, x0_hat, c_half, d1_t)
    state.prev_log_snr, state.prev_x0 = lam_t, x0_hat
    return out


def _two_stage_run(kind, grid, x, eps, sched, eta, rng):
    state = SimpleNamespace(prev_log_snr=None, prev_x0=None)
    steps = grid.steps
    for t, u in list(zip(steps[:-1], steps[1:])) + [(steps[-1], 0)]:
        x = _two_stage_hop(kind, x, t, u, eps, sched, eta, rng, state)
    return x


def _oracle_affine(model, sched, cond_gain=None):
    """AffinePredictor whose tables are ``model``'s Gaussian oracle, with the
    condition gain ``cond_gain * a_t`` when it is given."""
    ab = sched.alpha_bars
    a = np.sqrt(1.0 - ab) / (ab * model.var + (1.0 - ab))
    b = (-a * np.sqrt(ab))[:, None, None] * model.mean
    if cond_gain is None:
        return AffinePredictor(a=a, g=np.zeros_like(a), b=b)
    return AffinePredictor(a=a, g=cond_gain * a, b=b, conditional=True)


def _fused_cases(sched):
    """(size, predictor, cond, folded) cases at 8x8 and 64x64: both Gaussian
    oracles, each as itself (its estimates folded) and unfolded through
    ``CountingPredictor``, and an unconditional and a conditional affine
    model, folded."""
    rng = np.random.default_rng(41)
    for size in (8, 64):
        model = GaussianDataModel(mean=np.full((size, size), 0.4), var=0.06)
        cond = rng.random((size, size))
        for pred, c in ((GaussianOracle(model, sched), None), (conditioned_oracle(model, 0.05, sched), cond)):
            yield size, CountingPredictor(pred), c, False
            yield size, pred, c, True
        yield size, _oracle_affine(model, sched), None, True
        yield size, _oracle_affine(model, sched, cond_gain=-0.1), cond, True


@pytest.mark.parametrize("kind, eta", _KIND_ETAS)
def test_fused_hops_match_two_stage_updates(sched, kind, eta):
    grids = [make_timestep_grid(sched.T, N, sched.T) for N in (1, 2, 10, 50)]
    grids.append(make_timestep_grid(25, 25, sched.T))
    for size, pred, cond, folded in _fused_cases(sched):
        x_init = np.random.default_rng(size).standard_normal((size, size))
        eps = lambda x, t: pred.predict(x, t, cond)
        for grid in grids:
            spec = SamplerSpec(kind=kind, grid=grid, eta=eta)
            got, _ = run_sampler(spec, x_init, pred, cond, sched, rng=np.random.default_rng(6))
            ref = _two_stage_run(kind, grid, x_init, eps, sched, eta, np.random.default_rng(6))
            # unchanged arithmetic for an unfolded estimate: the dpm kinds,
            # every 1-step grid and dpmpp2m's first hop (its whole 2-step run)
            unchanged = kind in ("dpm1", "dpm2") or len(grid) == 1 or (kind, len(grid)) == ("dpmpp2m", 2)
            if unchanged and not folded:
                assert np.array_equal(got, ref), (size, len(grid))
            elif folded and (kind, len(grid)) == ("dpm2", 2):
                # dpm2's one hop T -> 1 amplifies the last rounding of its
                # midpoint latent about 1e4-fold: against a long-double
                # evaluation the folded run is up to 1.5e-12 off and this
                # reference up to 8.6e-12, so the reference cannot judge it
                continue
            else:
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (size, len(grid), folded)


def test_fused_inversion_matches_two_stage_updates(sched):
    for size, pred, cond, _ in _fused_cases(sched):
        x_start = np.random.default_rng(size).random((size, size))
        eps = lambda x, t: pred.predict(x, t, cond)
        for N in (1, 10, 100):
            grid = make_timestep_grid(sched.T, N, sched.T)
            got = ddim_invert(x_start, pred, cond, sched, grid)
            up = grid.steps[::-1]
            ref = math.sqrt(sched.alpha_bar(up[0])) * x_start
            for t, u in zip(up[:-1], up[1:]):
                ref = _two_stage_hop("ddim", ref, t, u, eps, sched, 0.0, None, None)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (size, N)


@pytest.mark.parametrize("kind, eta", _KIND_ETAS)
def test_runs_leave_affine_tables_and_condition_alone(sched, kind, eta):
    # the unconditional model's estimate image is a row of its offset table
    rng = np.random.default_rng(44)
    model = GaussianDataModel(mean=rng.random((8, 8)), var=0.06)
    low = rng.random((8, 8))
    before = low.copy()
    for pred in (_oracle_affine(model, sched), _oracle_affine(model, sched, cond_gain=-0.1)):
        tables = [x.copy() for x in (pred.a, pred.g, pred.b)]
        for regime in ("full", "ast", "inverted"):
            spec = make_regime_spec(regime, 10, kind, sched, eta=eta)
            reconstruct(spec, low, pred, sched, np.random.default_rng(3))
        assert all(np.array_equal(x, y) for x, y in zip((pred.a, pred.g, pred.b), tables))
        assert np.array_equal(low, before)


# kernel calls per internal hop (first, later) with the Gaussian oracle, the
# evaluations included: its estimates are folded into the hops' combinations
_KERNEL_CALLS_PER_HOP = {"ddpm": (1, 1), "ddim": (1, 1), "dpm1": (1, 1), "dpm2": (2, 2),
                         "dpmpp2m": (2, 2), "unipc2": (3, 4)}


@pytest.mark.parametrize("kind, eta", _KIND_ETAS)
def test_kernel_calls_per_hop(sched, monkeypatch, kind, eta):
    calls = []
    for name in k.__all__:
        def spy(*args, _kernel=getattr(k, name), **kwargs):
            calls.append(1)
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(k, name, spy)
    oracle = GaussianOracle(GaussianDataModel(mean=np.full((8, 8), 0.4), var=0.06), sched)
    x_init = np.random.default_rng(5).standard_normal((8, 8))
    for N in (2, 10):
        calls.clear()
        _run(kind, N, x_init, oracle, sched, eta=eta)
        first, later = _KERNEL_CALLS_PER_HOP[kind]
        # the terminal hop is one lincomb2, its evaluation folded
        folded = len(calls)
        assert folded == 1 + first + later * (N - 2)
        # unfolded, each evaluation is the oracle's own lincomb2
        calls.clear()
        _run(kind, N, x_init, CountingPredictor(oracle), sched, eta=eta)
        assert len(calls) == folded + evaluations_per_run(kind, N)


# distinct latent-shaped arrays the kernels touch over a run: x_init, the
# prior mean, the estimate buffer, the two latents, then the noise draw
# (ddpm, ddim at eta > 0) or the multistep history pair (dpmpp2m, unipc2)
_FOOTPRINT = {("ddpm", 0.0): 6, ("ddim", 0.0): 5, ("ddim", 1.0): 6, ("dpm1", 0.0): 5,
              ("dpm2", 0.0): 5, ("dpmpp2m", 0.0): 7, ("unipc2", 0.0): 7}


@pytest.mark.parametrize("kind, eta", _KIND_ETAS)
def test_hop_footprint(sched, monkeypatch, kind, eta):
    shape = (16, 16)
    seen = set()

    def note(x):
        if isinstance(x, np.ndarray) and x.shape == shape:
            seen.add(x.__array_interface__["data"][0])

    for name in k.__all__:
        def spy(*args, _kernel=getattr(k, name), **kwargs):
            result = _kernel(*args, **kwargs)
            for x in args + tuple(kwargs.values()) + (result,):
                note(x)
            return result
        monkeypatch.setattr(k, name, spy)
    model = GaussianDataModel(mean=np.full(shape, 0.4), var=0.06)
    x_init = np.random.default_rng(5).standard_normal(shape)
    _run(kind, 10, x_init, GaussianOracle(model, sched), sched, eta=eta)
    assert len(seen) == _FOOTPRINT[(kind, eta)]


@pytest.mark.parametrize("kind, eta", _KIND_ETAS)
def test_runs_match_two_term_oracle(sched, kind, eta):
    # the oracles' estimates folded into the hops' combinations change only
    # their rounding against the oracles' own two-term estimates, evaluated
    # through the default bind. 2-step grids are left out: their one
    # internal hop T -> 1 cancels terms of a few hundred into an O(1)
    # latent, so the last rounding of an estimate moves the result ~1e-11 in
    # either form (both are that far from an extended-precision evaluation)
    rng = np.random.default_rng(43)
    for size in (8, 64):
        model = GaussianDataModel(mean=np.full((size, size), 0.4), var=0.06)
        low = rng.random((size, size))
        for pred in (GaussianOracle(model, sched), conditioned_oracle(model, 0.05, sched)):
            for regime in ("full", "ast", "inverted"):
                for n in (1, 10, 50):
                    spec = make_regime_spec(regime, n, kind, sched, eta=eta)
                    got, _ = reconstruct(spec, low, pred, sched, np.random.default_rng(n))
                    ref, _ = reconstruct(spec, low, CountingPredictor(pred), sched, np.random.default_rng(n))
                    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (size, regime, n)


@pytest.mark.parametrize("kind", ["ddpm", "ddim", "dpm1", "dpm2", "dpmpp2m", "unipc2"])
def test_no_norm_explosion(sched, toy, kind):
    model, pred, x_init = toy
    out = _run(kind, 25, x_init, pred, sched, seed=3)
    bound = 10.0 * math.sqrt(out.size * (1.0 + float(np.abs(model.mean).max()) ** 2))
    assert math.sqrt(float((out**2).sum())) <= bound


@pytest.mark.parametrize(
    "kind", ["ddpm", "ddim", "dpm1", "dpm2", "dpmpp2m", "unipc2"]
)
def test_evaluation_counts(sched, toy, kind):
    model, pred, x_init = toy
    counting = CountingPredictor(pred)
    _run(kind, 30, x_init, counting, sched, seed=5)
    assert counting.calls == evaluations_per_run(kind, 30)


def test_sampler_spec_validation(sched):
    grid = make_timestep_grid(100, 10, sched.T)
    with pytest.raises(ValueError):
        SamplerSpec(kind="euler", grid=grid)
    with pytest.raises(ValueError):
        SamplerSpec(kind="dpm1", grid=grid, eta=0.5)
    with pytest.raises(ValueError):
        SamplerSpec(kind="ddim", grid=grid, eta=-1.0)
    # a grid is a TimestepGrid, which rejects an empty grid itself
    for bad in ((), (10, 5, 1), [10, 5, 1]):
        with pytest.raises(ValueError, match=f"sampler grid must be a TimestepGrid, got {type(bad).__name__}"):
            SamplerSpec(kind="ddim", grid=bad)
    with pytest.raises(ValueError, match="empty timestep grid"):
        SamplerSpec(kind="ddim", grid=TimestepGrid(()))


def test_sampler_spec_rejects_eta_for_ddpm(sched):
    grid = make_timestep_grid(100, 10, sched.T)
    for eta in (0.5, 3.0):
        with pytest.raises(ValueError, match="eta applies only to ddim"):
            SamplerSpec(kind="ddpm", grid=grid, eta=eta)
    assert SamplerSpec(kind="ddpm", grid=grid).eta == 0.0


def _plan_reuse_case(sched):
    """Two specs on one grid, a second schedule with other betas and the
    calls that run them, each keyed by name: (run, fresh result)."""
    other = make_linear_schedule(sched.T, 2e-4, 0.03)
    grid = make_timestep_grid(200, 8, sched.T)
    specs = {"ddpm": SamplerSpec("ddpm", grid), "unipc2": SamplerSpec("unipc2", grid)}
    model = GaussianDataModel(mean=np.full((8, 8), 0.3), var=0.05)
    x = np.random.default_rng(21).random((8, 8))
    calls = {}
    for s_name, s in (("sched", sched), ("other", other)):
        pred = GaussianOracle(model, s, 0.05)
        for kind, spec in specs.items():
            calls[f"{kind}/{s_name}"] = (lambda spec=spec, s=s, pred=pred:
                                         run_sampler(spec, x, pred, x, s, rng=np.random.default_rng(5))[0])
        calls[f"invert/{s_name}"] = lambda s=s, pred=pred: ddim_invert(x, pred, x, s, grid)
    fresh = {}
    for name, call in calls.items():
        vars(samplers._last_plans).clear()
        fresh[name] = call()
    return calls, fresh


def test_kept_plans_never_go_stale(sched):
    # each sampling and inversion call keeps its plan; interleaving specs,
    # schedules and the two entry points must never run another call's plan
    calls, fresh = _plan_reuse_case(sched)
    order = ["ddpm/sched", "ddpm/sched", "unipc2/sched", "ddpm/sched", "ddpm/other", "ddpm/sched",
             "invert/sched", "unipc2/sched", "invert/sched", "invert/other", "unipc2/other",
             "invert/sched", "ddpm/other", "unipc2/sched"]
    for name in order:
        assert np.array_equal(calls[name](), fresh[name]), name
        assert set(vars(samplers._last_plans)) <= {"sampling", "inversion"}


def test_kept_plans_hold_under_concurrent_calls(sched):
    # more threads than cores, switching often, each call against its fresh result
    calls, fresh = _plan_reuse_case(sched)
    names = sorted(calls)

    def worker(w):
        picks = [names[(w + i) % len(names)] for i in range(30)]
        return [name for name in picks if not np.array_equal(calls[name](), fresh[name])]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            stale = [f.result(timeout=60) for f in [pool.submit(worker, w) for w in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    assert stale == [[]] * 4


@pytest.mark.parametrize("kind", ["ddpm", "ddim", "dpm1", "dpm2", "dpmpp2m", "unipc2", "invert"])
@pytest.mark.parametrize("steps, match", [
    ((1200, 500, 1), r"timestep 1200 outside \[0, 1000\]"),
    ((500, 250.5, 1), "alpha_bar needs an integral timestep, got 250.5"),
])
def test_bad_grid_steps_raise_while_a_plan_is_kept(sched, toy, kind, steps, match):
    _, pred, x = toy
    good = make_timestep_grid(500, 3, sched.T)
    if kind == "invert":
        run = lambda grid: ddim_invert(x, pred, None, sched, grid)
    else:
        run = lambda grid: run_sampler(SamplerSpec(kind, grid), x, pred, None, sched,
                                       rng=np.random.default_rng(0))[0]
    vars(samplers._last_plans).clear()
    ref = run(good)
    bad = TimestepGrid(steps=steps)
    for _ in range(2):  # a plan that failed to compile is not kept
        with pytest.raises(ValueError, match=match):
            run(bad)
    assert np.array_equal(run(good), ref)
