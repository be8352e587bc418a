import math
import sys

import numpy as np
import pytest

from astn import inversion, regimes, samplers
from astn.data import DosePair, PhantomSpec, generate_phantom, simulate_low_dose
from astn.denoiser import EpsilonPredictor, GaussianDataModel, GaussianOracle, conditioned_oracle
from astn.forward import q_sample
from astn.regimes import RegimeSpec, ast_n_latent, make_regime_spec, reconstruct, regime_sweep, sweep_cells
from astn.samplers import SamplerSpec, evaluations_per_run, sampler_step
from astn.schedule import make_linear_schedule, make_timestep_grid
from timing import median_ratios


class CountingPredictor(EpsilonPredictor):
    requires_condition = True

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def predict(self, x_t, t, cond=None):
        self.calls += 1
        return self.inner.predict(x_t, t, cond)


def _cond_oracle(sched, shape=(32, 32), prior_mean=0.5, prior_var=0.0625, noise=0.03):
    model = GaussianDataModel(mean=np.full(shape, prior_mean), var=prior_var)
    return conditioned_oracle(model, noise, sched)


def _pairs(count, size, dose, seed0=0):
    pairs = []
    for i in range(count):
        phantom = generate_phantom(PhantomSpec(size=size, n_ellipses=5, seed=seed0 + i))
        low = simulate_low_dose(phantom, dose, np.random.default_rng(1000 + i))
        pairs.append(DosePair(pair_id=f"p{i}", full_dose=phantom, low_dose=low,
                              dose_fraction=dose, seed=i))
    return pairs


def _psnr(a, b):
    return 10.0 * math.log10(1.0 / float(((a - b) ** 2).mean()))


@pytest.mark.parametrize("n", [10, 25, 50, 100, 150, 500])
def test_ast_latent_valid_at_standard_origins(sched, rng, n):
    img = rng.random((16, 16))
    lat = ast_n_latent(img, n, sched, rng)
    assert lat.shape == img.shape and np.isfinite(lat).all()


@pytest.mark.parametrize("n", [10, 25, 50, 100, 150, 500])
def test_ast_latent_matches_forward_marginal_moments(sched, n):
    rng = np.random.default_rng(n)
    img = np.full((8, 8), 0.6)
    draws = np.array([ast_n_latent(img, n, sched, rng) for _ in range(4000)])
    ab = sched.alpha_bar(n)
    sigma = math.sqrt(1 - ab)
    se_mean = sigma / math.sqrt(draws.shape[0])
    assert np.abs(draws.mean(axis=0) - math.sqrt(ab) * 0.6).max() <= 5 * se_mean + 1e-9
    se_var = (1 - ab) * math.sqrt(2.0 / (draws.shape[0] - 1))
    assert np.abs(draws.var(axis=0, ddof=1) - (1 - ab)).max() <= 5 * se_var + 1e-9


def test_ast_latent_at_T_is_standard_normal(sched):
    rng = np.random.default_rng(2)
    img = rng.random((100, 100))
    lat = ast_n_latent(img, 1000, sched, rng)
    n = lat.size
    assert abs(lat.mean()) <= 5.0 / math.sqrt(n) + 0.01
    assert abs(lat.var() - 1.0) <= 5.0 * math.sqrt(2.0 / (n - 1)) + 0.01


def test_ast_latent_zero_eps_hook(sched, rng):
    img = rng.random((8, 8))
    lat = ast_n_latent(img, 150, sched, np.random.default_rng(4))
    eps = np.random.default_rng(4).standard_normal(img.shape)
    assert np.array_equal(lat, q_sample(img, 150, eps, sched))


def test_ast_latent_range_errors(sched, rng):
    img = rng.random((4, 4))
    with pytest.raises(ValueError):
        ast_n_latent(img, 0, sched, rng)
    with pytest.raises(ValueError):
        ast_n_latent(img, 1001, sched, rng)


def test_regime_spec_grid_validation(sched):
    good = make_timestep_grid(150, 150, sched.T)
    bad = make_timestep_grid(150, 50, sched.T)
    assert RegimeSpec(regime="ast", sampler=SamplerSpec(kind="ddim", grid=good)).n_or_N == 150
    with pytest.raises(ValueError):
        RegimeSpec(regime="ast", sampler=SamplerSpec(kind="ddim", grid=bad))
    with pytest.raises(ValueError):
        RegimeSpec(regime="warm", sampler=SamplerSpec(kind="ddim", grid=good))


def test_ast1_perfect_condition_returns_low_dose(sched):
    rng = np.random.default_rng(5)
    low = rng.random((16, 16))
    pred = _cond_oracle(sched, shape=(16, 16), noise=0.0)
    spec = make_regime_spec("ast", 1, "ddim", sched)
    out, _ = reconstruct(spec, low, pred, sched, np.random.default_rng(6))
    assert math.sqrt(float(((out - low) ** 2).mean())) < 1e-6


def test_ast_counts_predictor_evaluations(sched):
    low = np.random.default_rng(7).random((16, 16))
    pred = _cond_oracle(sched, shape=(16, 16))
    for kind in ("ddpm", "ddim", "dpm1", "dpm2", "dpmpp2m", "unipc2"):
        counting = CountingPredictor(pred)
        spec = make_regime_spec("ast", 40, kind, sched)
        reconstruct(spec, low, counting, sched, np.random.default_rng(8))
        assert counting.calls == evaluations_per_run(kind, 40)


def test_ast_flatness_across_origins(sched):
    pairs = _pairs(4, 32, 0.25)
    pred = _cond_oracle(sched)
    vals = []
    for n in (25, 150, 500):
        spec = make_regime_spec("ast", n, "ddim", sched)
        ps = []
        for i, pair in enumerate(pairs):
            out, _ = reconstruct(spec, pair.low_dose, pred, sched, np.random.default_rng(20 + i))
            ps.append(_psnr(pair.full_dose, out))
        vals.append(sum(ps) / len(ps))
    assert max(vals) - min(vals) < 1.0


def test_full_noise_coarse_grids_degrade_distribution(sched):
    # toy analogue of the pronounced quality drop at few-step full-noise
    # sampling: deviation of the output dispersion from the data model grows
    model = GaussianDataModel(mean=np.full((16, 16), 0.4), var=0.36)
    from astn.denoiser import GaussianOracle

    pred = GaussianOracle(model, sched)
    ideal = math.sqrt(0.36)

    def score(n_steps, i):
        spec = make_regime_spec("full", n_steps, "ddpm", sched)
        rng = np.random.default_rng(10_000 + i)
        out, _ = reconstruct(spec, model.mean, pred, sched, rng)
        return abs(math.sqrt(float(((out - model.mean) ** 2).mean())) - ideal)

    d150 = np.array([score(150, i) for i in range(30)])
    d1000 = np.array([score(1000, i) for i in range(30)])
    assert d150.mean() > d1000.mean()


def test_sweep_cells_order_and_specs(sched):
    cells = sweep_cells(("full", "ast"), ["ddim", "ddpm"], [10, 25], sched, eta=0.3)
    assert [(c.regime, c.sampler.kind, c.n_or_N) for c in cells] == [
        (r, k, n) for r in ("full", "ast") for k in ("ddim", "ddpm") for n in (10, 25)
    ]
    assert cells[0] == make_regime_spec("full", 10, "ddim", sched, eta=0.3)
    assert [c.sampler.eta for c in cells[:4]] == [0.3, 0.3, 0.0, 0.0]


def test_make_regime_spec_rejects_eta_beyond_ddim_sigma(sched):
    with pytest.raises(ValueError, match=r"^eta must be <= 1, got 1.5$"):
        make_regime_spec("full", 10, "ddim", sched, eta=1.5)
    # every other kind runs at eta 0
    assert make_regime_spec("full", 10, "ddpm", sched, eta=1.5).sampler.eta == 0.0


def test_eta_above_one_has_one_message_at_every_entry(sched):
    grid = make_timestep_grid(1000, 10, 1000)
    x = np.zeros((4, 4))
    entries = {
        "SamplerSpec": lambda: SamplerSpec("ddim", grid, eta=1.5),
        "sampler_step": lambda: sampler_step("ddim", x, 500, 400, None, None, sched, eta=1.5),
        "make_regime_spec": lambda: make_regime_spec("ast", 10, "ddim", sched, eta=1.5),
        # the sweep's eta is checked whether or not a ddim cell reads it
        "sweep_cells": lambda: sweep_cells(["full"], ["ddpm"], [10], sched, eta=1.5),
    }
    for name, call in entries.items():
        with pytest.raises(ValueError, match=r"^eta must be <= 1, got 1.5$"):
            call()


# (T, beta_start, beta_end, full-noise steps): schedules on which eta = 1
# once computed 1 - ab_u - sigma^2 below 0 on a hop whose exact value is >= 0
_STEEP = [(4000, 1e-4, 0.1, 5), (200, 1e-3, 0.6, 3)]


@pytest.mark.parametrize("T, beta_start, beta_end, n", _STEEP, ids=["T4000-full5", "T200-full3"])
def test_eta_one_runs_on_steep_schedules(T, beta_start, beta_end, n):
    sched = make_linear_schedule(T, beta_start, beta_end)
    spec = make_regime_spec("full", n, "ddim", sched, eta=1.0)
    pair = _pairs(1, 32, 0.25)[0]
    out, _ = reconstruct(spec, pair.low_dose, _cond_oracle(sched), sched, np.random.default_rng(3))
    assert spec.sampler.eta == 1.0 and np.isfinite(out).all()


def test_make_regime_spec_compiles_no_plan(sched, monkeypatch):
    compiled = []
    # regimes is patched too, in case it holds a reference of its own
    for module in (samplers, regimes):
        monkeypatch.setattr(module, "_plan", lambda *args: compiled.append(args), raising=False)
    make_regime_spec("full", 10, "ddim", sched, eta=0.5)
    sweep_cells(["full", "ast"], ["ddim", "ddpm"], [10, 25], sched, eta=0.5)
    assert compiled == []


@pytest.mark.parametrize("regimes, kinds, origins, eta, message", [
    (["warm"], ["ddim"], [10], 0.0, "unknown regime 'warm'"),
    (["full"], ["euler"], [10], 0.0, "unknown sampler kind 'euler'"),
    (["full"], ["ddim"], [0], 0.0, r"origin/budget 0 outside \[1, T=1000\]"),
    (["ast"], ["ddim"], [1001], 0.0, r"origin/budget 1001 outside \[1, T=1000\]"),
    (["full"], ["ddpm"], [10], -0.5, "eta must be >= 0, got -0.5"),
    (["full"], ["ddpm"], [10], math.nan, "eta must be >= 0, got nan"),
    (["full"], ["ddpm", "ddim"], [10], 1.5, "eta must be <= 1, got 1.5"),
    ([], ["ddim"], [10], 0.0, "sweep lists no regime"),
    (["full"], [], [10], 0.0, "sweep lists no sampler"),
    (["ast"], ["ddim"], [], 0.0, "sweep lists no origin/budget"),
])
def test_sweep_cells_reject_bad_inputs(sched, regimes, kinds, origins, eta, message):
    with pytest.raises(ValueError, match=message):
        sweep_cells(regimes, kinds, origins, sched, eta=eta)


def test_sweep_rejects_images_too_small_to_score_before_any_cell(sched, monkeypatch):
    ran = []
    monkeypatch.setattr(regimes, "reconstruct", lambda *args, **kw: ran.append(args))
    small = _pairs(2, 32, 0.25)
    small[1] = DosePair(pair_id="tiny", full_dose=np.full((8, 8), 0.5), low_dose=np.full((8, 8), 0.5),
                        dose_fraction=0.25, seed=0)
    cells = sweep_cells(["full", "ast"], ["ddim"], [5, 10], sched)
    with pytest.raises(ValueError, match=r"^pair tiny's image is \(8, 8\), but ssim scores only 2-d images "
                                         r"of at least \(11, 11\)$"):
        regime_sweep(cells, small, _cond_oracle(sched), sched, master_seed=1)
    assert ran == []


def test_sweep_rejects_empty_cell_list(sched):
    with pytest.raises(ValueError, match="sweep lists no cell"):
        regime_sweep([], _pairs(1, 32, 0.25), _cond_oracle(sched), sched, master_seed=1)


def test_sweep_single_cell_single_row(sched):
    pairs = _pairs(1, 32, 0.25)
    pred = _cond_oracle(sched)
    report = regime_sweep(sweep_cells(["ast"], ["ddim"], [50], sched), pairs, pred, sched, master_seed=1)
    assert len(report.rows) == 1 and not report.failures
    row = report.rows[0]
    assert (row.regime, row.sampler, row.steps) == ("ast", "ddim", 50)
    assert math.isfinite(row.psnr_db) and math.isfinite(row.time_s)


def test_sweep_smoke_grid_finite_metrics(sched):
    pairs = _pairs(2, 32, 0.25)
    pred = _cond_oracle(sched)
    cells = sweep_cells(("full", "ast"), ["ddim", "unipc2"], [10, 25], sched)
    report = regime_sweep(cells, pairs, pred, sched, master_seed=3)
    assert len(report.rows) == 8 and not report.failures
    for row in report.rows:
        assert math.isfinite(row.psnr_db) and math.isfinite(row.rmse)
        assert -1.0 <= row.ssim <= 1.0 and row.time_s >= 0.0


def test_sweep_is_reproducible_and_thread_invariant(sched):
    pairs = _pairs(2, 32, 0.25)
    pred = _cond_oracle(sched)
    kinds = ["ddpm", "ddim", "dpm1", "dpm2", "dpmpp2m", "unipc2"]
    cells = sweep_cells(("full", "ast", "inverted"), kinds, [10, 25], sched)
    a = regime_sweep(cells, pairs, pred, sched, master_seed=9)
    b = regime_sweep(cells, pairs, pred, sched, master_seed=9)
    c = regime_sweep(cells, pairs, pred, sched, master_seed=9, threads=3)
    assert len(a.rows) == len(c.rows) == 3 * len(kinds) * 2 and not c.failures
    assert (a.threads, c.threads) == (1, 3)
    for other in (b, c):
        for ra, rb in zip(a.rows, other.rows):
            assert (ra.psnr_db, ra.rmse, ra.ssim) == (rb.psnr_db, rb.rmse, rb.ssim)


@pytest.mark.parametrize("threads", [2, 3])
def test_threaded_sweep_compiles_each_cell_once(sched, monkeypatch, threads):
    # each thread keeps its own last plans, so threads switching often never
    # evict each other's: one sampling plan per cell, one inversion plan per
    # inverted cell
    compiled = []
    for module in (samplers, inversion):
        def counting(*args, _plan=module._plan, _name=module.__name__):
            compiled.append(_name)
            return _plan(*args)
        monkeypatch.setattr(module, "_plan", counting)
    kinds = ["ddpm", "ddim", "dpm1", "dpm2", "dpmpp2m", "unipc2"]
    cells = sweep_cells(("full", "ast", "inverted"), kinds, [10, 25], sched)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = regime_sweep(cells, _pairs(4, 32, 0.25), _cond_oracle(sched), sched,
                              master_seed=9, threads=threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(report.rows) == len(cells) == 36 and not report.failures
    counts = {name: compiled.count(name) for name in ("astn.samplers", "astn.inversion")}
    assert counts == {"astn.samplers": 36, "astn.inversion": 12}, counts


def _metrics(report):
    return [(r.regime, r.sampler, r.steps, r.psnr_db, r.rmse, r.ssim) for r in report.rows]


def test_sweep_takes_a_callable_predictor_as_itself(sched):
    # anything with bind is the predictor of every pair, even if it is callable
    class CallableOracle(GaussianOracle):
        def __call__(self, x_t, t):
            return self.predict(x_t, t)

    plain = _cond_oracle(sched)
    called = CallableOracle(plain.model, plain.sched, plain.noise_level)
    pairs = _pairs(2, 32, 0.25)
    cells = sweep_cells(("full", "ast"), ["ddim"], [10], sched)
    got = regime_sweep(cells, pairs, called, sched, master_seed=6)
    assert not got.failures
    assert _metrics(got) == _metrics(regime_sweep(cells, pairs, plain, sched, master_seed=6))


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_calls_a_factory_once_per_pair(sched, threads):
    pairs = _pairs(3, 32, 0.25)
    pred = _cond_oracle(sched)
    seen = []

    def factory(pair):
        seen.append(pair.pair_id)
        return pred

    cells = sweep_cells(("full", "ast"), ["ddim", "dpm1"], [10], sched)
    got = regime_sweep(cells, pairs, factory, sched, master_seed=8, threads=threads)
    assert seen == ["p0", "p1", "p2"] and len(got.rows) == 4
    assert _metrics(got) == _metrics(regime_sweep(cells, pairs, pred, sched, master_seed=8))


def test_sweep_factory_error_stops_before_any_cell(sched):
    def factory(pair):
        raise ValueError(f"no predictor for {pair.pair_id}")

    with pytest.raises(ValueError, match="no predictor for p0"):
        regime_sweep(sweep_cells(["ast"], ["ddim"], [5], sched), _pairs(1, 32, 0.25), factory, sched,
                     master_seed=1)


def test_sweep_eta_applies_to_ddim_cells_only(sched):
    pairs = _pairs(1, 32, 0.25)
    pred = _cond_oracle(sched)
    kinds = ["ddpm", "ddim", "unipc2"]
    base = regime_sweep(sweep_cells(["ast"], kinds, [10], sched), pairs, pred, sched, master_seed=4)
    noisy = regime_sweep(sweep_cells(["ast"], kinds, [10], sched, eta=0.5), pairs, pred, sched, master_seed=4)
    assert len(noisy.rows) == 3 and not noisy.failures
    for ra, rb in zip(base.rows, noisy.rows):
        same = (ra.psnr_db, ra.rmse, ra.ssim) == (rb.psnr_db, rb.rmse, rb.ssim)
        assert ra.sampler == rb.sampler and same == (ra.sampler != "ddim")


def test_sweep_records_cell_failures(sched):
    pairs = _pairs(1, 32, 0.25)

    class Broken(EpsilonPredictor):
        def predict(self, x_t, t, cond=None):
            raise RuntimeError("synthetic failure")

    report = regime_sweep(sweep_cells(["ast"], ["ddim"], [5], sched), pairs, Broken(), sched, master_seed=1)
    assert not report.rows
    assert len(report.failures) == 1
    assert report.failures[0][0] == ("ast", "ddim", 5)
    assert "synthetic failure" in report.failures[0][1]


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_propagates_programming_errors(sched, threads):
    pairs = _pairs(1, 32, 0.25)

    class Buggy(EpsilonPredictor):
        def predict(self, x_t, t, cond=None):
            raise TypeError("synthetic bug")

    with pytest.raises(TypeError, match="synthetic bug"):
        regime_sweep(sweep_cells(["ast"], ["ddim"], [5], sched), pairs, Buggy(), sched, master_seed=1,
                     threads=threads)


def test_sweep_timing_scales_with_steps(sched):
    pairs = _pairs(1, 64, 0.25)
    pred = _cond_oracle(sched, shape=(64, 64))
    cells = sweep_cells(["full"], ["ddim"], [150, 1000], sched)

    def cell_times():
        # the 150- and 1000-step cells run back to back within one sweep
        return [r.time_s for r in regime_sweep(cells, pairs, pred, sched, master_seed=4).rows]

    (ratio,), rounds = median_ratios(cell_times)
    assert 0.10 <= ratio <= 0.25, rounds


def test_sweep_rejects_empty_dataset(sched):
    with pytest.raises(ValueError):
        regime_sweep(sweep_cells(["full"], ["ddim"], [5], sched), [], _cond_oracle(sched), sched,
                     master_seed=0)


@pytest.mark.parametrize("threads", [0, -1])
def test_sweep_rejects_thread_count_below_one(sched, threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        regime_sweep(sweep_cells(["full"], ["ddim"], [5], sched), _pairs(1, 32, 0.25), _cond_oracle(sched),
                     sched, master_seed=0, threads=threads)


@pytest.mark.parametrize("origins, samplers, regimes", [
    ([10, 10], ["ddim"], ("full",)),
    ([10], ["ddim", "ddim"], ("full",)),
    ([10], ["ddim"], ("ast", "ast")),
])
def test_sweep_rejects_repeated_cells(sched, origins, samplers, regimes):
    # seeds are keyed on a cell's position, so a repeat would score twice, differently
    with pytest.raises(ValueError, match="sweep cells repeat"):
        sweep_cells(regimes, samplers, origins, sched)


def test_sweep_rejects_repeated_given_cells(sched):
    cells = sweep_cells(["full"], ["ddim"], [10], sched) * 2
    with pytest.raises(ValueError, match=r"sweep cells repeat: cell \('full', 'ddim', 10\)"):
        regime_sweep(cells, _pairs(1, 32, 0.25), _cond_oracle(sched), sched, master_seed=0)
