"""Acceptance gate: exact algebraic identities, statistical oracles, and the
relational quality/timing claims, each with its stated tolerance and runtime
budget. Run with -s to see one summary line per criterion."""

import math
import time

import numpy as np
import pytest

from astn.data import PhantomSpec, DosePair, generate_phantom, simulate_low_dose, read_image, write_image
from astn.denoiser import (
    GaussianDataModel,
    GaussianOracle,
    conditioned_oracle,
    train_affine_predictor,
)
from astn.forward import marginal_moments, q_sample, training_loss
from astn.inversion import ddim_invert
from astn.metrics import psnr, rmse, ssim
from astn.regimes import RegimeSpec, make_regime_spec, reconstruct, regime_sweep, sweep_cells
from astn.samplers import SamplerSpec, run_sampler, sampler_step
from astn.schedule import make_linear_schedule, make_timestep_grid
from timing import interleaved_ratios

ALL_KINDS = ("ddpm", "ddim", "dpm1", "dpm2", "dpmpp2m", "unipc2")


@pytest.fixture(scope="module")
def sched():
    return make_linear_schedule(1000)


def _report(name, detail, elapsed, budget):
    print(f"[ACCEPTANCE] {name} PASS ({detail}) in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert elapsed < budget


def _run(kind, N, x_init, pred, sched, seed=1, origin=1000):
    spec = SamplerSpec(kind=kind, grid=make_timestep_grid(origin, N, sched.T))
    out, _ = run_sampler(spec, x_init, pred, None, sched, rng=np.random.default_rng(seed))
    return out


def test_criterion_1_forward_marginal(sched):
    t0 = time.perf_counter()
    x0 = np.full((8, 8), 0.5)
    worst = 0.0
    for t in (1, 150, 500, 1000):
        rng = np.random.default_rng(200 + t)
        n = 10_000
        draws = np.empty((n,) + x0.shape)
        for i in range(n):
            draws[i] = q_sample(x0, t, rng.standard_normal(x0.shape), sched)
        mean_expect, var_expect = marginal_moments(x0, t, sched)
        se_mean = math.sqrt(var_expect) / math.sqrt(n)
        se_var = var_expect * math.sqrt(2.0 / (n - 1))
        mean_dev = float(np.abs(draws.mean(axis=0) - mean_expect).max())
        var_dev = float(np.abs(draws.var(axis=0, ddof=1) - var_expect).max())
        assert mean_dev <= 5 * se_mean
        assert var_dev <= 5 * se_var
        worst = max(worst, mean_dev / se_mean, var_dev / se_var)
    _report("C1 forward-marginal", f"worst deviation {worst:.2f} SE over t in {{1,150,500,1000}}",
            time.perf_counter() - t0, 10)


def test_criterion_2_exact_round_trips(sched):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    x0 = rng.random((8, 8))
    pred = GaussianOracle(GaussianDataModel(x0, 0.0), sched)
    eps = rng.standard_normal((8, 8))
    step_err = 0.0
    for t, u in [(1000, 500), (700, 150), (150, 10), (10, 1), (2, 1)]:
        got = sampler_step("ddim", q_sample(x0, t, eps, sched), t, u, pred, None, sched)
        step_err = max(step_err, float(np.abs(got - q_sample(x0, u, eps, sched)).max()))
    assert step_err <= 1e-10

    grid = make_timestep_grid(1000, 1000, sched.T)
    latent = ddim_invert(x0, pred, None, sched, grid)
    out, _ = run_sampler(SamplerSpec(kind="ddim", grid=grid), latent, pred, None, sched)
    rt = math.sqrt(float(((out - x0) ** 2).mean()))
    assert rt < 1e-6
    _report("C2 exact round trips", f"step err {step_err:.1e}, 1000-step round trip rmse {rt:.1e}",
            time.perf_counter() - t0, 30)


def test_criterion_3_solver_identities_and_orders(sched):
    t0 = time.perf_counter()
    model = GaussianDataModel(mean=np.full((8, 8), 0.3), var=0.5)
    pred = GaussianOracle(model, sched)
    x_init = np.random.default_rng(31).standard_normal((8, 8))

    # DPM-Solver-1 and deterministic DDIM coincide along whole trajectories
    ident = 0.0
    grid = make_timestep_grid(1000, 100, sched.T)
    x_d, x_s = x_init.copy(), x_init.copy()
    hops = list(zip(grid.steps[:-1], grid.steps[1:])) + [(grid.steps[-1], 0)]
    for t, u in hops:
        x_d = sampler_step("ddim", x_d, t, u, pred, None, sched)
        x_s = sampler_step("dpm1", x_s, t, u, pred, None, sched)
        ident = max(ident, float(np.abs(x_d - x_s).max()))
    assert ident < 1e-8

    ref = _run("unipc2", 1000, x_init, pred, sched)
    step_counts = (25, 50, 100, 200)
    slopes = {}
    for kind in ("ddim", "dpm1", "dpm2", "dpmpp2m", "unipc2"):
        errs = [
            math.sqrt(float(((_run(kind, N, x_init, pred, sched) - ref) ** 2).mean()))
            for N in step_counts
        ]
        slopes[kind] = float(np.polyfit(np.log(step_counts), np.log(errs), 1)[0])
    assert -1.3 <= slopes["ddim"] <= -0.7
    assert -1.3 <= slopes["dpm1"] <= -0.7
    for kind in ("dpm2", "dpmpp2m", "unipc2"):
        assert slopes[kind] <= -1.6
    detail = ", ".join(f"{k} {v:.2f}" for k, v in slopes.items())
    _report("C3 identities+orders", f"dpm1-ddim diff {ident:.1e}; slopes {detail}",
            time.perf_counter() - t0, 120)


def test_criterion_4_training_objective(sched):
    t0 = time.perf_counter()
    model = GaussianDataModel(mean=np.zeros((8, 8)), var=1.0)
    pred = train_affine_predictor(
        model, "none", sched, lr=0.3, lr_final=5e-4, iterations=150_000, batch=64,
        rng=np.random.default_rng(41),
    )
    worst_a = worst_b = 0.0
    for t in (1, 150, 500, 1000):
        a_star = math.sqrt(1.0 - sched.alpha_bar(t))
        worst_a = max(worst_a, abs(float(pred.a[t]) - a_star))
        worst_b = max(worst_b, math.sqrt(float((pred.b[t] ** 2).mean())))
    assert worst_a <= 0.02
    assert worst_b <= 0.02

    rng = np.random.default_rng(42)
    x0_batch = list(model.sample(rng, 60))
    oracle_loss = training_loss(GaussianOracle(model, sched), x0_batch, None, sched,
                                np.random.default_rng(43))
    affine_loss = training_loss(pred, x0_batch, None, sched, np.random.default_rng(43))
    assert affine_loss <= 1.05 * oracle_loss
    _report("C4 training objective",
            f"worst |a-a*| {worst_a:.4f}, worst rms(b) {worst_b:.4f}, "
            f"loss ratio {affine_loss / oracle_loss:.4f}",
            time.perf_counter() - t0, 120)


def test_criterion_5_ast_flatness(sched):
    t0 = time.perf_counter()
    pairs = []
    for i in range(8):
        phantom = generate_phantom(PhantomSpec(size=64, n_ellipses=6, seed=500 + i))
        for frac in (0.25, 0.10):
            low = simulate_low_dose(phantom, frac, np.random.default_rng(900 + i))
            pairs.append(DosePair(pair_id=f"p{i}_{frac}", full_dose=phantom,
                                  low_dose=low, dose_fraction=frac, seed=i))
    assert len(pairs) == 16
    model = GaussianDataModel(mean=np.full((64, 64), 0.5), var=0.0625)

    def factory(pair):
        level = math.sqrt(0.5 / (pair.dose_fraction * 4096))
        return conditioned_oracle(model, level, sched)

    origins = (10, 25, 50, 100, 150, 500)
    report = regime_sweep(sweep_cells(("full", "ast"), ALL_KINDS, origins, sched), pairs, factory, sched,
                          master_seed=2024)
    # smoke property: the full origin x sampler x regime grid completes with
    # finite metrics in every cell
    assert not report.failures
    assert len(report.rows) == len(origins) * len(ALL_KINDS) * 2
    assert all(math.isfinite(r.psnr_db) and math.isfinite(r.rmse) for r in report.rows)
    worst_spread = 0.0
    worst_drop = -math.inf
    for kind in ALL_KINDS:
        by_n = {r.steps: r.psnr_db for r in report.rows
                if r.sampler == kind and r.regime == "ast"}
        flat = [by_n[n] for n in (25, 50, 100, 150, 500)]
        spread = max(flat) - min(flat)
        assert spread < 1.0
        drop = by_n[150] - by_n[10]
        assert drop <= 3.0
        worst_spread = max(worst_spread, spread)
        worst_drop = max(worst_drop, drop)
    _report("C5 AST-n flatness",
            f"max spread {worst_spread:.2f} dB over origins 25..500; "
            f"worst AST-10 drop {worst_drop:.2f} dB",
            time.perf_counter() - t0, 300)


def test_criterion_6_standard_scheduling_degradation(sched):
    t0 = time.perf_counter()
    stats = pytest.importorskip("scipy.stats")
    model = GaussianDataModel(mean=np.full((16, 16), 0.4), var=0.36)
    pred = GaussianOracle(model, sched)
    ideal = math.sqrt(0.36)

    def dispersion_deviation(n_steps, i):
        spec = make_regime_spec("full", n_steps, "ddpm", sched)
        out, _ = reconstruct(spec, model.mean, pred, sched, np.random.default_rng(40_000 + i))
        return abs(math.sqrt(float(((out - model.mean) ** 2).mean())) - ideal)

    n_trials = 110
    d25 = np.array([dispersion_deviation(25, i) for i in range(n_trials)])
    d1000 = np.array([dispersion_deviation(1000, i) for i in range(n_trials)])
    result = stats.ttest_rel(d25, d1000, alternative="greater")
    assert d25.mean() > d1000.mean()
    assert result.pvalue < 0.01
    _report("C6 few-step degradation",
            f"N=25 deviation {d25.mean():.3f} vs N=1000 {d1000.mean():.3f}, "
            f"paired p={result.pvalue:.1e} over {n_trials} trials",
            time.perf_counter() - t0, 300)


def test_criterion_7_timing_ratios(sched):
    t0 = time.perf_counter()
    model = GaussianDataModel(mean=np.full((128, 128), 0.4), var=0.2)
    pred = GaussianOracle(model, sched)
    rng = np.random.default_rng(51)
    x_init = rng.standard_normal((128, 128))
    grid150 = make_timestep_grid(1000, 150, sched.T)
    grid1000 = make_timestep_grid(1000, 1000, sched.T)
    spec150 = SamplerSpec(kind="ddim", grid=grid150)
    spec1000 = SamplerSpec(kind="ddim", grid=grid1000)

    x_img = rng.random((128, 128))
    inverted = RegimeSpec("inverted", spec150)
    # the image conditions every side, as it does in the inverted regime
    (double, ratio), rounds = interleaved_ratios(
        [
            lambda: reconstruct(inverted, x_img, pred, sched, None),
            lambda: run_sampler(spec150, x_init, pred, x_img, sched),
            lambda: run_sampler(spec1000, x_init, pred, x_img, sched),
        ]
    )
    assert 0.10 <= ratio <= 0.25, rounds
    assert 2.0 * 0.75 <= double <= 2.0 * 1.25, rounds
    _report("C7 timing ratios",
            f"150/1000 steps ratio {ratio:.3f}; invert+reconstruct/reconstruct {double:.2f}",
            time.perf_counter() - t0, 120)


def test_criterion_8_metric_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(61)
    ref, test = rng.random((20, 20)), rng.random((20, 20))

    mse = sum(
        (ref[i, j] - test[i, j]) ** 2 for i in range(20) for j in range(20)
    ) / 400.0
    assert psnr(ref, test) == pytest.approx(10 * math.log10(1 / mse), abs=1e-12)
    assert rmse(ref, test) == pytest.approx(math.sqrt(mse), abs=1e-12)

    from test_metrics import _ssim_direct_reference

    assert ssim(ref, test) == pytest.approx(_ssim_direct_reference(ref, test), abs=1e-6)

    r = rmse(ref, test)
    assert psnr(ref, test) == pytest.approx(20 * math.log10(1.0 / r), abs=1e-10)

    base = rng.random((32, 32)) * 0.5 + 0.25
    noise = rng.standard_normal((32, 32))
    ps, ss, rs = [], [], []
    for amp in (0.01, 0.02, 0.05, 0.1, 0.2):
        noisy = base + amp * noise
        ps.append(psnr(base, noisy))
        ss.append(ssim(base, noisy))
        rs.append(rmse(base, noisy))
    assert all(a > b for a, b in zip(ps, ps[1:]))
    assert all(a > b for a, b in zip(ss, ss[1:]))
    assert all(a < b for a, b in zip(rs, rs[1:]))
    _report("C8 metric oracles", "psnr/rmse/ssim vs direct references, monotone degradation",
            time.perf_counter() - t0, 60)


def test_criterion_9_determinism_and_formats(sched, tmp_path):
    t0 = time.perf_counter()
    phantom = generate_phantom(PhantomSpec(size=32, n_ellipses=5, seed=77))
    low = simulate_low_dose(phantom, 0.25, np.random.default_rng(78))
    pair = DosePair(pair_id="p", full_dose=phantom, low_dose=low, dose_fraction=0.25, seed=0)
    model = GaussianDataModel(mean=np.full((32, 32), 0.5), var=0.0625)
    pred = conditioned_oracle(model, 0.03, sched)
    runs = [
        regime_sweep(sweep_cells(("full", "ast"), ["ddim", "ddpm"], [10, 25], sched), [pair], pred, sched,
                     master_seed=5)
        for _ in range(2)
    ]
    for ra, rb in zip(runs[0].rows, runs[1].rows):
        assert (ra.psnr_db, ra.rmse, ra.ssim, ra.seed) == (rb.psnr_db, rb.rmse, rb.ssim, rb.seed)

    img = np.random.default_rng(79).random((5, 7)).astype(np.float32).astype(np.float64)
    path = tmp_path / "img.bin"
    write_image(path, img)
    assert np.array_equal(read_image(path), img)
    header = path.read_bytes()[:16]
    assert header[:8] == b"ASTIMG01"
    assert int.from_bytes(header[8:12], "little") == 7
    assert int.from_bytes(header[12:16], "little") == 5
    _report("C9 determinism+formats", "bit-identical sweeps; ASTIMG01 round trip and header",
            time.perf_counter() - t0, 60)
