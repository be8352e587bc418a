import math
import re

import numpy as np
import pytest

from astn import _kernels as k
from astn.denoiser import (
    AffinePredictor,
    GaussianDataModel,
    GaussianOracle,
    ZeroPredictor,
    conditioned_oracle,
    train_affine_predictor,
)
from astn.forward import q_sample, training_loss
from astn.regimes import make_regime_spec, reconstruct
from astn.samplers import SAMPLER_KINDS, SamplerSpec, run_sampler
from astn.schedule import make_timestep_grid


def test_oracle_standard_normal_data(sched, rng):
    # m=0, s^2=1 collapses the denominator: E[eps|x_t] = sqrt(1-ab) x_t
    model = GaussianDataModel(mean=np.zeros((6, 6)), var=1.0)
    x_t = rng.standard_normal((6, 6))
    out = GaussianOracle(model, sched).predict(x_t, 400)
    assert np.allclose(out, math.sqrt(1 - sched.alpha_bar(400)) * x_t, atol=1e-14)


def test_oracle_deterministic_data_recovers_noise(sched, rng):
    x0 = rng.random((6, 6))
    eps = rng.standard_normal((6, 6))
    x_t = q_sample(x0, 250, eps, sched)
    out = GaussianOracle(GaussianDataModel(x0, 0.0), sched).predict(x_t, 250)
    assert np.abs(out - eps).max() < 1e-12


def test_oracle_matches_monte_carlo_regression(sched):
    # fit eps ~ slope * x_t + intercept over simulated pairs; the oracle's
    # affine form must match the regression within 2% coefficientwise
    rng = np.random.default_rng(11)
    for m, s2, t in [(0.3, 0.25, 150), (-0.2, 1.5, 500), (0.7, 0.04, 900)]:
        ab = sched.alpha_bar(t)
        n = 100_000
        x0 = m + math.sqrt(s2) * rng.standard_normal(n)
        eps = rng.standard_normal(n)
        x_t = math.sqrt(ab) * x0 + math.sqrt(1 - ab) * eps
        feats = np.stack([x_t, np.ones(n)], axis=1)
        (slope, intercept), *_ = np.linalg.lstsq(feats, eps, rcond=None)
        coef = math.sqrt(1 - ab) / (ab * s2 + 1 - ab)
        want_slope, want_intercept = coef, -coef * math.sqrt(ab) * m
        scale = abs(want_slope)
        assert slope == pytest.approx(want_slope, abs=0.02 * scale)
        assert intercept == pytest.approx(want_intercept, abs=0.02 * scale)


def test_conditioned_oracle_zero_noise_pins_condition(sched, rng):
    model = GaussianDataModel(mean=np.full((5, 5), 0.5), var=0.2)
    pred = conditioned_oracle(model, 0.0, sched)
    x0 = rng.random((5, 5))
    eps = rng.standard_normal((5, 5))
    x_t = q_sample(x0, 300, eps, sched)
    # perfect condition c = x0 reduces to the exact-noise formula around c
    out = pred.predict(x_t, 300, cond=x0)
    assert np.abs(out - eps).max() < 1e-12


def test_conditioned_oracle_infinite_noise_ignores_condition(sched, rng):
    model = GaussianDataModel(mean=np.full((5, 5), 0.5), var=0.2)
    pred = conditioned_oracle(model, math.inf, sched)
    base = GaussianOracle(model, sched)
    x_t = rng.standard_normal((5, 5))
    cond = rng.random((5, 5))
    assert np.array_equal(pred.predict(x_t, 200, cond=cond), base.predict(x_t, 200))


def test_conditioning_reduces_bayes_risk(sched):
    # Monte Carlo over 1e4+ pixels: conditional loss <= unconditional loss
    rng = np.random.default_rng(12)
    model = GaussianDataModel(mean=np.full((16, 16), 0.5), var=0.09)
    x0_batch = list(model.sample(rng, 48))
    cond_batch = [x + 0.1 * rng.standard_normal(x.shape) for x in x0_batch]
    cond_pred = conditioned_oracle(model, 0.1, sched)
    uncond = GaussianOracle(model, sched)
    loss_cond = training_loss(cond_pred, x0_batch, cond_batch, sched, np.random.default_rng(13))
    loss_uncond = training_loss(uncond, x0_batch, None, sched, np.random.default_rng(13))
    assert loss_cond <= loss_uncond


def test_oracle_is_bayes_optimal_among_tested_predictors(sched):
    rng = np.random.default_rng(14)
    model = GaussianDataModel(mean=np.full((12, 12), 0.2), var=0.5)
    x0_batch = list(model.sample(rng, 60))
    oracle = GaussianOracle(model, sched)
    others = [ZeroPredictor(), AffinePredictor.initial(sched.T, (12, 12))]
    oracle_loss = training_loss(oracle, x0_batch, None, sched, np.random.default_rng(15))
    # 3-standard-error slack on the shared-seed Monte Carlo comparison
    slack = 3.0 * 0.02
    for p in others:
        assert oracle_loss <= training_loss(p, x0_batch, None, sched, np.random.default_rng(15)) + slack


def test_predictors_preserve_shape_and_finiteness(sched, rng):
    x_t = rng.standard_normal((7, 9))
    cond = rng.random((7, 9))
    model = GaussianDataModel(mean=np.zeros((7, 9)), var=0.5)
    preds = [
        GaussianOracle(model, sched),
        conditioned_oracle(model, 0.2, sched),
        ZeroPredictor(),
        AffinePredictor.initial(sched.T, (7, 9), conditional=True),
    ]
    for p in preds:
        out = p.predict(x_t, 123, cond=cond)
        assert out.shape == x_t.shape
        assert np.isfinite(out).all()


def test_conditional_predictor_requires_condition(sched):
    model = GaussianDataModel(mean=np.zeros((4, 4)), var=1.0)
    pred = conditioned_oracle(model, 0.5, sched)
    with pytest.raises(ValueError):
        pred.predict(np.zeros((4, 4)), 10)


def _bind_cases(sched, rng, shape=(6, 5)):
    model = GaussianDataModel(mean=rng.random(shape), var=0.07)
    affine = AffinePredictor(
        a=rng.random(sched.T + 1), g=rng.random(sched.T + 1),
        b=rng.random((sched.T + 1,) + shape), conditional=True,
    )
    return {
        "gaussian_oracle": GaussianOracle(model, sched),
        "conditioned_noise0": conditioned_oracle(model, 0.0, sched),
        "conditioned_finite": conditioned_oracle(model, 0.05, sched),
        "conditioned_inf": conditioned_oracle(model, math.inf, sched),
        "affine_conditional": affine,
        "zero": ZeroPredictor(),
    }


@pytest.mark.parametrize("name", [
    "gaussian_oracle", "conditioned_noise0", "conditioned_finite", "conditioned_inf",
    "affine_conditional", "zero",
])
def test_bind_equals_predict(sched, rng, name):
    pred = _bind_cases(sched, rng)[name]
    cond = rng.random((6, 5))
    eps = pred.bind(cond)
    for t in (1, 2, 37, 500, 999, 1000, 123.37, 1.5):
        x_t = rng.standard_normal((6, 5))
        a, img, b = eps(x_t, t)
        assert np.array_equal(k.lincomb2(a, x_t, b, img), pred.predict(x_t, t, cond))


@pytest.mark.parametrize("name", ["conditioned_finite", "conditioned_inf", "affine_conditional"])
def test_bind_without_condition_raises(sched, rng, name):
    pred = _bind_cases(sched, rng)[name]
    with pytest.raises(ValueError, match="requires a condition"):
        pred.bind(None)


@pytest.mark.parametrize("name", ["conditioned_noise0", "conditioned_finite", "conditioned_inf"])
def test_bound_oracle_rejects_non_finite_condition(sched, rng, name):
    # every oracle that requires a condition checks it, even one that discards it
    cond = rng.random((6, 5))
    cond[2, 3] = math.nan
    with pytest.raises(ValueError, match="condition must be finite"):
        _bind_cases(sched, rng)[name].bind(cond)


def test_bound_oracle_checks_condition_shape(sched, rng):
    cases = _bind_cases(sched, rng)
    # latents are checked against the oracle's own mean, with or without a condition
    for eps in (cases["conditioned_finite"].bind(rng.random((6, 5))), cases["gaussian_oracle"].bind(None)):
        with pytest.raises(ValueError, match="mismatched shapes"):
            eps(np.zeros((5, 6)), 10)
    # a condition the predictor uses is checked when it is bound
    for name in ("conditioned_noise0", "conditioned_finite", "conditioned_inf", "affine_conditional"):
        with pytest.raises(ValueError, match="mismatched shapes"):
            cases[name].bind(rng.random((5, 6)))


def test_oracle_rejects_latent_of_another_shape(sched, rng):
    # (1, 8) broadcasts against the (8, 8) mean, which used to return an (8, 8) estimate
    pred = GaussianOracle(GaussianDataModel(mean=rng.random((8, 8)), var=0.1), sched)
    with pytest.raises(ValueError, match="mismatched shapes"):
        pred.predict(rng.standard_normal((1, 8)), 500)


@pytest.mark.parametrize("name", ["gaussian_oracle", "conditioned_noise0", "conditioned_finite"])
def test_bound_oracle_terms_describe_its_estimate(sched, rng, name):
    pred = _bind_cases(sched, rng)[name]
    cond = rng.random((6, 5))
    eps = pred.bind(cond)
    m, s2, nl = pred.model.mean, pred.model.var, pred.noise_level
    mean, var = m, s2
    if nl == 0.0:
        mean, var = cond, 0.0
    elif nl is not None:
        # the precision-weighted posterior moments of GaussianOracle's docstring
        var = 1.0 / (1.0 / s2 + 1.0 / nl**2)
        mean = var * (m / s2 + cond / nl**2)
    for t in (1, 2, 37, 500, 999, 1000):
        x_t = rng.standard_normal((6, 5))
        a, img, b = eps(x_t, t)
        ab = sched.alpha_bar_at(t)
        want = math.sqrt(1.0 - ab) * (x_t - math.sqrt(ab) * mean) / (ab * var + 1.0 - ab)
        assert np.abs(a * x_t + b * img - want).max() <= 1e-12 * np.abs(want).max()
    # at noise level 0 the posterior mean is the condition itself
    assert (img is cond) == (name == "conditioned_noise0")
    with pytest.raises(ValueError, match="mismatched shapes"):
        eps(np.zeros((5, 6)), 10)


@pytest.mark.parametrize("regime", ["full", "ast", "inverted"])
def test_reconstruct_at_noise_level_zero_leaves_condition_alone(sched, rng, regime):
    # the folded estimate reads the condition as the oracle's mean
    pred = conditioned_oracle(GaussianDataModel(mean=np.full((8, 8), 0.5), var=0.2), 0.0, sched)
    low = rng.random((8, 8))
    before = low.copy()
    for kind in SAMPLER_KINDS:
        reconstruct(make_regime_spec(regime, 10, kind, sched), low, pred, sched, np.random.default_rng(3))
        assert np.array_equal(low, before), kind


@pytest.mark.parametrize("conditional", [False, True])
def test_affine_rejects_latent_of_another_shape(sched, rng, conditional):
    # (1, 8) offsets broadcast into an (8, 8) latent, which used to sample to the end
    pred = AffinePredictor.initial(sched.T, (1, 8), conditional=conditional)
    spec = SamplerSpec(kind="ddim", grid=make_timestep_grid(sched.T, 10, sched.T))
    cond = rng.random((8, 8)) if conditional else None
    with pytest.raises(ValueError, match="mismatched shapes"):
        run_sampler(spec, rng.standard_normal((8, 8)), pred, cond, sched)


def test_affine_predict_math(sched, rng):
    pred = AffinePredictor.initial(sched.T, (4, 4), conditional=True)
    pred.a[77] = 0.5
    pred.g[77] = 0.25
    pred.b[77] = np.full((4, 4), -0.1)
    x = rng.standard_normal((4, 4))
    c = rng.random((4, 4))
    assert np.allclose(pred.predict(x, 77, cond=c), 0.5 * x + 0.25 * c - 0.1, atol=1e-15)
    # fractional timesteps round to the nearest table entry
    assert np.array_equal(pred.predict(x, 77.3, cond=c), pred.predict(x, 77, cond=c))
    with pytest.raises(ValueError):
        pred.predict(x, 0, cond=c)


def test_affine_save_load_roundtrip(tmp_path, rng):
    a = rng.standard_normal(9)
    g = rng.standard_normal(9)
    b = rng.standard_normal((9, 3, 4))
    a[3], b[5, 1, 2] = math.nan, math.nan
    pred = AffinePredictor(a=a, g=g, b=b, conditional=True)
    path = tmp_path / "model"
    pred.save(path)
    assert [p.name for p in tmp_path.iterdir()] == ["model"]  # no .npz suffix added
    loaded = AffinePredictor.load(path)
    # every row, the unused row 0 and NaN entries included, comes back bit for bit
    for name in "agb":
        assert getattr(loaded, name).tobytes() == getattr(pred, name).tobytes()
    assert loaded.conditional
    pred = AffinePredictor(a=a, g=g, b=b)
    pred.save(path)
    assert not AffinePredictor.load(path).conditional


def test_affine_load_detects_corruption(tmp_path, rng):
    pred = AffinePredictor(a=rng.random(4), g=rng.random(4), b=rng.random((4, 2, 2)))
    path = tmp_path / "model"
    pred.save(path)
    archive = path.read_bytes()

    def rejects(match):
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + match):
            AffinePredictor.load(path)

    # the tables are stored uncompressed, so b's data appears verbatim in the archive
    at = archive.index(pred.b.tobytes()) + pred.b.nbytes // 2
    path.write_bytes(archive[:at] + bytes([archive[at] ^ 1]) + archive[at + 1:])
    rejects("checksum.*Bad CRC-32 for file 'b.npy'")
    path.write_bytes(archive[: len(archive) // 2])
    rejects("damaged archive")
    path.write_text("astn-affine 1 3 2 2 0\n1 1.0 0.0 0.0 0.0 0.0 0.0 2144df1c\n")  # the earlier text format
    rejects("not an .npz archive")
    path.write_bytes(b"")
    rejects("not an .npz archive")
    with open(path, "wb") as f:
        np.save(f, pred.b)
    rejects("not an .npz archive")
    with open(path, "wb") as f:
        np.savez(f, a=pred.a, g=pred.g, conditional=False)
    rejects("b is not a file in the archive")
    with open(path, "wb") as f:
        np.savez(f, a=pred.a[1:], g=pred.g, b=pred.b, conditional=False)
    rejects(re.escape("coefficient tables must be"))
    with pytest.raises(FileNotFoundError):
        AffinePredictor.load(tmp_path / "missing")


@pytest.mark.parametrize("a, g, b", [
    (np.ones(4), np.ones(3), np.zeros((4, 2, 2))),
    (np.ones(4), np.ones(4), np.zeros((3, 2, 2))),
    (np.ones(4), np.ones(4), np.zeros((4, 2))),
    (np.ones((4, 1)), np.ones((4, 1)), np.zeros((4, 2, 2))),
], ids=["g_length", "b_length", "b_2d", "a_2d"])
def test_affine_rejects_mismatched_tables(a, g, b):
    with pytest.raises(ValueError, match="coefficient tables must be"):
        AffinePredictor(a=a, g=g, b=b)


def test_train_lr_zero_keeps_initialisation(sched_small):
    model = GaussianDataModel(mean=np.zeros((4, 4)), var=1.0)
    pred = train_affine_predictor(
        model, "none", sched_small, lr=0.0, iterations=50, batch=2,
        rng=np.random.default_rng(0),
    )
    assert np.array_equal(pred.a[1:], np.ones(sched_small.T))
    assert not pred.b.any()


def test_train_matches_oracle_on_restricted_steps(sched):
    # m = 0.5 const, s^2 = 0.01: the fitted coefficients approach the
    # closed-form optimum a* = sqrt(1-ab)/(ab s^2 + 1-ab), b* = -a* sqrt(ab) m
    steps = (150, 500, 1000)
    model = GaussianDataModel(mean=np.full((6, 6), 0.5), var=0.01)
    pred = train_affine_predictor(
        model, "none", sched, lr=0.5, lr_final=0.005, iterations=2400, batch=24,
        rng=np.random.default_rng(21), timesteps=steps,
    )
    for t in steps:
        ab = sched.alpha_bar(t)
        a_star = math.sqrt(1 - ab) / (ab * 0.01 + 1 - ab)
        b_star = -a_star * math.sqrt(ab) * 0.5
        assert pred.a[t] == pytest.approx(a_star, abs=0.02)
        assert np.abs(pred.b[t] - b_star).max() < 0.02


def test_train_sample_set_input(sched, rng):
    images = rng.random((10, 4, 4))
    pred = train_affine_predictor(
        images, "none", sched, lr=0.2, iterations=300, batch=4,
        rng=np.random.default_rng(2), timesteps=(500,),
    )
    assert pred.a.shape == (sched.T + 1,)


def test_train_conditional_gain_helps(sched):
    # with an informative condition the fitted g_t must beat the g=0 family
    model = GaussianDataModel(mean=np.full((6, 6), 0.4), var=0.09)
    steps = (200,)
    common = dict(lr=0.4, lr_final=0.01, iterations=1500, batch=16,
                  cond_noise=0.05, timesteps=steps)
    cond = train_affine_predictor(model, "concat", sched, rng=np.random.default_rng(3), **common)
    uncond = train_affine_predictor(model, "none", sched, rng=np.random.default_rng(3), **common)
    rng = np.random.default_rng(4)
    x0 = model.sample(rng, 64)
    eps = rng.standard_normal(x0.shape)
    ab = sched.alpha_bar(200)
    x_t = math.sqrt(ab) * x0 + math.sqrt(1 - ab) * eps
    c = x0 + 0.05 * rng.standard_normal(x0.shape)
    loss_c = float(((cond.a[200] * x_t + cond.g[200] * c + cond.b[200] - eps) ** 2).mean())
    loss_u = float(((uncond.a[200] * x_t + uncond.b[200] - eps) ** 2).mean())
    assert cond.g[200] != 0.0
    assert loss_c < loss_u


def test_train_epoch_losses_non_increasing(sched):
    model = GaussianDataModel(mean=np.zeros((4, 4)), var=1.0)
    pred = train_affine_predictor(
        model, "none", sched, lr=0.3, iterations=4000, batch=32,
        rng=np.random.default_rng(5), timesteps=tuple(range(50, 1001, 50)),
    )
    hist = pred.loss_history
    assert len(hist) >= 3
    # non-increasing over cycles within Monte Carlo noise: no cycle rises
    # meaningfully above the best seen so far, and the end beats the start
    best = hist[0]
    for loss in hist[1:]:
        assert loss <= best * 1.25 + 0.01
        best = min(best, loss)
    assert hist[-1] < hist[0]


def test_train_divergence_aborts(sched_small):
    model = GaussianDataModel(mean=np.zeros((4, 4)), var=1.0)
    with pytest.raises(RuntimeError, match="diverged"):
        train_affine_predictor(
            model, "none", sched_small, lr=50.0, iterations=2000, batch=2,
            rng=np.random.default_rng(6),
        )


def test_train_validation_errors(sched_small, rng):
    model = GaussianDataModel(mean=np.zeros((4, 4)), var=1.0)
    with pytest.raises(ValueError):
        train_affine_predictor(model, "stack", sched_small, rng=rng)
    with pytest.raises(ValueError):
        train_affine_predictor(model, "none", sched_small, iterations=0, rng=rng)
    with pytest.raises(ValueError):
        train_affine_predictor(model, "none", sched_small, timesteps=(0,), rng=rng)
    with pytest.raises(ValueError, match="sample-set data must be a stack of images"):
        train_affine_predictor(rng.random((4, 4)), "none", sched_small, rng=rng)


def test_gaussian_model_validation():
    with pytest.raises(ValueError):
        GaussianDataModel(mean=np.zeros((2, 2)), var=-1.0)
    with pytest.raises(ValueError, match="data variance must be finite, got inf"):
        GaussianDataModel(mean=np.zeros((2, 2)), var=math.inf)
    for bad in (math.nan, math.inf, -math.inf):
        mean = np.zeros((2, 2))
        mean[1, 0] = bad  # one non-finite entry is enough
        with pytest.raises(ValueError, match="data mean must be finite"):
            GaussianDataModel(mean=mean, var=0.1)


def test_gaussian_model_sample_at_zero_variance_is_the_mean(rng):
    mean = rng.random((3, 2))
    state = rng.bit_generator.state
    draws = GaussianDataModel(mean=mean, var=0.0).sample(rng, 4)
    assert draws.shape == (4, 3, 2) and (draws == mean).all()
    # independent writable copies, and no random numbers drawn
    assert draws.flags.writeable and not np.shares_memory(draws, mean)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("build, match", [
    (lambda sched: GaussianDataModel(mean=np.zeros((2, 2)), var=math.nan), "data variance"),
    (lambda sched: GaussianOracle(GaussianDataModel(np.zeros((2, 2)), 0.1), sched, math.nan),
     "condition noise level"),
    (lambda sched: SamplerSpec("ddim", make_timestep_grid(1000, 10, sched.T), eta=math.nan), "eta"),
], ids=["data_variance", "condition_noise", "ddim_eta"])
def test_nan_is_not_a_nonnegative_value(sched, build, match):
    # NaN fails every comparison, so an ``x < 0`` check would let it through
    with pytest.raises(ValueError, match=f"{match} must be >= 0, got nan"):
        build(sched)
