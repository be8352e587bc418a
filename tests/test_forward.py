import math

import numpy as np
import pytest

from astn.denoiser import GaussianDataModel, GaussianOracle, ZeroPredictor
from astn.forward import marginal_moments, q_sample, training_loss


def test_q_sample_t0_identity(sched, rng):
    x0 = rng.random((8, 8))
    eps = rng.standard_normal((8, 8))
    assert np.array_equal(q_sample(x0, 0, eps, sched), x0)


def test_q_sample_zero_noise(sched, rng):
    x0 = rng.random((8, 8))
    out = q_sample(x0, 300, np.zeros_like(x0), sched)
    assert np.allclose(out, math.sqrt(sched.alpha_bar(300)) * x0, rtol=0, atol=1e-15)


def test_q_sample_shape_mismatch(sched, rng):
    with pytest.raises(ValueError):
        q_sample(rng.random((4, 4)), 10, rng.standard_normal((4, 5)), sched)


def test_q_sample_linearity_in_x0(sched, rng):
    x, y = rng.random((6, 6)), rng.random((6, 6))
    zero = np.zeros((6, 6))
    lhs = q_sample(2.0 * x + 3.0 * y, 400, zero, sched)
    rhs = 2.0 * q_sample(x, 400, zero, sched) + 3.0 * q_sample(y, 400, zero, sched)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_q_sample_deterministic(sched, rng):
    x0 = rng.random((5, 5))
    eps = rng.standard_normal((5, 5))
    assert np.array_equal(q_sample(x0, 123, eps, sched), q_sample(x0, 123, eps, sched))


@pytest.mark.parametrize("t", [1, 150, 500, 1000])
def test_q_sample_monte_carlo_moments(sched, t):
    rng = np.random.default_rng(100 + t)
    x0 = np.full((8, 8), 0.5)
    n = 10_000
    draws = np.empty((n,) + x0.shape)
    for i in range(n):
        draws[i] = q_sample(x0, t, rng.standard_normal(x0.shape), sched)
    mean_expect, var_expect = marginal_moments(x0, t, sched)
    sigma = math.sqrt(var_expect) if var_expect > 0 else 0.0
    se_mean = sigma / math.sqrt(n)
    assert np.abs(draws.mean(axis=0) - mean_expect).max() <= 5 * se_mean + 1e-12
    se_var = var_expect * math.sqrt(2.0 / (n - 1))
    assert np.abs(draws.var(axis=0, ddof=1) - var_expect).max() <= 5 * se_var + 1e-12


def test_moment_error_shrinks_with_samples(sched):
    # Monte Carlo convergence: 100x the samples should beat the small run
    x0 = np.full((4, 4), 0.3)
    t = 500
    mean_expect, _ = marginal_moments(x0, t, sched)

    def mean_err(n, seed):
        r = np.random.default_rng(seed)
        acc = np.zeros_like(x0)
        for _ in range(n):
            acc += q_sample(x0, t, r.standard_normal(x0.shape), sched)
        return float(np.abs(acc / n - mean_expect).max())

    assert mean_err(50_000, 1) < mean_err(500, 2)


def test_marginal_moments_endpoints(sched, rng):
    x0 = rng.random((4, 4))
    mean0, var0 = marginal_moments(x0, 0, sched)
    assert np.array_equal(mean0, x0) and var0 == 0.0
    mean_T, var_T = marginal_moments(x0, 1000, sched)
    assert np.abs(mean_T).max() < 0.01 and var_T > 0.9999


def test_marginal_moments_match_alpha_bar(sched, rng):
    x0 = rng.random((4, 4))
    mean, var = marginal_moments(x0, 150, sched)
    ab = sched.alpha_bar(150)
    assert np.allclose(mean, math.sqrt(ab) * x0) and var == pytest.approx(1 - ab)


@pytest.mark.parametrize("t", [2.7, 150.5])
def test_fractional_step_is_rejected(sched, rng, t):
    # q_sample used to noise at int(t) without a word
    x0, eps = rng.random((2, 4, 4))
    with pytest.raises(ValueError, match="integral timestep"):
        q_sample(x0, t, eps, sched)
    with pytest.raises(ValueError, match="integral timestep"):
        marginal_moments(x0, t, sched)
    assert np.array_equal(q_sample(x0, float(int(t)), eps, sched), q_sample(x0, int(t), eps, sched))


def test_training_loss_perfect_predictor(sched):
    # the exact-noise oracle on a batch of identical images recovers every
    # injected noise image, so the objective collapses to rounding error
    x0 = np.random.default_rng(3).random((8, 8))
    pred = GaussianOracle(GaussianDataModel(x0, 0.0), sched)
    loss = training_loss(pred, [x0] * 8, None, sched, np.random.default_rng(4))
    assert loss < 1e-25


def test_training_loss_zero_predictor(sched, rng):
    # E[eps^2] = 1; 40 items x 256 pixels -> SE ~ 0.014
    x0_batch = [rng.random((16, 16)) for _ in range(40)]
    loss = training_loss(ZeroPredictor(), x0_batch, None, sched, np.random.default_rng(5))
    assert loss == pytest.approx(1.0, rel=0.05)


def test_training_loss_oracle_beats_zero(sched, rng):
    model = GaussianDataModel(mean=np.full((12, 12), 0.4), var=0.25)
    x0_batch = list(model.sample(np.random.default_rng(6), 40))
    oracle_loss = training_loss(GaussianOracle(model, sched), x0_batch, None, sched, np.random.default_rng(7))
    zero_loss = training_loss(ZeroPredictor(), x0_batch, None, sched, np.random.default_rng(7))
    assert oracle_loss < zero_loss


def test_training_loss_validation(sched, rng):
    with pytest.raises(ValueError):
        training_loss(ZeroPredictor(), [], None, sched, rng)
    with pytest.raises(ValueError):
        training_loss(ZeroPredictor(), [rng.random((4, 4))], [], sched, rng)
