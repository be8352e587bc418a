import math

import numpy as np
import pytest

from astn.denoiser import GaussianDataModel, GaussianOracle, train_affine_predictor
from astn.inversion import ddim_invert
from astn.regimes import RegimeSpec, reconstruct
from astn.samplers import SamplerSpec, run_sampler, sampler_step
from astn.schedule import make_timestep_grid
from timing import interleaved_ratios


@pytest.fixture(scope="module")
def affine_pred(sched):
    """Imperfect learned predictor for discretization-error sweeps."""
    model = GaussianDataModel(mean=np.full((8, 8), 0.5), var=0.09)
    return train_affine_predictor(
        model, "none", sched, lr=0.25, iterations=12000, batch=8,
        rng=np.random.default_rng(77),
    )


def _round_trip(x_start, pred, sched, grid):
    """``x_start`` inverted along ``grid`` and sampled back down it by DDIM,
    as the inverted regime runs it: the image also conditions every step."""
    regime = RegimeSpec("inverted", SamplerSpec(kind="ddim", grid=grid))
    return reconstruct(regime, x_start, pred, sched, None)[0]


def test_inversion_hop_and_ddim_step_are_mutual_inverses(sched, rng):
    from astn.schedule import TimestepGrid

    x0 = rng.random((6, 6))
    pred = GaussianOracle(GaussianDataModel(x0, 0.0), sched)
    for lo, hi in [(1, 1000), (250, 800), (41, 42)]:
        embedding = ddim_invert(x0, pred, None, sched, TimestepGrid(steps=(lo,)))
        latent = ddim_invert(x0, pred, None, sched, TimestepGrid(steps=(hi, lo)))
        # one DDIM step down must undo the walk's single hop up, exactly
        back = sampler_step("ddim", latent, hi, lo, pred, None, sched)
        assert np.abs(back - embedding).max() < 1e-10


def test_round_trip_exact_oracle_dense(sched, rng):
    x_start = rng.random((8, 8))
    pred = GaussianOracle(GaussianDataModel(x_start, 0.0), sched)
    out = _round_trip(x_start, pred, sched, make_timestep_grid(1000, 1000, sched.T))
    assert math.sqrt(float(((out - x_start) ** 2).mean())) < 1e-6


def test_round_trip_exact_oracle_sparse(sched, rng):
    x_start = rng.random((8, 8))
    pred = GaussianOracle(GaussianDataModel(x_start, 0.0), sched)
    out = _round_trip(x_start, pred, sched, make_timestep_grid(1000, 50, sched.T))
    assert math.sqrt(float(((out - x_start) ** 2).mean())) < 1e-6


def test_round_trip_error_decreases_with_steps(sched, affine_pred, rng):
    x_start = np.random.default_rng(9).random((8, 8))
    errs = []
    for N in (50, 150, 1000):
        out = _round_trip(x_start, affine_pred, sched, make_timestep_grid(1000, N, sched.T))
        errs.append(math.sqrt(float(((out - x_start) ** 2).mean())))
    assert errs[0] > errs[1] > errs[2]


def test_single_step_grid_composition(sched, rng):
    x_start = rng.random((5, 5))
    pred = GaussianOracle(GaussianDataModel(x_start, 0.0), sched)
    grid = make_timestep_grid(1, 1, sched.T)
    latent = ddim_invert(x_start, pred, None, sched, grid)
    assert np.abs(latent - math.sqrt(sched.alpha_bar(1)) * x_start).max() < 1e-12
    out = _round_trip(x_start, pred, sched, grid)
    assert np.abs(out - x_start).max() < 1e-10


def test_inversion_is_deterministic(sched, rng):
    x_start = rng.random((6, 6))
    model = GaussianDataModel(mean=np.full((6, 6), 0.4), var=0.2)
    pred = GaussianOracle(model, sched)
    grid = make_timestep_grid(1000, 30, sched.T)
    a = ddim_invert(x_start, pred, None, sched, grid)
    b = ddim_invert(x_start, pred, None, sched, grid)
    assert np.array_equal(a, b)


def test_invert_plus_reconstruct_doubles_wall_time(sched):
    model = GaussianDataModel(mean=np.full((128, 128), 0.4), var=0.2)
    pred = GaussianOracle(model, sched)
    x_start = np.random.default_rng(19).random((128, 128))
    grid = make_timestep_grid(1000, 200, sched.T)
    spec = SamplerSpec(kind="ddim", grid=grid)
    latent = ddim_invert(x_start, pred, x_start, sched, grid)

    # both sides condition on the image, so they do the same work per evaluation
    (double,), rounds = interleaved_ratios(
        [
            lambda: reconstruct(RegimeSpec("inverted", spec), x_start, pred, sched, None),
            lambda: run_sampler(spec, latent, pred, x_start, sched),
        ]
    )
    assert 0.75 * 2.0 <= double <= 1.25 * 2.0, rounds
