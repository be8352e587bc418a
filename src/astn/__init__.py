"""Conditioned diffusion sampling toolkit.

Implements the discrete-time DDPM forward process, a family of reverse-process
samplers (ancestral DDPM, DDIM, DPM-Solver 1/2, DPM-Solver++(2M), UniPC-2),
deterministic DDIM inversion, and the AST-n strategy of starting reverse
diffusion from an analytically noised latent of the conditioning image.
Ships with analytic Gaussian denoising oracles, a trainable per-timestep
affine noise predictor, synthetic phantom data with dose-fraction noise, and
a PSNR/SSIM/RMSE/timing evaluation harness driven by the `astn` CLI.
"""

from astn.schedule import NoiseSchedule, TimestepGrid, make_linear_schedule, make_timestep_grid
from astn.forward import q_sample, marginal_moments, training_loss
from astn.denoiser import (
    AffinePredictor,
    EpsilonPredictor,
    GaussianDataModel,
    GaussianOracle,
    analytic_gaussian_epsilon,
    conditioned_oracle,
    train_affine_predictor,
)
from astn.samplers import SamplerSpec, TrajectoryRecord, run_sampler
from astn.inversion import ddim_invert
from astn.regimes import RegimeSpec, ast_n_latent, reconstruct, regime_sweep, sweep_cells
from astn.metrics import MetricsReport, MetricsRow, psnr, rmse, ssim, timed

__version__ = "0.1.0"
