"""Conditioned diffusion sampling toolkit.

Implements the discrete-time DDPM forward process, a family of reverse-process
samplers (ancestral DDPM, DDIM, DPM-Solver 1/2, DPM-Solver++(2M), UniPC-2),
deterministic DDIM inversion, and the AST-n strategy of starting reverse
diffusion from an analytically noised latent of the conditioning image.
Ships with analytic Gaussian denoising oracles, a trainable per-timestep
affine noise predictor, synthetic phantom data with dose-fraction noise, and
a PSNR/SSIM/RMSE/timing evaluation harness driven by the `astn` CLI.

Public names import from their modules (``from astn.samplers import
run_sampler``); each module's ``__all__`` lists its own.
"""

__version__ = "0.1.0"
