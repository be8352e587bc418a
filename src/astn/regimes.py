"""Sampling regimes: full-noise baseline, AST-n, and DDIM-inverted starts.

AST-n initiates reverse diffusion from an analytically noised intermediate
latent of the conditioning image: x_n = q_sample(low_dose, n, eps). At
inference no clean image exists, so the low-dose input both seeds the latent
and conditions every denoising step. The reverse process then runs the dense
grid {n, n-1, ..., 1}, so an AST-n run costs n sampler steps. The full-noise
baseline starts from x_T ~ N(0, I) on a reduced uniform grid, and the
inverted regime first maps the low-dose image to a latent with deterministic
DDIM inversion along the same grid it then samples back on.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from astn.forward import q_sample
from astn.inversion import ddim_invert
from astn.metrics import REGIMES, MetricsReport, MetricsRow, psnr, require_scorable, rmse, ssim, timed
from astn.samplers import SamplerSpec, run_sampler
from astn.schedule import make_timestep_grid

__all__ = [
    "REGIMES", "RegimeSpec", "ast_n_latent", "reconstruct", "regime_sweep", "make_regime_spec", "sweep_cells",
]


@dataclass(frozen=True)
class RegimeSpec:
    """Initialization regime plus the sampler that runs under it."""

    regime: str
    sampler: SamplerSpec

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        grid = self.sampler.grid
        if self.regime == "ast" and grid.origin != len(grid):
            raise ValueError(
                f"AST-{grid.origin} needs the dense grid from {grid.origin}, "
                f"got {len(grid)} steps"
            )

    @property
    def n_or_N(self):
        """The AST origin n (grid dense from n) or the step budget N (grid
        uniform from T): the grid length either way."""
        return len(self.sampler.grid)


def make_regime_spec(regime, n_or_N, kind, sched, eta=0.0):
    """Build the RegimeSpec with the conventional grid for ``regime``.

    ``eta`` is DDIM's stochasticity, in [0, 1]; every other kind runs at eta
    0, so one sweep-wide eta never fails the other samplers' cells.
    """
    if regime == "ast":
        grid = make_timestep_grid(n_or_N, n_or_N, sched.T)
    else:
        grid = make_timestep_grid(sched.T, n_or_N, sched.T)
    sampler = SamplerSpec(kind=kind, grid=grid, eta=eta if kind == "ddim" else 0.0)
    return RegimeSpec(regime=regime, sampler=sampler)


def ast_n_latent(input_image, n, sched, rng):
    """Noised latent of the input at level n via the closed-form forward marginal."""
    if not 1 <= n <= sched.T:
        raise ValueError(f"AST origin {n} outside [1, {sched.T}]")
    return q_sample(input_image, n, rng.standard_normal(input_image.shape), sched)


def reconstruct(regime, low_dose, pred, sched, rng, record=False):
    """Run one reconstruction of ``low_dose`` under ``regime``.

    The low-dose image conditions every step (ignored by unconditional
    predictors). Returns (reconstruction, snapshots) as :func:`run_sampler`
    does: the snapshot list is empty unless ``record`` is set.
    """
    spec = regime.sampler
    if regime.regime == "full":
        x_init = rng.standard_normal(low_dose.shape)
    elif regime.regime == "ast":
        x_init = ast_n_latent(low_dose, regime.n_or_N, sched, rng)
    else:
        x_init = ddim_invert(low_dose, pred, low_dose, sched, spec.grid)
    return run_sampler(spec, x_init, pred, low_dose, sched, rng=rng, record=record)


def _cell_seed(master_seed, cell_index, image_index):
    return np.random.SeedSequence((master_seed, cell_index, image_index))


def _distinct(what, values):
    """``values`` as a list, or a ValueError if it is empty or one repeats: seeds
    are keyed on a cell's position, so a repeated cell would be scored twice, differently."""
    values = list(values)
    if not values:
        raise ValueError(f"sweep lists no {what}")
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"sweep cells repeat: {what} {v!r} is listed twice")
    return values


def sweep_cells(regimes, kinds, origins, sched, eta=0.0):
    """The RegimeSpec of every (regime, kind, origin/budget) cell, in that
    nesting order, each built by :func:`make_regime_spec` from checked axes.

    An ``eta`` outside [0, 1] (NaN included), an origin/budget outside [1, T],
    an empty axis and a regime, kind or origin listed twice are each a
    ValueError naming the input, as is a cell that make_regime_spec cannot build.
    """
    if not eta >= 0.0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if eta > 1.0:
        raise ValueError(f"eta must be <= 1, got {eta}")
    regimes = _distinct("regime", regimes)
    kinds = _distinct("sampler", kinds)
    origins = _distinct("origin/budget", origins)
    for n in origins:
        if not 1 <= n <= sched.T:
            raise ValueError(f"origin/budget {n} outside [1, T={sched.T}]")
    return [make_regime_spec(r, n, k, sched, eta=eta) for r in regimes for k in kinds for n in origins]


def regime_sweep(cells, dataset, pred, sched, master_seed, threads=1):
    """Run each RegimeSpec of ``cells`` (see :func:`sweep_cells`) over the dataset.

    ``pred`` is the predictor of every pair if it has ``bind``, the one
    method the samplers call; anything else is a factory ``pair ->
    EpsilonPredictor``, called once per pair before any cell runs, so an
    exception it raises propagates. Each cell x image gets an independent
    PRNG stream derived from ``master_seed`` and the cell's index in
    ``cells``; one MetricsRow per cell holds metrics and wall time averaged
    over images. An empty cell list or dataset, an image smaller than
    ``SSIM_MIN_SHAPE`` and a repeated (regime, sampler, steps) cell are each a
    ValueError, raised before any cell runs. A cell that raises ValueError (a
    solver domain error) or RuntimeError (non-finite output) is recorded in
    ``report.failures`` as ``(cell, "<type>: <message>")`` and the sweep
    continues; any other exception is a bug and propagates. ``threads`` cells
    run at once (at least 1); the report records it, since above 1 the cells'
    wall times are measured under contention, and the schedule's T.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    keys = _distinct("cell", [(spec.regime, spec.sampler.kind, spec.n_or_N) for spec in cells])
    if not dataset:
        raise ValueError("empty dataset")
    for pair in dataset:
        require_scorable(pair.full_dose, f"pair {pair.pair_id}'s image")
    preds = [pred] * len(dataset) if hasattr(pred, "bind") else [pred(pair) for pair in dataset]
    report = MetricsReport(threads=threads, T=sched.T)

    def run_cell(ci, spec):
        sums = dict.fromkeys(("psnr_db", "rmse", "ssim", "time_s"), 0.0)
        for ii, (pair, pair_pred) in enumerate(zip(dataset, preds)):
            rng = np.random.default_rng(_cell_seed(master_seed, ci, ii))
            out, elapsed = timed(lambda: reconstruct(spec, pair.low_dose, pair_pred, sched, rng)[0])
            sums["psnr_db"] += psnr(pair.full_dose, out)
            sums["rmse"] += rmse(pair.full_dose, out)
            sums["ssim"] += ssim(pair.full_dose, out)
            sums["time_s"] += elapsed
        means = {name: s / len(dataset) for name, s in sums.items()}
        return MetricsRow(regime=spec.regime, sampler=spec.sampler.kind, steps=spec.n_or_N,
                          seed=master_seed, **means)

    def guarded(ci):
        try:
            return keys[ci], run_cell(ci, cells[ci]), None
        except (ValueError, RuntimeError) as exc:  # cell failures must not kill the sweep
            return keys[ci], None, f"{type(exc).__name__}: {exc}"

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(guarded, range(len(cells))))
    else:
        results = [guarded(ci) for ci in range(len(cells))]

    for cell, row, err in results:
        if err is None:
            report.rows.append(row)
        else:
            report.failures.append((cell, err))
    return report
