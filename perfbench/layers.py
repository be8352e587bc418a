"""Per-layer timings of single astn calls at 64x64 and 256x256.

Each entry warms its call up, then reports the median per-call time over
BATCHES timed batches. The kernels run on whichever backend
``astn._kernels.active_backend()`` reports. Kernel entries also give bytes
moved and operations per byte *computed* from the array sizes (each input
read once, the output written once, temporaries and cache misses ignored).
"""

import math
import statistics
import time

import numpy as np

from astn import _kernels as k
from astn import data
from astn.denoiser import GaussianDataModel, GaussianOracle, conditioned_oracle
from astn.forward import q_sample
from astn.inversion import ddim_invert
from astn.metrics import psnr, rmse, ssim
from astn.regimes import REGIMES, make_regime_spec, reconstruct
from astn.samplers import SAMPLER_KINDS, SamplerSpec, run_sampler
from astn.schedule import make_linear_schedule, make_timestep_grid

from tracing import CountingPredictor, Tracer

SIZES = (64, 256)
BATCHES = 5
STEPS = 25  # grid length of every sampler, inversion and reconstruct entry
FRACTIONAL_T = 123.37
# (flops per element, float64 arrays touched per element)
LINCOMB = {"lincomb2": (3, 3), "lincomb3": (5, 4)}


def per_call_s(fn, budget_s):
    """Median seconds per call of ``fn`` over BATCHES batches filling ``budget_s``."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-9)
    reps = max(1, int(budget_s / BATCHES / once))
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times)


def _ellipses(rng, n=6):
    # generate_phantom's parameter distribution
    rows = []
    for _ in range(n):
        cx, cy = rng.uniform(-0.6, 0.6, size=2)
        ax, ay = rng.uniform(0.08, 0.5, size=2)
        theta = rng.uniform(0.0, math.pi)
        rows.append((cx, cy, 1.0 / ax, 1.0 / ay, math.cos(theta), math.sin(theta), rng.uniform(-0.3, 0.5)))
    return np.array(rows)


def _ssim_window(size=11, sigma=1.5):
    ax = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    w = np.outer(g, g)
    return w / w.sum()


def measure(seed, workdir, budget_s):
    """Every per-layer timing as {name: (value, unit)}."""
    rng = np.random.default_rng(seed)
    sched = make_linear_schedule(1000)
    out = {}
    for name, (flops, arrays) in LINCOMB.items():
        out[f"kernels.{name}_ops_per_byte_computed"] = (flops / (8.0 * arrays), "ops/B")
    out["schedule.log_snr_us"] = (per_call_s(lambda: sched.log_snr(FRACTIONAL_T), budget_s) * 1e6, "us")
    out["schedule.alpha_bar_at_frac_us"] = (
        per_call_s(lambda: sched.alpha_bar_at(FRACTIONAL_T), budget_s) * 1e6, "us")

    window = _ssim_window()
    grid = make_timestep_grid(sched.T, STEPS, sched.T)
    for s in SIZES:
        a, b, c = rng.random((3, s, s))
        full = data.generate_phantom(data.PhantomSpec(size=s, seed=int(rng.integers(1 << 31))))
        low = data.simulate_low_dose(full, 0.25, rng)
        noise = rng.standard_normal((s, s))
        model = GaussianDataModel(mean=np.full((s, s), 0.5), var=0.0625)
        cond_pred = conditioned_oracle(model, math.sqrt(0.5 / (0.25 * 4096)), sched)
        preds = {"conditioned_oracle": cond_pred, "gaussian_oracle": GaussianOracle(model, sched)}

        t = per_call_s(lambda: k.lincomb2(0.7, a, 0.3, b), budget_s)
        out[f"kernels.lincomb2_us.{s}"] = (t * 1e6, "us")
        out[f"kernels.lincomb2_gbps_computed.{s}"] = (LINCOMB["lincomb2"][1] * 8 * s * s / t / 1e9, "GB/s")
        t = per_call_s(lambda: k.lincomb3(0.7, a, 0.2, b, 0.1, c), budget_s)
        out[f"kernels.lincomb3_us.{s}"] = (t * 1e6, "us")
        out[f"kernels.lincomb3_gbps_computed.{s}"] = (LINCOMB["lincomb3"][1] * 8 * s * s / t / 1e9, "GB/s")
        out[f"kernels.ssim_map_ms.{s}"] = (
            per_call_s(lambda: k.ssim_map(a, b, window, 1e-4, 9e-4), budget_s) * 1e3, "ms")
        ells = _ellipses(rng)
        out[f"kernels.add_ellipses_ms.{s}"] = (
            per_call_s(lambda: k.add_ellipses(a, ells), budget_s) * 1e3, "ms")

        for pname, pred in preds.items():
            out[f"denoiser.predict_us.{pname}.{s}"] = (
                per_call_s(lambda: pred.predict(a, 500, low), budget_s) * 1e6, "us")
        out[f"forward.q_sample_us.{s}"] = (per_call_s(lambda: q_sample(full, 500, noise, sched), budget_s) * 1e6, "us")

        for kind in SAMPLER_KINDS:
            spec = SamplerSpec(kind=kind, grid=grid)

            def sample(pred=cond_pred):
                return run_sampler(spec, noise, pred, low, sched, rng=np.random.default_rng(1))

            out[f"samplers.run_sampler_ms.{kind}.{s}"] = (per_call_s(sample, budget_s) * 1e3, "ms")
            tracer = Tracer()
            counted = CountingPredictor(cond_pred, tracer)
            sample(counted)  # warm-up
            tracer.totals.clear()
            reps = 3
            t0 = time.perf_counter()
            for _ in range(reps):
                sample(counted)
            predict_s = tracer.totals[("denoiser.predict", "denoiser.predict")][1]
            overhead = (time.perf_counter() - t0 - predict_s) / (reps * len(grid))
            out[f"samplers.hop_overhead_us.{kind}.{s}"] = (overhead * 1e6, "us")

        out[f"inversion.ddim_invert_ms.{s}"] = (
            per_call_s(lambda: ddim_invert(low, cond_pred, low, sched, grid), budget_s) * 1e3, "ms")
        for regime in REGIMES:
            spec = make_regime_spec(regime, STEPS, "ddim", sched)
            out[f"regimes.reconstruct_ms.{regime}.{s}"] = (per_call_s(
                lambda: reconstruct(spec, low, cond_pred, sched, np.random.default_rng(1)), budget_s) * 1e3, "ms")

        out[f"metrics.ssim_ms.{s}"] = (per_call_s(lambda: ssim(full, low), budget_s) * 1e3, "ms")
        out[f"metrics.psnr_us.{s}"] = (per_call_s(lambda: psnr(full, low), budget_s) * 1e6, "us")
        out[f"metrics.rmse_us.{s}"] = (per_call_s(lambda: rmse(full, low), budget_s) * 1e6, "us")

    s = max(SIZES)
    img = rng.random((s, s))
    path = workdir / "layers_io.img"

    def image_round_trip():
        data.write_image(path, img)
        data.read_image(path)

    out["data.image_io_mb_per_s"] = (2 * 4 * s * s / per_call_s(image_round_trip, budget_s) / 1e6, "MB/s")
    return out
