"""Image-quality metrics (PSNR, SSIM, RMSE), wall-clock timing, and the
metrics report table serialized to CSV.

Metrics operate on [0,1]-normalized images (data range 1). Identical
images report the 300 dB PSNR cap instead of infinity so CSVs stay finite
and sortable. SSIM uses the fixed constants of Wang et al. (IEEE TIP 2004):
the 11x11 Gaussian window with sigma = 1.5, K1 = 0.01, K2 = 0.03, in
valid-mode windows (no padding).
"""

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from astn import _kernels as k
from astn.image import require_same_shape

__all__ = [
    "PSNR_CAP_DB",
    "psnr",
    "rmse",
    "ssim",
    "timed",
    "MetricsRow",
    "MetricsReport",
    "CSV_HEADER",
]

PSNR_CAP_DB = 300.0
DATA_RANGE = 1.0

CSV_HEADER = ("regime", "sampler", "steps", "psnr_db", "rmse", "ssim", "time_s", "seed")


def rmse(ref, test):
    """Root mean squared error over all pixels."""
    require_same_shape(ref, test)
    d = ref - test
    return float(np.sqrt((d * d).mean()))


def psnr(ref, test):
    """Peak signal-to-noise ratio in dB, capped at 300 dB for identical images."""
    require_same_shape(ref, test)
    d = ref - test
    mse = float((d * d).mean())
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(DATA_RANGE * DATA_RANGE / mse), PSNR_CAP_DB)


def _gaussian_window(size, sigma):
    half = (size - 1) / 2.0
    ax = np.arange(size, dtype=np.float64) - half
    g = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    w = np.outer(g, g)
    return w / w.sum()


_SSIM_WINDOW = _gaussian_window(11, 1.5)
_SSIM_C1 = (0.01 * DATA_RANGE) ** 2
_SSIM_C2 = (0.03 * DATA_RANGE) ** 2


def ssim(ref, test):
    """Mean structural similarity over Gaussian-weighted sliding windows."""
    require_same_shape(ref, test)
    size = _SSIM_WINDOW.shape[0]
    if ref.shape[0] < size or ref.shape[1] < size:
        raise ValueError(f"image {ref.shape} smaller than the {size}x{size} ssim window")
    smap = k.ssim_map(
        np.ascontiguousarray(ref, dtype=np.float64),
        np.ascontiguousarray(test, dtype=np.float64),
        _SSIM_WINDOW,
        _SSIM_C1,
        _SSIM_C2,
    )
    return float(smap.mean())


def timed(op):
    """Run a deferred computation, returning (result, wall seconds)."""
    t0 = time.perf_counter()
    result = op()
    return result, time.perf_counter() - t0


@dataclass
class MetricsRow:
    """One sweep cell: mean quality metrics and per-image wall time."""

    regime: str
    sampler: str
    steps: int
    psnr_db: float
    rmse: float
    ssim: float
    time_s: float
    seed: int

    def __post_init__(self):
        if not -1.0 <= self.ssim <= 1.0:
            raise ValueError(f"ssim {self.ssim} outside [-1, 1]")
        if self.rmse < 0.0 or self.time_s < 0.0:
            raise ValueError("rmse and time_s must be >= 0")


@dataclass
class MetricsReport:
    """Rows keyed by (regime, sampler, steps), per-cell failures, and the
    number of sweep cells that ran concurrently."""

    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    threads: int = 1

    def write_csv(self, path):
        note = f"# time_s is mean wall time per image; sweep threads: {self.threads}"
        if self.threads > 1:
            note += f", so time_s was measured under contention between {self.threads} concurrent cells"
        with open(path, "w", newline="") as f:
            f.write(note + "\n")
            writer = csv.writer(f)
            writer.writerow(CSV_HEADER)
            for r in self.rows:
                writer.writerow(
                    [
                        r.regime,
                        r.sampler,
                        r.steps,
                        f"{r.psnr_db:.6f}",
                        f"{r.rmse:.8e}",
                        f"{r.ssim:.8f}",
                        f"{r.time_s:.6f}",
                        r.seed,
                    ]
                )

    @classmethod
    def read_csv(cls, path):
        rows = []
        with open(path, newline="") as f:
            lines = [ln for ln in f if not ln.startswith("#")]
        reader = csv.reader(lines)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_HEADER:
            raise ValueError(f"{path}: bad metrics header {header}")
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(CSV_HEADER):
                raise ValueError(f"{path}:{lineno}: expected {len(CSV_HEADER)} fields, got {len(rec)}")
            try:
                rows.append(
                    MetricsRow(
                        regime=rec[0],
                        sampler=rec[1],
                        steps=int(rec[2]),
                        psnr_db=float(rec[3]),
                        rmse=float(rec[4]),
                        ssim=float(rec[5]),
                        time_s=float(rec[6]),
                        seed=int(rec[7]),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
        return cls(rows=rows)
