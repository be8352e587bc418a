"""Image-quality metrics (PSNR, SSIM, RMSE), wall-clock timing, and the
metrics report table serialized to CSV.

``MetricsRow``'s fields are the one declaration of the sweep's output
columns: ``metrics.csv`` writes and reads them in field order, and the
per-(sampler, regime) curve files write a subset of them in the same number
formats. Both go through ``astn.data``'s CSV table writer and reader.

Metrics operate on [0,1]-normalized images (data range 1). Identical
images report the 300 dB PSNR cap instead of infinity so CSVs stay finite
and sortable. SSIM uses the fixed constants of Wang et al. (IEEE TIP 2004):
the 11x11 Gaussian window with sigma = 1.5, K1 = 0.01, K2 = 0.03, in
valid-mode windows (no padding).
"""

import math
import re
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from astn import _kernels as k
from astn.data import read_table, write_table
from astn.image import require_same_shape
from astn.samplers import SAMPLER_KINDS

__all__ = [
    "PSNR_CAP_DB",
    "REGIMES",
    "psnr",
    "rmse",
    "ssim",
    "SSIM_MIN_SHAPE",
    "require_scorable",
    "timed",
    "MetricsRow",
    "MetricsReport",
    "CSV_HEADER",
]

PSNR_CAP_DB = 300.0
DATA_RANGE = 1.0
REGIMES = ("full", "ast", "inverted")  # the regimes astn.regimes runs: the labels a row's regime may take


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
SSIM_MIN_SHAPE = _SSIM_WINDOW.shape  # valid-mode SSIM needs one whole window
_SSIM_C1 = (0.01 * DATA_RANGE) ** 2
_SSIM_C2 = (0.03 * DATA_RANGE) ** 2


def require_scorable(image, what="image"):
    """A ValueError naming ``what`` unless ``image`` is 2-d and at least
    ``SSIM_MIN_SHAPE``, the smallest shape :func:`ssim` scores."""
    shape = np.shape(image)
    if len(shape) != 2 or shape[0] < SSIM_MIN_SHAPE[0] or shape[1] < SSIM_MIN_SHAPE[1]:
        raise ValueError(f"{what} is {shape}, but ssim scores only 2-d images of at least {SSIM_MIN_SHAPE}")


def ssim(ref, test):
    """Mean structural similarity over Gaussian-weighted sliding windows."""
    require_same_shape(ref, test)
    require_scorable(ref)
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
    """One sweep cell, labelled as a sweep runs it: mean quality metrics and per-image wall time."""

    regime: str
    sampler: str
    steps: int
    psnr_db: float
    rmse: float
    ssim: float
    time_s: float
    seed: int

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.sampler not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.sampler!r}")
        if not self.steps >= 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not -1.0 <= self.ssim <= 1.0:
            raise ValueError(f"ssim {self.ssim} outside [-1, 1]")
        if self.rmse < 0.0 or self.time_s < 0.0:
            raise ValueError("rmse and time_s must be >= 0")
        for name in ("psnr_db", "rmse", "time_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


CSV_HEADER = tuple(f.name for f in fields(MetricsRow))
_CURVE_COLUMNS = ("steps", "psnr_db", "rmse", "ssim", "time_s")
# number formats of the CSV columns that need one; every other column prints with str
_CSV_FORMATS = {"psnr_db": ".6f", "rmse": ".8e", "ssim": ".8f", "time_s": ".6f"}


def _fields(rows, columns):
    """The ``columns`` of the MetricsRows ``rows`` as CSV fields, in their number formats."""
    return ([format(getattr(r, c), _CSV_FORMATS.get(c, "")) for c in columns] for r in rows)


@dataclass
class MetricsReport:
    """Rows keyed by (regime, sampler, steps), per-cell failures, the
    number of sweep cells that ran concurrently and the schedule's T, which
    sets the steps of a full-schedule row."""

    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    threads: int = 1
    T: int = 1000

    def write_csv(self, path):
        note = f"# time_s is mean wall time per image; schedule T: {self.T}; sweep threads: {self.threads}"
        if self.threads > 1:
            note += f", so time_s was measured under contention between {self.threads} concurrent cells"
        write_table(path, CSV_HEADER, _fields(self.rows, CSV_HEADER), note + "\n")

    def write_curves(self, curve_dir):
        """One quality-vs-steps file ``{sampler}_{regime}.csv`` per (sampler,
        regime) under ``curve_dir``, rows by ascending steps, numbers as in
        metrics.csv. The report owns the directory's curve set: any other
        ``*.csv`` there, such as an earlier run's, is deleted."""
        curve_dir = Path(curve_dir)
        curve_dir.mkdir(parents=True, exist_ok=True)
        for old in curve_dir.glob("*.csv"):
            old.unlink()
        groups = {}
        for r in sorted(self.rows, key=lambda r: r.steps):
            groups.setdefault((r.sampler, r.regime), []).append(r)
        for (sampler, regime), rows in groups.items():
            write_table(curve_dir / f"{sampler}_{regime}.csv", _CURVE_COLUMNS, _fields(rows, _CURVE_COLUMNS))

    @classmethod
    def read_csv(cls, path):
        """The rows of a :meth:`write_csv` file, and T from its comment line
        (1000 where it states none). A malformed or repeated row, and one no
        sweep can write, is a ValueError naming the file and line."""
        comments, records = read_table(path, CSV_HEADER, "metrics")
        stated_T = re.search(r"schedule T: (\d+)", "".join(comments))
        rows = {}
        for where, rec in records:
            try:
                row = MetricsRow(*(f.type(v) for f, v in zip(fields(MetricsRow), rec)))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
            cell = (row.regime, row.sampler, row.steps)
            if cell in rows:
                raise ValueError(f"{where}: cell {cell} is listed twice")
            rows[cell] = row
        return cls(rows=list(rows.values()), T=int(stated_T[1]) if stated_T else cls.T)
