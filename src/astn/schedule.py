"""Discrete noise schedule and reduced timestep grids.

The schedule stores beta_t, alpha_t = 1 - beta_t and the cumulative signal
retention alpha_bar_t = prod_{s<=t} alpha_s for t = 1..T, with the sentinel
alpha_bar_0 = 1 so that t = 0 uniformly means "clean data". The half
log-SNR lambda_t is tabulated once per schedule; between integer steps it is
interpolated linearly, and that piecewise-linear curve is inverted in closed
form (as ``NoiseScheduleVP.inverse_lambda`` does for discrete schedules in
DPM-Solver, Lu et al. 2022). Time grids for few-step reverse sampling are
strictly decreasing integer subsets of [1, T].
"""

import bisect
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = ["NoiseSchedule", "TimestepGrid", "make_linear_schedule", "make_timestep_grid"]


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable beta/alpha/alpha_bar tables for ``T`` diffusion steps.

    ``alphas`` must equal ``1 - betas``. ``alpha_bars`` has length T+1 with
    ``alpha_bars[0] = 1``; entry t is the product of the first t alphas,
    within a relative 1e-9, and strictly decreasing in t.

    ``alpha_bars`` is also kept as a tuple of Python floats,
    ``_alpha_bar_values``, and the log-SNR derived from it as another,
    ``_log_snr_values``: entry t is lambda_t for t in [1, T], strictly
    decreasing, and entry 0 is +inf (clean data). The samplers' plan
    compiler and the Gaussian oracle read both directly at integer steps, as
    a tuple lookup costs less than a method call or a numpy scalar's
    ``float()``.
    """

    T: int
    betas: np.ndarray
    alphas: np.ndarray = field(repr=False)
    alpha_bars: np.ndarray = field(repr=False)
    _alpha_bar_values: tuple = field(init=False, repr=False, compare=False)
    _log_snr_values: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("schedule needs at least one step")
        if self.betas.shape != (self.T,):
            raise ValueError("betas must have length T")
        if not ((self.betas > 0.0) & (self.betas < 1.0)).all():
            raise ValueError("every beta must lie in (0, 1)")
        if self.alpha_bars.shape != (self.T + 1,):
            raise ValueError("alpha_bars must have length T+1")
        if self.alpha_bars[0] != 1.0 or self.alpha_bars[-1] <= 0.0:
            raise ValueError("alpha_bars must start at 1 and stay positive")
        if not (np.diff(self.alpha_bars) < 0.0).all():
            raise ValueError("alpha_bars must be strictly decreasing")
        if not np.array_equal(self.alphas, 1.0 - self.betas):
            raise ValueError("alphas must equal 1 - betas")
        # a product of T factors taken in another order differs by rounding
        # of about T ulps; 1e-9 covers that for any T below a million
        if not np.allclose(self.alpha_bars[1:], np.cumprod(self.alphas), rtol=1e-9, atol=0.0):
            raise ValueError("alpha_bars must be the running product of alphas")
        lams = (math.inf,) + tuple(0.5 * math.log(ab / (1.0 - ab)) for ab in self.alpha_bars[1:].tolist())
        object.__setattr__(self, "_log_snr_values", lams)
        object.__setattr__(self, "_alpha_bar_values", tuple(self.alpha_bars.tolist()))

    def alpha_bar(self, t):
        """Cumulative signal retention at integer step t in [0, T].

        ``t`` may be any integral number (an int, a numpy integer or an
        integral float); a fractional step raises ``ValueError``, see
        :meth:`alpha_bar_at` for those.
        """
        return self._alpha_bar_values[self._step_index(t)]

    def _step_index(self, t):
        """``t`` as an int table index, if it is an integral step in [0, T].

        Accepts what :meth:`alpha_bar` accepts and raises the same
        ``ValueError`` otherwise.
        """
        # the range check comes first, so inf and NaN fail here and not in int()
        if not 0 <= t <= self.T:
            raise ValueError(f"timestep {t} outside [0, {self.T}]")
        i = int(t)
        if i != t:
            raise ValueError(f"alpha_bar needs an integral timestep, got {t}")
        return i

    def log_snr(self, t):
        """Half log-SNR lambda_t = 0.5 * log(alpha_bar / (1 - alpha_bar)).

        Defined for t in [1, T] at integers and for fractional t by linear
        interpolation between the neighbouring integer steps (used by the
        midpoint solver; t = 0 has infinite SNR and is rejected).
        """
        if not 1 <= t <= self.T:
            raise ValueError(f"log-SNR needs t in [1, {self.T}], got {t}")
        lams = self._log_snr_values
        lo = math.floor(t)
        lam_lo = lams[lo]
        if t == lo:
            return lam_lo
        return lam_lo + (t - lo) * (lams[lo + 1] - lam_lo)

    def timestep_at_log_snr(self, lam, t_lo, t_hi):
        """Fractional t in [t_lo, t_hi] whose interpolated log-SNR is ``lam``.

        The exact inverse of :meth:`log_snr` between integer steps
        1 <= t_lo < t_hi <= T: locate the table segment [j, j+1] holding
        ``lam``, then solve its linear interpolant for t.
        """
        if not 1 <= t_lo < t_hi <= self.T:
            raise ValueError(f"need 1 <= t_lo < t_hi <= {self.T}, got [{t_lo}, {t_hi}]")
        lams = self._log_snr_values
        if not lams[t_hi] <= lam <= lams[t_lo]:
            raise ValueError(f"log-SNR {lam} outside the range of steps [{t_lo}, {t_hi}]")
        # lams falls with t, so -lambda rises: j is the last step in
        # [t_lo, t_hi) with lambda_j >= lam
        j = bisect.bisect_right(lams, -lam, t_lo, t_hi, key=operator.neg) - 1
        lam_j = lams[j]
        return j + (lam - lam_j) / (lams[j + 1] - lam_j)

    def alpha_bar_at(self, t):
        """alpha_bar at a possibly fractional t in [1, T] (via log-SNR)."""
        if t == int(t):
            return self.alpha_bar(int(t))
        lam = self.log_snr(t)
        return 1.0 / (1.0 + math.exp(-2.0 * lam))


@dataclass(frozen=True)
class TimestepGrid:
    """Strictly decreasing reverse-process timesteps starting at ``origin``.

    The grid covers the visited steps in [1, origin]; the final hop to t = 0
    is implicit in the samplers.
    """

    steps: tuple

    def __post_init__(self):
        if len(self.steps) == 0:
            raise ValueError("empty timestep grid")
        arr = np.asarray(self.steps)
        if not (np.diff(arr) < 0).all():
            raise ValueError("grid steps must be strictly decreasing")
        if self.steps[-1] < 1:
            raise ValueError("grid steps must stay >= 1")

    @property
    def origin(self):
        """The first (noisiest) step, where sampling starts."""
        return self.steps[0]

    def __len__(self):
        return len(self.steps)


def make_linear_schedule(T, beta_start=1e-4, beta_end=0.02):
    """Linearly interpolated betas from ``beta_start`` to ``beta_end``.

    The default 1e-4 .. 0.02 over T = 1000 is the conventional linear
    schedule for discrete-time diffusion.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    betas = np.linspace(beta_start, beta_end, T, dtype=np.float64)
    alphas = 1.0 - betas
    alpha_bars = np.concatenate([[1.0], np.cumprod(alphas)])
    return NoiseSchedule(T=T, betas=betas, alphas=alphas, alpha_bars=alpha_bars)


def make_timestep_grid(origin, N, T):
    """N timesteps evenly spaced from ``origin`` down to 1, rounded half up.

    With N <= origin neighbouring points lie at least 1 apart, so their
    rounded values never collide, and linspace hits ``origin`` and 1 exactly
    at the ends. ``origin = N`` yields the dense grid {N, N-1, ..., 1} used
    by AST-n.
    """
    if not 1 <= N <= origin <= T:
        raise ValueError(f"need 1 <= N <= origin <= T, got N={N} origin={origin} T={T}")
    raw = np.linspace(float(origin), 1.0, N)
    return TimestepGrid(steps=tuple(int(s) for s in np.floor(raw + 0.5)))
