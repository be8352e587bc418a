"""Conditioned noise predictors: analytic Gaussian oracles, a trainable
per-timestep affine model, and trivial stubs.

With toy data x_0 ~ N(m, s^2 I) the marginal of the noised latent is
x_t ~ N(sqrt(ab_t) m, (ab_t s^2 + 1 - ab_t) I) and the Bayes-optimal noise
estimate has the closed form

    E[eps | x_t] = sqrt(1 - ab_t) * (x_t - sqrt(ab_t) m) / (ab_t s^2 + 1 - ab_t),

which makes every downstream sampler claim checkable without a neural
network. Conditioning is modelled as a noisy observation c = x_0 + eta with
eta ~ N(0, noise_level^2 I); an oracle given a noise level simply swaps
(m, s^2) for the Gaussian posterior of x_0 given c.

Samplers evaluate a predictor through one protocol: ``bind(cond)`` fixes the
condition and returns ``(x_t, t) -> (a, img, b)``, the estimate
``eps_hat = a * x_t + b * img`` as two scalars and an image that callers
never write and that is valid until the next call of the same bound
function. The oracles and the affine model describe their estimate this way
with no array pass over x_t, so the samplers fold it into the linear
combination that reads it; any other predictor returns ``(0.0, eps_hat,
1.0)``.
"""

import math
import zipfile
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from astn import _kernels as k
from astn.image import require_same_shape

__all__ = [
    "EpsilonPredictor",
    "GaussianDataModel",
    "GaussianOracle",
    "ZeroPredictor",
    "AffinePredictor",
    "conditioned_oracle",
    "train_affine_predictor",
]


class EpsilonPredictor(ABC):
    """Noise estimator eps_hat(x_t, t, c) with the same shape as x_t.

    ``t`` is an integer step in [1, T]; fractional t is accepted only for the
    midpoint evaluations of the second-order solver. Predictors declaring
    ``requires_condition`` must be called with a condition image.

    Samplers evaluate through :meth:`bind`, which fixes the condition once
    per image; a predictor with per-condition work overrides it to do that
    work once.
    """

    requires_condition = False

    @abstractmethod
    def predict(self, x_t, t, cond=None):
        ...

    def bind(self, cond):
        """``(x_t, t) -> (a, img, b)`` with ``cond`` fixed: the estimate
        ``eps_hat = a * x_t + b * img`` of ``predict(x_t, t, cond)``.

        ``a`` and ``b`` are scalars and ``img`` an image shaped like ``x_t``
        that callers never write. ``img`` is valid until the next call of the
        bound function, which may reuse its memory. The samplers fold ``a``
        and ``b`` into the linear combination that reads the estimate, and
        one call counts as one evaluation. This default returns ``(0.0,
        predict(x_t, t, cond), 1.0)``; since ``c + c_eps * 0.0 == c`` and
        ``c_eps * 1.0 == c_eps`` hold exactly, folding it changes no finite
        value. An override must not write into ``x_t``.
        """
        self._require_condition(cond)
        return lambda x_t, t: (0.0, self.predict(x_t, t, cond), 1.0)

    def _require_condition(self, cond):
        if self.requires_condition and cond is None:
            raise ValueError(f"{type(self).__name__} requires a condition image")


def _evaluate(eps, x_t, t):
    """The estimate of bound function ``eps`` at ``(x_t, t)`` as a fresh array: one ``lincomb2``."""
    a, img, b = eps(x_t, t)
    return k.lincomb2(a, x_t, b, img)


@dataclass(frozen=True)
class GaussianDataModel:
    """Isotropic Gaussian toy data x_0 ~ N(mean, var I)."""

    mean: np.ndarray
    var: float

    def __post_init__(self):
        if not self.var >= 0.0:
            raise ValueError(f"data variance must be >= 0, got {self.var}")
        if not math.isfinite(self.var):
            raise ValueError(f"data variance must be finite, got {self.var}")
        if not np.isfinite(self.mean).all():
            raise ValueError("data mean must be finite")

    def sample(self, rng, n=1):
        if self.var == 0.0:
            return np.broadcast_to(self.mean, (n,) + self.mean.shape).copy()
        return self.mean + math.sqrt(self.var) * rng.standard_normal((n,) + self.mean.shape)


class GaussianOracle(EpsilonPredictor):
    """Bayes-optimal noise estimate for Gaussian data, the closed form above.

    With ``noise_level`` None the condition is ignored. Otherwise the oracle
    requires the noisy observation c and substitutes the Gaussian posterior
    of x_0 given c, with precision-weighted moments

        post_var  = 1 / (1/s^2 + 1/noise_level^2)
        post_mean = post_var * (m/s^2 + c/noise_level^2),

    into the closed form. noise_level = 0 pins x_0 = c; noise_level = inf
    discards the condition.
    """

    def __init__(self, model, sched, noise_level=None):
        if noise_level is not None and not noise_level >= 0.0:
            raise ValueError(f"condition noise level must be >= 0, got {noise_level}")
        self.model = model
        self.sched = sched
        self.noise_level = noise_level

    @property
    def requires_condition(self):
        return self.noise_level is not None

    def _posterior(self, cond):
        m, s2 = self.model.mean, self.model.var
        nl2 = self.noise_level * self.noise_level
        if nl2 == 0.0:
            return cond, 0.0
        if not math.isfinite(nl2) or s2 == 0.0:
            return m, s2
        post_var = 1.0 / (1.0 / s2 + 1.0 / nl2)
        return k.lincomb2(post_var / s2, m, post_var / nl2, cond), post_var

    def bind(self, cond):
        """The posterior is computed here, once per condition image. The
        bound function returns ``(coef, m, -coef * sqrt(ab_t))``, the estimate
        ``coef * (x_t - sqrt(ab_t) m)`` with ``m`` the bound prior or
        posterior mean (at noise level 0, the condition itself), and does no
        array work. A condition or latent not shaped like the prior mean is a
        ValueError, and so is a condition with a NaN or infinite pixel
        wherever the oracle requires one, noise level inf included."""
        self._require_condition(cond)
        mean, var, sched = self.model.mean, self.model.var, self.sched
        alpha_bars, T = sched._alpha_bar_values, sched.T
        if self.noise_level is not None:
            require_same_shape(cond, mean, "condition and prior mean")
            if not np.isfinite(cond).all():
                raise ValueError("condition must be finite")
            mean, var = self._posterior(cond)

        def eps(x_t, t):
            require_same_shape(x_t, mean, "latent and oracle mean")
            # an int step reads the table that alpha_bar_at reads for it
            ab = alpha_bars[t] if type(t) is int and 1 <= t <= T else sched.alpha_bar_at(t)
            coef = math.sqrt(1.0 - ab) / (ab * var + (1.0 - ab))
            return coef, mean, -coef * math.sqrt(ab)

        return eps

    def predict(self, x_t, t, cond=None):
        return _evaluate(self.bind(cond), x_t, t)


def conditioned_oracle(model, noise_level, sched):
    """:class:`GaussianOracle` conditioned on an observation with noise ``noise_level``."""
    return GaussianOracle(model, sched, noise_level)


class ZeroPredictor(EpsilonPredictor):
    """Always predicts zero noise."""

    def predict(self, x_t, t, cond=None):
        return np.zeros_like(x_t)


class AffinePredictor(EpsilonPredictor):
    """Per-timestep affine noise model eps_hat = a_t * x_t + g_t * c + b_t.

    Scalars ``a_t`` and condition gains ``g_t`` plus per-pixel offset images
    ``b_t`` for t = 1..T (index 0 unused). Fractional evaluation timesteps
    round to the nearest table entry. :meth:`save` and :meth:`load` keep the
    tables, row 0 included, and the conditional flag in one ``.npz`` archive.
    """

    def __init__(self, a, g, b, conditional=False):
        a = np.asarray(a, dtype=np.float64)
        g = np.asarray(g, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 1 or a.shape != g.shape or b.shape[0] != a.shape[0] or b.ndim != 3:
            raise ValueError("coefficient tables must be a,g: (T+1,), b: (T+1, h, w)")
        self.a = a
        self.g = g
        self.b = b
        self.conditional = conditional

    @property
    def requires_condition(self):
        return self.conditional

    @property
    def T(self):
        return self.a.shape[0] - 1

    @classmethod
    def initial(cls, T, shape, conditional=False):
        """Fresh predictor at the initialisation a_t = 1, g_t = 0, b_t = 0."""
        return cls(
            a=np.ones(T + 1),
            g=np.zeros(T + 1),
            b=np.zeros((T + 1,) + tuple(shape)),
            conditional=conditional,
        )

    def bind(self, cond):
        """The bound function returns ``(a_t, b_t, 1.0)``, with ``b_t`` a row
        of the offset table, or, when conditional, ``(a_t, g_t * c + b_t,
        1.0)`` with that image written into one scratch array per bind. A
        condition or latent not shaped like ``b.shape[1:]`` is a ValueError."""
        self._require_condition(cond)
        a, g, b, T = self.a, self.g, self.b, self.T
        conditional = self.conditional
        # shaped like one offset image, so images are checked against it
        scratch = np.empty(b.shape[1:])
        if conditional:
            require_same_shape(cond, scratch, "condition and offset table")

        def eps(x_t, t):
            require_same_shape(x_t, scratch, "latent and offset table")
            ti = int(math.floor(t + 0.5))
            if not 1 <= ti <= T:
                raise ValueError(f"timestep {t} outside trained range [1, {T}]")
            if not conditional:
                return a[ti], b[ti], 1.0
            np.multiply(g[ti], cond, out=scratch)
            return a[ti], np.add(scratch, b[ti], out=scratch), 1.0

        return eps

    def predict(self, x_t, t, cond=None):
        return _evaluate(self.bind(cond), x_t, t)

    # -- serialization: one .npz archive, whose zip layer checks each table's CRC-32 on read --

    def save(self, path):
        """Write the tables as an ``.npz`` archive named exactly ``path``."""
        with open(path, "wb") as f:
            np.savez(f, a=self.a, g=self.g, b=self.b, conditional=self.conditional)

    @classmethod
    def load(cls, path):
        """Read a :meth:`save` archive, never unpickling. A missing file is an
        OSError, and any other fault a ValueError naming ``path``."""
        with open(path, "rb") as f:
            try:
                # np.load takes any file but an .npy or .npz for a pickle, and refuses it
                if f.read(4) != b"PK\x03\x04":
                    raise ValueError("not an .npz archive")
                f.seek(0)
                tables = np.load(f, allow_pickle=False)
                return cls(a=tables["a"], g=tables["g"], b=tables["b"], conditional=bool(tables["conditional"]))
            except zipfile.BadZipFile as exc:
                raise ValueError(f"{path}: damaged archive (zip structure or table checksum): {exc}") from exc
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path}: {exc}") from exc


def train_affine_predictor(
    data,
    cond_mode,
    sched,
    lr=0.3,
    iterations=30000,
    batch=16,
    rng=None,
    cond_noise=0.05,
    lr_final=None,
    timesteps=None,
):
    """Fit the affine family to the squared noise-prediction error by SGD.

    ``data`` is a :class:`GaussianDataModel` or a sequence of clean images to
    draw from. Each update targets one timestep with a minibatch of fresh
    (x_0, eps) draws; timesteps are visited in shuffled cycles so coverage is
    uniform, and the step size decays geometrically from ``lr`` to
    ``lr_final`` (default lr/30). Offset gradients are applied per pixel (no
    pixel averaging) so scalar and per-pixel parameters converge at matched
    rates. ``cond_mode='concat'`` trains the condition gain on c = x_0 +
    cond_noise * eta. ``timesteps`` restricts training to a subset of steps
    (experiments only exercise their grid). Raises RuntimeError if a cycle's
    mean loss exceeds 10x the first cycle's (or stops being finite).

    Returns the fitted :class:`AffinePredictor`; per-cycle mean losses are
    attached as ``predictor.loss_history``.
    """
    if cond_mode not in ("none", "concat"):
        raise ValueError(f"unknown cond_mode {cond_mode!r}")
    if iterations < 1 or lr < 0.0:
        raise ValueError("need iterations >= 1 and lr >= 0")
    rng = np.random.default_rng() if rng is None else rng
    if isinstance(data, GaussianDataModel):
        shape = data.mean.shape
        draw = lambda n: data.sample(rng, n)
    else:
        samples = np.asarray(data, dtype=np.float64)
        if samples.ndim != 3:
            raise ValueError("sample-set data must be a stack of images")
        shape = samples.shape[1:]
        draw = lambda n: samples[rng.integers(0, samples.shape[0], size=n)]

    conditional = cond_mode == "concat"
    pred = AffinePredictor.initial(sched.T, shape, conditional=conditional)
    if timesteps is None:
        t_pool = np.arange(1, sched.T + 1)
    else:
        t_pool = np.array(sorted(set(int(t) for t in timesteps)))
        if t_pool.size == 0 or t_pool[0] < 1 or t_pool[-1] > sched.T:
            raise ValueError("timesteps must be a non-empty subset of [1, T]")

    lr_final = lr / 30.0 if lr_final is None else lr_final
    sqrt_ab = np.sqrt(sched.alpha_bars)
    sqrt_1mab = np.sqrt(1.0 - sched.alpha_bars)

    loss_history = []
    it = 0
    cycle_sum, cycle_n = 0.0, 0
    while it < iterations:
        for t in rng.permutation(t_pool):
            if it >= iterations:
                break
            frac = it / max(iterations - 1, 1)
            step = lr * (lr_final / lr) ** frac if lr > 0.0 else 0.0
            x0 = draw(batch)
            eps = rng.standard_normal((batch,) + shape)
            x_t = sqrt_ab[t] * x0 + sqrt_1mab[t] * eps
            if conditional:
                cond = x0 + cond_noise * rng.standard_normal((batch,) + shape)
                r = pred.a[t] * x_t + pred.g[t] * cond + pred.b[t] - eps
            else:
                r = pred.a[t] * x_t + pred.b[t] - eps
            cycle_sum += float((r * r).mean())
            cycle_n += 1
            pred.a[t] -= step * 2.0 * float((r * x_t).mean())
            if conditional:
                pred.g[t] -= step * 2.0 * float((r * cond).mean())
            pred.b[t] -= step * 2.0 * r.mean(axis=0)
            it += 1
        cycle_mean = cycle_sum / max(cycle_n, 1)
        loss_history.append(cycle_mean)
        cycle_sum, cycle_n = 0.0, 0
        baseline = loss_history[0]
        if not math.isfinite(cycle_mean) or cycle_mean > 10.0 * max(baseline, 1e-12):
            raise RuntimeError(
                f"affine training diverged after {it} updates: cycle loss "
                f"{cycle_mean:.3g} exceeds 10x initial {baseline:.3g}"
            )

    pred.loss_history = loss_history
    return pred
