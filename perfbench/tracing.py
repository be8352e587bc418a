"""In-memory span tracer and the wrappers that attach it to astn.

Spans are recorded from the benchmark's side of each call into a public astn
function. While a traced pass runs, ``instrument`` rebinds the names the
library looks up at call time (``regimes.reconstruct``, ``regimes.run_sampler``,
``regimes.ddim_invert``, ``regimes.q_sample``, the metric functions regimes
imports, ``cli.regime_sweep``, ``cli.make_linear_schedule`` and the
``_kernels`` functions) and restores them afterwards. Predictor evaluations
and schedule lookups are seen through ``CountingPredictor`` and
``CountingSchedule``, which the library receives in place of its own objects.
Nothing under ``src/`` is edited.

A span's self time is its duration minus the durations of its child spans;
calls nest on one thread, so children never overlap. Span names are
``<module>.<function>``, and the module is the layer a span belongs to.
"""

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from astn import _kernels, cli, regimes
from astn.denoiser import EpsilonPredictor
from astn.samplers import evaluations_per_run
from astn.schedule import NoiseSchedule

# called thousands of times per reconstruction: folded into per-(root, name)
# totals instead of being kept one record each
LEAF_SPANS = frozenset({
    "denoiser.predict",
    "schedule.alpha_bar",
    "schedule.log_snr",
    "schedule.alpha_bar_at",
    "kernels.lincomb2",
    "kernels.lincomb3",
    "kernels.ssim_map",
    "kernels.add_ellipses",
})


class Tracer:
    """Nested spans on one thread, kept in memory until the run writes them out.

    ``spans`` holds (id, parent id, root id, name, start, end, self seconds)
    for every span not in LEAF_SPANS; spans of one request share the root id.
    ``totals[(root name, name)]`` is [count, total seconds, self seconds] over
    all spans, leaves included.
    """

    def __init__(self):
        self.spans = []
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.recon_count = 0
        self.nfe_total = 0
        self.nfe_mismatches = []  # (regime, kind, n, counted, expected)
        self._stack = []
        self._next_id = 0

    def begin(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, 0.0, time.perf_counter()])

    def end(self):
        end = time.perf_counter()
        sid, name, child, start = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
            parent_id, root_id, root_name = self._stack[-1][0], self._stack[0][0], self._stack[0][1]
        else:
            parent_id, root_id, root_name = None, sid, name
        tot = self.totals[(root_name, name)]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        if name not in LEAF_SPANS:
            self.spans.append((sid, parent_id, root_id, name, start, end, dur - child))

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def check_nfe(self, regime, counted):
        """Compare one reconstruction's counted evaluations with the library's formula."""
        spec = regime.sampler
        steps = len(spec.grid)
        expected = evaluations_per_run(spec.kind, steps)
        if regime.regime == "inverted":
            expected += steps - 1
        self.recon_count += 1
        self.nfe_total += counted
        if counted != expected:
            self.nfe_mismatches.append((regime.regime, spec.kind, regime.n_or_N, counted, expected))

    def layer_totals(self, root):
        """Per layer under spans rooted at ``root``: {layer: [count, total, self]}."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (root_name, name), (count, total, self_s) in self.totals.items():
            if root_name == root and name != root:
                acc = out[name.split(".", 1)[0]]
                acc[0] += count
                acc[1] += total
                acc[2] += self_s
        return out


class CountingPredictor(EpsilonPredictor):
    """Delegates to ``inner`` and records one ``denoiser.predict`` span per evaluation."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.tracer = tracer
        self.calls = 0

    @property
    def requires_condition(self):
        return self.inner.requires_condition

    def predict(self, x_t, t, cond=None):
        self.calls += 1
        self.tracer.begin("denoiser.predict")
        try:
            return self.inner.predict(x_t, t, cond)
        finally:
            self.tracer.end()


@dataclass(frozen=True)
class CountingSchedule(NoiseSchedule):
    """NoiseSchedule whose scalar lookups are recorded as ``schedule.*`` spans."""

    tracer: object = field(default=None, repr=False, compare=False)

    @classmethod
    def of(cls, sched, tracer):
        return cls(T=sched.T, betas=sched.betas, alphas=sched.alphas,
                   alpha_bars=sched.alpha_bars, tracer=tracer)

    def alpha_bar(self, t):
        self.tracer.begin("schedule.alpha_bar")
        try:
            return super().alpha_bar(t)
        finally:
            self.tracer.end()

    def log_snr(self, t):
        self.tracer.begin("schedule.log_snr")
        try:
            return super().log_snr(t)
        finally:
            self.tracer.end()

    def alpha_bar_at(self, t):
        self.tracer.begin("schedule.alpha_bar_at")
        try:
            return super().alpha_bar_at(t)
        finally:
            self.tracer.end()


# (module, attribute, span name): plain wrappers installed by ``instrument``
_PLAIN = (
    (regimes, "run_sampler", "samplers.run_sampler"),
    (regimes, "ddim_invert", "inversion.ddim_invert"),
    (regimes, "q_sample", "forward.q_sample"),
    (regimes, "psnr", "metrics.psnr"),
    (regimes, "rmse", "metrics.rmse"),
    (regimes, "ssim", "metrics.ssim"),
    (cli, "regime_sweep", "regimes.regime_sweep"),
    (_kernels, "lincomb2", "kernels.lincomb2"),
    (_kernels, "lincomb3", "kernels.lincomb3"),
    (_kernels, "ssim_map", "kernels.ssim_map"),
    (_kernels, "add_ellipses", "kernels.add_ellipses"),
)


@contextmanager
def instrument(tracer):
    """Route astn's calls through ``tracer`` for the duration of the block."""
    reconstruct = regimes.reconstruct
    make_schedule = cli.make_linear_schedule

    def traced_reconstruct(regime, low_dose, pred, sched, rng, record=False):
        counter = CountingPredictor(pred, tracer)
        tracer.begin("regimes.reconstruct")
        try:
            result = reconstruct(regime, low_dose, counter, sched, rng, record)
        finally:
            tracer.end()
        tracer.check_nfe(regime, counter.calls)
        return result

    def counting_schedule(*args, **kwargs):
        return CountingSchedule.of(make_schedule(*args, **kwargs), tracer)

    saved = [(regimes, "reconstruct", reconstruct), (cli, "make_linear_schedule", make_schedule)]
    saved += [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _PLAIN]
    try:
        regimes.reconstruct = traced_reconstruct
        cli.make_linear_schedule = counting_schedule
        for mod, attr, name in _PLAIN:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr)))
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
