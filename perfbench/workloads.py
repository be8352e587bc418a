"""The benchmark's three workloads and the checks on their outputs.

All three are closed loops: one process, one caller, ``--threads 1``, each
call issued when the previous one has returned.

``sweep-default``
    ``astn generate`` then repeated ``astn run`` on the default config, with
    the dataset cut from 16 phantoms to 1 (2 dose pairs) so a sweep fits in a
    few seconds. The 72 cells (6 samplers x {full, ast} x origins 10..500 at
    64x64, conditioned oracle) are those of the default sweep. Scoring
    (``metrics.ssim``) and per-hop Python overhead on small arrays dominate.
    The sweep issues its own reconstruct calls, so their latencies come from a
    timer the benchmark puts around ``regimes.reconstruct`` for the pass.
``ast-256``
    Repeated ``regimes.reconstruct`` in the ``ast`` regime at 256x256 with
    ``ddim``, ``dpmpp2m`` and ``unipc2`` at origins 10, 25 and 50, scored
    after the timed request. Array work in the kernels and the predictor
    dominates; there is no scoring inside a request.
``inverted-64``
    Repeated ``regimes.reconstruct`` in the ``inverted`` regime at 64x64 with
    ``dpm2``, ``unipc2`` and ``dpmpp2m`` at budgets 10, 25 and 50: a DDIM
    inversion walk before every reverse solve, and ``dpm2``'s timestep
    bisection. Schedule scalar math and sampler overhead dominate. Pure
    interpreter work tracks the host's CPU speed, which on a shared 2-vCPU
    host switches every few seconds between states up to 1.5x apart; its
    run-to-run spread (0.15-0.36 of the median over ten 25-30 s runs) exceeds
    the largest bound BENCHMARK.json may set, so BENCHMARK.json leaves it out and
    it runs under ``--all`` and ``--workload`` only.

A workload's inputs come from ``seed % REFERENCE_POOL``. ``reference.json``
holds, for each of those input seeds, every checked output as recorded at the
seed commit by ``record_reference.py``: per-cell PSNR and SSIM of the sweep,
and per-request PSNR against the full-dose image. An output matches when it
is within PSNR_TOL_DB and SSIM_TOL of its reference.
"""

import contextlib
import copy
import io
import math
import time
from dataclasses import dataclass

import numpy as np

from astn import cli, data, regimes
from astn.denoiser import GaussianDataModel, conditioned_oracle
from astn.metrics import MetricsReport, psnr
from astn.schedule import make_linear_schedule

from tracing import CountingSchedule

REFERENCE_POOL = 32
# far above float reordering noise (~1e-10 dB) and the CSV's rounding
# (1e-6 dB, 1e-8), far below any change to a solver's arithmetic
PSNR_TOL_DB = 1e-5
SSIM_TOL = 1e-7


@dataclass
class PassResult:
    """One pass over a workload's operations (a sweep, or the request list)."""

    wall_s: float
    latencies_s: list  # one per reconstruct call
    values: list  # per operation: the checked output, or None when it failed
    errors: list  # per operation: None, or why it failed


def _quiet_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"astn {argv[0]} exited with {rc}")


def _generate(workdir, config):
    """Write ``config``, run ``astn generate`` and read the manifest back.

    Returns (config path, dose pairs, generate seconds, manifest-read ms).
    """
    cfg_path = workdir / "config.json"
    cli.save_config(config, cfg_path)
    t0 = time.perf_counter()
    _quiet_cli(["generate", "--config", str(cfg_path), "--out", str(workdir)])
    gen_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    pairs = data.read_manifest(workdir / "dataset" / "manifest.csv")
    manifest_ms = (time.perf_counter() - t0) * 1e3
    return cfg_path, pairs, gen_s, manifest_ms


def check(result, reference, ops):
    """Mark operations whose output differs from ``reference`` (None: no reference)."""
    if reference is None:
        return
    values, errors = result.values, result.errors
    if len(reference) != len(values):
        raise ValueError(f"reference holds {len(reference)} outputs, workload has {len(values)}")
    for i, (got, want) in enumerate(zip(values, reference)):
        if got is None or errors[i] is not None:
            continue
        got = got if isinstance(got, (list, tuple)) else [got]
        want = want if isinstance(want, (list, tuple)) else [want]
        for g, w, tol in zip(got, want, (PSNR_TOL_DB, SSIM_TOL)):
            if not abs(g - w) <= tol:
                errors[i] = f"{ops[i]}: output {g!r} differs from reference {w!r} by more than {tol}"
                break


class SweepDefault:
    name = "sweep-default"

    def __init__(self, tiny=False):
        cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
        cfg["dataset"]["count"] = 1
        if tiny:
            cfg["dataset"]["size"] = 32
            cfg["run"]["origins"] = [10, 25]
        self.base_config = cfg
        run = cfg["run"]
        kinds = [cli.SAMPLER_ALIASES.get(s, s) for s in run["samplers"]]
        # regime_sweep's cell order
        self.ops = [(r, k, n) for r in run["regimes"] for k in kinds for n in run["origins"]]

    def config(self, input_seed):
        cfg = copy.deepcopy(self.base_config)
        cfg["seed"] = input_seed
        return cfg

    def setup(self, workdir, input_seed):
        cfg = self.config(input_seed)
        t0 = time.perf_counter()
        cfg_path, _, gen_s, manifest_ms = _generate(workdir, cfg)
        warm = copy.deepcopy(cfg)
        warm["run"]["origins"] = [min(cfg["run"]["origins"])]
        warm_path = workdir / "warm.json"
        cli.save_config(warm, warm_path)
        _quiet_cli(["run", "--config", str(warm_path), "--out", str(workdir), "--threads", "1"])
        setup_s = time.perf_counter() - t0
        state = {"workdir": workdir, "config": cfg_path}
        return state, {"setup_s": setup_s, "generate_dataset_s": gen_s, "read_manifest_ms": manifest_ms}

    def bind(self, state, tracer):
        """Nothing to rebuild: under ``instrument`` the CLI builds a counting schedule itself."""

    def run_pass(self, state, tracer=None):
        workdir = state["workdir"]
        csv_path = workdir / "metrics.csv"
        csv_path.unlink(missing_ok=True)
        latencies = []
        inner = regimes.reconstruct

        def timed_reconstruct(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                latencies.append(time.perf_counter() - t0)

        argv = ["run", "--config", str(state["config"]), "--out", str(workdir), "--threads", "1"]
        mismatches_before = len(tracer.nfe_mismatches) if tracer else 0
        regimes.reconstruct = timed_reconstruct
        try:
            t0 = time.perf_counter()
            if tracer:
                tracer.begin("cli.run")
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(argv)
            finally:
                if tracer:
                    tracer.end()
            wall = time.perf_counter() - t0
        finally:
            regimes.reconstruct = inner

        rows = {}
        if csv_path.exists():
            for row in MetricsReport.read_csv(csv_path).rows:
                key = (row.regime, row.sampler, row.steps)
                rows[key] = None if key in rows else row  # a duplicate row fails its cell
        values, errors = [], []
        for key in self.ops:
            row = rows.get(key)
            if row is None:
                values.append(None)
                errors.append(f"cell {key}: no single metrics.csv row (astn run exit {rc})")
            else:
                values.append((row.psnr_db, row.ssim))
                errors.append(None)
        if tracer:
            for regime, kind, n, counted, expected in tracer.nfe_mismatches[mismatches_before:]:
                i = self.ops.index((regime, kind, n))
                errors[i] = errors[i] or f"cell {self.ops[i]}: counted NFE {counted} != {expected}"
        return PassResult(wall, latencies, values, errors)


class Requests:
    """Repeated ``regimes.reconstruct`` calls in one regime at one size."""

    def __init__(self, name, regime, size, kinds, origins, tiny=False):
        self.name = name
        self.regime = regime
        self.size = 32 if tiny else size
        self.kinds = kinds
        self.origins = origins[:1] if tiny else origins
        self.base_config = copy.deepcopy(cli.DEFAULT_CONFIG)
        self.base_config["dataset"].update(count=1, size=self.size)
        n_pairs = len(self.base_config["dataset"]["dose_fractions"])
        self.ops = [(p, k, n) for p in range(n_pairs) for k in kinds for n in self.origins]

    def config(self, input_seed):
        cfg = copy.deepcopy(self.base_config)
        cfg["seed"] = input_seed
        return cfg

    def setup(self, workdir, input_seed):
        cfg = self.config(input_seed)
        t0 = time.perf_counter()
        _, pairs, gen_s, manifest_ms = _generate(workdir, cfg)
        state = {"pairs": pairs, "seed": input_seed}
        self.bind(state, None)
        for kind in self.kinds:  # first calls happen here, not in a timed request
            spec = state["specs"][(kind, self.origins[0])]
            out = regimes.reconstruct(spec, pairs[0].low_dose, state["preds"][0], state["sched"],
                                      np.random.default_rng(0))[0]
            psnr(pairs[0].full_dose, out)
        setup_s = time.perf_counter() - t0
        return state, {"setup_s": setup_s, "generate_dataset_s": gen_s, "read_manifest_ms": manifest_ms}

    def bind(self, state, tracer):
        """Build schedule, predictors and specs; counting ones when ``tracer`` is set."""
        sc, ds, pc = (self.base_config[k] for k in ("schedule", "dataset", "predictor"))
        sched = make_linear_schedule(sc["T"], sc["beta_start"], sc["beta_end"])
        if tracer is not None:
            sched = CountingSchedule.of(sched, tracer)
        model = GaussianDataModel(mean=np.full((self.size, self.size), pc["prior_mean"]),
                                  var=pc["prior_var"])
        photons = ds["photons_full_dose"]
        # the CLI's "auto" condition noise for each pair's dose fraction
        state["preds"] = [
            conditioned_oracle(model, math.sqrt(0.5 / (p.dose_fraction * photons)), sched)
            for p in state["pairs"]
        ]
        state["sched"] = sched
        state["specs"] = {
            (k, n): regimes.make_regime_spec(self.regime, n, k, sched)
            for k in self.kinds for n in self.origins
        }

    def run_pass(self, state, tracer=None):
        pairs, preds, sched, specs = state["pairs"], state["preds"], state["sched"], state["specs"]
        outs, latencies, errors = [], [], []
        t_pass = time.perf_counter()
        if tracer:
            tracer.begin("bench.pass")
        try:
            for i, (p, kind, n) in enumerate(self.ops):
                rng = np.random.default_rng(np.random.SeedSequence((state["seed"], i)))
                mismatches = len(tracer.nfe_mismatches) if tracer else 0
                err = None
                t0 = time.perf_counter()
                try:
                    out = regimes.reconstruct(specs[(kind, n)], pairs[p].low_dose, preds[p], sched, rng)[0]
                except Exception as exc:  # a failed request is counted, the loop goes on
                    out, err = None, f"{type(exc).__name__}: {exc}"
                latencies.append(time.perf_counter() - t0)
                if tracer and len(tracer.nfe_mismatches) > mismatches:
                    _, _, _, counted, expected = tracer.nfe_mismatches[-1]
                    err = err or f"counted NFE {counted} != {expected}"
                outs.append(out)
                errors.append(err)
        finally:
            if tracer:
                tracer.end()
        wall = time.perf_counter() - t_pass

        values = []
        for i, ((p, kind, n), out) in enumerate(zip(self.ops, outs)):
            if out is not None and not np.isfinite(out).all():
                out, errors[i] = None, errors[i] or "non-finite reconstruction"
            values.append(None if out is None else psnr(pairs[p].full_dose, out))
            if errors[i] is not None:
                errors[i] = f"request {(p, kind, n)}: {errors[i]}"
        return PassResult(wall, latencies, values, errors)


def make(name, tiny=False):
    if name == "sweep-default":
        return SweepDefault(tiny)
    if name == "ast-256":
        return Requests(name, "ast", 256, ("ddim", "dpmpp2m", "unipc2"), (10, 25, 50), tiny)
    if name == "inverted-64":
        return Requests(name, "inverted", 64, ("dpm2", "unipc2", "dpmpp2m"), (10, 25, 50), tiny)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep-default", "ast-256", "inverted-64")
