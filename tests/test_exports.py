import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import astn
from astn import cli, regimes
from astn.denoiser import GaussianDataModel, GaussianOracle
from astn.schedule import make_linear_schedule

MODULES = sorted(m.name for m in pkgutil.iter_modules(astn.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"astn.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"astn.{name}.__all__ names missing attributes: {missing}"


def test_benchmark_binds_to_the_library(monkeypatch):
    # perfbench's traced runs rebind library names and fail at once if one
    # is renamed; environment and run are left out, as they set thread variables
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    importlib.import_module("layers")
    importlib.import_module("workloads")
    rebound = [(regimes, "reconstruct"), (cli, "make_linear_schedule")]
    rebound += [(module, attr) for module, attr, _ in tracing._PLAIN]
    library = [getattr(module, attr) for module, attr in rebound]

    tracer = tracing.Tracer()
    plain = make_linear_schedule(1000)
    sched = tracing.CountingSchedule.of(plain, tracer)
    rng = np.random.default_rng(5)
    model = GaussianDataModel(mean=rng.random((16, 16)), var=0.05)
    low = rng.random((16, 16))
    kinds = ("ddim", "dpmpp2m", "unipc2")
    specs = {kind: regimes.make_regime_spec("ast", 10, kind, plain) for kind in kinds}
    # traced runs count evaluations through CountingPredictor's default bind,
    # so they evaluate through predict
    pred = GaussianOracle(model, sched, 0.05)
    with tracing.instrument(tracer):
        assert all(getattr(module, attr) is not fn for (module, attr), fn in zip(rebound, library))
        traced = {k: regimes.reconstruct(specs[k], low, pred, sched, np.random.default_rng(7))[0] for k in kinds}
    assert tracer.recon_count == len(kinds) and tracer.nfe_mismatches == []
    assert all(getattr(module, attr) is fn for (module, attr), fn in zip(rebound, library))
    # the reference check compares both paths, so they must agree to rounding
    pred = GaussianOracle(model, plain, 0.05)
    for kind in kinds:
        untraced = regimes.reconstruct(specs[kind], low, pred, plain, np.random.default_rng(7))[0]
        assert np.abs(traced[kind] - untraced).max() <= 1e-12 * np.abs(untraced).max(), kind
