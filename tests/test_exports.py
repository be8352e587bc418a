import ast
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


def _private_sampler_names(tree):
    """(line, name) of each private ``astn.samplers`` name a module's syntax tree imports or reads."""
    found, aliases = [], set()  # aliases: the expressions that name the samplers module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:  # relative to a module of the astn package
                module = "astn" + (f".{module}" if module else "")
            if module == "astn.samplers":
                found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
            elif module == "astn":
                aliases |= {a.asname or a.name for a in node.names if a.name == "samplers"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "astn.samplers"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and ast.unparse(node.value) in aliases:
            found.append((node.lineno, node.attr))
    return found


def test_only_the_walks_reach_into_the_samplers():
    # the three walks (run_sampler, sampler_step, DDIM inversion) are the only
    # callers of the plan compiler and executor, so of the other modules only
    # astn.inversion may import astn.samplers' private names
    offenders = {}
    for path in sorted(Path(astn.__file__).parent.glob("*.py")):
        if path.stem in ("samplers", "inversion"):
            continue
        found = _private_sampler_names(ast.parse(path.read_text(), filename=str(path)))
        if found:
            offenders[f"astn.{path.stem}"] = found
    assert offenders == {}


@pytest.mark.parametrize("source, found", [
    ("from astn.samplers import SamplerSpec, _plan", [(1, "_plan")]),
    ("from .samplers import _execute as run", [(1, "_execute")]),
    ("from . import samplers as s\ns._plan", [(2, "_plan")]),
    ("from astn import samplers\nsamplers._plan('ddim', (1, 0), None, 0.0)", [(2, "_plan")]),
    ("import astn.samplers as s\ns._compiled", [(2, "_compiled")]),
    ("import astn.samplers\nastn.samplers._last_plans", [(2, "_last_plans")]),
    ("from astn.samplers import run_sampler\nfrom astn.schedule import _x", []),
], ids=["from_import", "relative", "relative_module", "module_attribute", "import_as", "dotted", "public_only"])
def test_private_sampler_name_scan(source, found):
    assert _private_sampler_names(ast.parse(source)) == found


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
