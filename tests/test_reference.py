import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["sweep-default", "ast-256", "inverted-64"])
def test_workload_outputs_match_the_benchmark_reference(monkeypatch, tmp_path, name):
    # one pass of each benchmark workload at input seed 0 against the outputs
    # perfbench/reference.json pins, at that file's tolerances; environment
    # and run are left out, as they set thread variables
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())["outputs"][name]["0"]
    wl = workloads.make(name)
    state, _ = wl.setup(tmp_path, 0)
    result = wl.run_pass(state)
    workloads.check(result, reference, wl.ops)
    errors = [e for e in result.errors if e is not None]
    assert not errors, f"{len(errors)} of {len(wl.ops)} operations failed, first: {errors[:3]}"
