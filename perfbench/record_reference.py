"""Record reference.json: every checked output of every workload, per input seed.

Run at the commit whose outputs are the reference, from the repository root:

    python3 perfbench/record_reference.py

For each input seed in [0, REFERENCE_POOL) it sets each workload up once,
runs one pass and stores the outputs the benchmark checks: per-cell PSNR and
SSIM as ``astn run`` wrote them, and per-request PSNR against the full-dose
image, to 12 significant digits.
"""

import json
import shutil
import sys

import environment  # first: thread limits and src/ on the path, before numpy

import workloads

PATH = environment.ROOT / "perfbench" / "reference.json"


def _round(value):
    if isinstance(value, (list, tuple)):
        return [_round(v) for v in value]
    return float(f"{value:.12g}")


def main():
    outputs = {name: {} for name in workloads.WORKLOADS}
    workdir = environment.ROOT / ".perfbench_out" / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for input_seed in range(workloads.REFERENCE_POOL):
            for name in workloads.WORKLOADS:
                wl = workloads.make(name)
                d = workdir / f"{name}-{input_seed}"
                d.mkdir(parents=True)
                state, _ = wl.setup(d, input_seed)
                result = wl.run_pass(state)
                failed = [e for e in result.errors if e is not None]
                if failed:
                    sys.exit(f"{name} input seed {input_seed}: {failed[0]}")
                outputs[name][str(input_seed)] = _round(result.values)
            print(f"input seed {input_seed} recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "recorded_at": {"git_commit": environment.git_commit(),
                        "source_sha256": environment.source_sha256()},
        "pool": workloads.REFERENCE_POOL,
        "tolerance": {"psnr_db": workloads.PSNR_TOL_DB, "ssim": workloads.SSIM_TOL},
        "outputs": outputs,
    }
    with open(PATH, "w") as f:
        json.dump(record, f, separators=(",", ":"))
        f.write("\n")


if __name__ == "__main__":
    main()
