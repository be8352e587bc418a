"""Layered benchmark for astn.

One workload, as BENCHMARK.json's command runs it:

    python3 perfbench/run.py --workload ast-256 --seed 3 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
times every layer on its own, then runs the workload for half the time
untraced and half traced, and reports the per-layer metrics and the tracing
overhead. Either way every output is checked against ``reference.json`` and
the last stdout line is the JSON result. The full record (environment stamp,
failures and, when traced, every span) goes to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``.

End-to-end metrics (``--trace 0``), where a pass is one ``astn run`` for
sweep-default and one round of the request list for the other workloads:

    setup_s        median set-up time: generate the dataset, build the
                   predictors, warm every code path up. SETUP_REPEATS
                   set-ups precede the passes and one more follows every
                   SETUP_EVERY_S seconds of untraced passes, so the median
                   samples the host's speed across the whole run
    sweep_s        mean wall time of a pass. On a shared host the CPU speed
                   switches every few seconds between states up to 1.5x
                   apart; a median of passes jumps with whichever state held
                   most of the run, the mean weighs the states by time
    recon_per_s    reconstructions completed per second of pass time
    recon_p50_ms   median latency of one ``regimes.reconstruct`` call
    recon_p90_ms   90th percentile of the same (hundreds of calls per run)
    peak_rss_mb    peak resident memory of the process

A failed operation (a sweep cell or a request that fails, gives a non-finite
output, misses its reference or, when traced, its NFE count) counts in
``failed``; fail_ratio is ``failed / attempted``. It is 0 at the seed commit,
so it is reported there and not as a bounded metric.

Every workload, untraced then traced, one after the other, with a table of
every metric, the tracing overhead and the workload split:

    python3 perfbench/run.py --all [--seed 0] [--seconds 45]

Fast self-check: every workload at a tiny size, checking that each metric
BENCHMARK.json names is reported with its unit:

    python3 perfbench/run.py --self-check
"""

import argparse
import contextlib
import fcntl
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys

import environment  # first: thread limits and src/ on the path, before numpy

import layers
import workloads
from tracing import Tracer, instrument

OUT_DIR = environment.ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SETUP_EVERY_S = 2.0
LAYER_BUDGET_S = 0.1  # per layer entry; per-layer timings are not bounded
SHARE_LAYERS = ("kernels", "denoiser", "schedule", "samplers", "inversion", "forward", "regimes")


@contextlib.contextmanager
def _exclusive(path):
    # never two workloads at once in one checkout
    with open(path, "w") as f:
        try:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            sys.exit("perfbench: another workload is running in this checkout")
        yield


def _setup(wl, workdir, input_seed, setups):
    d = workdir / f"setup{len(setups)}"
    d.mkdir(parents=True)
    state, times = wl.setup(d, input_seed)
    setups.append(times)
    return state, d


def _loop(wl, state, seconds, tracer=None, resetup=None):
    """Whole passes until their wall times add up to ``seconds`` (at least one).

    ``resetup`` is called after every SETUP_EVERY_S seconds of passes.
    """
    passes = []
    spent, next_setup = 0.0, SETUP_EVERY_S
    while not passes or spent < seconds:
        passes.append(wl.run_pass(state, tracer))
        spent += passes[-1].wall_s
        if resetup is not None and spent >= next_setup:
            resetup()
            next_setup += SETUP_EVERY_S
    return passes


def _end_to_end(setups, passes):
    lat = [x for p in passes for x in p.latencies_s]
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "sweep_s": (statistics.fmean(p.wall_s for p in passes), "s"),
        "recon_per_s": (len(lat) / sum(p.wall_s for p in passes), "1/s"),
        "recon_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "recon_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(wl, setups, plain, traced, tracer, layer_times):
    out = dict(layer_times)
    root = "cli.run" if isinstance(wl, workloads.SweepDefault) else "bench.pass"
    _, root_total, root_self = tracer.totals[(root, root)]
    by_layer = tracer.layer_totals(root)
    for layer in SHARE_LAYERS:
        out[f"{layer}.self_share"] = (by_layer[layer][2] / root_total, "share")
    # scoring inclusive of its ssim_map kernel
    out["metrics.score_share"] = (by_layer["metrics"][1] / root_total, "share")
    recons = max(tracer.recon_count, 1)
    out["denoiser.nfe_per_recon"] = (tracer.nfe_total / recons, "count")
    out["schedule.calls_per_recon"] = (by_layer["schedule"][0] / recons, "count")
    # outside the sweep the caller of reconstruct is the benchmark's own request loop
    cell_self = tracer.totals[(root, "regimes.regime_sweep")][2] if root == "cli.run" else root_self
    out["regimes.cell_self_ms"] = (cell_self / (len(wl.ops) * len(traced)) * 1e3, "ms")
    out["cli.run_overhead_s"] = (root_self / len(traced), "s")
    out["data.generate_dataset_s"] = (statistics.median(s["generate_dataset_s"] for s in setups), "s")
    out["data.read_manifest_ms"] = (statistics.median(s["read_manifest_ms"] for s in setups), "ms")
    out["trace.overhead_share"] = (
        statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in plain) - 1.0,
        "share")
    return out


def _load_reference(name, input_seed):
    with open(environment.ROOT / "perfbench" / "reference.json") as f:
        return json.load(f)["outputs"][name][str(input_seed)]


def measure(args, workdir):
    """Run one workload; returns the full record."""
    wl = workloads.make(args.workload, args.tiny)
    input_seed = args.seed % workloads.REFERENCE_POOL
    reference = None if args.tiny else _load_reference(wl.name, input_seed)
    env = environment.stamp(args.seed, input_seed, wl.config(input_seed))

    setups = []
    for _ in range(SETUP_REPEATS):
        state, _ = _setup(wl, workdir, input_seed, setups)

    def resetup():
        shutil.rmtree(_setup(wl, workdir, input_seed, setups)[1])

    tracer = None
    if args.trace:
        layer_times = layers.measure(args.seed, workdir, 1e-3 if args.tiny else LAYER_BUDGET_S)
        plain = _loop(wl, state, args.seconds / 2, resetup=resetup)
        tracer = Tracer()
        wl.bind(state, tracer)
        with instrument(tracer):
            traced = _loop(wl, state, args.seconds / 2, tracer)
        wl.bind(state, None)
        passes = plain + traced
        metrics = _per_layer(wl, setups, plain, traced, tracer, layer_times)
    else:
        passes = _loop(wl, state, args.seconds, resetup=resetup)
        metrics = _end_to_end(setups, passes)

    for p in passes:
        workloads.check(p, reference, wl.ops)
    errors = [e for p in passes for e in p.errors if e is not None]
    env["loadavg_after"] = list(os.getloadavg())
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "environment": env,
        "reference_checked": reference is not None,
        "passes": len(passes),
        "attempted": sum(len(p.errors) for p in passes),
        "failed": len(errors),
        "failures": errors[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_s": [t["setup_s"] for t in setups],
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_latencies_s": [p.latencies_s for p in passes],
    }
    if tracer is not None:
        record["nfe_mismatches"] = tracer.nfe_mismatches[:50]
        record["span_totals"] = [[r, n, c, t, s] for (r, n), (c, t, s) in sorted(tracer.totals.items())]
        t0 = tracer.spans[0][4] if tracer.spans else 0.0
        record["spans"] = [[i, p, r, n, s - t0, e - t0, self_s] for i, p, r, n, s, e, self_s in tracer.spans]
    return record


def run_one(args):
    OUT_DIR.mkdir(exist_ok=True)
    with _exclusive(OUT_DIR / "lock"):
        workdir = OUT_DIR / f"work-{os.getpid()}"
        try:
            record = measure(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as f:
        json.dump(record, f)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for err in record["failures"][:10]:
        print(f"failed: {err}", file=sys.stderr)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


def _child(workload, seed, seconds, trace, tiny):
    """Run one workload in its own process, after the previous one has ended."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=environment.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _ratio(result):
    return f"{result['failed']}/{result['attempted']} = {result['failed'] / result['attempted']:g}"


def run_all(args):
    results = {(w, t): _child(w, args.seed, args.seconds, t, args.tiny)
               for w in workloads.WORKLOADS for t in (0, 1)}
    for trace, title in ((0, "end-to-end (tracing off)"), (1, "per layer (traced run)")):
        print(f"\n== {title}")
        for w in workloads.WORKLOADS:
            res = results[(w, trace)]
            print(f"-- {w}: correct={res['correct']} fail_ratio {_ratio(res)}")
            for name, m in res["metrics"].items():
                print(f"   {name:<44} {m['value']:>14.6g} {m['unit']}")

    def share(w, *names):
        return sum(results[(w, 1)]["metrics"][n]["value"] for n in names)

    overheads = {w: share(w, "trace.overhead_share") for w in workloads.WORKLOADS}
    split = [
        ("metrics.score_share sweep-default > 0.2",
         share("sweep-default", "metrics.score_share") > 0.2),
        ("metrics.score_share ast-256 == 0 (no scoring in timed requests)",
         share("ast-256", "metrics.score_share") == 0.0),
        ("kernels + denoiser self share ast-256 > 0.5",
         share("ast-256", "kernels.self_share", "denoiser.self_share") > 0.5),
    ]
    for layer in ("schedule", "samplers", "inversion"):
        name = f"{layer}.self_share"
        split.append((f"{name} inverted-64 > ast-256", share("inverted-64", name) > share("ast-256", name)))
    print("\n== tracing overhead (traced / untraced pass time - 1)")
    for w, v in overheads.items():
        print(f"   {w:<16} {v:+.3f}")
    print("\n== workload split")
    for text, ok in split:
        print(f"   {'ok ' if ok else 'NOT'} {text}")

    summary = {f"{w}/trace{t}": r for (w, t), r in results.items()}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"summary-seed{args.seed}.json", "w") as f:
        json.dump({"results": summary, "split": split}, f, indent=1)
    return 0 if all(r["correct"] for r in results.values()) else 1


def self_check(args):
    with open(environment.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    unknown = {w["name"] for w in spec["workloads"]} - set(workloads.WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")
    for w in workloads.WORKLOADS:
        for trace in (0, 1):
            got = _child(w, args.seed, 1, trace, tiny=True)
            if not got["correct"]:
                problems.append(f"{w} trace={trace}: {_ratio(got)} operations failed")
            metrics = got["metrics"]
            for name, unit in wanted[trace].items():
                if name not in metrics:
                    problems.append(f"{w} trace={trace}: {name} missing")
                elif metrics[name]["unit"] != unit:
                    problems.append(f"{w} trace={trace}: {name} in {metrics[name]['unit']}, want {unit}")
                elif not math.isfinite(metrics[name]["value"]):
                    problems.append(f"{w} trace={trace}: {name} = {metrics[name]['value']}")
            for name in metrics.keys() - wanted[trace].keys():
                problems.append(f"{w} trace={trace}: {name} not named in BENCHMARK.json")
            print(f"{w} trace={trace}: {len(metrics)} metrics, {_ratio(got)} failed")
    for p in problems:
        print(f"problem: {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=workloads.WORKLOADS)
    mode.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    mode.add_argument("--self-check", action="store_true", help="tiny run of every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, no reference check")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.self_check:
        return self_check(args)
    if args.all:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
