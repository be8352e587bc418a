"""Experiment driver: dataset generation, sweep execution, report rendering.

Subcommands:
    generate   write a synthetic DosePair dataset + manifest under --out
    run        execute the (regime x sampler x origin) sweep, write metrics
               CSV and per-(sampler, regime) quality-vs-steps curve CSVs
    report     render a grouped text table from a metrics CSV (inverted and
               standard initializations paired side by side where both exist)

Configuration is a single JSON file (see README for the schema). Exit codes:
0 success, 2 configuration errors, 3 runtime failures. A configuration error
is a ``ConfigError``, raised where a config value or a command-line input is
parsed; any other exception, ``ValueError`` included, is a runtime failure.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from astn import data as dat
from astn.denoiser import AffinePredictor, GaussianDataModel, GaussianOracle, ZeroPredictor, conditioned_oracle
from astn.metrics import MetricsReport
from astn.regimes import regime_sweep, sweep_cells
from astn.schedule import make_linear_schedule

__all__ = ["main", "load_config", "save_config", "render_report", "ConfigError"]

SAMPLER_ALIASES = {"dpmpp": "dpmpp2m", "unipc": "unipc2"}

DEFAULT_CONFIG = {
    "seed": 2024,
    "schedule": {"T": 1000, "beta_start": 1e-4, "beta_end": 0.02},
    "dataset": {
        "count": 16,
        "size": 64,
        "dose_fractions": [0.25, 0.10],
        "n_ellipses": 6,
        "photons_full_dose": 4096,
    },
    "predictor": {
        "kind": "conditioned_oracle",
        "prior_mean": 0.5,
        "prior_var": 0.0625,
        "condition_noise": "auto",
    },
    "run": {
        "samplers": ["ddpm", "ddim", "dpm1", "dpm2", "dpmpp", "unipc"],
        "regimes": ["full", "ast"],
        "origins": [10, 25, 50, 100, 150, 500],
        "eta": 0.0,
    },
}


class ConfigError(Exception):
    pass


def _parsed(what, parse):
    """``parse()``, with a TypeError or ValueError it raises turned into a ConfigError about ``what``."""
    try:
        return parse()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _integer(what, value):
    """``value`` as ``int()`` parses it, except that a bool or a number with a
    fractional part is a ConfigError instead of a silently truncated int."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"bad {what}: {value!r} is not an integer")
    return _parsed(what, lambda: int(value))


def _real(what, value):
    """``value`` as ``float()`` parses it, except that a bool is a ConfigError
    instead of a silent 0.0 or 1.0."""
    if isinstance(value, bool):
        raise ConfigError(f"bad {what}: {value!r} is not a number")
    return _parsed(what, lambda: float(value))


def load_config(path):
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def save_config(cfg, path):
    with open(path, "w") as f:
        json.dump(cfg, f, indent=2)
        f.write("\n")


def _section(cfg, name):
    """The ``name`` section of ``cfg`` over its defaults; it must be a JSON object."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} section must be a JSON object, got {section!r}")
    return {**DEFAULT_CONFIG[name], **section}


def _seed(args, cfg):
    seed = args.seed
    if seed is None:
        seed = _integer("seed", cfg.get("seed", DEFAULT_CONFIG["seed"]))
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"seed {seed} is not an unsigned 64-bit integer")
    return seed


def _build_schedule(cfg):
    sc = _section(cfg, "schedule")
    return _parsed(
        "schedule",
        lambda: make_linear_schedule(
            _integer("schedule T", sc["T"]),
            _real("schedule beta_start", sc["beta_start"]),
            _real("schedule beta_end", sc["beta_end"]),
        ),
    )


def _dataset_args(cfg):
    """``generate_dataset``'s keyword arguments from the dataset section, checked."""
    ds = _section(cfg, "dataset")

    def parse():
        args = {
            "count": _integer("dataset count", ds["count"]),
            "size": _integer("dataset size", ds["size"]),
            "dose_fractions": [_real("dataset dose fraction", f) for f in ds["dose_fractions"]],
            "n_ellipses": _integer("dataset n_ellipses", ds["n_ellipses"]),
            "photons_full_dose": _integer("dataset photons_full_dose", ds["photons_full_dose"]),
        }
        if args["count"] < 0 or args["photons_full_dose"] <= 0:
            raise ValueError("need count >= 0 and photons_full_dose > 0")
        dat.dose_tags(args["dose_fractions"])
        dat.PhantomSpec(size=args["size"], n_ellipses=args["n_ellipses"])  # checks both
        return args

    return _parsed("dataset section", parse)


def _build_predictor_factory(cfg, sched, shape, photons):
    pc = _section(cfg, "predictor")
    kind = pc["kind"]
    if kind in ("conditioned_oracle", "gaussian_oracle"):
        model = _parsed("predictor prior_mean/prior_var", lambda: GaussianDataModel(
            mean=np.full(shape, _real("predictor prior_mean", pc["prior_mean"])),
            var=_real("predictor prior_var", pc["prior_var"]),
        ))
    if kind == "conditioned_oracle":
        cn = pc["condition_noise"]
        if cn == "auto":
            # Poisson surrogate noise scale at mid intensity: var ~ 0.5/(frac*photons)
            def factory(pair):
                level = math.sqrt(0.5 / (pair.dose_fraction * photons))
                return conditioned_oracle(model, level, sched)

            return factory
        level = _real("predictor condition_noise", cn)
        oracle = _parsed("predictor condition_noise", lambda: conditioned_oracle(model, level, sched))
        return lambda pair: oracle
    if kind == "gaussian_oracle":
        oracle = GaussianOracle(model, sched)
        return lambda pair: oracle
    if kind == "affine":
        path = pc.get("path")
        # open() would take an integer for a file descriptor
        if not isinstance(path, str):
            raise ConfigError(f"predictor kind 'affine' needs a path string, got {path!r}")
        try:
            pred = AffinePredictor.load(path)
        except ValueError as exc:
            # a corrupt predictor file is a runtime failure, not a config error
            raise RuntimeError(f"cannot load the affine predictor {path}: {exc}") from exc
        return lambda pair: pred
    if kind == "zero":
        zero = ZeroPredictor()
        return lambda pair: zero
    raise ConfigError(f"unknown predictor kind {kind!r}")


def cmd_generate(args):
    cfg = load_config(args.config)
    dataset_args = _dataset_args(cfg)
    seed = _seed(args, cfg)
    out = Path(args.out) / "dataset"
    manifest = out / "manifest.csv"
    if manifest.exists() and not args.force:
        raise ConfigError(f"{manifest} exists; pass --force to overwrite")
    records = dat.generate_dataset(out, master_seed=seed, **dataset_args)
    print(f"wrote {len(records)} dose pairs under {out}")
    return 0


def cmd_run(args):
    if args.threads < 1:
        raise ConfigError(f"--threads {args.threads} must be >= 1")
    cfg = load_config(args.config)
    rc = _section(cfg, "run")
    photons = _dataset_args(cfg)["photons_full_dose"]
    seed = _seed(args, cfg)
    sched = _build_schedule(cfg)
    for name in ("regimes", "samplers", "origins"):
        if not isinstance(rc[name], list):
            raise ConfigError(f"run {name} must be a JSON list, got {rc[name]!r}")
    cells = _parsed("run section", lambda: sweep_cells(
        rc["regimes"],
        [SAMPLER_ALIASES.get(s, s) for s in rc["samplers"]],
        [_integer("run origin", n) for n in rc["origins"]],
        sched,
        eta=_real("run eta", rc["eta"]),
    ))

    manifest = Path(args.out) / "dataset" / "manifest.csv"
    if not manifest.exists():
        raise ConfigError(f"no dataset manifest at {manifest}; run `astn generate` first")
    try:
        dataset = dat.read_manifest(manifest)
    except ValueError as exc:
        # a corrupt dataset file is a runtime failure, not a config error
        raise RuntimeError(f"cannot load the dataset listed in {manifest}: {exc}") from exc
    if not dataset:
        raise ConfigError(f"{manifest} lists no pairs")
    shape = dataset[0].full_dose.shape
    factory = _build_predictor_factory(cfg, sched, shape, photons)

    report = regime_sweep(cells, dataset, factory, sched, master_seed=seed, threads=args.threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.csv"
    report.write_csv(metrics_path)
    report.write_curves(out / "curves")
    print(f"wrote {len(report.rows)} rows to {metrics_path}")
    if report.failures:
        print(f"{len(report.failures)} sweep cells failed", file=sys.stderr)
        return 3
    return 0


# (MetricsRow field, number format, column width) of the report table
_REPORT_COLUMNS = (("psnr_db", ".3f", 17), ("rmse", ".4e", 21), ("ssim", ".3f", 15), ("time_s", ".3f", 15))


def render_report(report, T=1000):
    """Grouped text table in the quality-table layout: full schedule block,
    reduced-step block, AST block; inverted/standard paired left/right."""
    inverted = {(r.sampler, r.steps): r for r in report.rows if r.regime == "inverted"}
    full = {(r.sampler, r.steps) for r in report.rows if r.regime == "full"}

    def cell(row, attr, fmt):
        # inverted runs share the full-noise grids, so they pair only with
        # "full" rows; AST rows stay single-valued
        inv = inverted.get((row.sampler, row.steps)) if row.regime == "full" else None
        base = format(getattr(row, attr), fmt)
        if inv is not None:
            return f"{format(getattr(inv, attr), fmt)}/{base}"
        return base

    def label(row):
        if row.regime == "ast":
            return f"{row.sampler.upper()} (AST-{row.steps})"
        return f"{row.sampler.upper()}@{row.steps}"

    blocks = [
        ("Full schedule", [r for r in report.rows if r.regime == "full" and r.steps >= T]),
        ("Reduced steps", [r for r in report.rows if r.regime == "full" and r.steps < T]),
        ("AST-n", [r for r in report.rows if r.regime == "ast"]),
        # inverted rows without a standard partner still need to be shown
        ("Inverted only",
         [r for r in report.rows if r.regime == "inverted" and (r.sampler, r.steps) not in full]),
    ]

    lines = []
    header = f"{'model':<22}" + "".join(f" {name:>{width}}" for name, _, width in _REPORT_COLUMNS)
    for title, rows in blocks:
        if not rows:
            continue
        lines.append(title)
        lines.append(header)
        for r in sorted(rows, key=lambda r: (-r.steps, r.sampler)):
            lines.append(f"{label(r):<22}" + "".join(
                f" {cell(r, name, fmt):>{width}}" for name, fmt, width in _REPORT_COLUMNS
            ))
        lines.append("")
    return "\n".join(lines)


def cmd_report(args):
    try:
        report = MetricsReport.read_csv(args.metrics_csv)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {args.metrics_csv}: {exc}") from exc
    print(render_report(report))
    if args.out:
        report.write_curves(Path(args.out) / "curves")
    return 0


def _parser():
    p = argparse.ArgumentParser(prog="astn", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dose-pair dataset")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--force", action="store_true")
    g.set_defaults(fn=cmd_generate)

    r = sub.add_parser("run", help="execute the sweep and write metrics/curves")
    r.add_argument("--config", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--threads", type=int, default=1)
    r.set_defaults(fn=cmd_run)

    t = sub.add_parser("report", help="render a metrics CSV as a grouped table")
    t.add_argument("metrics_csv")
    t.add_argument("--out", default=None)
    t.set_defaults(fn=cmd_report)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
