import csv
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from astn import cli
from astn.cli import DEFAULT_CONFIG, load_config, main, render_report, save_config
from astn.denoiser import AffinePredictor, EpsilonPredictor
from astn.metrics import MetricsReport, MetricsRow

SMALL_CONFIG = {
    "seed": 77,
    "dataset": {
        "count": 2,
        "size": 32,
        "dose_fractions": [0.25],
        "n_ellipses": 5,
        "photons_full_dose": 4096,
    },
    "run": {
        "samplers": ["ddim"],
        "regimes": ["full", "ast"],
        "origins": [5, 10],
        "eta": 0.0,
    },
}

GOLDEN_REPORT = (
    "Full schedule\n"
    "model                            psnr_db                  rmse            ssim          time_s\n"
    "DDPM@1000                  38.721/38.788 1.1700e-02/1.1600e-02     0.973/0.973   45.144/16.382\n"
    "\n"
    "AST-n\n"
    "model                            psnr_db                  rmse            ssim          time_s\n"
    "DDIM (AST-150)                    39.272            1.0800e-02           0.974           2.397\n"
)


@pytest.fixture()
def workspace(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    save_config(SMALL_CONFIG, cfg_path)
    return tmp_path, cfg_path


def test_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    save_config(SMALL_CONFIG, path)
    once = load_config(path)
    save_config(once, path)
    assert load_config(path) == once == SMALL_CONFIG


def test_generate_run_report_pipeline(workspace, capsys):
    tmp, cfg = workspace
    out = tmp / "work"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "dataset" / "manifest.csv").exists()
    # refuses to clobber without --force
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    assert main(["generate", "--config", str(cfg), "--out", str(out), "--force"]) == 0

    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    metrics = out / "metrics.csv"
    assert metrics.exists()
    report = MetricsReport.read_csv(metrics)  # pipeline closure: rows parse back
    assert len(report.rows) == 4
    curves = sorted(p.name for p in (out / "curves").glob("*.csv"))
    assert curves == ["ddim_ast.csv", "ddim_full.csv"]
    for curve in (out / "curves").glob("*.csv"):
        lines = curve.read_text().splitlines()
        assert lines[0] == "steps,psnr_db,rmse,ssim,time_s"
        assert len(lines) == 3
    # every CSV file astn writes ends its lines with LF alone
    for path in [out / "dataset" / "manifest.csv", metrics, *(out / "curves").glob("*.csv")]:
        assert b"\r" not in path.read_bytes(), path.name

    capsys.readouterr()
    assert main(["report", str(metrics)]) == 0
    text = capsys.readouterr().out
    assert "AST-n" in text and "DDIM@10" in text and "DDIM (AST-10)" in text


def test_run_is_seed_deterministic(workspace):
    tmp, cfg = workspace
    out = tmp / "work"
    main(["generate", "--config", str(cfg), "--out", str(out)])
    main(["run", "--config", str(cfg), "--out", str(out), "--seed", "5"])
    first = (out / "metrics.csv").read_text()
    main(["run", "--config", str(cfg), "--out", str(out), "--seed", "5"])
    # timing column varies run to run; quality columns must not
    strip = lambda text: [
        ",".join(line.split(",")[:6]) for line in text.splitlines() if not line.startswith("#")
    ]
    assert strip(first) == strip((out / "metrics.csv").read_text())


def test_curve_rows_match_metrics_csv(workspace):
    tmp, cfg = workspace
    out = tmp / "work"
    main(["generate", "--config", str(cfg), "--out", str(out)])
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "metrics.csv", newline="") as f:
        metrics = list(csv.DictReader(ln for ln in f if not ln.startswith("#")))
    by_cell = {(r["sampler"], r["regime"], r["steps"]): r for r in metrics}
    assert main(["report", str(out / "metrics.csv"), "--out", str(tmp / "again")]) == 0
    curve_files = sorted((out / "curves").glob("*.csv"))
    assert len(curve_files) == 2
    seen = 0
    for path in curve_files:
        sampler, regime = path.stem.split("_")
        with open(path, newline="") as f:
            for row in csv.DictReader(f):
                cell = by_cell[(sampler, regime, row["steps"])]
                assert row == {name: cell[name] for name in row}  # string for string
                seen += 1
        # the curves report --out writes from metrics.csv are the run's, byte for byte
        assert (tmp / "again" / "curves" / path.name).read_bytes() == path.read_bytes()
    assert seen == len(metrics)


def test_rerun_owns_the_curve_set(workspace):
    # a smaller run into the same --out must not leave the earlier run's curves behind
    tmp, cfg = workspace
    out = tmp / "work"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    wide = tmp / "wide.json"
    save_config(dict(SMALL_CONFIG, run=dict(SMALL_CONFIG["run"], samplers=["ddim", "unipc"])), wide)
    curves = lambda d: sorted(p.name for p in (d / "curves").glob("*.csv"))
    assert main(["run", "--config", str(wide), "--out", str(out)]) == 0
    assert curves(out) == ["ddim_ast.csv", "ddim_full.csv", "unipc2_ast.csv", "unipc2_full.csv"]
    (out / "metrics.csv").rename(tmp / "wide_metrics.csv")
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert curves(out) == ["ddim_ast.csv", "ddim_full.csv"]

    again = tmp / "again"
    assert main(["report", str(tmp / "wide_metrics.csv"), "--out", str(again)]) == 0
    assert len(curves(again)) == 4
    assert main(["report", str(out / "metrics.csv"), "--out", str(again)]) == 0
    assert curves(again) == ["ddim_ast.csv", "ddim_full.csv"]


def test_generate_count_zero(tmp_path, capsys):
    cfg = dict(SMALL_CONFIG, dataset=dict(SMALL_CONFIG["dataset"], count=0))
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "w")]) == 0
    manifest = (tmp_path / "w" / "dataset" / "manifest.csv").read_text().splitlines()
    assert manifest == ["pair_id,full_path,low_path,dose_fraction,seed"]
    # a manifest without pairs has nothing to run
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "w")]) == 2
    assert "manifest.csv lists no pairs" in capsys.readouterr().err


def test_unknown_sampler_fails_fast(workspace):
    tmp, cfg = workspace
    bad = dict(SMALL_CONFIG, run=dict(SMALL_CONFIG["run"], samplers=["ddim", "euler"]))
    bad_path = tmp / "bad.json"
    save_config(bad, bad_path)
    out = tmp / "work"
    main(["generate", "--config", str(cfg), "--out", str(out)])
    assert main(["run", "--config", str(bad_path), "--out", str(out)]) == 2


def test_unknown_regime_fails_fast(workspace):
    tmp, cfg = workspace
    bad = dict(SMALL_CONFIG, run=dict(SMALL_CONFIG["run"], regimes=["warmstart"]))
    bad_path = tmp / "bad.json"
    save_config(bad, bad_path)
    out = tmp / "work"
    main(["generate", "--config", str(cfg), "--out", str(out)])
    assert main(["run", "--config", str(bad_path), "--out", str(out)]) == 2


def test_run_without_dataset_is_config_error(workspace):
    tmp, cfg = workspace
    assert main(["run", "--config", str(cfg), "--out", str(tmp / "nowhere")]) == 2


def test_missing_config_is_config_error(tmp_path):
    assert main(["generate", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2


# config file text -> text of the error
_UNREADABLE_CONFIGS = {
    "not_json": ('{"seed": 7,', "is not valid JSON"),
    "not_object": ("[1, 2]", "must be a JSON object"),
}


@pytest.mark.parametrize("case", list(_UNREADABLE_CONFIGS))
def test_unreadable_config_is_config_error(tmp_path, capsys, case):
    text, message = _UNREADABLE_CONFIGS[case]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "w")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


def test_runtime_failure_exit_code(workspace):
    tmp, cfg = workspace
    out = tmp / "work"
    main(["generate", "--config", str(cfg), "--out", str(out)])
    broken = dict(SMALL_CONFIG, predictor={"kind": "affine", "path": str(tmp / "missing_model.txt")})
    broken_path = tmp / "broken.json"
    save_config(broken, broken_path)
    assert main(["run", "--config", str(broken_path), "--out", str(out)]) == 3


# damage -> the damaged payload of an image file
_IMAGE_DAMAGE = {
    "truncate": lambda payload: payload[:-10],
    "bad_magic": lambda payload: b"NOTANIMG" + payload[8:],
    "nan_pixel": lambda payload: payload[:-4] + struct.pack("<f", math.nan),
    "inf_pixel": lambda payload: payload[:-4] + struct.pack("<f", math.inf),
}


@pytest.mark.parametrize("damage", list(_IMAGE_DAMAGE))
def test_corrupt_dataset_image_is_runtime_failure(workspace, capsys, damage):
    tmp, cfg = workspace
    out = tmp / "work"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    image = out / "dataset" / "pair001_d025_low.img"
    image.write_bytes(_IMAGE_DAMAGE[damage](image.read_bytes()))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "runtime failure" in err and "pair001_d025_low.img" in err
    # the manifest read stops the run before any cell
    assert not (out / "metrics.csv").exists()


def test_malformed_manifest_is_runtime_failure(workspace, capsys):
    tmp, cfg = workspace
    out = tmp / "work"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = out / "dataset" / "manifest.csv"
    lines = manifest.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "runtime failure" in err and "manifest.csv:3: expected 5 fields, got 4" in err


def test_mixed_size_dataset_fails_before_any_cell(workspace, capsys):
    tmp, cfg = workspace
    out, larger = tmp / "work", tmp / "larger"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    larger_cfg = tmp / "larger.json"
    save_config({**SMALL_CONFIG, "dataset": {**SMALL_CONFIG["dataset"], "size": 48}}, larger_cfg)
    assert main(["generate", "--config", str(larger_cfg), "--out", str(larger)]) == 0
    # the second pair of the 32^2 manifest becomes 48^2
    for name in ("pair001_full.img", "pair001_d025_low.img"):
        (out / "dataset" / name).write_bytes((larger / "dataset" / name).read_bytes())
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "runtime failure" in err and "pair001_d025" in err
    assert "(48, 48)" in err and "(32, 32)" in err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("damage", ["bad_header", "bad_checksum", "bad_number"])
def test_corrupt_affine_predictor_is_runtime_failure(workspace, capsys, damage):
    tmp, cfg = workspace
    out = tmp / "work"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    model = tmp / "bad_affine.npz"
    pred = AffinePredictor.initial(2, (32, 32), conditional=True)
    if damage == "bad_header":  # the text format of earlier versions
        model.write_text("astn-affine 1 2 32 32 1\n")
    elif damage == "bad_checksum":  # one bit of b's stored data flipped: zip's CRC-32 of b.npy fails
        pred.save(model)
        archive, stored = model.read_bytes(), pred.b.tobytes()
        at = archive.index(stored) + len(stored) // 2
        model.write_bytes(archive[:at] + bytes([archive[at] ^ 1]) + archive[at + 1:])
    else:  # a table one entry short
        pred.a = pred.a[1:]
        pred.save(model)
    broken = dict(SMALL_CONFIG, predictor={"kind": "affine", "path": str(model)})
    broken_path = tmp / "broken.json"
    save_config(broken, broken_path)
    capsys.readouterr()
    assert main(["run", "--config", str(broken_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "runtime failure" in err and "bad_affine.npz" in err
    assert {"bad_header": "not an .npz archive", "bad_checksum": "checksum",
            "bad_number": "coefficient tables must be"}[damage] in err


def test_partly_failing_run_writes_its_rows_and_names_each_failed_cell(workspace, capsys):
    tmp, cfg = workspace
    out = tmp / "work"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    # finite coefficients that overflow above t = 10: the AST cells run, the
    # full-noise cells start at t = 1000 (a NaN table stops the run, see below)
    model = tmp / "short_affine.npz"
    pred = AffinePredictor.initial(1000, (32, 32))
    pred.a[11:] = np.finfo(np.float64).max
    pred.save(model)
    short = tmp / "short.json"
    save_config(dict(SMALL_CONFIG, predictor={"kind": "affine", "path": str(model)}), short)
    capsys.readouterr()
    with np.errstate(over="ignore"):
        assert main(["run", "--config", str(short), "--out", str(out)]) == 3
    rows = MetricsReport.read_csv(out / "metrics.csv").rows
    assert [(r.regime, r.sampler, r.steps) for r in rows] == [("ast", "ddim", 5), ("ast", "ddim", 10)]
    assert capsys.readouterr().err.splitlines() == [
        "sweep cell ('full', 'ddim', 5) failed: RuntimeError: ddim produced non-finite values stepping 1000 -> 750",
        "sweep cell ('full', 'ddim', 10) failed: RuntimeError: ddim produced non-finite values stepping 1000 -> 889",
        "2 sweep cells failed",
    ]


# (offset image shape, T, text naming it) of an affine predictor file that
# disagrees with the 32^2 dataset or the T = 1000 schedule
_MISMATCHED_AFFINE = {"shape": ((16, 16), 1000, "(16, 16) images"), "T": ((32, 32), 100, "T=100")}


@pytest.mark.parametrize("case", list(_MISMATCHED_AFFINE))
def test_mismatched_affine_predictor_is_config_error(workspace, capsys, case):
    tmp, cfg = workspace
    out = tmp / "work"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    shape, T, named = _MISMATCHED_AFFINE[case]
    model = tmp / "mismatched_affine.npz"
    AffinePredictor.initial(T, shape, conditional=True).save(model)
    bad_path = tmp / "bad.json"
    save_config(dict(SMALL_CONFIG, predictor={"kind": "affine", "path": str(model)}), bad_path)
    capsys.readouterr()
    assert main(["run", "--config", str(bad_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "mismatched_affine.npz" in err and named in err
    assert not (out / "metrics.csv").exists()


# (table, entry, conditional, value): a non-finite entry in a row a run reads
_NON_FINITE_AFFINE = {
    "b_nan": ("b", (5, 3, 3), False, math.nan),
    "a_inf": ("a", 1000, False, math.inf),
    "a_row1_nan": ("a", 1, True, math.nan),
    "g_conditional_nan": ("g", 7, True, math.nan),
}


@pytest.mark.parametrize("case", list(_NON_FINITE_AFFINE))
def test_non_finite_affine_entry_stops_the_run(workspace, capsys, case):
    tmp, cfg = workspace
    out = tmp / "work"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    table, entry, conditional, value = _NON_FINITE_AFFINE[case]
    pred = AffinePredictor.initial(1000, (32, 32), conditional=conditional)
    getattr(pred, table)[entry] = value
    model = tmp / "corrupt_affine.npz"
    pred.save(model)
    bad_path = tmp / "bad.json"
    save_config(dict(SMALL_CONFIG, predictor={"kind": "affine", "path": str(model)}), bad_path)
    capsys.readouterr()
    assert main(["run", "--config", str(bad_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == (f"runtime failure: ValueError: predictor file {model}: table {table} "
                   f"holds a NaN or infinite entry in rows 1..1000\n")
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("table, entry, conditional", [("a", 0, False), ("b", (0, 1, 1), True), ("g", 7, False)],
                         ids=["row0_a", "row0_b", "unconditional_g"])
def test_non_finite_affine_entry_a_run_never_reads_is_kept(workspace, table, entry, conditional):
    tmp, cfg = workspace
    out = tmp / "work"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    pred = AffinePredictor.initial(1000, (32, 32), conditional=conditional)
    getattr(pred, table)[entry] = math.nan
    model = tmp / "affine.npz"
    pred.save(model)
    path = tmp / "affine.json"
    save_config(dict(SMALL_CONFIG, predictor={"kind": "affine", "path": str(model)}), path)
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert len(MetricsReport.read_csv(out / "metrics.csv").rows) == 2 * 2


def test_run_with_eta_runs_every_sampler(workspace):
    tmp, cfg = workspace
    out = tmp / "work"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    noisy = dict(SMALL_CONFIG, run=dict(SMALL_CONFIG["run"], samplers=["ddpm", "ddim", "unipc"], eta=0.5))
    noisy_path = tmp / "noisy.json"
    save_config(noisy, noisy_path)
    assert main(["run", "--config", str(noisy_path), "--out", str(out)]) == 0
    assert len(MetricsReport.read_csv(out / "metrics.csv").rows) == 3 * 2 * 2


# every predictor kind, run end to end; "affine" gets its path in the test
_PREDICTORS = {
    "conditioned_oracle_auto": {"kind": "conditioned_oracle"},
    "conditioned_oracle_fixed": {"kind": "conditioned_oracle", "condition_noise": 0.02},
    "gaussian_oracle": {"kind": "gaussian_oracle"},
    "conditioned_oracle_inf": {"kind": "conditioned_oracle", "condition_noise": math.inf},
    "zero": {"kind": "zero"},
    "affine": {"kind": "affine"},
}


@pytest.mark.parametrize("name", list(_PREDICTORS))
def test_run_with_every_predictor_kind(workspace, name):
    tmp, cfg = workspace
    out = tmp / "work"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    predictor = dict(_PREDICTORS[name])
    if name == "affine":
        predictor["path"] = str(tmp / "affine.npz")
        AffinePredictor.initial(1000, (32, 32), conditional=True).save(predictor["path"])
    run_path = tmp / "predictor.json"
    save_config(dict(SMALL_CONFIG, predictor=predictor), run_path)
    assert main(["run", "--config", str(run_path), "--out", str(out)]) == 0
    assert len(MetricsReport.read_csv(out / "metrics.csv").rows) == 2 * 2


def test_cell_type_error_is_runtime_failure(workspace, monkeypatch, capsys):
    tmp, cfg = workspace
    out = tmp / "work"
    main(["generate", "--config", str(cfg), "--out", str(out)])

    class Buggy(EpsilonPredictor):
        def predict(self, x_t, t, cond=None):
            raise TypeError("synthetic bug")

    monkeypatch.setattr(cli, "_build_predictor_factory", lambda *args: (lambda pair: Buggy()))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert "TypeError: synthetic bug" in capsys.readouterr().err


def test_report_empty_csv(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    MetricsReport().write_csv(path)
    assert main(["report", str(path)]) == 0
    assert capsys.readouterr().out == f"{path} holds no rows\n"


def test_report_malformed_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("regime,sampler,steps,psnr_db,rmse,ssim,time_s,seed\nfull,ddim,NaNsteps,1,2,0.5,1,0\n")
    assert main(["report", str(path)]) == 2
    assert ":2" in capsys.readouterr().err


def test_report_rejects_a_repeated_cell(tmp_path, capsys):
    # a repeated cell used to print twice and write its step twice to the curve
    path = tmp_path / "repeated.csv"
    path.write_text("regime,sampler,steps,psnr_db,rmse,ssim,time_s,seed\nfull,ddpm,10,1,2,0.5,1,0\n"
                    "full,ddpm,25,1,2,0.5,1,0\nfull,ddpm,10,3,4,0.5,1,0\n")
    assert main(["report", str(path), "--out", str(tmp_path / "out")]) == 2
    assert ":4: cell ('full', 'ddpm', 10) is listed twice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_report_rejects_a_cell_no_sweep_writes(tmp_path, capsys):
    # an unknown regime used to drop out of the table unnoticed, and a
    # misspelled sampler at negative steps to print under "Reduced steps"
    path = tmp_path / "edited.csv"
    path.write_text("regime,sampler,steps,psnr_db,rmse,ssim,time_s,seed\nwarm,ddim,10,1,2,0.5,1,0\n"
                    "full,DDIM,-5,1,2,0.5,1,0\n")
    assert main(["report", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{path}:2: unknown regime 'warm'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_render_report_golden():
    rows = [
        MetricsRow("full", "ddpm", 1000, 38.788, 0.0116, 0.973, 16.382, 42),
        MetricsRow("inverted", "ddpm", 1000, 38.721, 0.0117, 0.973, 45.144, 42),
        MetricsRow("ast", "ddim", 150, 39.272, 0.0108, 0.974, 2.397, 42),
    ]
    assert render_report(MetricsReport(rows=rows)) == GOLDEN_REPORT


def test_report_reads_the_schedule_T_from_the_run(tmp_path, capsys):
    # with T = 200 a 200-step full-noise row is the full schedule, also read back from CSV
    rows = [MetricsRow("full", "ddim", 200, 30.0, 0.03, 0.9, 0.1, 7),
            MetricsRow("full", "ddim", 50, 29.0, 0.04, 0.8, 0.1, 7)]
    path = tmp_path / "metrics.csv"
    MetricsReport(rows=rows, T=200).write_csv(path)
    assert main(["report", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    full, reduced = lines.index("Full schedule"), lines.index("Reduced steps")
    assert lines[full + 2].startswith("DDIM@200 ") and lines[reduced + 2].startswith("DDIM@50 ")
    assert full < reduced == full + 4


def test_default_config_is_complete():
    for key in ("seed", "schedule", "dataset", "predictor", "run"):
        assert key in DEFAULT_CONFIG
    # default experiment uses the standard origin set and dose fractions
    assert DEFAULT_CONFIG["run"]["origins"] == [10, 25, 50, 100, 150, 500]
    assert DEFAULT_CONFIG["dataset"]["dose_fractions"] == [0.25, 0.10]


def test_readme_states_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^### Config\n.*?^```json\n(.*?)^```", readme, re.M | re.S)
    assert block, "README.md has no json block under ### Config"
    assert json.loads(block[1]) == DEFAULT_CONFIG


_BAD_GENERATE = {
    "count": {"dataset": dict(SMALL_CONFIG["dataset"], count="many")},
    "size": {"dataset": dict(SMALL_CONFIG["dataset"], size=8)},
    "fraction_range": {"dataset": dict(SMALL_CONFIG["dataset"], dose_fractions=[0.25, 1.5])},
    "fraction_collision": {"dataset": dict(SMALL_CONFIG["dataset"], dose_fractions=[0.1, 0.1001])},
    "seed": {"seed": "lucky"},
    "seed_negative": {"seed": -1},
    "dataset_not_object": {"dataset": 5},
    "count_fraction": {"dataset": dict(SMALL_CONFIG["dataset"], count=2.9)},
    "n_ellipses_bool": {"dataset": dict(SMALL_CONFIG["dataset"], n_ellipses=True)},
    "seed_fraction": {"seed": 77.5},
    "fraction_bool": {"dataset": dict(SMALL_CONFIG["dataset"], dose_fractions=[True])},
    "no_fractions": {"dataset": dict(SMALL_CONFIG["dataset"], dose_fractions=[])},
}
# case -> (config override, text naming the bad value in the error message)
_BAD_RUN = {
    "run_not_object": ({"run": 5}, "got 5"),
    "samplers_not_list": ({"run": dict(SMALL_CONFIG["run"], samplers=5)}, "run samplers must be a JSON list, got 5"),
    "regimes_null": ({"run": dict(SMALL_CONFIG["run"], regimes=None)}, "run regimes must be a JSON list, got None"),
    "origins": ({"run": dict(SMALL_CONFIG["run"], origins=[5, "ten"])}, "'ten'"),
    "origin_range": ({"run": dict(SMALL_CONFIG["run"], origins=[5, 2000])}, "origin/budget 2000 outside [1, T=1000]"),
    "eta": ({"run": dict(SMALL_CONFIG["run"], eta=-0.5)}, "eta must be >= 0, got -0.5"),
    "eta_bool": ({"run": dict(SMALL_CONFIG["run"], eta=True)}, "bad run eta: True is not a number"),
    "beta_end_bool": ({"schedule": {"beta_end": True}}, "bad schedule beta_end: True is not a number"),
    "prior_mean_bool": ({"predictor": {"kind": "conditioned_oracle", "prior_mean": True}},
                        "bad predictor prior_mean: True is not a number"),
    "prior_var_bool": ({"predictor": {"kind": "gaussian_oracle", "prior_var": True}},
                       "bad predictor prior_var: True is not a number"),
    "condition_noise_bool": ({"predictor": {"kind": "conditioned_oracle", "condition_noise": True}},
                             "bad predictor condition_noise: True is not a number"),
    "prior_mean": ({"predictor": {"kind": "conditioned_oracle", "prior_mean": "grey"}}, "'grey'"),
    "prior_var": ({"predictor": {"kind": "gaussian_oracle", "prior_var": -1.0}}, "got -1.0"),
    "prior_var_nan": ({"predictor": {"kind": "gaussian_oracle", "prior_var": math.nan}}, "got nan"),
    "condition_noise_text": ({"predictor": {"kind": "conditioned_oracle", "condition_noise": "loud"}}, "'loud'"),
    "condition_noise_negative": ({"predictor": {"kind": "conditioned_oracle", "condition_noise": -0.1}}, "got -0.1"),
    "condition_noise_nan": ({"predictor": {"kind": "conditioned_oracle", "condition_noise": math.nan}}, "got nan"),
    "prior_mean_nan": ({"predictor": {"kind": "gaussian_oracle", "prior_mean": math.nan}}, "data mean must be finite"),
    "prior_mean_inf": ({"predictor": {"kind": "gaussian_oracle", "prior_mean": math.inf}}, "data mean must be finite"),
    "prior_var_inf": ({"predictor": {"kind": "gaussian_oracle", "prior_var": math.inf}},
                      "data variance must be finite, got inf"),
    # every given value is typed like its default, whether or not the kind reads it
    "unread_prior_mean": ({"predictor": {"kind": "zero", "prior_mean": "grey"}},
                          "bad predictor prior_mean: could not convert string to float: 'grey'"),
    # condition_noise is parsed whatever the kind, like the typed keys
    "condition_noise_list": ({"predictor": {"kind": "gaussian_oracle", "condition_noise": [1, 2]}},
                             "bad predictor condition_noise"),
    "unread_condition_noise": ({"predictor": {"kind": "zero", "condition_noise": "loud"}},
                               "bad predictor condition_noise: could not convert string to float: 'loud'"),
    "unknown_predictor_kind": ({"predictor": {"kind": "unet"}}, "unknown predictor kind 'unet'"),
    "affine_path": ({"predictor": {"kind": "affine"}}, "got None"),
    "affine_path_int": ({"predictor": {"kind": "affine", "path": 5}}, "got 5"),
    "duplicate_sampler_alias": ({"run": dict(SMALL_CONFIG["run"], samplers=["dpmpp", "dpmpp2m"])},
                                "sampler 'dpmpp2m' is listed twice"),
    "duplicate_regime": ({"run": dict(SMALL_CONFIG["run"], regimes=["full", "full"])}, "regime 'full' is listed twice"),
    "duplicate_origin": ({"run": dict(SMALL_CONFIG["run"], origins=[10, 10])}, "origin/budget 10 is listed twice"),
    "no_regimes": ({"run": dict(SMALL_CONFIG["run"], regimes=[])}, "sweep lists no regime"),
    "no_samplers": ({"run": dict(SMALL_CONFIG["run"], samplers=[])}, "sweep lists no sampler"),
    "no_origins": ({"run": dict(SMALL_CONFIG["run"], origins=[])}, "sweep lists no origin/budget"),
    "origin_fraction": ({"run": dict(SMALL_CONFIG["run"], origins=[5, 10.7])}, "bad run origins: 10.7 is not an integer"),
    "origin_bool": ({"run": dict(SMALL_CONFIG["run"], origins=[5, True])}, "bad run origins: True is not an integer"),
    "schedule_T_fraction": ({"schedule": {"T": 1000.5}}, "bad schedule T: 1000.5 is not an integer"),
    "eta_beyond_ddim_sigma": ({"run": dict(SMALL_CONFIG["run"], samplers=["ddim", "ddpm"], eta=1.5)},
                              "eta must be <= 1, got 1.5"),
    "eta_above_one_ddpm": ({"run": dict(SMALL_CONFIG["run"], samplers=["ddpm"], eta=1.5)},
                           "eta must be <= 1, got 1.5"),
    "count_negative": ({"dataset": dict(SMALL_CONFIG["dataset"], count=-1)},
                       "bad dataset section: need count >= 0 and photons_full_dose > 0"),
    "photons_zero": ({"dataset": dict(SMALL_CONFIG["dataset"], photons_full_dose=0)},
                     "bad dataset section: need count >= 0 and photons_full_dose > 0"),
    # a key or section the defaults do not declare is a typo, not a no-op
    "misspelled_run_key": ({"run": dict(SMALL_CONFIG["run"], origns=[5])}, "unknown config key run origns"),
    "unknown_section": ({"shedule": {"T": 1000}}, "unknown section 'shedule'"),
}


@pytest.mark.parametrize("case", list(_BAD_GENERATE) + list(_BAD_RUN))
def test_bad_config_value_is_config_error(workspace, capsys, case):
    tmp, cfg = workspace
    out = tmp / "work"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    bad_path = tmp / "bad.json"
    if case in _BAD_GENERATE:
        save_config(dict(SMALL_CONFIG, **_BAD_GENERATE[case]), bad_path)
        argv = ["generate", "--config", str(bad_path), "--out", str(out), "--force"]
    else:
        override, named = _BAD_RUN[case]
        save_config(dict(SMALL_CONFIG, **override), bad_path)
        argv = ["run", "--config", str(bad_path), "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    if case in _BAD_RUN:
        assert named in err


def test_integral_numbers_and_strings_parse_as_integers(workspace):
    tmp, cfg = workspace
    plain, loose = tmp / "plain", tmp / "loose"
    integral = dict(SMALL_CONFIG, seed="77", dataset=dict(SMALL_CONFIG["dataset"], count=2.0, size="32"),
                    run=dict(SMALL_CONFIG["run"], origins=[5.0, "10"]))
    loose_cfg = tmp / "integral.json"
    save_config(integral, loose_cfg)
    for path, out in ((cfg, plain), (loose_cfg, loose)):
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 0
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    rows = [MetricsReport.read_csv(out / "metrics.csv").rows for out in (plain, loose)]
    strip = lambda r: (r.regime, r.sampler, r.steps, r.seed, r.psnr_db, r.rmse, r.ssim)
    assert [strip(r) for r in rows[0]] == [strip(r) for r in rows[1]]
    assert sorted({r.steps for r in rows[1]}) == [5, 10]


def test_real_parses_numbers_and_numeric_strings():
    assert [cli._real("x", v) for v in (0.5, "0.5", 2, "1e-3")] == [0.5, 0.5, 2.0, 1e-3]
    for bad in (True, False):
        with pytest.raises(cli.ConfigError, match="is not a number"):
            cli._real("x", bad)


def test_value_error_outside_config_parsing_is_runtime_failure(workspace, monkeypatch, capsys):
    tmp, cfg = workspace
    out = tmp / "work"
    main(["generate", "--config", str(cfg), "--out", str(out)])

    def broken_sweep(*args, **kwargs):
        raise ValueError("synthetic numeric fault")

    monkeypatch.setattr(cli, "regime_sweep", broken_sweep)
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert "runtime failure: ValueError: synthetic numeric fault" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_run_rejects_thread_count_below_one(workspace, capsys, threads):
    tmp, cfg = workspace
    out = tmp / "work"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 2
    assert f"--threads {threads} must be >= 1" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()
