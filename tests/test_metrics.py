import math
import re

import numpy as np
import pytest

from astn.metrics import (
    CSV_HEADER,
    MetricsReport,
    MetricsRow,
    PSNR_CAP_DB,
    SSIM_MIN_SHAPE,
    _gaussian_window,
    psnr,
    rmse,
    ssim,
    timed,
)
from timing import interleaved_ratios


def _psnr_scalar_reference(ref, test, data_range=1.0):
    total = 0.0
    h, w = ref.shape
    for i in range(h):
        for j in range(w):
            d = ref[i, j] - test[i, j]
            total += d * d
    mse = total / (h * w)
    return 10.0 * math.log10(data_range * data_range / mse)


def _rmse_scalar_reference(ref, test):
    total = 0.0
    h, w = ref.shape
    for i in range(h):
        for j in range(w):
            d = ref[i, j] - test[i, j]
            total += d * d
    return math.sqrt(total / (h * w))


def _ssim_direct_reference(ref, test, window=11, sigma=1.5, k1=0.01, k2=0.03, data_range=1.0):
    """Unoptimized direct-convolution SSIM: plain python loops per window."""
    w = _gaussian_window(window, sigma)
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    h, ww = ref.shape
    vals = []
    for i in range(h - window + 1):
        for j in range(ww - window + 1):
            mu1 = mu2 = m11 = m22 = m12 = 0.0
            for p in range(window):
                for q in range(window):
                    wv = w[p, q]
                    a = ref[i + p, j + q]
                    b = test[i + p, j + q]
                    mu1 += wv * a
                    mu2 += wv * b
                    m11 += wv * a * a
                    m22 += wv * b * b
                    m12 += wv * a * b
            s11 = m11 - mu1 * mu1
            s22 = m22 - mu2 * mu2
            s12 = m12 - mu1 * mu2
            vals.append(
                ((2 * mu1 * mu2 + c1) * (2 * s12 + c2))
                / ((mu1 * mu1 + mu2 * mu2 + c1) * (s11 + s22 + c2))
            )
    return sum(vals) / len(vals)


def test_psnr_identical_images_cap(rng):
    img = rng.random((16, 16))
    assert psnr(img, img) == PSNR_CAP_DB


def test_psnr_constant_offset():
    ref = np.full((20, 20), 0.3)
    test = np.full((20, 20), 0.4)
    assert psnr(ref, test) == pytest.approx(20.0, abs=1e-10)


def test_psnr_scalar_reference(rng):
    ref, test = rng.random((13, 17)), rng.random((13, 17))
    assert psnr(ref, test) == pytest.approx(_psnr_scalar_reference(ref, test), abs=1e-12)


def test_rmse_trivial_cases(rng):
    img = rng.random((8, 8))
    assert rmse(img, img) == 0.0
    assert rmse(img, img + 0.1) == pytest.approx(0.1, abs=1e-12)


def test_rmse_scalar_reference(rng):
    ref, test = rng.random((11, 9)), rng.random((11, 9))
    assert rmse(ref, test) == pytest.approx(_rmse_scalar_reference(ref, test), abs=1e-12)


def test_ssim_identical_is_one(rng):
    # exact, not within a tolerance: with equal inputs every window's
    # numerator and denominator are the same floating-point products
    for shape in [(24, 24), (37, 19)]:
        img = rng.random(shape)
        assert ssim(img, img) == 1.0


def test_ssim_inverted_high_contrast_low():
    rng = np.random.default_rng(3)
    img = (rng.random((32, 32)) > 0.5).astype(np.float64)
    assert ssim(img, 1.0 - img) < 0.5


def test_ssim_direct_convolution_reference(rng):
    ref, test = rng.random((20, 20)), rng.random((20, 20))
    assert ssim(ref, test) == pytest.approx(_ssim_direct_reference(ref, test), abs=1e-6)


def test_ssim_window_size_limit(rng):
    with pytest.raises(ValueError):
        ssim(rng.random((8, 8)), rng.random((8, 8)))


def test_ssim_scores_from_its_min_shape(rng):
    assert SSIM_MIN_SHAPE == (11, 11)
    a = rng.random(SSIM_MIN_SHAPE)
    assert ssim(a, a) == 1.0
    for shape in ((10, 11), (11, 10), (11,), (11, 11, 1)):
        with pytest.raises(ValueError, match=r"^image is \(.*\), but ssim scores only 2-d images of at least"):
            ssim(np.zeros(shape), np.zeros(shape))


def test_metric_symmetry(rng):
    a, b = rng.random((16, 16)), rng.random((16, 16))
    assert rmse(a, b) == rmse(b, a)
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-14)


def test_psnr_rmse_consistency(rng):
    a, b = rng.random((12, 12)), rng.random((12, 12))
    r = rmse(a, b)
    assert psnr(a, b) == pytest.approx(20.0 * math.log10(1.0 / r), abs=1e-10)


def test_monotone_degradation():
    rng = np.random.default_rng(5)
    base = rng.random((32, 32)) * 0.5 + 0.25
    noise = rng.standard_normal((32, 32))
    ps, ss, rs = [], [], []
    for amp in (0.01, 0.02, 0.05, 0.1, 0.2):
        noisy = base + amp * noise
        ps.append(psnr(base, noisy))
        ss.append(ssim(base, noisy))
        rs.append(rmse(base, noisy))
    assert all(x > y for x, y in zip(ps, ps[1:]))
    assert all(x > y for x, y in zip(ss, ss[1:]))
    assert all(x < y for x, y in zip(rs, rs[1:]))


def test_shape_mismatch_errors(rng):
    with pytest.raises(ValueError):
        psnr(rng.random((4, 4)), rng.random((4, 5)))
    with pytest.raises(ValueError):
        rmse(rng.random((4, 4)), rng.random((5, 4)))


def test_timed_noop_fast():
    _, secs = timed(lambda: None)
    assert secs < 1e-3


def test_timed_scales_linearly():
    # op large enough (~ms) that scheduler jitter stays inside the 30% band
    arr = np.random.default_rng(0).random(2_000_000)

    def once():
        return float((arr * arr).sum())

    def ten():
        return [once() for _ in range(10)]

    # the helper times through ``timed``, ten and once back to back per round
    (t10_over_t1,), rounds = interleaved_ratios([ten, once])
    assert 10 * 0.7 <= t10_over_t1 <= 10 * 1.3, rounds


def test_metrics_row_validation():
    with pytest.raises(ValueError):
        MetricsRow("ast", "ddim", 10, 30.0, 0.01, 1.5, 0.1, 0)
    with pytest.raises(ValueError):
        MetricsRow("ast", "ddim", 10, 30.0, -0.01, 0.9, 0.1, 0)


@pytest.mark.parametrize("field, value", [
    ("psnr_db", math.nan), ("psnr_db", math.inf), ("psnr_db", -math.inf),
    ("rmse", math.nan), ("rmse", math.inf),
    ("time_s", math.nan), ("time_s", math.inf),
])
def test_metrics_row_rejects_non_finite(field, value):
    values = dict(psnr_db=30.0, rmse=0.01, time_s=0.1)
    values[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        MetricsRow("full", "ddim", 10, values["psnr_db"], values["rmse"], 0.5, values["time_s"], 1)


def test_report_csv_non_finite_metric_names_file_and_line(tmp_path):
    path = tmp_path / "edited.csv"
    MetricsReport(rows=[MetricsRow("full", "ddim", 10, 30.0, 0.01, 0.5, 0.1, 1)]).write_csv(path)
    with open(path, "a") as f:
        f.write("full,ddim,25,nan,0.01,0.5,0.1,1\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: psnr_db must be finite")):
        MetricsReport.read_csv(path)


@pytest.mark.parametrize("row, named", [
    ("warm,ddim,10", "unknown regime 'warm'"),
    ("full,DDIM,10", "unknown sampler kind 'DDIM'"),
    ("full,dpmpp,10", "unknown sampler kind 'dpmpp'"),  # a config alias, never a row's label
    ("full,ddim,0", "steps must be >= 1, got 0"),
    ("full,ddim,-5", "steps must be >= 1, got -5"),
])
def test_report_csv_rejects_a_cell_no_sweep_writes(tmp_path, row, named):
    path = tmp_path / "edited.csv"
    MetricsReport(rows=[MetricsRow("full", "ddim", 10, 30.0, 0.01, 0.5, 0.1, 1)]).write_csv(path)
    with open(path, "a") as f:
        f.write(f"{row},30.0,0.01,0.5,0.1,1\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: {named}")):
        MetricsReport.read_csv(path)


def test_report_csv_repeated_cell_names_file_and_line(tmp_path):
    path = tmp_path / "edited.csv"
    MetricsReport(rows=[MetricsRow("full", "ddpm", 10, 30.0, 0.01, 0.5, 0.1, 1),
                        MetricsRow("ast", "ddpm", 10, 30.0, 0.01, 0.5, 0.1, 1)]).write_csv(path)
    assert len(MetricsReport.read_csv(path).rows) == 2
    with open(path, "a") as f:
        f.write("full,ddpm,10,31.0,0.01,0.5,0.1,2\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:5: cell ('full', 'ddpm', 10) is listed twice")):
        MetricsReport.read_csv(path)


def test_report_csv_round_trip(tmp_path):
    report = MetricsReport(
        rows=[
            MetricsRow("full", "ddpm", 1000, 38.7, 0.0116, 0.973, 16.4, 42),
            MetricsRow("ast", "ddim", 150, 39.1, 0.0111, 0.974, 2.4, 42),
        ]
    )
    path = tmp_path / "metrics.csv"
    report.write_csv(path)
    loaded = MetricsReport.read_csv(path)
    assert len(loaded.rows) == 2
    for orig, back in zip(report.rows, loaded.rows):
        assert back.regime == orig.regime and back.sampler == orig.sampler
        assert back.steps == orig.steps and back.seed == orig.seed
        assert back.psnr_db == pytest.approx(orig.psnr_db, abs=1e-6)
        assert back.rmse == pytest.approx(orig.rmse, rel=1e-7)
    # header comment states per-image timing
    assert "per image" in path.read_text().splitlines()[0]


@pytest.mark.parametrize("threads", [1, 3])
def test_report_csv_states_sweep_threads(tmp_path, threads):
    report = MetricsReport(rows=[MetricsRow("ast", "ddim", 10, 30.0, 0.03, 0.9, 0.1, 7)], threads=threads)
    path = tmp_path / "metrics.csv"
    report.write_csv(path)
    note = path.read_text().splitlines()[0]
    assert note.startswith("#") and "per image" in note
    assert f"sweep threads: {threads}" in note
    assert ("contention" in note) == (threads > 1)
    assert len(MetricsReport.read_csv(path).rows) == 1


@pytest.mark.parametrize("T", [200, 1000, 4000])
def test_report_csv_round_trips_schedule_T(tmp_path, T):
    path = tmp_path / "metrics.csv"
    MetricsReport(T=T).write_csv(path)
    assert f"schedule T: {T}" in path.read_text().splitlines()[0]
    assert MetricsReport.read_csv(path).T == T


def test_report_csv_without_schedule_T_reads_as_1000(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("# time_s is mean wall time per image; sweep threads: 1\n" + ",".join(CSV_HEADER) + "\n")
    assert MetricsReport.read_csv(path).T == 1000


def test_report_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(CSV_HEADER) + "\nfull,ddim,abc,1,2,0.5,1,0\n")
    with pytest.raises(ValueError, match=":2:"):
        MetricsReport.read_csv(path)
    # write_csv's comment line counts: the bad value sits on the file's line 3
    MetricsReport().write_csv(path)
    with open(path, "a") as f:
        f.write("full,ddim,abc,1,2,0.5,1,0\n")
    with pytest.raises(ValueError, match=":3:"):
        MetricsReport.read_csv(path)


def test_report_csv_wrong_field_count_names_file_and_line(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(",".join(CSV_HEADER) + "\nfull,ddim,10,1,2,0.5,1,0\nfull,ddim,25,1,2\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected {len(CSV_HEADER)} fields, got 5")):
        MetricsReport.read_csv(path)


def test_report_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="header"):
        MetricsReport.read_csv(path)
