import math
import re
import struct

import numpy as np
import pytest

from astn.data import (
    DosePair,
    PhantomSpec,
    generate_dataset,
    generate_phantom,
    low_dose_noise_sd,
    read_image,
    read_manifest,
    simulate_low_dose,
    write_image,
    write_pgm,
)
from astn.metrics import MetricsReport, MetricsRow


def test_phantom_no_ellipses_is_uniform_background():
    spec = PhantomSpec(size=32, n_ellipses=0, seed=1)
    img = generate_phantom(spec)
    assert np.array_equal(img, np.full((32, 32), 0.1))


def test_phantom_deterministic_in_seed():
    spec = PhantomSpec(size=48, n_ellipses=7, seed=99)
    assert np.array_equal(generate_phantom(spec), generate_phantom(spec))
    other = generate_phantom(PhantomSpec(size=48, n_ellipses=7, seed=100))
    assert not np.array_equal(generate_phantom(spec), other)


def test_phantom_bounds_and_structure():
    img = generate_phantom(PhantomSpec(size=64, n_ellipses=5, seed=3))
    assert img.shape == (64, 64)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert img.var() > 0.0


def test_phantom_spec_validation():
    with pytest.raises(ValueError):
        PhantomSpec(size=16)
    with pytest.raises(ValueError):
        PhantomSpec(size=64, n_ellipses=-1)


def test_low_dose_mean_preservation(sched):
    # per-pixel empirical mean over many draws stays on x0 (interior values)
    x0 = np.full((4, 4), 0.5)
    rng = np.random.default_rng(4)
    n = 10_000
    acc = np.zeros_like(x0)
    for _ in range(n):
        acc += simulate_low_dose(x0, 0.25, rng)
    photons = 0.25 * 4096
    se = math.sqrt(0.5 / photons) / math.sqrt(n)
    assert np.abs(acc / n - x0).max() <= 5 * se


def test_low_dose_variance_scale():
    x0 = np.full((64, 64), 0.5)
    rng = np.random.default_rng(5)
    noisy = simulate_low_dose(x0, 0.25, rng, photons_full_dose=4096)
    want = 0.5 / (0.25 * 4096)
    assert float(((noisy - x0) ** 2).mean()) == pytest.approx(want, rel=0.10)


@pytest.mark.parametrize("intensity", [0.5, 0.2])
@pytest.mark.parametrize("frac", [0.25, 0.10])
def test_low_dose_noise_sd_matches_simulated_noise(intensity, frac):
    noisy = simulate_low_dose(np.full((256, 256), intensity), frac, np.random.default_rng(21))
    sd, n = low_dose_noise_sd(intensity, frac), noisy.size
    # within 4 standard errors of a sample sd, sd / sqrt(2 (n - 1)) for near-normal counts
    assert abs(float(noisy.std(ddof=1)) - sd) <= 4 * sd / math.sqrt(2 * (n - 1))


def test_low_dose_noiseless_limit():
    # full dose with a huge photon budget: relative Poisson noise vanishes
    x0 = generate_phantom(PhantomSpec(size=32, n_ellipses=4, seed=12)) * 0.8 + 0.1
    noisy = simulate_low_dose(x0, 1.0, np.random.default_rng(13), photons_full_dose=10**9)
    assert np.abs(noisy - x0).max() < 1e-3


def test_low_dose_standard_fractions_variance_ordering():
    phantom = generate_phantom(PhantomSpec(size=64, n_ellipses=5, seed=6))
    rng = np.random.default_rng(7)
    v25 = float(((simulate_low_dose(phantom, 0.25, rng) - phantom) ** 2).mean())
    v10 = float(((simulate_low_dose(phantom, 0.10, rng) - phantom) ** 2).mean())
    assert v10 > v25


def test_low_dose_rmse_monotone_in_dose():
    phantom = generate_phantom(PhantomSpec(size=64, n_ellipses=5, seed=8))
    rng = np.random.default_rng(9)
    errs = []
    for frac in (0.05, 0.10, 0.25, 1.0):
        noisy = simulate_low_dose(phantom, frac, rng)
        errs.append(math.sqrt(float(((noisy - phantom) ** 2).mean())))
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_low_dose_validation(rng):
    with pytest.raises(ValueError):
        simulate_low_dose(np.full((4, 4), 0.5), 0.0, rng)
    with pytest.raises(ValueError):
        simulate_low_dose(np.full((4, 4), 0.5), 1.5, rng)
    for photons in (0, -4096):
        with pytest.raises(ValueError, match="photon budget must be positive"):
            simulate_low_dose(np.full((4, 4), 0.5), 0.25, rng, photons_full_dose=photons)


def test_image_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(10)
    for shape in [(2, 2), (7, 3), (33, 65)]:
        img = rng.random(shape).astype(np.float32).astype(np.float64)
        path = tmp_path / "img.bin"
        write_image(path, img)
        assert np.array_equal(read_image(path), img)


def test_image_golden_bytes(tmp_path):
    # golden file constructed by hand from the format definition:
    # 8-byte magic, <u32 width, <u32 height, then row-major <f4 pixels
    img = np.array([[0.0, 0.25], [0.5, 1.0]])
    path = tmp_path / "golden.bin"
    write_image(path, img)
    expected = b"ASTIMG01" + struct.pack("<II", 2, 2) + struct.pack("<4f", 0.0, 0.25, 0.5, 1.0)
    assert path.read_bytes() == expected
    assert np.array_equal(read_image(path), img)


def test_image_error_cases(tmp_path):
    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"NOTMAGIC" + struct.pack("<II", 2, 2) + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        read_image(bad_magic)

    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(b"ASTIMG01" + struct.pack("<II", 2, 2) + b"\x00" * 10)
    with pytest.raises(ValueError, match="truncated"):
        read_image(truncated)

    overflow = tmp_path / "overflow.bin"
    overflow.write_bytes(b"ASTIMG01" + struct.pack("<II", 1 << 20, 2) + b"\x00" * 16)
    with pytest.raises(ValueError, match="overflow"):
        read_image(overflow)

    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    with pytest.raises(ValueError, match="magic"):
        read_image(empty)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_read_image_rejects_non_finite_pixels(tmp_path, bad):
    # write_image refuses such a pixel, so the payload is built by hand
    path = tmp_path / "bad.img"
    path.write_bytes(b"ASTIMG01" + struct.pack("<II", 2, 2) + struct.pack("<4f", 0.0, bad, 0.5, 1.0))
    with pytest.raises(ValueError, match=re.escape(f"{path}: non-finite values in image")):
        read_image(path)


# case -> (buffer, text of the error)
_BAD_BUFFERS = {
    "three_d": (np.zeros((2, 2, 2)), "image must be 2D, got shape (2, 2, 2)"),
    "empty": (np.zeros((0, 4)), "image dimensions must be positive, got (0, 4)"),
    "non_finite": (np.array([[0.0, np.nan], [0.5, 1.0]]), "non-finite values in image"),
    "too_wide": (np.zeros((1, 1 << 16)), "image dimensions 65536x1 exceed the format limit 65535"),
}


@pytest.mark.parametrize("case", list(_BAD_BUFFERS))
def test_write_image_rejects_bad_buffers(tmp_path, case):
    buffer, message = _BAD_BUFFERS[case]
    path = tmp_path / "img.bin"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_image(path, buffer)
    assert not path.exists()


def test_pgm_preview(tmp_path):
    img = np.array([[0.0, 0.5], [1.0, 0.25]])
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    payload = path.read_bytes()
    assert payload.startswith(b"P5\n2 2\n255\n")
    assert payload[-4:] == bytes([0, 128, 255, 64])


def test_generate_dataset_deterministic(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    recs_a = generate_dataset(a_dir, count=2, size=32, dose_fractions=[0.25, 0.10], master_seed=5)
    recs_b = generate_dataset(b_dir, count=2, size=32, dose_fractions=[0.25, 0.10], master_seed=5)
    assert recs_a == recs_b
    assert len(recs_a) == 4
    for rec in recs_a:
        fa = (a_dir / rec["full_path"]).read_bytes()
        fb = (b_dir / rec["full_path"]).read_bytes()
        assert fa == fb
        la = (a_dir / rec["low_path"]).read_bytes()
        lb = (b_dir / rec["low_path"]).read_bytes()
        assert la == lb


def test_generate_dataset_standard_size(tmp_path):
    # 16 phantoms x the two dose settings -> 32 pairs plus manifest
    records = generate_dataset(tmp_path, count=16, size=64,
                               dose_fractions=[0.25, 0.10], master_seed=20)
    assert len(records) == 32
    assert (tmp_path / "manifest.csv").exists()
    assert len(list(tmp_path.glob("*_full.img"))) == 16
    assert len(list(tmp_path.glob("*_low.img"))) == 32


def test_generate_dataset_close_fractions_get_distinct_ids(tmp_path):
    # int(0.29 * 100) is 28, so truncating would give both fractions the id d028
    records = generate_dataset(tmp_path, count=1, size=32,
                               dose_fractions=[0.28, 0.29], master_seed=3)
    assert [r["pair_id"] for r in records] == ["pair000_d028", "pair000_d029"]
    assert len(list(tmp_path.glob("*_low.img"))) == 2
    assert records[0]["seed"] != records[1]["seed"]
    assert [p.dose_fraction for p in read_manifest(tmp_path / "manifest.csv")] == [0.28, 0.29]


def test_generate_dataset_rejects_duplicate_ids_before_writing(tmp_path):
    out = tmp_path / "data"
    with pytest.raises(ValueError, match="collide"):
        generate_dataset(out, count=1, size=32, dose_fractions=[0.25, 0.251], master_seed=3)
    assert not out.exists()


def test_generate_dataset_rejects_no_dose_fraction_before_writing(tmp_path):
    out = tmp_path / "data"
    with pytest.raises(ValueError, match="dataset lists no dose fraction"):
        generate_dataset(out, count=2, size=32, dose_fractions=[], master_seed=3)
    assert not out.exists()


def test_manifest_round_trip(tmp_path):
    generate_dataset(tmp_path, count=2, size=32, dose_fractions=[0.25], master_seed=11)
    pairs = read_manifest(tmp_path / "manifest.csv")
    assert len(pairs) == 2
    for p in pairs:
        assert p.full_dose.shape == (32, 32)
        assert p.low_dose.shape == (32, 32)
        assert 0.0 < p.dose_fraction <= 1.0
        assert p.full_dose.min() >= 0.0 and p.full_dose.max() <= 1.0


# damage -> where and what the error names
_MANIFEST_DAMAGE = {
    "renamed_column": ":1: bad manifest header",
    "short_row": ":3: expected 5 fields, got 4",
    "bad_seed": ":2: invalid literal for int()",
    "repeated_pair": ":4: pair pair000_d025 is listed twice",
    "mixed_shape": ":3: pairs pair000_d025 and pair001_d025 have mismatched shapes (32, 32) vs (48, 48)",
}


@pytest.mark.parametrize("damage", list(_MANIFEST_DAMAGE))
def test_malformed_manifest_names_file_and_line(tmp_path, damage):
    generate_dataset(tmp_path, count=2, size=32, dose_fractions=[0.25], master_seed=11)
    manifest = tmp_path / "manifest.csv"
    lines = manifest.read_text().splitlines()
    if damage == "renamed_column":
        lines[0] = lines[0].replace("low_path", "low")
    elif damage == "short_row":
        lines[2] = lines[2].rsplit(",", 1)[0]
    elif damage == "repeated_pair":
        lines.append(lines[1])
    elif damage == "mixed_shape":
        for name in ("pair001_full.img", "pair001_d025_low.img"):
            write_image(tmp_path / name, np.zeros((48, 48)))
    else:
        lines[1] = lines[1].rsplit(",", 1)[0] + ",seven"
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"manifest.csv{_MANIFEST_DAMAGE[damage]}")):
        read_manifest(manifest)


def _manifest_table(tmp_path):
    generate_dataset(tmp_path, count=2, size=32, dose_fractions=[0.25], master_seed=11)
    return tmp_path / "manifest.csv", lambda path: [p.pair_id for p in read_manifest(path)]


def _metrics_table(tmp_path):
    path = tmp_path / "metrics.csv"
    MetricsReport(rows=[MetricsRow("full", "ddim", 10, 30.0, 0.01, 0.5, 0.1, 1),
                        MetricsRow("ast", "ddim", 10, 31.0, 0.01, 0.6, 0.1, 1)]).write_csv(path)
    return path, lambda path: [(r.regime, r.steps, r.ssim) for r in MetricsReport.read_csv(path).rows]


# a table, as its header error names it -> (a valid table's path, that table's reader)
_TABLES = {"manifest": _manifest_table, "metrics": _metrics_table}
# edit of (lines before the header, header, rows) -> the file's text
_TABLE_EDITS = {
    "crlf": lambda pre, head, rows: "".join(ln + "\r\n" for ln in pre + [head] + rows),
    "blank_lines": lambda pre, head, rows: "\n".join(pre + ["", head, "", *rows, "", ""]),
    "comments": lambda pre, head, rows: "\n".join(
        ["# a note, with a comma"] + pre + [head, '# "quoted",'] + rows[:1] + ["#"] + rows[1:]) + "\n",
}


@pytest.mark.parametrize("edit", list(_TABLE_EDITS))
@pytest.mark.parametrize("table", list(_TABLES))
def test_csv_tables_share_one_rule_set(tmp_path, table, edit):
    path, records = _TABLES[table](tmp_path)
    lines = path.read_text().splitlines()
    h = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    before = records(path)
    path.write_bytes(_TABLE_EDITS[edit](lines[:h], lines[h], lines[h + 1:]).encode())
    assert records(path) == before


@pytest.mark.parametrize("table", list(_TABLES))
def test_csv_table_header_error_names_its_line(tmp_path, table):
    path, records = _TABLES[table](tmp_path)
    lines = path.read_text().splitlines()
    h = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    path.write_text("\n".join(lines[:h] + ["", "# note", "pair,cell"] + lines[h + 1:]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{h + 3}: bad {table} header ['pair', 'cell']")):
        records(path)
    # a file without a header names the line after its last
    path.write_text("\n".join(lines[:h] + ["", "# note"]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{h + 3}: bad {table} header None")):
        records(path)


def test_dose_pair_validation(rng):
    with pytest.raises(ValueError):
        DosePair("x", rng.random((4, 4)), rng.random((4, 5)), 0.25, 0)
    with pytest.raises(ValueError):
        DosePair("x", rng.random((4, 4)), rng.random((4, 4)), 0.0, 0)
