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
    read_image,
    read_manifest,
    simulate_low_dose,
    write_image,
    write_pgm,
)


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
    else:
        lines[1] = lines[1].rsplit(",", 1)[0] + ",seven"
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"manifest.csv{_MANIFEST_DAMAGE[damage]}")):
        read_manifest(manifest)


def test_dose_pair_validation(rng):
    with pytest.raises(ValueError):
        DosePair("x", rng.random((4, 4)), rng.random((4, 5)), 0.25, 0)
    with pytest.raises(ValueError):
        DosePair("x", rng.random((4, 4)), rng.random((4, 4)), 0.0, 0)
