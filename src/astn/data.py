"""Synthetic phantoms, dose-fraction noise, and image I/O.

Phantoms are a flat background of 0.1 plus randomly placed rotated
ellipses, each adding a value drawn uniformly from [-0.3, 0.5), clamped to
[0, 1] — a desk-scale surrogate for clinical slices. Low-dose acquisition
is simulated in the image domain: scaled pixel intensity is treated as an
expected photon count lambda = dose_fraction * photons * x0, a Poisson draw
is rescaled back to [0, 1], so smaller dose fractions give relatively
noisier images while the per-pixel mean is preserved (before clamping).

Flat binary image format ASTIMG01: 8-byte magic ``ASTIMG01``, width and
height as 4-byte little-endian unsigned ints, then width*height 4-byte
little-endian IEEE-754 floats, row-major. Round trips are bit-exact for
float32-representable data. 8-bit PGM previews are lossy, for eyeballing.
"""

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from astn import _kernels as k
from astn.image import as_image

__all__ = [
    "PhantomSpec",
    "DosePair",
    "generate_phantom",
    "simulate_low_dose",
    "write_image",
    "read_image",
    "write_pgm",
    "generate_dataset",
    "dose_tags",
    "write_manifest",
    "read_manifest",
]

MAGIC = b"ASTIMG01"
MAX_DIM = 1 << 16
BACKGROUND = 0.1
ELLIPSE_INTENSITY = (-0.3, 0.5)  # range of each ellipse's additive value


@dataclass(frozen=True)
class PhantomSpec:
    """Ellipse-phantom parameters; generation is deterministic in the seed."""

    size: int = 64
    n_ellipses: int = 6
    seed: int = 0

    def __post_init__(self):
        if self.size < 32:
            raise ValueError("phantom size must be >= 32")
        if self.n_ellipses < 0:
            raise ValueError("ellipse count must be >= 0")


@dataclass(frozen=True)
class DosePair:
    """Ground-truth image, its simulated low-dose acquisition, and provenance."""

    pair_id: str
    full_dose: np.ndarray
    low_dose: np.ndarray
    dose_fraction: float
    seed: int

    def __post_init__(self):
        if self.full_dose.shape != self.low_dose.shape:
            raise ValueError("dose pair images must share a shape")
        if not 0.0 < self.dose_fraction <= 1.0:
            raise ValueError("dose fraction must be in (0, 1]")


def generate_phantom(spec):
    """Render the ellipse phantom described by ``spec``, clamped to [0, 1]."""
    rng = np.random.default_rng(spec.seed)
    params = np.empty((spec.n_ellipses, 7), dtype=np.float64)
    for i in range(spec.n_ellipses):
        cx, cy = rng.uniform(-0.6, 0.6, size=2)
        ax, ay = rng.uniform(0.08, 0.5, size=2)
        theta = rng.uniform(0.0, math.pi)
        value = rng.uniform(*ELLIPSE_INTENSITY)
        params[i] = (cx, cy, 1.0 / ax, 1.0 / ay, math.cos(theta), math.sin(theta), value)
    img = np.full((spec.size, spec.size), BACKGROUND, dtype=np.float64)
    if spec.n_ellipses:
        img = k.add_ellipses(img, params)
    return np.clip(img, 0.0, 1.0)


def simulate_low_dose(x0, dose_fraction, rng, photons_full_dose=4096):
    """Image-domain dose-fraction noise: Poisson photon statistics per pixel."""
    if not 0.0 < dose_fraction <= 1.0:
        raise ValueError("dose fraction must be in (0, 1]")
    if photons_full_dose <= 0:
        raise ValueError("photon budget must be positive")
    lam = dose_fraction * photons_full_dose * np.clip(x0, 0.0, None)
    counts = rng.poisson(lam).astype(np.float64)
    return np.clip(counts / (dose_fraction * photons_full_dose), 0.0, 1.0)


def write_image(path, buffer):
    """Write an image in the ASTIMG01 flat binary format (float32 payload)."""
    img = as_image(buffer)
    h, w = img.shape
    if w >= MAX_DIM or h >= MAX_DIM:
        raise ValueError(f"image dimensions {w}x{h} exceed the format limit {MAX_DIM - 1}")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", w, h))
        f.write(img.astype("<f4").tobytes())


def read_image(path):
    """Read an ASTIMG01 file; distinguishes bad magic, truncation and overflow."""
    with open(path, "rb") as f:
        payload = f.read()
    if len(payload) < 16 or payload[:8] != MAGIC:
        raise ValueError(f"{path}: not an ASTIMG01 file (bad magic)")
    w, h = struct.unpack("<II", payload[8:16])
    if w == 0 or h == 0 or w >= MAX_DIM or h >= MAX_DIM:
        raise ValueError(f"{path}: dimensions {w}x{h} out of range (dimension overflow)")
    expected = 16 + 4 * w * h
    if len(payload) != expected:
        raise ValueError(f"{path}: truncated payload ({len(payload)} bytes, expected {expected})")
    data = np.frombuffer(payload, dtype="<f4", offset=16).astype(np.float64)
    return data.reshape(h, w)


def write_pgm(path, buffer):
    """8-bit binary PGM preview (lossy)."""
    img = as_image(buffer)
    h, w = img.shape
    quant = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(quant.tobytes())


def generate_dataset(out_dir, count, size, dose_fractions, master_seed,
                     n_ellipses=6, photons_full_dose=4096):
    """Write ``count`` phantoms x ``dose_fractions`` DosePairs plus previews.

    Deterministic in ``master_seed``; returns the manifest records.
    """
    tags, seed_keys = dose_tags(dose_fractions)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for i in range(count):
        ph_seed = int(np.random.SeedSequence((master_seed, i)).generate_state(1)[0])
        phantom = generate_phantom(PhantomSpec(size=size, n_ellipses=n_ellipses, seed=ph_seed))
        full_path = out / f"pair{i:03d}_full.img"
        write_image(full_path, phantom)
        write_pgm(full_path.with_suffix(".pgm"), phantom)
        for frac, tag, key in zip(dose_fractions, tags, seed_keys):
            noise_seed = int(np.random.SeedSequence((master_seed, i, key)).generate_state(1)[0])
            low = simulate_low_dose(
                phantom, frac, np.random.default_rng(noise_seed), photons_full_dose
            )
            low_path = out / f"pair{i:03d}_{tag}_low.img"
            write_image(low_path, low)
            write_pgm(low_path.with_suffix(".pgm"), low)
            records.append(
                {
                    "pair_id": f"pair{i:03d}_{tag}",
                    "full_path": full_path.name,
                    "low_path": low_path.name,
                    "dose_fraction": frac,
                    "seed": noise_seed,
                }
            )
    write_manifest(out / "manifest.csv", records)
    return records


def dose_tags(dose_fractions):
    """Pair-id tags and noise-seed keys of ``dose_fractions``, one each per fraction.

    Rejects a fraction outside (0, 1] and fractions that would share a tag
    or a key, before any file is written.
    """
    for frac in dose_fractions:
        if not 0.0 < frac <= 1.0:
            raise ValueError(f"dose fraction {frac} outside (0, 1]")
    tags = [f"d{round(frac * 100):03d}" for frac in dose_fractions]
    seed_keys = [round(frac * 1000) for frac in dose_fractions]
    if len(set(tags)) != len(tags) or len(set(seed_keys)) != len(seed_keys):
        raise ValueError(
            f"dose fractions {list(dose_fractions)} collide in pair ids {tags} "
            f"or noise-seed keys {seed_keys}"
        )
    return tags, seed_keys


# the manifest's columns, in file order
_MANIFEST_COLUMNS = ("pair_id", "full_path", "low_path", "dose_fraction", "seed")


def write_manifest(path, records):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_MANIFEST_COLUMNS)
        writer.writerows([r[c] for c in _MANIFEST_COLUMNS] for r in records)


def read_manifest(path):
    """Load manifest records and their images into DosePairs.

    A bad header or a malformed row raises ValueError naming the file and line.
    """
    base = Path(path).parent
    pairs = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or tuple(header) != _MANIFEST_COLUMNS:
            raise ValueError(f"{path}:1: bad manifest header {header}")
        # blank lines hold no record
        for rec in filter(None, reader):
            where = f"{path}:{reader.line_num}"
            if len(rec) != len(_MANIFEST_COLUMNS):
                raise ValueError(f"{where}: expected {len(_MANIFEST_COLUMNS)} fields, got {len(rec)}")
            pair_id, full_path, low_path, dose_fraction, seed = rec
            try:
                pairs.append(DosePair(pair_id, read_image(base / full_path), read_image(base / low_path),
                                      float(dose_fraction), int(seed)))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
    return pairs
