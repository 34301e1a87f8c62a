"""Deterministic synthetic marine-farm scenes: masks, optical and speckled SAR.

Farms are rectangular grids of cells (regular-shaped targets) on a dark
background. The SAR rendering multiplies a two-level reflectivity by
multiplicative Gamma speckle with mean 1 (L looks, variance 1/L), sampled as
the mean of L unit-exponential draws. Everything is seeded per sample, so a
dataset regenerates byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, IOError_


# ---------------------------------------------------------------------------
# PGM (P5, 8-bit) reader/writer

def write_pgm(path, image_u8) -> None:
    img = np.asarray(image_u8, dtype=np.uint8)
    if img.ndim != 2:
        raise IOError_("write_pgm expects a 2-d uint8 array")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    try:
        Path(path).write_bytes(header + img.tobytes())
    except OSError as e:
        raise IOError_(f"cannot write {path}: {e}") from e


def read_pgm(path) -> np.ndarray:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise IOError_(f"cannot read {path}: {e}") from e
    fields = []
    pos = 0
    while len(fields) < 4:
        # skip whitespace and comment lines between header tokens
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P5" or fields[3] != b"255":
        raise IOError_(f"{path}: not an 8-bit P5 PGM")
    if not (fields[1].isdigit() and fields[2].isdigit()):
        raise IOError_(f"{path}: PGM extents are not decimal integers")
    w, h = int(fields[1]), int(fields[2])
    pos += 1  # single whitespace byte after maxval
    if len(raw) - pos < w * h:
        raise IOError_(f"{path}: truncated PGM pixel block")
    data = np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=pos)
    return data.reshape(h, w).copy()


def quantize_u8(image01) -> np.ndarray:
    """[0,1] float image to 8-bit with 1/255 steps."""
    return np.clip(np.rint(np.asarray(image01) * 255.0), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# scene generation

@dataclass
class SceneSpec:
    image_size: int = 64
    farm_count_range: tuple = (1, 3)
    farm_cell_size_range: tuple = (8, 16)
    grid_gap: int = 4
    # farm geometry snaps to this lattice; the decoder emits stride-4 logits,
    # so a 4 px lattice keeps the task representable at desk scale
    alignment: int = 4
    optical_foreground: float = 0.8
    optical_background: float = 0.2
    optical_noise_sigma: float = 0.05
    speckle_looks: int = 4
    seed: int = 0

    def validate(self):
        if self.image_size % 16 != 0:
            raise ConfigurationError("image_size must be divisible by 16")
        if not (0.0 <= self.optical_background <= 1.0
                and 0.0 <= self.optical_foreground <= 1.0):
            raise ConfigurationError("intensity means must lie in [0,1]")
        if self.speckle_looks < 1:
            raise ConfigurationError("speckle_looks must be >= 1")
        if self.farm_cell_size_range[1] >= self.image_size:
            raise ConfigurationError("farm cell size must be below image size")


def gen_label_mask(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    """Axis-aligned rectangular farm grids; farms 255, background 0."""
    spec.validate()
    n = spec.image_size
    a = max(1, spec.alignment)
    mask = np.zeros((n, n), dtype=np.uint8)
    lo, hi = spec.farm_count_range
    gap = max(a, (spec.grid_gap // a) * a)

    def snapped(low, high):
        return a * int(rng.integers(low // a, high // a + 1))

    for _ in range(int(rng.integers(lo, hi + 1))):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 4))
        ch = snapped(*spec.farm_cell_size_range)
        cw = snapped(*spec.farm_cell_size_range)
        top = snapped(0, n - 1)
        left = snapped(0, n - 1)
        for r in range(rows):
            for c in range(cols):
                y0 = top + r * (ch + gap)
                x0 = left + c * (cw + gap)
                mask[y0:y0 + ch, x0:x0 + cw] = 255  # numpy slicing clips to bounds
    return mask


def render_optical(mask, spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    base = np.where(mask > 0, spec.optical_foreground, spec.optical_background)
    noisy = base + rng.normal(0.0, spec.optical_noise_sigma, size=base.shape)
    return np.clip(noisy, 0.0, 1.0)


def sample_speckle(shape, looks: int, rng: np.random.Generator) -> np.ndarray:
    """Gamma(L, 1/L) with mean 1, as the mean of L unit-exponential draws."""
    draws = rng.exponential(1.0, size=(looks,) + tuple(shape))
    return draws.mean(axis=0)


def render_sar(mask, spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    reflectivity = np.where(mask > 0, spec.optical_foreground,
                            spec.optical_background)
    speckled = reflectivity * sample_speckle(mask.shape, spec.speckle_looks, rng)
    return np.clip(speckled, 0.0, 1.0)


def generate_sample(spec: SceneSpec, sample_seed: int):
    """One (sar, optical, mask) triple from its own derived seed."""
    rng = np.random.Generator(np.random.PCG64(sample_seed))
    mask = gen_label_mask(spec, rng)
    optical = render_optical(mask, spec, rng)
    sar = render_sar(mask, spec, rng)
    return sar, optical, mask


# ---------------------------------------------------------------------------
# dataset persistence

MANIFEST_NAME = "manifest.json"


def make_dataset(spec: SceneSpec, out_dir, n_train, n_val, n_test,
                 seed: int) -> dict:
    """Write PGM triples plus a split manifest; returns the manifest."""
    if min(n_train, n_val, n_test) < 0:
        raise ConfigurationError("split counts must be >= 0")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IOError_(f"cannot create {out}: {e}") from e
    manifest = {"image_size": spec.image_size, "splits": {}}
    index = 0
    for split, count in (("train", n_train), ("val", n_val), ("test", n_test)):
        split_dir = out / split
        split_dir.mkdir(exist_ok=True)
        entries = []
        for _ in range(count):
            sar, optical, mask = generate_sample(spec, seed ^ index)
            names = {kind: f"{split}/{kind}_{index:05d}.pgm"
                     for kind in ("sar", "optical", "mask")}
            write_pgm(out / names["sar"], quantize_u8(sar))
            write_pgm(out / names["optical"], quantize_u8(optical))
            write_pgm(out / names["mask"], mask)
            entries.append(names)
            index += 1
        manifest["splits"][split] = entries
    (out / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest


def load_manifest(data_dir) -> dict:
    path = Path(data_dir) / MANIFEST_NAME
    if not path.exists():
        raise ConfigurationError(f"no dataset manifest at {path}")
    return json.loads(path.read_text())


def load_split(data_dir, split: str):
    """Returns (sar [N,1,H,W] in [0,1], masks [N,H,W] in {0,1}, optical [N,1,H,W])."""
    manifest = load_manifest(data_dir)
    if split not in manifest["splits"]:
        raise ConfigurationError(f"unknown split '{split}'")
    entries = manifest["splits"][split]
    root = Path(data_dir)
    sars, opticals, masks = [], [], []
    for e in entries:
        sars.append(read_pgm(root / e["sar"]).astype(np.float64) / 255.0)
        opticals.append(read_pgm(root / e["optical"]).astype(np.float64) / 255.0)
        masks.append((read_pgm(root / e["mask"]) > 127).astype(np.float64))
    if not entries:
        return (np.zeros((0, 1, 0, 0)), np.zeros((0, 0, 0)), np.zeros((0, 1, 0, 0)))
    sar = np.stack(sars)[:, None]
    optical = np.stack(opticals)[:, None]
    mask = np.stack(masks)
    return sar, mask, optical
