"""Deterministic synthetic marine-farm scenes: masks, optical and speckled SAR.

Farms are rectangular grids of cells (regular-shaped targets) on a dark
background. The SAR rendering multiplies a two-level reflectivity by
multiplicative Gamma speckle with mean 1 (L looks, variance 1/L), sampled as
the mean of L unit-exponential draws. Everything is seeded per sample, so a
dataset regenerates byte-identically.
"""

from __future__ import annotations

import json
import re
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


# "P5", width, height and maxval 255, each after whitespace or "#" comments
# that stop only at a line end (one way to match), then one whitespace byte
_PGM_HEADER = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*".join(
    [b"", rb"P5\s", rb"(\d+)\s", rb"(\d+)\s", rb"255\s"]))


def read_pgm(path) -> np.ndarray:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise IOError_(f"cannot read {path}: {e}") from e
    header = _PGM_HEADER.match(raw)
    if not header:
        raise IOError_(f"{path}: not an 8-bit P5 PGM")
    w, h = int(header[1]), int(header[2])
    if len(raw) - header.end() < w * h:
        raise IOError_(f"{path}: truncated PGM pixel block")
    data = np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=header.end())
    return data.reshape(h, w).copy()


def quantize_u8(image01) -> np.ndarray:
    """[0,1] float image to 8-bit with 1/255 steps."""
    return np.clip(np.rint(np.asarray(image01) * 255.0), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# scene generation

FARM_COUNT_RANGE = (1, 3)
FARM_CELL_SIZE_RANGE = (8, 16)
# farm geometry, cells and gaps, snaps to this lattice; the decoder emits
# stride-4 logits, so a 4 px lattice keeps the task representable at desk scale
ALIGNMENT = 4
GRID_GAP = 4
OPTICAL_FOREGROUND = 0.8
OPTICAL_BACKGROUND = 0.2
OPTICAL_NOISE_SIGMA = 0.05
SPECKLE_LOOKS = 4


@dataclass
class SceneSpec:
    image_size: int = 64
    # read nowhere: make_dataset's own seed argument seeds the data
    seed: int = 0

    def __post_init__(self):
        cell = FARM_CELL_SIZE_RANGE[1]
        if self.image_size % 16 or self.image_size <= cell:
            raise ConfigurationError(f"image_size must be a multiple of 16 above {cell}, "
                                     f"the largest farm cell; got {self.image_size}")


def gen_label_mask(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    """Axis-aligned rectangular farm grids; farms 255, background 0."""
    n = spec.image_size
    mask = np.zeros((n, n), dtype=np.uint8)

    def snapped(low, high):
        return ALIGNMENT * int(rng.integers(low // ALIGNMENT, high // ALIGNMENT + 1))

    lo, hi = FARM_COUNT_RANGE
    for _ in range(int(rng.integers(lo, hi + 1))):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 4))
        ch = snapped(*FARM_CELL_SIZE_RANGE)
        cw = snapped(*FARM_CELL_SIZE_RANGE)
        top = snapped(0, n - 1)
        left = snapped(0, n - 1)
        for r in range(rows):
            for c in range(cols):
                y0 = top + r * (ch + GRID_GAP)
                x0 = left + c * (cw + GRID_GAP)
                mask[y0:y0 + ch, x0:x0 + cw] = 255  # numpy slicing clips to bounds
    return mask


def reflectivity(mask) -> np.ndarray:
    """The noiseless scene both sensors see: foreground and background levels."""
    return np.where(mask > 0, OPTICAL_FOREGROUND, OPTICAL_BACKGROUND)


def render_optical(mask, rng: np.random.Generator) -> np.ndarray:
    noisy = reflectivity(mask) + rng.normal(0.0, OPTICAL_NOISE_SIGMA, size=mask.shape)
    return np.clip(noisy, 0.0, 1.0)


def sample_speckle(shape, looks: int, rng: np.random.Generator) -> np.ndarray:
    """Gamma(L, 1/L) with mean 1, as the mean of L unit-exponential draws."""
    draws = rng.exponential(1.0, size=(looks,) + tuple(shape))
    return draws.mean(axis=0)


def render_sar(mask, rng: np.random.Generator) -> np.ndarray:
    speckled = reflectivity(mask) * sample_speckle(mask.shape, SPECKLE_LOOKS, rng)
    return np.clip(speckled, 0.0, 1.0)


def generate_sample(spec: SceneSpec, sample_seed: int):
    """One (sar, optical, mask) triple from its own derived seed."""
    rng = np.random.Generator(np.random.PCG64(sample_seed))
    mask = gen_label_mask(spec, rng)
    optical = render_optical(mask, rng)
    sar = render_sar(mask, rng)
    return sar, optical, mask


# ---------------------------------------------------------------------------
# dataset persistence

MANIFEST_NAME = "manifest.json"
KINDS = ("sar", "optical", "mask")  # the images of one manifest entry


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
            names = {kind: f"{split}/{kind}_{index:05d}.pgm" for kind in KINDS}
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
    """The parsed manifest; one that is not a JSON object of splits is an I/O error."""
    path = Path(data_dir) / MANIFEST_NAME
    if not path.exists():
        raise ConfigurationError(f"no dataset manifest at {path}")
    try:
        manifest = json.loads(path.read_text())
    except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
        raise IOError_(f"malformed manifest {path}: {e}") from None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("splits"), dict)):
        raise IOError_(f"{path}: not a JSON object with a 'splits' object")
    return manifest


def load_split(data_dir, split: str):
    """Returns (sar [N,1,H,W] in [0,1], masks [N,H,W] in {0,1}, optical [N,1,H,W]).

    Every image must have the extent of the split's first SAR image.
    """
    manifest = load_manifest(data_dir)
    if split not in manifest["splits"]:
        raise ConfigurationError(f"unknown split '{split}'")
    entries = manifest["splits"][split]
    root = Path(data_dir)
    if not isinstance(entries, list):
        raise IOError_(f"{root / MANIFEST_NAME}: split '{split}' is not a list")
    if not entries:
        return (np.zeros((0, 1, 0, 0)), np.zeros((0, 0, 0)), np.zeros((0, 1, 0, 0)))
    images = {kind: [] for kind in KINDS}
    for e in entries:
        if not (isinstance(e, dict) and all(isinstance(e.get(k), str) for k in KINDS)):
            raise IOError_(f"{root / MANIFEST_NAME}: a '{split}' entry lacks "
                           f"string sar, optical and mask paths: {e!r}")
        for kind in KINDS:
            img = read_pgm(root / e[kind])
            extent = images["sar"][0].shape if images["sar"] else img.shape
            if img.shape != extent:
                raise IOError_(f"{root / e[kind]}: extent {img.shape} differs from "
                               f"the split's first SAR image, {extent}")
            images[kind].append(img)
    sar = np.stack(images["sar"])[:, None] / 255.0
    optical = np.stack(images["optical"])[:, None] / 255.0
    mask = (np.stack(images["mask"]) > 127).astype(np.float64)
    return sar, mask, optical
