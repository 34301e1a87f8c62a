"""Bit-exact binary checkpoint format for named tensors.

Layout: magic "DFSG", format version u16, tensor count u32, then per tensor:
name length u16 + UTF-8 name, rank u8, extents as u32, values as little-endian
float64. Everything little-endian, so files diff byte-for-byte.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ContractError, IOError_

MAGIC = b"DFSG"
VERSION = 1


def save_checkpoint(path, named_arrays) -> None:
    """named_arrays: ordered iterable of (name, ndarray), each name once."""
    items = [(name, np.asarray(arr, dtype=np.float64)) for name, arr in named_arrays]
    chunks = [MAGIC, struct.pack("<HI", VERSION, len(items))]
    seen = set()
    for name, arr in items:
        if name in seen:
            raise ContractError(f"checkpoint tensor name '{name}' repeated")
        seen.add(name)
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    try:
        Path(path).write_bytes(b"".join(chunks))
    except OSError as e:
        raise IOError_(f"cannot write checkpoint {path}: {e}") from e


def load_checkpoint(path):
    """Returns name -> float64 array, in file order; each array is its own copy."""
    try:
        # a view, so reading each field below copies no bytes
        raw = memoryview(Path(path).read_bytes())
    except OSError as e:
        raise IOError_(f"cannot read checkpoint {path}: {e}") from e
    if raw[:4] != MAGIC:
        raise IOError_(f"{path}: bad checkpoint magic")
    pos = 4

    def take(n):
        nonlocal pos
        if n > len(raw) - pos:
            raise IOError_(f"{path}: truncated checkpoint at byte {pos}")
        pos += n
        return raw[pos - n:pos]

    version, count = struct.unpack("<HI", take(6))
    if version != VERSION:
        raise IOError_(f"{path}: unsupported checkpoint version {version}")
    out = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = str(take(name_len), "utf-8")
        except UnicodeDecodeError as e:
            raise IOError_(f"{path}: tensor name is not UTF-8: {e}") from e
        if name in out:
            raise IOError_(f"{path}: repeated tensor '{name}'")
        (rank,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        values = take(8 * math.prod(shape))
        out[name] = np.frombuffer(values, dtype="<f8").reshape(shape).astype(np.float64)
    if pos != len(raw):
        raise IOError_(f"{path}: {len(raw) - pos} trailing bytes after the last tensor")
    return out


def load_into_params(path, named_params) -> None:
    """Overwrite each (name, Tensor) param with the checkpointed array."""
    stored = load_checkpoint(path)
    for name, param in named_params:
        if name not in stored:
            raise IOError_(f"{path}: missing tensor '{name}'")
        if stored[name].shape != param.data.shape:
            raise IOError_(f"{path}: shape mismatch for '{name}'")
        if not np.all(np.isfinite(stored[name])):
            raise IOError_(f"{path}: non-finite values in '{name}'")
        param.data = stored[name]
