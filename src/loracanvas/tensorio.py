"""Binary tensor container: the on-disk format for every shipped asset.

Layout, little-endian throughout:

    magic   4 bytes  "LCB1"
    version u32      1
    count   u32      number of tensors
    per tensor:
        name_len u16, name UTF-8, ndim u8, dims u32 * ndim,
        payload float32 * prod(dims)

Values are stored as float32 and widened to float64 on load, so a
write -> load -> write cycle reproduces the file byte for byte.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ArgumentError, DataError, FormatError

MAGIC = b"LCB1"
VERSION = 1


def write_container(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Write named tensors in dict order; nothing is written unless all are finite."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, value in tensors.items():
        arr = np.asarray(value, dtype=np.float64)
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ArgumentError(f"tensor name too long: {name!r}")
        if arr.ndim > 0xFF:
            raise ArgumentError(f"too many dimensions for {name!r}")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        with np.errstate(over="ignore"):
            payload = arr.astype("<f4")
        if not np.all(np.isfinite(payload)):
            raise DataError(f"tensor {name!r} has values that are not finite as float32")
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(payload.tobytes(order="C"))
    Path(path).write_bytes(b"".join(chunks))


def read_container(path: str | Path) -> dict[str, np.ndarray]:
    """Load all tensors, widened to float64, preserving file order."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read tensor container {path}: {exc}") from exc
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic, not a tensor container")
    version, count = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    offset = 12
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        name, offset = _read_name(raw, offset, path)
        if name in out:
            raise DataError(f"{path}: tensor {name!r} appears twice")
        if offset + 1 > len(raw):
            raise DataError(f"{path}: truncated header for tensor {name!r}")
        ndim = raw[offset]
        offset += 1
        if offset + 4 * ndim > len(raw):
            raise DataError(f"{path}: truncated dims for tensor {name!r}")
        dims = struct.unpack_from(f"<{ndim}I", raw, offset)
        offset += 4 * ndim
        numel = math.prod(dims)
        nbytes = 4 * numel
        if offset + nbytes > len(raw):
            raise DataError(f"{path}: truncated payload for tensor {name!r}")
        payload = np.frombuffer(raw, dtype="<f4", count=numel, offset=offset)
        offset += nbytes
        try:
            arr = payload.astype(np.float64).reshape(dims)
        except ValueError as exc:
            raise DataError(f"{path}: cannot shape tensor {name!r} as {dims}: {exc}") from exc
        if not np.all(np.isfinite(arr)):
            raise DataError(f"{path}: non-finite values in tensor {name!r}")
        out[name] = arr
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} trailing bytes after last tensor")
    return out


def _read_name(raw: bytes, offset: int, path) -> tuple[str, int]:
    if offset + 2 > len(raw):
        raise DataError(f"{path}: truncated tensor name length")
    (name_len,) = struct.unpack_from("<H", raw, offset)
    offset += 2
    if offset + name_len > len(raw):
        raise DataError(f"{path}: truncated tensor name")
    try:
        name = raw[offset:offset + name_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: tensor name is not valid UTF-8: {exc}") from exc
    return name, offset + name_len
