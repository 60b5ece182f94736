"""Binary container for named float64 arrays plus a JSON header.

Layout (all integers little-endian):

    magic "EVSN" | u32 format version | u32 header length | header JSON
    | u32 array count
    | per array: u32 name length | name UTF-8 | u32 ndim | u32*ndim dims
                 | float64 LE payload
    | 32-byte SHA-256 of everything before it

Checkpoints and corpus files share this convention.  Round-trips are
bitwise exact and the digest is verified on read.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"EVSN"
FORMAT_VERSION = 1


def write_blob(path: Path | str, header: dict, arrays: dict[str, np.ndarray]) -> str:
    """Write header + arrays; returns the hex content digest."""
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<I", len(header_bytes)))
    parts.append(header_bytes)
    parts.append(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        name_bytes = name.encode("utf-8")
        parts.append(struct.pack("<I", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        parts.append(arr.tobytes())
    payload = b"".join(parts)
    digest = hashlib.sha256(payload).digest()
    Path(path).write_bytes(payload + digest)
    return digest.hex()


def read_blob(path: Path | str) -> tuple[dict, dict[str, np.ndarray], str]:
    """Read and verify a blob; returns (header, arrays, hex digest).

    Bytes that do not parse as the layout above, ending at the digest, or a
    header that is not a JSON object, are a DataError naming path."""
    raw = Path(path).read_bytes()
    if len(raw) < 44 or raw[:4] != MAGIC:
        raise DataError(f"{path}: not an EVSN container")
    payload, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise DataError(f"{path}: content digest mismatch, file is corrupt")
    version, hlen = struct.unpack_from("<II", payload, 4)
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format version {version}")
    off = 12
    arrays: dict[str, np.ndarray] = {}
    try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        header = json.loads(payload[off:off + hlen].decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError("header is not a JSON object")
        off += hlen
        (count,) = struct.unpack_from("<I", payload, off)
        off += 4
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", payload, off)
            off += 4
            name = payload[off:off + nlen].decode("utf-8")
            off += nlen
            (ndim,) = struct.unpack_from("<I", payload, off)
            off += 4
            shape = struct.unpack_from(f"<{ndim}I", payload, off)
            off += 4 * ndim
            size = math.prod(shape)
            arr = np.frombuffer(payload, dtype="<f8", count=size, offset=off).reshape(shape)
            arrays[name] = arr.astype(np.float64)  # own, writable copy
            off += 8 * size
        if off != len(payload):
            raise ValueError(f"{len(payload) - off} bytes after the last array")
    except (struct.error, ValueError, RecursionError) as exc:
        raise DataError(f"{path}: malformed EVSN container: {exc}") from None
    return header, arrays, digest.hex()


def check_shapes(path, arrays: dict[str, np.ndarray], shapes) -> None:
    """A DataError naming path and the array for the first (name, shape) of
    shapes whose array has another shape; a KeyError for one arrays lacks."""
    for name, shape in shapes:
        if arrays[name].shape != shape:
            raise DataError(f"{path}: array {name!r} has shape {arrays[name].shape}, "
                            f"expected {shape}")


def check_schema_version(path, header: dict, schema: str, version: int) -> None:
    """A DataError naming path unless header's schema_version is the int
    version; a bool or a float equal to it is not."""
    found = header.get("schema_version")
    if type(found) is not int or found != version:
        raise DataError(f"{path}: {schema} schema_version {found!r} is not {version}")
