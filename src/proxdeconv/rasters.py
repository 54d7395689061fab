"""Raster file I/O: PGM and raw float64 with a JSON sidecar.

PGM stores integer samples up to maxval 65535 (two-byte big-endian samples
above 255, per the format); it round-trips integer-valued images exactly.
Images are written as binary PGM (P5); both P2 (ascii) and P5 are read.
The f64 format is the lossless route for real-valued rasters: little-endian
row-major float64 payload in ``path`` plus ``path + ".json"`` holding
``{"width": W, "height": H, "dtype": "f64-le"}``. Format dispatch goes by
extension: ``.pgm`` is PGM, everything else is f64-raw.
"""

from __future__ import annotations

import json

import numpy as np

from .operators import Image, _check_count, _check_counts

PGM_MAXVAL_LIMIT = 65535
F64_DTYPE = "f64-le"


def sidecar_path(path: str) -> str:
    return path + ".json"


def write_f64(path: str, image: Image) -> None:
    payload = image.data.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(payload)
    meta = {"dtype": F64_DTYPE, "height": image.height, "width": image.width}
    with open(sidecar_path(path), "w", encoding="ascii") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")


def read_f64(path: str) -> Image:
    with open(sidecar_path(path), "r", encoding="ascii") as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: sidecar must hold a JSON object, "
                         f"got {type(meta).__name__}")
    if meta.get("dtype") != F64_DTYPE:
        raise ValueError(f"{path}: unsupported dtype {meta.get('dtype')!r}")
    for key in ("width", "height"):
        _check_count(meta.get(key), f"{path}: sidecar {key}")
    width, height = meta["width"], meta["height"]
    expected = 8 * width * height
    with open(path, "rb") as fh:
        payload = fh.read()
    if len(payload) != expected:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, "
                         f"expected {expected} for {width}x{height} float64")
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return Image(width=width, height=height, data=data)


def write_pgm(path: str, image: Image) -> None:
    """Write an integer-valued image as binary PGM (P5), with maxval the
    largest sample (at least 1)."""
    data = image.data
    _check_counts(data, f"{path}: PGM samples")
    maxval = max(int(np.max(data)), 1)
    if maxval > PGM_MAXVAL_LIMIT:
        raise ValueError(f"maxval {maxval} exceeds the PGM limit {PGM_MAXVAL_LIMIT}")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.width} {image.height}\n{maxval}\n".encode("ascii"))
        fh.write(data.astype(">u2" if maxval > 255 else np.uint8).tobytes())


def _pgm_int(path: str, field: str, token: bytes) -> int:
    """A PGM integer: ASCII decimal digits only, unlike int()."""
    if not token.isdigit():
        raise ValueError(f"{path}: PGM {field} must be a decimal integer, "
                         f"got {token!r}")
    return int(token)


def _tokenize_pgm_header(path: str, blob: bytes) -> tuple[list[int], int]:
    """Read width, height and maxval, skipping # comments."""
    fields = ("width", "height", "maxval")
    tokens: list[int] = []
    i = 0
    while len(tokens) < len(fields):
        if i >= len(blob):
            raise ValueError(f"{path}: truncated PGM header")
        ch = blob[i:i + 1]
        if ch.isspace():
            i += 1
        elif ch == b"#":
            end = blob.find(b"\n", i)
            i = len(blob) if end < 0 else end + 1
        else:
            j = i
            while j < len(blob) and not blob[j:j + 1].isspace():
                j += 1
            tokens.append(_pgm_int(path, fields[len(tokens)], blob[i:j]))
            i = j
    return tokens, i


def read_pgm(path: str) -> Image:
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = blob[:2]
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a PGM file (magic {magic!r})")
    (width, height, maxval), offset = _tokenize_pgm_header(path, blob[2:])
    offset += 2
    for field, size in (("width", width), ("height", height)):
        _check_count(size, f"{path}: PGM {field}")
    if not 0 < maxval <= PGM_MAXVAL_LIMIT:
        raise ValueError(f"{path}: maxval {maxval} outside (0, {PGM_MAXVAL_LIMIT}]")
    n = width * height
    if magic == b"P5":
        offset += 1  # single whitespace byte after maxval
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        payload = blob[offset:offset + n * dtype.itemsize]
        if len(payload) != n * dtype.itemsize:
            raise ValueError(f"{path}: truncated P5 payload")
        data = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    else:
        values = blob[offset:].split()
        if len(values) != n:
            raise ValueError(f"{path}: P2 has {len(values)} samples, expected {n}")
        data = np.array([_pgm_int(path, "sample", v) for v in values],
                        dtype=np.float64)
    if np.any(data > maxval):
        raise ValueError(f"{path}: sample exceeds declared maxval {maxval}")
    return Image(width=width, height=height, data=data)


def read_raster(path: str) -> Image:
    if path.lower().endswith(".pgm"):
        return read_pgm(path)
    return read_f64(path)


def write_raster(path: str, image: Image) -> None:
    if path.lower().endswith(".pgm"):
        write_pgm(path, image)
    else:
        write_f64(path, image)
