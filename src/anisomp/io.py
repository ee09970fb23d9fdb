"""Matrix file I/O: binary format with a CSV fallback.

Binary layout (little endian): 8-byte magic ``ANISOMP1``, uint64 n, uint64 N,
then n*N float64 values in row-major order.  Anything without the magic is
parsed as CSV.  A header that disagrees with the file size raises ValueError.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"ANISOMP1"

__all__ = ["MAGIC", "write_matrix", "read_matrix"]


def write_matrix(path, data: np.ndarray, fmt: str = "binary") -> None:
    data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    if data.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if fmt == "binary":
        n, N = data.shape
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<QQ", n, N))
            fh.write(data.tobytes(order="C"))
    elif fmt == "csv":
        np.savetxt(path, data, delimiter=",")
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
        if head == MAGIC:
            dims = fh.read(16)
            if len(dims) != 16:
                raise ValueError(f"{path}: truncated binary header")
            n, N = struct.unpack("<QQ", dims)
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if 8 * n * N != left:
                raise ValueError(f"{path}: header claims {n} x {N} values, {left} bytes follow")
            payload = np.frombuffer(fh.read(left), dtype="<f8")
            return payload.reshape(n, N).copy()
    data = np.loadtxt(path, delimiter=",", dtype=float)
    if data.ndim == 1:
        data = data[None, :]
    return data
