"""Dense tensor helpers, deterministic RNG, and binary tensor serialization.

All numeric data is carried by row-major (C-order) float64 ndarrays.
Serialized tensors are stored as float32 with an explicit little-endian
header so files are byte-identical across platforms.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np


class ShapeError(ValueError):
    """Dimension mismatch or an invalid shape."""


class ConfigError(ValueError):
    """Parameter outside its supported range."""


class EncodingError(ValueError):
    """Value cannot be represented by the requested bit encoding."""


class DomainError(ValueError):
    """Input is off the grid the operation is defined on."""


class StageError(RuntimeError):
    """Model stage does not match the stored weight form."""


class DecompositionError(RuntimeError):
    """Weights cannot be decomposed into {-1,+1} bit planes."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss.

    ``train.train_model`` sets ``model`` and ``grad_state`` to the training
    state that diverged; they stay None when a single step raises it.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.model = None
        self.grad_state = None


class FormatError(OSError):
    """File contents do not follow the format they claim."""


# ---------------------------------------------------------------------------
# Deterministic RNG
# ---------------------------------------------------------------------------

def make_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox generator; identical seed gives an identical stream."""
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# Tensor arithmetic
# ---------------------------------------------------------------------------

def matmul_f(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float reference matrix product; the oracle for every quantized path."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul_f expects 2-D operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    return a @ b


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round with ties away from zero, the fixed convention everywhere.

    numpy's ``round`` rounds ties to even, which is not bit-stable across
    the quantization grids used here.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.trunc(x + np.copysign(0.5, x))


# ---------------------------------------------------------------------------
# Binary serialization: u64-LE rank, u64-LE dims, f32-LE payload
# ---------------------------------------------------------------------------

# the largest tensor rank a file may declare; within every numpy's limit
MAX_RANK = 32

def tensor_to_bytes(a: np.ndarray) -> bytes:
    a = np.ascontiguousarray(a, dtype=np.float64)
    header = struct.pack("<Q", a.ndim) + struct.pack(f"<{a.ndim}Q", *a.shape)
    return header + a.astype("<f4").tobytes()


def read_header(blob: bytes, magic: bytes) -> tuple[object, int]:
    """Check the magic line and decode the JSON header line after it.

    Returns (header, offset of the first payload byte); FormatError otherwise.
    """
    if not blob.startswith(magic):
        raise FormatError(f"bad magic, expected {magic.strip()!r}")
    off = blob.find(b"\n", len(magic)) + 1
    if off == 0:
        raise FormatError("header line has no end")
    try:
        return json.loads(blob[len(magic):off]), off
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise FormatError(f"undecodable header: {exc}") from None


def require_bytes(buf: bytes, end: int) -> None:
    """Raise FormatError unless ``buf`` holds at least ``end`` bytes."""
    if end > len(buf):
        raise FormatError(f"truncated payload: needs {end} bytes, has {len(buf)}")


def _array_from_bytes(buf: bytes, off: int, dtype: str) -> tuple[np.ndarray, int]:
    """Decode u64 rank, u64 dims and the payload at ``off``; returns (array, end offset)."""
    require_bytes(buf, off + 8)
    (rank,) = struct.unpack_from("<Q", buf, off)
    if rank > MAX_RANK:
        raise FormatError(f"tensor rank {rank} exceeds {MAX_RANK}")
    start = off + 8 + 8 * rank
    require_bytes(buf, start)
    dims = struct.unpack_from(f"<{rank}Q", buf, off + 8)
    # a zero dim empties the payload, but numpy still refuses the shape
    # unless the other dims fit an intp count of bytes, here of the 8-byte
    # values the readers return
    if math.prod(d for d in dims if d) * 8 > np.iinfo(np.intp).max:
        raise FormatError(f"tensor dims {dims} are too large")
    end = start + np.dtype(dtype).itemsize * math.prod(dims)
    require_bytes(buf, end)
    return np.frombuffer(buf, dtype=dtype, count=math.prod(dims), offset=start).reshape(dims), end


def tensor_from_bytes(buf: bytes, off: int = 0) -> tuple[np.ndarray, int]:
    """Decode one tensor at ``off``; returns (tensor, offset just past it)."""
    data, end = _array_from_bytes(buf, off, "<f4")
    # a signalling NaN would warn "invalid value" as it widens; it loads as a
    # NaN, which the quantizers and the forward reject as non-finite
    with np.errstate(invalid="ignore"):
        return data.astype(np.float64), end


def int_tensor_to_bytes(a: np.ndarray) -> bytes:
    """Same header as tensor_to_bytes but with an int16 payload (code grids).

    int16 covers every supported grid: odd codes reach +-255 at 8 bits.
    """
    a = np.ascontiguousarray(a)
    if a.size and (a.max() > 32767 or a.min() < -32768):
        raise EncodingError("codes out of int16 range")
    header = struct.pack("<Q", a.ndim) + struct.pack(f"<{a.ndim}Q", *a.shape)
    return header + a.astype("<i2").tobytes()


def int_tensor_from_bytes(buf: bytes, off: int = 0) -> tuple[np.ndarray, int]:
    data, end = _array_from_bytes(buf, off, "<i2")
    return data.astype(np.int64), end
