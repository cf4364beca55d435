"""Scalar quantizers, range activations, and the {-1,+1} digit encoders.

Two quantization grids coexist on purpose:

* ``linear``: round(clamp(x/t, -1, 1) * (2^(K-1) - 1)) * d with
  d = t / (2^(K-1) - 1). Contains even codes (including 0), so it is used
  for simulated quantized training but cannot be expanded into {-1,+1}
  digits.
* ``odd``: codes are odd integers in [-(2^M - 1), 2^M - 1], quantized
  value = code / (2^M - 1). Every odd code has an exact M-digit {-1,+1}
  expansion code = sum_m 2^(m-1) * c_m, so this is the canonical grid for
  anything that gets decomposed into bit planes.

The trigonometric encoder family maps a real in [-1,1] straight to its M
digits: plane M is sign(sin(pi * x * (2^M-1)/2^M)) and the lower planes use
the negated sine. It agrees with the canonical quantize-then-expand path
except on the cell boundaries (the sine zeros), so every forward pass uses
``quantize_odd``; the encoder is a test oracle, and its cosine derivatives
are the surrogate gradient of multi-branch training.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DomainError, EncodingError, round_half_away

MAX_BITS = 8

# Inputs within this distance of a cell edge (in units of |x|*(2^M - 1))
# snap to the edge, so exact rationals like 2/3 land on the closed side of
# their interval despite float rounding.
_EDGE_SNAP = 1e-9

# values per pass of ``_odd_codes``: 128 KB per float64 temporary, which
# stays in cache and comes back from the heap on the next pass; whole-array
# temporaries cost fresh pages on every call
_BLOCK = 1 << 14


# ---------------------------------------------------------------------------
# Range activations
# ---------------------------------------------------------------------------

def htanh(x: np.ndarray) -> np.ndarray:
    return np.clip(x, -1.0, 1.0)


def hrelu(x: np.ndarray) -> np.ndarray:
    return np.clip(x, 0.0, 1.0)


_ACTIVATIONS = {
    "tanh": np.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "htanh": htanh,
    "hrelu": hrelu,
}


def activation(x: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise range activation: tanh, sigmoid, htanh, or hrelu."""
    try:
        fn = _ACTIVATIONS[kind]
    except KeyError:
        raise ConfigError(f"unknown activation {kind!r}") from None
    return fn(np.asarray(x, dtype=np.float64))


def activation_grad(x: np.ndarray, kind: str) -> np.ndarray:
    """Derivative of ``activation`` at x (hard variants use the closed interval)."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "tanh":
        return 1.0 - np.tanh(x) ** 2
    if kind == "sigmoid":
        s = 1.0 / (1.0 + np.exp(-x))
        return s * (1.0 - s)
    if kind == "htanh":
        return ((x >= -1.0) & (x <= 1.0)).astype(np.float64)
    if kind == "hrelu":
        return ((x >= 0.0) & (x <= 1.0)).astype(np.float64)
    raise ConfigError(f"unknown activation {kind!r}")


# ---------------------------------------------------------------------------
# Quantized container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantizedTensor:
    """Integer code grid plus the scale needed to dequantize it."""

    codes: np.ndarray  # int64
    bits: int
    t: float
    d: float
    grid: str  # "linear" | "odd"

    @property
    def shape(self):
        return self.codes.shape


def dequantize(q: QuantizedTensor) -> np.ndarray:
    return q.codes.astype(np.float64) * q.d


def _check_bits(bits: int) -> None:
    if not 1 <= bits <= MAX_BITS:
        raise ConfigError(f"bit width must be in 1..{MAX_BITS}, got {bits}")


# ---------------------------------------------------------------------------
# Quantizers
# ---------------------------------------------------------------------------

def quantize_linear(x: np.ndarray, bits: int, t: float = 1.0) -> QuantizedTensor:
    """Symmetric linear quantizer round(clamp(x/t, 1) * (2^(K-1)-1)) * d.

    The 1-bit case has no nonzero integer levels on this grid and
    degenerates to sign (codes +-1, d = t).
    """
    _check_bits(bits)
    if not t > 0:
        raise ConfigError(f"clamp threshold must be positive, got {t}")
    x = np.asarray(x, dtype=np.float64)
    if bits == 1:
        codes = np.where(x >= 0, 1, -1).astype(np.int64)
        return QuantizedTensor(codes=codes, bits=1, t=t, d=t, grid="linear")
    qmax = (1 << (bits - 1)) - 1
    codes = round_half_away(np.clip(x / t, -1.0, 1.0) * qmax).astype(np.int64)
    return QuantizedTensor(codes=codes, bits=bits, t=t, d=t / qmax, grid="linear")


def _odd_reference(x: np.ndarray, bits: int) -> np.ndarray:
    """Int64 codes of the odd-grid map as a formula; the spec of ``quantize_odd``.

    code = s * (2 * floor(|x| * (2^M - 1) / 2) + 1) with s = sign(x) and
    sign(0) = -1, which reproduces the closed/open interval pattern of the
    2-bit lookup table ([-1,-2/3] -> -3, (-2/3,0] -> -1, (0,2/3) -> +1,
    [2/3,1] -> +3) and its generalization. Inputs are clamped to [-1,1]
    first; values within 1e-9 of a cell edge snap onto it. In the package
    only ``_odd_table`` runs it: both quantizers, ``_odd_codes`` and
    ``bb_quantize`` in ``_native.c``, read the table built from it.
    """
    _check_bits(bits)
    x = np.asarray(x, dtype=np.float64)
    levels = (1 << bits) - 1
    xc = np.clip(x, -1.0, 1.0)
    y = np.abs(xc) * levels
    nearest = round_half_away(y)
    snap = np.abs(y - nearest) <= _EDGE_SNAP * np.maximum(1.0, np.abs(y))
    y = np.where(snap, nearest, y)
    mag = 2 * np.floor(y / 2.0) + 1
    mag = np.minimum(mag, levels)
    sign = np.where(xc > 0, 1.0, -1.0)
    return (sign * mag).astype(np.int64)


@dataclass(frozen=True)
class _OddTable:
    """``_odd_reference`` as B = 4 * 2^M buckets over [-1, 1].

    A value xc in [-1, 1] falls in bucket i = trunc(xc * B/2 + B/2). Its
    code is low[i], plus 2 when xc >= thr[i]: thr[i] is the one threshold
    inside bucket i where the code steps up (+inf if none), and low[i] is
    the code below it.
    """

    half: float  # B / 2
    thr: np.ndarray  # (B + 1,) float64
    low: np.ndarray  # (B + 1,) float64
    base: np.ndarray  # (B + 1,) int64 byte (low + 2^M - 1) / 2, read by bb_quantize


def _float_key(x: np.ndarray) -> np.ndarray:
    """int64 keys in the order of the float64 values; -0.0 and +0.0 share key 0."""
    i = np.asarray(x, dtype=np.float64).view(np.int64)
    return np.where(i < 0, -(i & np.int64(np.iinfo(np.int64).max)), i)


def _key_float(k: np.ndarray) -> np.ndarray:
    """The float64 values of ``_float_key`` keys."""
    return np.where(k < 0, -k | np.int64(np.iinfo(np.int64).min), k).view(np.float64)


@functools.cache
def _odd_table(bits: int) -> _OddTable:
    """Bisect float64 bit patterns over [-1, 1] for the 2^M - 1 values where
    ``_odd_reference`` steps up, and bucket them.

    The reference rises monotonically in x, so the code of x is
    2 * #(thresholds <= x) - (2^M - 1). Thresholds lie about 2 / (2^M - 1)
    apart, so no bucket of width 2 / B holds two of them. Both facts are
    checked here and raise RuntimeError if they fail.
    """
    _check_bits(bits)
    levels = (1 << bits) - 1
    want = 2 * np.arange(1, levels + 1) - levels  # the code at and above each threshold
    lo = np.full(levels, _float_key(-1.0))  # the reference gives -levels < want here
    hi = np.full(levels, _float_key(1.0))  # and +levels >= want here
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        up = _odd_reference(_key_float(mid), bits) >= want
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    thr = _key_float(hi)
    if not (np.all(np.diff(thr) > 0) and np.all(_odd_reference(thr, bits) == want)):
        raise RuntimeError(f"the {bits}-bit odd quantizer does not step up once per threshold")
    half = float(2 << bits)  # B / 2
    bucket = (thr * half + half).astype(np.intp)  # the run-time index, same operations
    if np.any(np.diff(bucket) == 0):
        raise RuntimeError(f"two {bits}-bit thresholds share a bucket")
    base = np.searchsorted(bucket, np.arange(2 * (2 << bits) + 1))  # thresholds in lower buckets
    table = np.full(base.size, np.inf)
    table[bucket] = thr
    low = (2 * base - levels).astype(np.float64)
    base = base.astype(np.int64)
    table.flags.writeable = low.flags.writeable = base.flags.writeable = False  # shared
    return _OddTable(half=half, thr=table, low=low, base=base)


def _odd_codes(x: np.ndarray, bits: int, dtype=np.float64) -> np.ndarray:
    """``_odd_reference`` codes of x in ``dtype``, by one ``_odd_table`` lookup.

    x must hold no NaN: each caller checks its input first and raises its
    own error. +-inf clamp to +-1.
    """
    tab = _odd_table(bits)
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    low = tab.low.astype(dtype, copy=False)
    codes = np.empty(flat.size, dtype)
    for s in range(0, flat.size, _BLOCK):
        xc = flat[s:s + _BLOCK].clip(-1.0, 1.0)
        u = xc * tab.half
        u += tab.half
        i = u.astype(np.intp)
        # "clip" skips the bounds check: i is in range, as x holds no NaN
        up = xc >= tab.thr.take(i, mode="clip")
        out = np.take(low, i, out=codes[s:s + _BLOCK], mode="clip")
        out += up
        out += up
    return codes.reshape(x.shape)


def quantize_odd(x: np.ndarray, bits: int) -> QuantizedTensor:
    """Quantize onto the odd grid {+-1, +-3, ..., +-(2^M - 1)} / (2^M - 1).

    The codes are those of ``_odd_reference``, bit for bit, read from a
    threshold table (``_odd_codes``). +-inf clamp to +-1; NaN raises
    DomainError.
    """
    _check_bits(bits)
    x = np.asarray(x, dtype=np.float64)
    nan = np.count_nonzero(np.isnan(x))
    if nan:
        raise DomainError(f"{nan} NaN values cannot be quantized")
    levels = (1 << bits) - 1
    return QuantizedTensor(codes=_odd_codes(x, bits, np.int64), bits=bits, t=1.0,
                           d=1.0 / levels, grid="odd")


# ---------------------------------------------------------------------------
# Digit expansion
# ---------------------------------------------------------------------------

def odd_code_digits(codes: np.ndarray, bits: int) -> np.ndarray:
    """{-1,+1} digit planes of odd codes, shape (bits, n), plane 0 lowest.

    Per element, b = (code + 2^M - 1) / 2 is written in binary and each bit
    is mapped 0 -> -1, 1 -> +1; the weighted digit sum reproduces the code
    exactly. No encode path calls it: ``gemm.encode_codes`` packs the bytes
    b directly, and the tests hold those words to these digits.
    """
    _check_bits(bits)
    codes = np.asarray(codes, dtype=np.int64).reshape(-1)
    levels = (1 << bits) - 1
    if codes.size and (np.any(np.abs(codes) > levels) or np.any(codes % 2 == 0)):
        raise EncodingError(
            f"codes must be odd integers with |code| <= {levels} for {bits}-bit expansion"
        )
    b = (codes + levels) >> 1
    planes = np.empty((bits, codes.size), dtype=np.int8)
    for m in range(1, bits + 1):
        planes[m - 1] = (2 * ((b >> (m - 1)) & 1) - 1).astype(np.int8)
    return planes


def _sign_pm1(z: np.ndarray) -> np.ndarray:
    # sign with the zero input sent to -1; only exercised on sine zeros,
    # which the canonical quantizer path owns.
    return np.where(z > 0, 1, -1).astype(np.int8)


def mbit_encoder_digits(x: np.ndarray, bits: int) -> np.ndarray:
    """Trigonometric digit planes, shape (bits, n), plane 0 lowest.

    Plane M uses sign(sin(pi*x*(2^M-1)/2^M)); planes m < M use the negated
    sine. Valid on [-1,1] away from the sine zeros.
    """
    _check_bits(bits)
    x = np.clip(np.asarray(x, dtype=np.float64).reshape(-1), -1.0, 1.0)
    levels = (1 << bits) - 1
    planes = np.empty((bits, x.size), dtype=np.int8)
    for m in range(1, bits + 1):
        s = np.sin((levels / (1 << m)) * np.pi * x)
        planes[m - 1] = _sign_pm1(s if m == bits else -s)
    return planes


def encoder_derivative(x, bits: int, m: int):
    """Derivative of the pre-sign sine of digit plane m, zero outside [-1,1].

    For plane M: (2^M-1)/2^m * pi * cos((2^M-1)/2^m * pi * x); lower planes
    carry the opposite sign.
    """
    _check_bits(bits)
    if not 1 <= m <= bits:
        raise ConfigError(f"plane index must be in 1..{bits}, got {m}")
    x = np.asarray(x, dtype=np.float64)
    c = ((1 << bits) - 1) / (1 << m)
    val = c * math.pi * np.cos(c * math.pi * x)
    if m != bits:
        val = -val
    out = np.where(np.abs(x) <= 1.0, val, 0.0)
    return out if out.ndim else float(out)


def encoder_boundaries(bits: int) -> np.ndarray:
    """Sorted zeros of all plane sines in [-1,1]; the quantization cell edges."""
    levels = (1 << bits) - 1
    pts = set()
    for m in range(1, bits + 1):
        step = (1 << m) / levels
        j = 0
        while j * step <= 1.0 + 1e-15:
            pts.add(round(j * step, 15))
            pts.add(round(-j * step, 15))
            j += 1
    return np.array(sorted(pts))


# ---------------------------------------------------------------------------
# 1-bit weight binarization
# ---------------------------------------------------------------------------

def binarize(w: np.ndarray) -> np.ndarray:
    """sign(htanh(w)) with sign(0) = +1; the 1-bit weight map."""
    w = np.asarray(w, dtype=np.float64)
    return np.where(w >= 0, 1.0, -1.0)


def branch_codes(masters: np.ndarray) -> QuantizedTensor:
    """Odd K-bit codes sum_k 2^(k-1) * binarize(w_k) of K branch masters (K, ...)."""
    bits = len(masters)
    _check_bits(bits)
    codes = np.tensordot(np.left_shift(1, np.arange(bits)), binarize(masters), axes=1)
    return QuantizedTensor(codes=codes.astype(np.int64), bits=bits, t=1.0,
                           d=1.0 / ((1 << bits) - 1), grid="odd")


def binarize_grad_mask(w: np.ndarray) -> np.ndarray:
    """Straight-through mask for ``binarize``: 1 on |w| <= 1, else 0."""
    w = np.asarray(w, dtype=np.float64)
    return (np.abs(w) <= 1.0).astype(np.float64)
