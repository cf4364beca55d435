"""Decomposed M x K-branch matrix multiply over packed {-1,+1} planes.

Both operands are stored row-major over the reduction axis: an encoded
P x N matrix keeps, for each of its P rows, one packed plane per bit. The
product of an M-bit X (P x N) with a K-bit W (Q x N) is the exact integer

    acc[p, q] = sum_m sum_k 2^(m+k-2) * xnor_popcount(x_plane_m, w_plane_k)

which equals the plain integer matmul of the odd-grid codes. A final scale
r / ((2^M - 1)(2^K - 1)) restores quantized-real units.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import _native, bitops, quant
from .core import DomainError, ShapeError

# N * (2^M - 1) * (2^K - 1) must stay below this for exact int64 accumulation.
_ACC_LIMIT = 1 << 62


@dataclass(frozen=True)
class EncodedMatrix:
    """Bit-plane matrix: words[r, m, :] is plane m+1 of logical row r."""

    bits: int
    rows: int
    cols: int
    words: np.ndarray  # uint64, shape (rows, bits, words_per_row), zero-padded

    @property
    def words_per_row(self) -> int:
        return self.words.shape[2]


def encode_codes(codes: np.ndarray, bits: int) -> EncodedMatrix:
    """Pack a 2-D grid of odd codes into row planes."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 2:
        raise ShapeError(f"expected a 2-D code grid, got shape {codes.shape}")
    rows, cols = codes.shape
    digits = quant.odd_code_digits(codes, bits).reshape(bits, rows, cols)
    words = bitops.pack(digits.transpose(1, 0, 2))
    return EncodedMatrix(bits=bits, rows=rows, cols=cols, words=words)


def _reject_non_finite(bad: int) -> None:
    if bad:
        raise DomainError(f"{bad} non-finite values cannot be quantized")


def quantize_bytes(x: np.ndarray, bits: int) -> tuple[np.ndarray, int]:
    """Code bytes b = (code + 2^M - 1) / 2 of ``quant.quantize_odd(x, bits)``,
    shaped like x, and the count of non-finite values in x, which are
    encoded as 0.0."""
    quant._check_bits(bits)
    x = np.ascontiguousarray(x, dtype=np.float64)
    lib = _native.library()
    if lib is not None:
        b = np.empty(x.shape, dtype=np.uint8)
        return b, lib.bb_quantize(x.ctypes.data, x.size, bits, quant._EDGE_SNAP, b.ctypes.data)
    finite = np.isfinite(x)
    b = (quant.quantize_odd(np.where(finite, x, 0.0), bits).codes + (1 << bits) - 1) >> 1
    return b.astype(np.uint8), x.size - int(np.count_nonzero(finite))


def encode_matrix(x: np.ndarray, bits: int) -> EncodedMatrix:
    """Quantize a real matrix onto the odd grid and pack its digit planes.

    The planes are those of ``encode_codes(quant.quantize_odd(x, bits).codes)``,
    made as ``quantize_bytes`` then ``gather_codes`` of a 1 x 1 image.
    Non-finite values raise DomainError.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {x.shape}")
    b, bad = quantize_bytes(x, bits)
    _reject_non_finite(bad)
    return gather_codes(b.reshape(x.shape[0], 1, 1, x.shape[1]), bits)


def patch_grid(shape: tuple, kh: int, kw: int, stride: int, padding: int) -> tuple[int, int]:
    """Output height and width of a kh x kw convolution over a (B, C, H, W) input."""
    if min(kh, kw, stride) < 1 or padding < 0:
        raise ShapeError(f"a conv needs kernel and stride >= 1 and padding >= 0, got kernel "
                         f"{kh}x{kw}, stride {stride}, padding {padding}")
    h, w = shape[2], shape[3]
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"kernel {kh}x{kw} does not fit input {h}x{w} (pad {padding})")
    return oh, ow


def gather_codes(b: np.ndarray, bits: int, kh: int = 1, kw: int = 1, stride: int = 1,
                 padding: int = 0) -> EncodedMatrix:
    """Pack the conv patches of a channels-last image of code bytes.

    b is uint8 (B, H, W, C) holding b = (code + 2^M - 1) / 2 per element; a
    dense input is a 1 x 1 image. Row (b, oh, ow) holds its window in
    (i, j, c) order, with the code of 0.0 in the padding, so it meets a conv
    weight whose reduction axis is in that order too. The image is padded
    here, once, so both kernels see only windows inside it.
    """
    quant._check_bits(bits)
    if not (isinstance(b, np.ndarray) and b.dtype == np.uint8 and b.ndim == 4
            and b.flags.c_contiguous):
        raise ShapeError("gather_codes needs a C-contiguous uint8 (B, H, W, C) image, got "
                         f"{getattr(b, 'dtype', None)} {getattr(b, 'shape', None)}")
    batch, h, w, c = b.shape
    oh, ow = patch_grid((batch, c, h, w), kh, kw, stride, padding)
    rows, cols = batch * oh * ow, c * kh * kw
    if padding:
        # the byte of code -1, which quantize_odd gives 0.0; np.pad is several times slower
        image = np.full((batch, h + 2 * padding, w + 2 * padding, c), (1 << (bits - 1)) - 1,
                        dtype=np.uint8)
        image[:, padding:padding + h, padding:padding + w] = b
        b, h, w = image, h + 2 * padding, w + 2 * padding
    lib = _native.library()
    if lib is None:
        windows = np.lib.stride_tricks.sliding_window_view(b, (kh, kw), axis=(1, 2))
        ijc = windows[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3).reshape(rows, cols)
        return encode_codes(2 * ijc.astype(np.int64) - ((1 << bits) - 1), bits)
    words = np.empty((rows, bits, bitops.word_count(cols)), dtype=np.uint64)
    if lib.bb_gather(b.ctypes.data, batch, h, w, c, kh, kw, stride, bits, words.ctypes.data):
        raise MemoryError("no memory for a patch row")
    return EncodedMatrix(bits=bits, rows=rows, cols=cols, words=words)


def _check_operand(enc: EncodedMatrix, name: str) -> None:
    """The kernels index words by (rows, bits, cols); a mismatch must not reach them."""
    expect = (enc.rows, enc.bits, bitops.word_count(enc.cols))
    words = enc.words
    if not (isinstance(words, np.ndarray) and words.dtype == np.uint64
            and words.shape == expect and words.flags.c_contiguous):
        raise ShapeError(f"{name} operand needs C-contiguous uint64 words of shape {expect}, "
                         f"got {getattr(words, 'dtype', None)} {getattr(words, 'shape', None)}")


def decode_codes(enc: EncodedMatrix) -> np.ndarray:
    """Recover the odd code grid: code = 2 * sum_m 2^m * bit_m - (2^M - 1)."""
    _check_operand(enc, "decoded")
    raw = np.ascontiguousarray(enc.words, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(raw, axis=2, count=enc.cols, bitorder="little")
    # sum_m 2^m * bit_m <= 255 at 8 bits, so it fits the uint8 the bits come in
    b = np.einsum("m,rmc->rc", np.left_shift(1, np.arange(enc.bits, dtype=np.uint8)), bits)
    return 2 * b.astype(np.int64) - ((1 << enc.bits) - 1)


def _full(cols: int, x_bits: int, w_bits: int) -> int:
    """The accumulator's range N (2^M - 1)(2^K - 1); acc = full - 2 s."""
    full = cols * ((1 << x_bits) - 1) * ((1 << w_bits) - 1)
    if full > _ACC_LIMIT:
        raise ShapeError(f"accumulator could overflow int64: N={cols}, M={x_bits}, K={w_bits}")
    return full


@dataclass(frozen=True)
class CodeThresholds:
    """A GEMM epilogue that maps each popcount sum s to a code byte of ``bits`` bits.

    With acc = full - 2 s, s = sum 2^(m+k) popcount(x_m ^ w_k) >= 0. Output
    q's byte is the number of levels with s <= s_max[level, q], XOR flip[q];
    it stands for a function of s that is monotone on every output.
    """

    bits: int
    s_max: np.ndarray  # int64 (2^bits - 1, Q)
    flip: np.ndarray  # uint8 (Q,): 2^bits - 1 where the byte rises with s, else 0

    def codes(self, s: np.ndarray) -> np.ndarray:
        """The epilogue in numpy: code bytes of an int64 (P, Q) array of popcount sums."""
        n = np.count_nonzero(np.asarray(s, dtype=np.int64)[:, None, :] <= self.s_max, axis=1)
        return n.astype(np.uint8) ^ self.flip


def bisect_thresholds(real: Callable[[np.ndarray], np.ndarray], full: int, channels: int,
                      bits: int) -> CodeThresholds:
    """The epilogue of s -> quantize_odd(real(full - 2 s), bits) over 0 <= s <= full.

    ``real`` maps an int64 (n, channels) array of accumulators to the values
    the next layer quantizes, and must be monotone in acc on each channel.
    The direction comes from the two ends of the range. For each level, "the
    byte reaches it" XOR "the byte rises with s" holds on a prefix of s,
    whose last s is found by bisection, so a layer costs
    O(2^bits log full) evaluations of ``real``.
    """
    levels = (1 << bits) - 1

    def byte(s):
        return (quant.quantize_odd(real(full - 2 * s), bits).codes + levels) >> 1

    ends = byte(np.repeat(np.array([[0], [full]], dtype=np.int64), channels, axis=1))
    rises = ends[1] > ends[0]
    level = np.arange(1, levels + 1)[:, None]
    # the test holds at lo and fails at hi, with -1 and full + 1 standing
    # for a prefix that is empty and one that is everything
    lo = np.full((levels, channels), -1, dtype=np.int64)
    hi = np.full((levels, channels), full + 1, dtype=np.int64)
    while np.any(unsettled := hi - lo > 1):
        mid = lo + (hi - lo) // 2
        holds = (byte(mid) >= level) != rises
        lo = np.where(unsettled & holds, mid, lo)
        hi = np.where(unsettled & ~holds, mid, hi)
    return CodeThresholds(bits, lo, np.where(rises, levels, 0).astype(np.uint8))


# Outputs per register tile of the C GEMM; a prepared weight pads its outputs to a multiple.
TILE_Q = 16


@dataclass(frozen=True)
class GemmWeight:
    """A right operand with its epilogue, laid out once for both kernels.

    The planes are stored transposed, wt[k, j, q], with the outputs
    zero-padded to a multiple of ``TILE_Q``; ``fold``'s tables are padded
    alike. Both kernels compute the popcount sums of every padded output
    and drop the padding.
    """

    bits: int
    rows: int
    cols: int
    x_bits: int  # M of the left operands it meets
    wt: np.ndarray  # uint64 (K, words_per_row, Q padded)
    fold: CodeThresholds | None  # s_max int64 and flip uint8, C-contiguous, Q padded


def _padded(a: np.ndarray, q_pad: int, dtype) -> np.ndarray:
    out = np.zeros(a.shape[:-1] + (q_pad,), dtype=dtype)
    out[..., :a.shape[-1]] = a
    return out


def prepare_weight(w: EncodedMatrix, x_bits: int,
                   fold: CodeThresholds | None = None) -> GemmWeight:
    """Check w and ``fold`` and lay them out for ``encoded_gemm`` with M = x_bits."""
    quant._check_bits(x_bits)
    _full(w.cols, x_bits, w.bits)
    _check_operand(w, "right")
    q_pad = -(-w.rows // TILE_Q) * TILE_Q
    wt = _padded(w.words.transpose(1, 2, 0), q_pad, np.uint64)
    if fold is not None:
        quant._check_bits(fold.bits)
        levels = (1 << fold.bits) - 1
        s_max, flip = np.asarray(fold.s_max), np.asarray(fold.flip)
        if (s_max.shape, flip.shape) != ((levels, w.rows), (w.rows,)):
            raise ShapeError(f"thresholds {s_max.shape} and flips {flip.shape} do not fit "
                             f"{w.rows} outputs of {fold.bits} bits")
        if not np.all((flip == 0) | (flip == levels)):
            raise DomainError(f"threshold flips must be 0 or {levels}")
        fold = CodeThresholds(fold.bits, _padded(s_max, q_pad, np.int64),
                              _padded(flip, q_pad, np.uint8))
    return GemmWeight(bits=w.bits, rows=w.rows, cols=w.cols, x_bits=x_bits, wt=wt, fold=fold)


def _gemm_rows(x: EncodedMatrix, w: GemmWeight) -> np.ndarray:
    """numpy kernel: the int64 accumulator of x and every padded output of w, (P, Q padded)."""
    acc = np.zeros((x.rows, w.wt.shape[2]), dtype=np.int64)
    # m-major then k; the order is irrelevant to the exact result but fixed
    # for reproducible timing.
    for m in range(x.bits):
        a = x.words[:, None, m, :]  # (P, 1, nw)
        for k in range(w.bits):
            acc += (1 << (m + k)) * bitops.xnor_popcount_words(a, w.wt[k].T, x.cols)
    return acc


def encoded_gemm(x: EncodedMatrix, w: EncodedMatrix | GemmWeight) -> np.ndarray:
    """Exact integer accumulator of the decomposed product, C-contiguous (P, Q).

    A w from ``prepare_weight`` with a fold turns each accumulator into the
    next layer's code byte instead, and the result is uint8 (P, Q),
    channels-last. Any other w is prepared for this call, without a fold.
    """
    if not isinstance(w, GemmWeight):
        w = prepare_weight(w, x.bits)
    if x.cols != w.cols:
        raise ShapeError(f"reduction lengths differ: {x.cols} vs {w.cols}")
    if x.bits != w.x_bits:
        raise ShapeError(f"the weight was prepared for M={w.x_bits}, not M={x.bits}")
    _check_operand(x, "left")
    fold = w.fold
    lib = _native.library()
    if lib is None:
        out = _gemm_rows(x, w)
        if fold is not None:
            out = fold.codes((_full(x.cols, x.bits, w.bits) - out) >> 1)
        return np.ascontiguousarray(out[:, :w.rows])
    out = np.empty((x.rows, w.rows), dtype=np.int64 if fold is None else np.uint8)
    epilogue = ((None, None, 0, out.ctypes.data, None) if fold is None else
                (fold.s_max.ctypes.data, fold.flip.ctypes.data, len(fold.s_max), None,
                 out.ctypes.data))
    lib.bb_gemm(x.words.ctypes.data, w.wt.ctypes.data, x.rows, w.rows, w.wt.shape[2], x.bits,
                w.bits, x.words_per_row, x.cols, *epilogue)
    return out


def scale_output(acc: np.ndarray, m_bits: int, k_bits: int, r: float = 1.0) -> np.ndarray:
    """Map integer accumulators back to quantized-real units (1/9 at 2 bits)."""
    scale = r / (((1 << m_bits) - 1) * ((1 << k_bits) - 1))
    return np.asarray(acc, dtype=np.float64) * scale


# ---------------------------------------------------------------------------
# {0,1}-scheme comparison oracle
# ---------------------------------------------------------------------------

def _to_zero_one(q: float, bits: int) -> float:
    """Invert xq = 2/(2^M - 1) * x01 - 1; errors if q is off the grid.

    Integer x01 in [0, 2^M - 1] corresponds one-to-one to the odd code
    2 * x01 - (2^M - 1), so grid membership is just integrality in range.
    """
    levels = (1 << bits) - 1
    x01 = (q + 1.0) * levels / 2.0
    nearest = np.round(x01)
    if abs(x01 - nearest) > 1e-9 or not 0 <= nearest <= levels:
        raise DomainError(f"{q} is not on the {bits}-bit quantized grid")
    return float(nearest)


def zero_one_product(xq: float, wq: float, m_bits: int, k_bits: int) -> float:
    """Product of two quantized reals evaluated through the {0,1} encoding.

    Expands both factors into non-negative integers and evaluates the
    four-term polynomial; used as a cross-check against the single-term
    {-1,+1} form, which the library actually computes.
    """
    x01 = _to_zero_one(float(xq), m_bits)
    w01 = _to_zero_one(float(wq), k_bits)
    am = 2.0 / ((1 << m_bits) - 1)
    ak = 2.0 / ((1 << k_bits) - 1)
    return am * ak * x01 * w01 - am * x01 - ak * w01 + 1.0
