"""Decomposed M x K-branch matrix multiply over packed {-1,+1} planes.

Both operands are stored row-major over the reduction axis: an encoded
P x N matrix keeps, for each of its P rows, one packed plane per bit. The
product of an M-bit X (P x N) with a K-bit W (Q x N) is the exact integer

    acc[p, q] = sum_m sum_k 2^(m+k-2) * xnor_popcount(x_plane_m, w_plane_k)

which equals the plain integer matmul of the odd-grid codes. A final scale
r / ((2^M - 1)(2^K - 1)) restores quantized-real units.
"""

from __future__ import annotations

import ctypes
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import _native, bitops, quant
from .core import ConfigError, DomainError, EncodingError, ShapeError

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
    """Pack a 2-D grid of odd codes into row planes.

    Codes must be odd with |code| <= 2^M - 1, else EncodingError. They
    become code bytes b = (code + 2^M - 1) >> 1, which ``gather_codes``
    packs as a 1 x 1 image: the words ``bitops.pack`` makes of
    ``quant.odd_code_digits``, with no digit planes in between.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 2:
        raise ShapeError(f"expected a 2-D code grid, got shape {codes.shape}")
    quant._check_bits(bits)
    rows, cols = codes.shape
    levels = (1 << bits) - 1
    small = codes.astype(np.int16)  # exact for every code the range test passes
    if codes.size and (codes.min() < -levels or codes.max() > levels
                       or not np.all(small & 1)):
        raise EncodingError(
            f"codes must be odd integers with |code| <= {levels} for {bits}-bit expansion")
    b = ((small + levels) >> 1).astype(np.uint8)
    return gather_codes(b.reshape(rows, 1, 1, cols), bits)


def _addr(a: np.ndarray) -> int:
    """The address of a C-contiguous array. A ctypes view of a writable one
    costs less than half of ``a.ctypes.data``."""
    if a.nbytes and a.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


@functools.cache
def _table(bits: int) -> tuple:
    """``bb_quantize``'s arguments half, thr and base for
    ``quant._odd_table(bits)``, and the table, which keeps them valid."""
    tab = quant._odd_table(bits)
    return tab.half, _addr(tab.thr), _addr(tab.base), tab


def _reject_non_finite(bad: int) -> None:
    if bad:
        raise DomainError(f"{bad} non-finite values cannot be quantized")


def quantize_bytes(x: np.ndarray, bits: int) -> tuple[np.ndarray, int]:
    """Code bytes b = (code + 2^M - 1) / 2 of ``quant.quantize_odd(x, bits)``,
    C-contiguous and shaped like x, and the count of non-finite values in x,
    which are encoded as 0.0.

    ``bb_quantize`` reads x where it lies when x is C-contiguous, or when it
    is the channels-last view (B, H, W, C) of a C-contiguous (B, C, H, W)
    array that ``x.transpose(0, 2, 3, 1)`` makes of a conv input: then it
    reads each channel plane in turn and writes the bytes channels-last.
    With AVX-512 VBMI and at most 8 channels, it quantizes 8 pixels of each
    channel at a time and interleaves the channels with one ``vpermb``;
    otherwise it stores each byte with a stride of C. A dense input takes
    the contiguous pass. Other layouts, and the numpy fallback, take a
    C-contiguous copy first.
    """
    quant._check_bits(bits)
    x = np.asarray(x, dtype=np.float64)
    lib = _native.library()
    if lib is not None:
        planar = np.moveaxis(x, -1, 1) if x.ndim > 2 else x
        if x.flags.c_contiguous or not planar.flags.c_contiguous:
            planar = np.ascontiguousarray(x)
            batch, channels, plane = 1, x.size, 1
        else:
            batch, channels, plane = x.shape[0], x.shape[-1], math.prod(x.shape[1:-1])
        b = np.empty(x.shape, dtype=np.uint8)
        return b, lib.bb_quantize(_addr(planar), batch, channels, plane, *_table(bits)[:3],
                                  _addr(b))
    x = np.ascontiguousarray(x)
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


def _pad_byte(bits: int) -> int:
    """The byte of code -1, which ``quantize_odd`` gives 0.0: 2^(M-1) - 1."""
    return (1 << (bits - 1)) - 1


def _padded_image(b: np.ndarray, bits: int, padding: int) -> np.ndarray:
    """b (B, H, W, C) with a border of ``padding`` pad bytes, or b itself at padding 0."""
    if not padding:
        return b
    batch, h, w, c = b.shape
    # np.pad is several times slower
    image = np.full((batch, h + 2 * padding, w + 2 * padding, c), _pad_byte(bits), dtype=np.uint8)
    image[:, padding:padding + h, padding:padding + w] = b
    return image


def _check_image(b, name: str) -> None:
    if not (isinstance(b, np.ndarray) and b.dtype == np.uint8 and b.ndim == 4
            and b.flags.c_contiguous):
        raise ShapeError(f"{name} needs a C-contiguous uint8 (B, H, W, C) image, got "
                         f"{getattr(b, 'dtype', None)} {getattr(b, 'shape', None)}")


def gather_codes(b: np.ndarray, bits: int, kh: int = 1, kw: int = 1, stride: int = 1,
                 padding: int = 0) -> EncodedMatrix:
    """Pack the conv patches of a channels-last image of code bytes.

    b is uint8 (B, H, W, C) holding b = (code + 2^M - 1) / 2 per element; a
    dense input is a 1 x 1 image. Row (b, oh, ow) holds its window in
    (i, j, c) order, with the code of 0.0 in the padding, so it meets a conv
    weight whose reduction axis is in that order too. The image is padded
    here, once, so both kernels see only windows inside it. Bit m of each
    byte goes to plane m. ``bb_gather`` loads each window's kernel rows
    straight into the lanes of its 64-byte row words (AVX-512BW masked
    loads; elsewhere it copies them into a row buffer first) and tests each
    plane's bit, one instruction per word. The numpy fallback splits the
    bytes into 0/1 planes for ``bitops.pack_bits``. The plan gathers a
    bit layer's float input; a layer whose producer folds into it reads a
    ``PixelImage`` through ``direct_conv`` instead.
    """
    quant._check_bits(bits)
    _check_image(b, "gather_codes")
    batch, h, w, c = b.shape
    oh, ow = patch_grid((batch, c, h, w), kh, kw, stride, padding)
    rows, cols = batch * oh * ow, c * kh * kw
    b = _padded_image(b, bits, padding)
    h, w = b.shape[1:3]
    lib = _native.library()
    if lib is None:
        windows = np.lib.stride_tricks.sliding_window_view(b, (kh, kw), axis=(1, 2))
        ijc = windows[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3).reshape(rows, cols)
        planes = (ijc[:, None, :] >> np.arange(bits, dtype=np.uint8)[:, None]) & 1
        return EncodedMatrix(bits=bits, rows=rows, cols=cols, words=bitops.pack_bits(planes))
    words = np.empty((rows, bits, bitops.word_count(cols)), dtype=np.uint64)
    if lib.bb_gather(_addr(b), batch, h, w, c, kh, kw, stride, bits, _addr(words)):
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
    bits = bitops.unpack_bits(enc.words, enc.cols)
    # sum_m 2^m * bit_m <= 255 at 8 bits, so it fits the uint8 the bits come in
    b = np.einsum("m,rmc->rc", np.left_shift(1, np.arange(enc.bits, dtype=np.uint8)), bits)
    return 2 * b.astype(np.int64) - ((1 << enc.bits) - 1)


def _full(cols: int, x_bits: int, w_bits: int) -> int:
    """The accumulator's range N (2^M - 1)(2^K - 1); acc = full - 2 s."""
    full = cols * ((1 << x_bits) - 1) * ((1 << w_bits) - 1)
    if full > _ACC_LIMIT:
        raise ShapeError(f"accumulator could overflow int64: N={cols}, M={x_bits}, K={w_bits}")
    return full


def code_dtype(cols: int, x_bits: int, w_bits: int) -> type:
    """The float type in which BLAS multiplies odd codes of reduction length
    ``cols`` exactly: float32 when N (2^M - 1)(2^K - 1) < 2^24, else float64.

    Below 2^24 every product and every partial sum is an integer float32
    holds, in any summation order and with or without FMA.
    """
    return np.float32 if _full(cols, x_bits, w_bits) < 1 << 24 else np.float64


def code_matmul(x_codes: np.ndarray, w_codes: np.ndarray, x_bits: int,
                w_bits: int) -> np.ndarray:
    """The integer product x_codes @ w_codes.T of odd-code grids (P, N) and
    (Q, N) on BLAS, as floats of ``code_dtype``. It is exact, like
    ``encoded_gemm``: float64 holds every integer below 2^53, which
    N (2^M - 1)(2^K - 1) passes only beyond N = 2^37."""
    dtype = code_dtype(w_codes.shape[1], x_bits, w_bits)
    return np.asarray(x_codes, dtype=dtype) @ np.asarray(w_codes, dtype=dtype).T


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
class PixelImage:
    """A bit layer's input as channel-packed bit planes per pixel, padded for
    its conv; a dense layer's input is a batch of 1 x 1 pixels, padding 0.

    pixels is uint32 (B, H + 2 padding, W + 2 padding, bits, units): plane m
    of a pixel holds bit m of its C code bytes, channel c at bit c of a lane
    of ``lane`` bits (``conv_lane``), so units = max(lane / 32, 1). A 16-bit
    lane is stored twice in its uint32, so one 32-bit broadcast fills every
    16-bit lane of a vector. Bits past C are zero. The ring holds the pad
    byte's planes: every channel's bit in plane m < M - 1, none in plane M - 1.
    """

    bits: int
    channels: int
    lane: int
    padding: int
    pixels: np.ndarray


def conv_lane(channels: int, kh: int, kw: int, x_bits: int, w_bits: int) -> int:
    """The lane width L of ``direct_conv`` over C channels: 16 bits for
    C <= 16, 32 for C <= 32, else ceil(C / 64) 64-bit words.

    ``bb_conv`` sums a plane pair's counts over the kh kw offsets in L-bit
    lanes and the shifted sums s <= full in 32-bit lanes, so a 16- or 32-bit
    lane needs kh kw L < 2^L and full = C kh kw (2^M - 1)(2^K - 1) < 2^31. A
    layer past either bound takes 64-bit words, whose sums are int64 as in
    ``encoded_gemm``.
    """
    full = _full(channels * kh * kw, x_bits, w_bits)
    for lane in (16, 32):
        if channels <= lane and kh * kw * lane < 1 << lane and full < 1 << 31:
            return lane
    return 64 * -(-channels // 64)


def _lane_bits(c: int, lane: int) -> tuple[int, list[slice]]:
    """Bits per stored plane and where a plane's C bits go: a 16-bit lane twice in 32."""
    return max(lane, 32), [slice(0, c)] + ([slice(16, 16 + c)] if lane == 16 else [])


def _check_pixels(channels: int, lane: int, padding: int) -> None:
    """A lane of 16 or 32 bits with C <= lane, or of whole 64-bit words >= C; padding >= 0."""
    if not (lane in (16, 32) or lane > 0 and lane % 64 == 0) or lane < channels or padding < 0:
        raise ShapeError(f"{channels} channels do not fit packed pixels of lane {lane} and "
                         f"padding {padding}")


def pack_pixels(b: np.ndarray, bits: int, lane: int, padding: int = 0) -> PixelImage:
    """The ``PixelImage`` of a channels-last image of code bytes, padded with
    the pad byte as ``gather_codes`` pads it. numpy; it defines the layout
    that the kernels' packed-pixel epilogue writes and ``direct_conv`` reads."""
    quant._check_bits(bits)
    _check_image(b, "pack_pixels")
    _check_pixels(b.shape[3], lane, padding)
    image = _padded_image(b, bits, padding)
    c = image.shape[3]
    width, spans = _lane_bits(c, lane)
    flat = np.zeros(image.shape[:3] + (bits, width), dtype=np.uint8)
    for span in spans:
        flat[..., span] = (image[:, :, :, None, :] >> np.arange(bits, dtype=np.uint8)[:, None]) & 1
    words = np.packbits(flat, axis=-1, bitorder="little").view("<u4").astype(np.uint32)
    return PixelImage(bits, c, lane, padding, words)


@functools.cache
def _ring_pixel(bits: int, channels: int, lane: int) -> np.ndarray:
    """The pad byte's planes, uint32 (bits, units): plane m holds every
    channel's bit where bit m of 2^(M-1) - 1 is set, and no bit past C."""
    width, spans = _lane_bits(channels, lane)
    mask = np.zeros(width, dtype=np.uint8)
    for span in spans:
        mask[span] = 1
    mask = np.packbits(mask, bitorder="little").view("<u4")
    ring = np.where((_pad_byte(bits) >> np.arange(bits))[:, None] & 1, mask, 0).astype(np.uint32)
    ring.flags.writeable = False  # shared by every weight that writes this layout
    return ring


@dataclass(frozen=True)
class GemmWeight:
    """A right operand with its epilogue, laid out once for the kernels.

    For ``encoded_gemm`` the planes are stored transposed, wt[k, j, q], with
    the outputs zero-padded to a multiple of ``TILE_Q``; ``fold``'s tables are
    padded alike. Both kernels compute the popcount sums of every padded
    output and drop the padding. These words are the lanes of a 1 x 1 conv
    whose pixels are the rows, narrowed to uint32 at N <= 32. With ``conv``
    = (channels, kh, kw, stride) it is a weight of ``direct_conv`` instead:
    wt holds lanes of ``lane`` bits, wt[k, i, j, word, q] = channels of plane
    k at kernel offset (i, j), with the outputs padded to a whole vector of
    lanes. The epilogue is ``fold``'s code bytes, written as the next bit
    layer's ``PixelImage`` in the layout ``pixels`` = (lane, padding); or
    else the float accumulator times ``scale``; or else the int64
    accumulator.
    """

    bits: int
    rows: int
    cols: int
    x_bits: int  # M of the left operands it meets
    wt: np.ndarray  # uint64 (K, words_per_row, Q padded), uint32 at N <= 32, or the conv lanes
    fold: CodeThresholds | None  # s_max int64 and flip uint8, C-contiguous, Q padded
    scale: float | None = None  # set only without fold
    conv: tuple[int, int, int, int] | None = None  # channels, kh, kw, stride
    lane: int = 0  # of conv's lanes
    pixels: tuple[int, int] | None = None  # lane and padding of the next layer's image, with fold
    # for bb_conv: the weight with its conv, and the epilogue's constant part
    # with the ring it points to
    _kernel: object = field(default=None, init=False, repr=False, compare=False)
    _out: object = field(default=None, init=False, repr=False, compare=False)
    _ring: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        o, fold, ring = _native.Out(), self.fold, None
        if fold is None:
            o.scale = self.scale or 0.0
        else:
            o.th, o.flip, o.levels = _addr(fold.s_max), _addr(fold.flip), len(fold.s_max)
            lane, o.pad = self.pixels
            ring = _ring_pixel(fold.bits, self.rows, lane)
            o.ring, o.planes, o.units, o.dup = _addr(ring), fold.bits, ring.shape[1], lane == 16
        channels, kh, kw, stride = self.conv or (self.cols, 1, 1, 1)
        lane = self.lane or (32 if self.wt.dtype == np.uint32 else 64 * self.wt.shape[1])
        units = max(lane // 32, 1) if self.conv else 2 * self.wt.shape[1]
        object.__setattr__(self, "_kernel", _native.Weight(
            _addr(self.wt), lane, units, self.wt.shape[-1], self.rows, kh, kw, stride, channels,
            self.x_bits, self.bits))
        object.__setattr__(self, "_out", o)
        object.__setattr__(self, "_ring", ring)


def _padded(a: np.ndarray, q_pad: int, dtype) -> np.ndarray:
    out = np.zeros(a.shape[:-1] + (q_pad,), dtype=dtype)
    out[..., :a.shape[-1]] = a
    return out


def _conv_lanes(w: EncodedMatrix, channels: int, kh: int, kw: int, lane: int,
                q_pad: int) -> np.ndarray:
    """wt[k, i, j, word, q] of a conv weight whose reduction is in (c, i, j) order."""
    planes = bitops.unpack_bits(w.words, w.cols)
    planes = planes.reshape(w.rows, w.bits, channels, kh, kw).transpose(1, 3, 4, 0, 2)
    flat = np.zeros((w.bits, kh, kw, q_pad, max(lane, 16)), dtype=np.uint8)
    flat[:, :, :, :w.rows, :channels] = planes
    dtype = {16: np.uint16, 32: np.uint32}.get(lane, np.uint64)
    lanes = np.packbits(flat, axis=-1, bitorder="little").view(np.dtype(dtype).newbyteorder("<"))
    return np.ascontiguousarray(lanes.transpose(0, 1, 2, 4, 3), dtype=dtype)


def prepare_weight(w: EncodedMatrix, x_bits: int, fold: CodeThresholds | None = None,
                   scale: float | None = None, conv: tuple[int, int, int, int] | None = None,
                   pixels: tuple[int, int] | None = None) -> GemmWeight:
    """Check w and its epilogue and lay them out for ``encoded_gemm`` with M = x_bits.

    ``fold`` with ``pixels`` = (lane, padding) makes the GEMM write code
    bytes as the next bit layer's ``PixelImage``, whose lane must hold the Q
    outputs: 16 or 32 bits, or whole 64-bit words. ``scale`` makes it write
    the accumulator as float64 times scale, as ``scale_output`` computes it.
    A weight takes the two together, or scale, or none of them. With
    ``conv`` = (channels, kh, kw, stride), w is a conv weight with its
    reduction in the model's (c, i, j) order, and is laid out per kernel
    offset for ``direct_conv`` in lanes of ``conv_lane`` bits.
    """
    quant._check_bits(x_bits)
    _full(w.cols, x_bits, w.bits)
    _check_operand(w, "right")
    if fold is not None and scale is not None:
        raise ConfigError("a prepared weight takes thresholds or a scale, not both")
    if (pixels is None) != (fold is None):
        raise ConfigError("thresholds and packed pixels go together: fold writes pixels")
    if pixels is not None:
        _check_pixels(w.rows, *pixels)
    lane = 0
    if conv is None:
        q_pad = -(-w.rows // TILE_Q) * TILE_Q
        wt = _padded(w.words.transpose(1, 2, 0), q_pad, np.uint32 if w.cols <= 32 else np.uint64)
    else:
        channels, kh, kw, stride = conv
        if min(conv) < 1 or channels * kh * kw != w.cols:
            raise ShapeError(f"conv {conv} does not fit a weight of {w.cols} columns")
        lane = conv_lane(channels, kh, kw, x_bits, w.bits)
        block = 2 * TILE_Q if lane == 16 else TILE_Q  # the outputs of one zmm, or two
        q_pad = -(-w.rows // block) * block
        wt = _conv_lanes(w, channels, kh, kw, lane, q_pad)
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
    return GemmWeight(bits=w.bits, rows=w.rows, cols=w.cols, x_bits=x_bits, wt=wt, fold=fold,
                      scale=None if scale is None else float(scale), conv=conv, lane=lane,
                      pixels=pixels)


def _epilogue(w: GemmWeight, grid: tuple[int, int, int]):
    """The output array of w's epilogue for rows = B OH OW and its ``struct out``."""
    o = _native.Out.from_buffer_copy(w._out)
    batch, oh, ow = grid
    if w.fold is not None:
        pad = o.pad
        pixels = np.empty((batch, oh + 2 * pad, ow + 2 * pad, o.planes, o.units), np.uint32)
        o.pixels, o.oh, o.ow = _addr(pixels), oh, ow
        return PixelImage(o.planes, w.rows, w.pixels[0], pad, pixels), o
    out = np.empty((batch * oh * ow, w.rows), dtype=np.int64 if w.scale is None else np.float64)
    if w.scale is None:
        o.acc = _addr(out)
    else:
        o.real = _addr(out)
    return out, o


def _conv_sums(px: np.ndarray, w: GemmWeight) -> np.ndarray:
    """numpy kernel: the popcount sums of packed pixels px (B, H, W, M, units)
    and every padded output of w, int64 (B OH OW, Q padded): per kernel
    offset, one XOR of every plane m of the strided window against every
    plane k of the weight's lanes; each pair's counts sum over the offsets
    and words before the shift by m + k. A row weight wt[k, word, q] is a
    1 x 1 conv's."""
    _, kh, kw, stride = w.conv or (0, 1, 1, 1)
    wt = w.wt.reshape(w.bits, kh, kw, *w.wt.shape[-2:])
    # a 16-bit lane is stored twice in its uint32, a 32-bit one is a row word's low half
    px = px.view(np.uint64) if wt.dtype == np.uint64 else px[..., :1]
    if wt.dtype == np.uint16:
        px = px & 0xFFFF
    oh, ow = (px.shape[1] - kh) // stride + 1, (px.shape[2] - kw) // stride + 1
    counts = np.zeros((len(px), oh, ow, w.x_bits, w.bits, wt.shape[-1]), dtype=np.int64)
    for i, j in np.ndindex(kh, kw):
        window = px[:, i:i + stride * oh:stride, j:j + stride * ow:stride, :, None, :, None]
        counts += np.bitwise_count(window ^ wt[:, i, j]).sum(axis=-2, dtype=np.int64)
    shift = np.add.outer(np.arange(w.x_bits), np.arange(w.bits))[..., None]
    s = (counts << shift).sum(axis=(3, 4))
    return s.reshape(-1, wt.shape[-1])


def _product(px: np.ndarray, w: GemmWeight, grid: tuple[int, int, int]) -> np.ndarray | PixelImage:
    """The product of packed pixels px (B, H, W, M, units) with w through
    w's epilogue, with rows the B OH OW pixels of ``grid``: ``bb_conv`` when
    the library loads, else ``_conv_sums`` and the same epilogue in numpy."""
    lib = _native.library()
    if lib is not None:
        out, o = _epilogue(w, grid)
        if lib.bb_conv(_addr(px), *px.shape[:3], ctypes.byref(w._kernel), ctypes.byref(o)):
            raise MemoryError("no memory for the row words of a product")
        return out
    s = _conv_sums(px, w)
    if w.fold is not None:
        b = np.ascontiguousarray(w.fold.codes(s)[:, :w.rows]).reshape(*grid, w.rows)
        return pack_pixels(b, w.fold.bits, *w.pixels)
    out = _full(w.cols, w.x_bits, w.bits) - 2 * s
    if w.scale is not None:
        out = out * w.scale  # the int64 -> float64 conversion, then one multiply
    return np.ascontiguousarray(out[:, :w.rows])


def encoded_gemm(x: EncodedMatrix, w: EncodedMatrix | GemmWeight,
                 grid: tuple[int, int, int] | None = None) -> np.ndarray | PixelImage:
    """Exact integer accumulator of the decomposed product, C-contiguous (P, Q).

    A w from ``prepare_weight`` with a fold turns each accumulator into the
    next layer's code byte instead, and x's rows are the output pixels of a
    layer, grid = (B, OH, OW), (B, 1, 1) for a dense one; the result is the
    next layer's ``PixelImage``. One with a scale returns the float64
    accumulator times that scale. Any other w is prepared for this call,
    with neither. A grid must have x.rows pixels, whatever the epilogue, and
    a fold needs one. Both kernels run it as the 1 x 1 conv of x's rows as
    pixels of 1 x 1 (``_product``), each plane one lane: 32 bits at N <= 32,
    the low half of its word, else 64 words_per_row bits; never 16, as a
    word does not hold its lane twice.
    """
    if not isinstance(w, GemmWeight):
        w = prepare_weight(w, x.bits)
    if w.conv is not None:
        raise ConfigError("a weight laid out for direct_conv does not fit encoded_gemm")
    if x.cols != w.cols:
        raise ShapeError(f"reduction lengths differ: {x.cols} vs {w.cols}")
    if x.bits != w.x_bits:
        raise ShapeError(f"the weight was prepared for M={w.x_bits}, not M={x.bits}")
    _check_operand(x, "left")
    if (grid is None and w.pixels is not None
            or grid is not None and (len(grid) != 3 or min(grid) < 0 or math.prod(grid) != x.rows)):
        raise ShapeError(f"the epilogue needs a grid (B, OH, OW) of {x.rows} rows, got {grid}")
    # the last axis written out: -1 does not reshape an empty batch
    px = x.words.view(np.uint32).reshape(x.rows, 1, 1, x.bits, 2 * x.words_per_row)
    return _product(px, w, grid or (x.rows, 1, 1))


def direct_conv(x: PixelImage, w: GemmWeight) -> np.ndarray | PixelImage:
    """The conv of a packed image with a weight prepared with ``conv``: no
    patch matrix, no gather; a dense layer's is the 1 x 1 conv of its 1 x 1
    pixels, conv = (N, 1, 1, 1). ``_product`` runs it, as it runs
    ``encoded_gemm``.

    The sums are those of ``encoded_gemm`` on the gathered patches, grouped
    by kernel offset, so every epilogue gives the same values; rows are the
    output pixels (b, oh, ow), as there. The image's padding is its ring, so
    the conv itself runs unpadded.
    """
    if w.conv is None:
        raise ConfigError("direct_conv needs a weight prepared with conv")
    channels, kh, kw, stride = w.conv
    px = x.pixels
    if not (isinstance(px, np.ndarray) and px.dtype == np.uint32 and px.ndim == 5
            and px.flags.c_contiguous and px.shape[3:] == (w.x_bits, max(w.lane // 32, 1))
            and (x.bits, x.channels, x.lane) == (w.x_bits, channels, w.lane)):
        raise ShapeError(f"a {x.bits}-bit image of {x.channels} channels in {x.lane}-bit lanes, "
                         f"pixels {getattr(px, 'dtype', None)} {getattr(px, 'shape', None)}, "
                         f"does not fit a {w.x_bits}-bit conv of {channels} channels in "
                         f"{w.lane}-bit lanes")
    batch, h, wd = px.shape[:3]
    return _product(px, w, (batch, *patch_grid((batch, channels, h, wd), kh, kw, stride, 0)))


def output_scale(m_bits: int, k_bits: int, r: float = 1.0) -> float:
    """The factor r / ((2^M - 1)(2^K - 1)) from accumulators to quantized-real units."""
    return r / (((1 << m_bits) - 1) * ((1 << k_bits) - 1))


def scale_output(acc: np.ndarray, m_bits: int, k_bits: int, r: float = 1.0) -> np.ndarray:
    """Map integer accumulators back to quantized-real units (1/9 at 2 bits)."""
    return np.asarray(acc, dtype=np.float64) * output_scale(m_bits, k_bits, r)


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
