"""Bit-plane word packing and the word-parallel xnor/popcount dot product.

A plane stores {-1,+1} digits packed into 64-bit words, LSB-first within a
word (bit 1 means +1, bit 0 means -1). Padding bits past the last digit are
always zero, so packed planes are canonical and serialize byte-identically.
``pack_bits``/``unpack_bits`` move 0/1 bits in and out of words; ``pack``
and ``unpack`` wrap them for {-1,+1} digits, the digit-level spec that the
tests hold the code-byte packers to.
"""

from __future__ import annotations

import numpy as np

from .core import EncodingError, ShapeError

WORD_BITS = 64


def word_count(n: int) -> int:
    """uint64 words that hold n digits."""
    return (n + WORD_BITS - 1) // WORD_BITS


def pack_bits(values) -> np.ndarray:
    """Pack 0/1 values along the last axis into uint64 words.

    An array of shape (..., n) becomes words of shape (..., word_count(n)):
    bit i of a plane is set iff value i is nonzero, and pad bits stay zero.
    The one numpy packer: ``pack``, the numpy gather of code bytes and the
    model file's planes use it; the C gather writes the same words.
    """
    values = np.asarray(values)
    raw = np.packbits(values, axis=-1, bitorder="little")
    words = np.zeros(values.shape[:-1] + (8 * word_count(values.shape[-1]),), dtype=np.uint8)
    words[..., : raw.shape[-1]] = raw
    return words.view("<u8").astype(np.uint64, copy=False)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of each plane as 0/1 uint8, shape (..., n); pad bits are ignored."""
    words = np.asarray(words)
    if words.shape[-1] != word_count(n):
        raise ShapeError(f"{n} digits need {word_count(n)} words per plane, "
                         f"got shape {words.shape}")
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=n, bitorder="little")


def pack(digits) -> np.ndarray:
    """Pack {-1,+1} digits along the last axis into uint64 words.

    A digit array of shape (..., n) becomes words of shape
    (..., word_count(n)); bit i is set iff digit i is +1, pad bits stay zero.
    """
    d = np.asarray(digits)
    plus = d == 1
    if not np.all(plus | (d == -1)):
        raise EncodingError("digits must be -1 or +1")
    return pack_bits(plus)


def unpack(words: np.ndarray, n: int) -> np.ndarray:
    """Recover the first n {-1,+1} digits of each plane as int8, shape (..., n)."""
    return 2 * unpack_bits(words, n).view(np.int8) - 1


def xnor_popcount_words(a_words: np.ndarray, b_words: np.ndarray, n_valid: int) -> np.ndarray:
    """Exact {-1,+1} dot products N - 2*popcount(xor) over the trailing word axis.

    Operands broadcast against each other; the caller guarantees both carry
    zero pad bits, which cancel in the xor. Returns int64 dot products.
    """
    mismatches = np.bitwise_count(a_words ^ b_words).sum(axis=-1).astype(np.int64)
    return n_valid - 2 * mismatches
