"""Bit-plane word packing and the word-parallel xnor/popcount dot product.

A plane stores {-1,+1} digits packed into 64-bit words, LSB-first within a
word (bit 1 means +1, bit 0 means -1). Padding bits past the last digit are
always zero, so packed planes are canonical and serialize byte-identically.
"""

from __future__ import annotations

import numpy as np

from .core import EncodingError, ShapeError

WORD_BITS = 64


def word_count(n: int) -> int:
    """uint64 words that hold n digits."""
    return (n + WORD_BITS - 1) // WORD_BITS


def pack(digits) -> np.ndarray:
    """Pack {-1,+1} digits along the last axis into uint64 words.

    A digit array of shape (..., n) becomes words of shape
    (..., word_count(n)); bit i is set iff digit i is +1, pad bits stay zero.
    """
    d = np.asarray(digits)
    plus = d == 1
    if not np.all(plus | (d == -1)):
        raise EncodingError("digits must be -1 or +1")
    raw = np.packbits(plus, axis=-1, bitorder="little")
    padded = np.zeros(d.shape[:-1] + (8 * word_count(d.shape[-1]),), dtype=np.uint8)
    padded[..., : raw.shape[-1]] = raw
    return padded.view("<u8").astype(np.uint64, copy=False)


def unpack(words: np.ndarray, n: int) -> np.ndarray:
    """Recover the first n {-1,+1} digits of each plane as int8, shape (..., n)."""
    words = np.asarray(words)
    if words.shape[-1] != word_count(n):
        raise ShapeError(f"{n} digits need {word_count(n)} words per plane, "
                         f"got shape {words.shape}")
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(raw, axis=-1, count=n, bitorder="little")
    return 2 * bits.view(np.int8) - 1


def xnor_popcount_words(a_words: np.ndarray, b_words: np.ndarray, n_valid: int) -> np.ndarray:
    """Exact {-1,+1} dot products N - 2*popcount(xor) over the trailing word axis.

    Operands broadcast against each other; the caller guarantees both carry
    zero pad bits, which cancel in the xor. Returns int64 dot products.
    """
    mismatches = np.bitwise_count(a_words ^ b_words).sum(axis=-1).astype(np.int64)
    return n_valid - 2 * mismatches
