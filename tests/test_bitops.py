"""Packing and the xnor/popcount dot product against scalar oracles."""

import numpy as np
import pytest

from bitbranch import bitops, core, gemm, nn


def scalar_dot(a_digits, b_digits):
    """Independent {-1,+1} dot product, plain Python."""
    return sum(int(a) * int(b) for a, b in zip(a_digits, b_digits))


def random_digits(rng, n):
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=n)


def packed_dot(a_digits, b_digits):
    n = len(a_digits)
    return int(bitops.xnor_popcount_words(bitops.pack(a_digits), bitops.pack(b_digits), n))


class TestPack:
    def test_direct_mapping(self):
        words = bitops.pack([1, -1, 1])
        assert words.dtype == np.uint64
        assert words.tolist() == [0b101]

    def test_all_ones_word(self):
        assert bitops.pack([1] * 64).tolist() == [0xFFFFFFFFFFFFFFFF]

    def test_padding_zero(self):
        words = bitops.pack([1] * 70)
        assert len(words) == 2
        assert words[1] == 0b111111  # upper 58 bits clear

    def test_invalid_digit(self):
        with pytest.raises(core.EncodingError):
            bitops.pack([1, 0, -1])

    def test_unpack_round_trip(self):
        rng = core.make_rng(2)
        for n in (1, 63, 64, 65, 130):
            d = random_digits(rng, n)
            np.testing.assert_array_equal(bitops.unpack(bitops.pack(d), n), d)

    def test_last_axis_of_a_batch(self):
        rng = core.make_rng(3)
        d = rng.choice(np.array([-1, 1], dtype=np.int8), size=(3, 2, 70))
        words = bitops.pack(d)
        assert words.shape == (3, 2, 2)
        for idx in np.ndindex(3, 2):
            np.testing.assert_array_equal(words[idx], bitops.pack(d[idx]))
        np.testing.assert_array_equal(bitops.unpack(words, 70), d)

    def test_unpack_word_count_checked(self):
        with pytest.raises(core.ShapeError):
            bitops.unpack(np.zeros(2, dtype=np.uint64), 64)


class TestXnorPopcountDot:
    def test_self_dot(self):
        rng = core.make_rng(0)
        d = random_digits(rng, 100)
        assert packed_dot(d, d) == 100

    def test_antipodal(self):
        d = random_digits(core.make_rng(1), 64)
        assert packed_dot(d, -d) == -64

    def test_random_vs_scalar(self):
        rng = core.make_rng(3)
        a = random_digits(rng, 130)
        b = random_digits(rng, 130)
        assert packed_dot(a, b) == scalar_dot(a, b)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 1000])
    def test_exactness_all_lengths(self, n):
        rng = core.make_rng(100 + n)
        a = rng.choice(np.array([-1, 1], dtype=np.int8), size=(100, n))
        b = rng.choice(np.array([-1, 1], dtype=np.int8), size=(100, n))
        got = bitops.xnor_popcount_words(bitops.pack(a), bitops.pack(b), n)
        assert got.tolist() == [scalar_dot(x, y) for x, y in zip(a, b)]

    def test_symmetry_and_range(self):
        rng = core.make_rng(4)
        for n in (7, 64, 129):
            a, b = random_digits(rng, n), random_digits(rng, n)
            d1, d2 = packed_dot(a, b), packed_dot(b, a)
            assert d1 == d2
            assert abs(d1) <= n and (d1 - n) % 2 == 0

    def test_length_mismatch(self):
        # the word kernel refuses operands whose word counts differ; the
        # GEMM checks the digit lengths themselves
        with pytest.raises(ValueError):
            bitops.xnor_popcount_words(bitops.pack([1] * 65), bitops.pack([1] * 130), 65)
        with pytest.raises(core.ShapeError):
            gemm.encoded_gemm(gemm.encode_codes(np.ones((1, 3)), 1),
                              gemm.encode_codes(np.ones((1, 4)), 1))


def decomposed_payload(tmp_path, digits):
    """The weight payload of a one-layer decomposed model file, from (bits, rows, cols) digits."""
    digits = np.asarray(digits, dtype=np.int8)
    bits, rows, cols = digits.shape
    enc = gemm.EncodedMatrix(bits=bits, rows=rows, cols=cols,
                             words=bitops.pack(digits.transpose(1, 0, 2)))
    model = nn.ModelState(stage="decomposed", specs=[nn.dense(cols, rows, 1, bits)],
                          weights=[enc])
    path = tmp_path / "m.bbm"
    nn.save_model(model, str(path))
    blob = path.read_bytes()
    header_end = blob.index(b"\n", len(nn.MODEL_MAGIC)) + 1
    return blob[header_end:], nn.load_model(str(path)).weights[0], enc


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = core.make_rng(8)
        d = random_digits(rng, 130).reshape(1, 1, 130)
        buf, back, enc = decomposed_payload(tmp_path, d)
        assert len(buf) == 8 + 8 * 3
        assert buf[:8] == (130).to_bytes(8, "little")
        np.testing.assert_array_equal(np.frombuffer(buf[8:], "<u8"), enc.words[0, 0])
        np.testing.assert_array_equal(back.words, enc.words)

    def test_layout(self, tmp_path):
        buf, _, _ = decomposed_payload(tmp_path, [[[1, -1, 1]]])
        assert buf[:8] == (3).to_bytes(8, "little")
        assert buf[8:16] == (5).to_bytes(8, "little")
