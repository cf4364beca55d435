"""Decomposed GEMM against the integer code-matmul oracle."""

import numpy as np
import pytest

from bitbranch import core, gemm, quant


def codes_matmul_oracle(xc, wc):
    """Triple-loop integer matmul of code grids; the exactness oracle."""
    p, n = xc.shape
    q = wc.shape[0]
    out = np.zeros((p, q), dtype=np.int64)
    for i in range(p):
        for j in range(q):
            s = 0
            for k in range(n):
                s += int(xc[i, k]) * int(wc[j, k])
            out[i, j] = s
    return out


def kernel_product(x, w, m_bits, k_bits):
    """Quantize, decompose, multiply with the bit kernel, and rescale."""
    acc = gemm.encoded_gemm(gemm.encode_matrix(x, m_bits), gemm.encode_matrix(w, k_bits))
    return gemm.scale_output(acc, m_bits, k_bits)


def random_odd_codes(rng, shape, bits):
    levels = (1 << bits) - 1
    return rng.integers(0, 1 << bits, size=shape) * 2 - levels


class TestEncodedGemm:
    def test_one_bit_is_single_xnor_dot(self):
        rng = core.make_rng(0)
        xc = random_odd_codes(rng, (3, 70), 1)
        wc = random_odd_codes(rng, (2, 70), 1)
        acc = gemm.encoded_gemm(gemm.encode_codes(xc, 1), gemm.encode_codes(wc, 1))
        np.testing.assert_array_equal(acc, codes_matmul_oracle(xc, wc))

    def test_hand_expansion_single_element(self):
        # x = 1/3 (code 1), w = 1 (code 3): branch sum must equal 1 * 3
        acc = gemm.encoded_gemm(gemm.encode_matrix(np.array([[1 / 3]]), 2),
                                gemm.encode_matrix(np.array([[1.0]]), 2))
        assert acc[0, 0] == 3

    def test_random_mixed_bits(self):
        rng = core.make_rng(1)
        xc = random_odd_codes(rng, (5, 130), 3)
        wc = random_odd_codes(rng, (4, 130), 2)
        acc = gemm.encoded_gemm(gemm.encode_codes(xc, 3), gemm.encode_codes(wc, 2))
        np.testing.assert_array_equal(acc, codes_matmul_oracle(xc, wc))

    @pytest.mark.parametrize("bits", [(1, 1), (2, 2), (4, 3), (8, 8)])
    def test_matches_integer_matmul(self, bits):
        m_bits, k_bits = bits
        rng = core.make_rng(m_bits * 10 + k_bits)
        for n in (1, 63, 64, 65, 130):
            xc = random_odd_codes(rng, (4, n), m_bits)
            wc = random_odd_codes(rng, (3, n), k_bits)
            acc = gemm.encoded_gemm(gemm.encode_codes(xc, m_bits),
                                    gemm.encode_codes(wc, k_bits))
            np.testing.assert_array_equal(acc, xc @ wc.T)

    def test_adversarial_code_patterns(self):
        # saturated, alternating, and single-level grids exercise carry
        # paths and the word-boundary masks
        for n in (1, 64, 65, 127, 128):
            for bits in (1, 4, 8):
                levels = (1 << bits) - 1
                patterns = [
                    np.full((2, n), levels, dtype=np.int64),
                    np.full((2, n), -levels, dtype=np.int64),
                    np.tile(np.array([1, -1] * ((n + 1) // 2))[:n], (2, 1)),
                    np.full((2, n), 1, dtype=np.int64),
                ]
                for xc in patterns:
                    for wc in patterns:
                        acc = gemm.encoded_gemm(gemm.encode_codes(xc, bits),
                                                gemm.encode_codes(wc, bits))
                        np.testing.assert_array_equal(acc, xc @ wc.T)

    def test_random_dims_up_to_96(self):
        rng = core.make_rng(9)
        for m_bits, k_bits in ((1, 1), (2, 3), (5, 2), (8, 8)):
            for _ in range(5):
                p, n, q = (int(v) for v in rng.integers(1, 97, 3))
                xc = random_odd_codes(rng, (p, n), m_bits)
                wc = random_odd_codes(rng, (q, n), k_bits)
                acc = gemm.encoded_gemm(gemm.encode_codes(xc, m_bits),
                                        gemm.encode_codes(wc, k_bits))
                np.testing.assert_array_equal(acc, xc @ wc.T)

    def test_linear_over_row_blocks(self):
        rng = core.make_rng(2)
        x = rng.uniform(-1, 1, (6, 40))
        w = rng.uniform(-1, 1, (3, 40))
        we = gemm.encode_matrix(w, 2)
        whole = gemm.encoded_gemm(gemm.encode_matrix(x, 3), we)
        top = gemm.encoded_gemm(gemm.encode_matrix(x[:2], 3), we)
        bottom = gemm.encoded_gemm(gemm.encode_matrix(x[2:], 3), we)
        np.testing.assert_array_equal(whole, np.vstack([top, bottom]))

    def test_reduction_mismatch(self):
        xe = gemm.encode_matrix(np.zeros((2, 8)), 1)
        we = gemm.encode_matrix(np.zeros((2, 9)), 1)
        with pytest.raises(core.ShapeError):
            gemm.encoded_gemm(xe, we)

    def test_decode_codes_round_trip(self):
        rng = core.make_rng(4)
        xc = random_odd_codes(rng, (3, 77), 4)
        np.testing.assert_array_equal(gemm.decode_codes(gemm.encode_codes(xc, 4)), xc)


class TestScaleOutput:
    def test_two_bit_factor_is_ninth(self):
        assert gemm.scale_output(np.array([9]), 2, 2)[0] == 1.0

    def test_one_bit_unscaled(self):
        assert gemm.scale_output(np.array([5]), 1, 1)[0] == 5.0

    def test_r_override(self):
        assert gemm.scale_output(np.array([9]), 2, 2, r=3.0)[0] == 3.0


class TestQuantizedGemm:
    def test_max_states(self):
        out = kernel_product(np.array([[1.0]]), np.array([[1.0]]), 2, 2)
        assert out[0, 0] == 1.0

    def test_against_code_oracle(self):
        rng = core.make_rng(5)
        x = rng.uniform(-1, 1, (2, 9))
        w = rng.uniform(-1, 1, (3, 9))
        xc = quant.quantize_odd(x, 2).codes
        wc = quant.quantize_odd(w, 2).codes
        expected = codes_matmul_oracle(xc, wc) / 9.0
        np.testing.assert_allclose(kernel_product(x, w, 2, 2), expected, rtol=1e-15)

    def test_all_plus_one_weights_give_row_sums(self):
        rng = core.make_rng(6)
        x = rng.uniform(-1, 1, (4, 11))
        w = np.ones((2, 11))
        xc = quant.quantize_odd(x, 3).codes
        expected = np.repeat(xc.sum(axis=1)[:, None] / 7.0, 2, axis=1)
        np.testing.assert_allclose(kernel_product(x, w, 3, 1), expected, rtol=1e-15)

    def test_matches_dequantized_float_product(self):
        # real-valued semantics: the decomposed product equals the matmul
        # of the dequantized grids up to float rounding
        rng = core.make_rng(11)
        for m_bits, k_bits in ((2, 2), (3, 5), (8, 1)):
            x = rng.uniform(-1, 1, (4, 50))
            w = rng.uniform(-1, 1, (3, 50))
            got = kernel_product(x, w, m_bits, k_bits)
            xd = quant.dequantize(quant.quantize_odd(x, m_bits))
            wd = quant.dequantize(quant.quantize_odd(w, k_bits))
            np.testing.assert_allclose(got, xd @ wd.T, atol=1e-12)

    def test_one_bit_equals_sign_matmul(self):
        rng = core.make_rng(7)
        x = rng.uniform(-1, 1, (5, 33))
        w = rng.uniform(-1, 1, (4, 33))
        signs = lambda a: np.where(a > 0, 1.0, -1.0)
        np.testing.assert_allclose(kernel_product(x, w, 1, 1),
                                   signs(x) @ signs(w).T, rtol=1e-15)


class TestZeroOneScheme:
    def test_both_maximal(self):
        assert gemm.zero_one_product(1.0, 1.0, 2, 2) == pytest.approx(1.0)

    def test_third_times_minus_third(self):
        got = gemm.zero_one_product(1 / 3, -1 / 3, 2, 2)
        assert got == pytest.approx(-1 / 9)
        # the {-1,+1} form of the same product
        assert got == pytest.approx((1 * -1) / 9)

    def test_binary_antipodal(self):
        assert gemm.zero_one_product(-1.0, -1.0, 1, 1) == pytest.approx(1.0)

    def test_off_grid_rejected(self):
        with pytest.raises(core.DomainError):
            gemm.zero_one_product(0.5, 1.0, 2, 2)

    @pytest.mark.parametrize("m_bits", [1, 2, 3, 4])
    @pytest.mark.parametrize("k_bits", [1, 2, 3, 4])
    def test_equals_scaled_pm1_product_exhaustive(self, m_bits, k_bits):
        ml = (1 << m_bits) - 1
        kl = (1 << k_bits) - 1
        for cx in range(-ml, ml + 1, 2):
            for cw in range(-kl, kl + 1, 2):
                poly = gemm.zero_one_product(cx / ml, cw / kl, m_bits, k_bits)
                direct = (cx * cw) / (ml * kl)
                assert abs(poly - direct) < 1e-12
