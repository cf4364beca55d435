"""Quantizers, digit expansions, trig encoders, and their derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitbranch import bitops, core, gemm, nn, quant


def packed_codes(codes, bits):
    """Odd codes packed into row planes and read back through the decoder."""
    enc = gemm.encode_codes(np.asarray(codes).reshape(1, -1), bits)
    return gemm.decode_codes(enc).ravel()


def frozen_quantize_odd(x, bits):
    """Codes of quant.quantize_odd as it stood before the threshold table:
    the formula, frozen here so that the table is checked against it."""
    x = np.asarray(x, dtype=np.float64)
    levels = (1 << bits) - 1
    xc = np.clip(x, -1.0, 1.0)
    y = np.abs(xc) * levels
    nearest = np.trunc(y + np.copysign(0.5, y))
    snap = np.abs(y - nearest) <= 1e-9 * np.maximum(1.0, np.abs(y))
    y = np.where(snap, nearest, y)
    mag = 2 * np.floor(y / 2.0) + 1
    mag = np.minimum(mag, levels)
    sign = np.where(xc > 0, 1.0, -1.0)
    return (sign * mag).astype(np.int64)


def ulps(x, n):
    """x moved n float64 steps, up for n > 0."""
    x = np.asarray(x, dtype=np.float64)
    for _ in range(abs(n)):
        x = np.nextafter(x, np.inf if n > 0 else -np.inf)
    return x


def anchors(bits):
    """Every threshold of the table, every cell value k/(2^M - 1) and both
    snap-window edges k/(2^M - 1) * (1 +- 1e-9)."""
    thr = quant._odd_table(bits).thr
    levels = (1 << bits) - 1
    grid = np.arange(-levels, levels + 1) / levels
    return np.concatenate([thr[np.isfinite(thr)], grid, grid * (1 - 1e-9), grid * (1 + 1e-9)])


MIN_NORMAL = float(np.finfo(np.float64).tiny)
SPECIALS = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, 1.5, -1.5, 1e300, -1e300, 5e-324, -5e-324,
            MIN_NORMAL, -MIN_NORMAL, float(ulps(MIN_NORMAL, -1)), -float(ulps(MIN_NORMAL, -1))]


@st.composite
def odd_inputs(draw):
    """A bit width and values near the places the quantizer can go wrong."""
    bits = draw(st.integers(1, 8))
    near = st.tuples(st.sampled_from(anchors(bits).tolist()), st.integers(-4, 4)).map(
        lambda a: float(ulps(*a)))
    values = st.one_of(
        near,
        st.sampled_from(SPECIALS),
        st.floats(allow_nan=False),  # mostly beyond +-1
        st.floats(-MIN_NORMAL, MIN_NORMAL),  # subnormals
        st.floats(-1.0, 1.0),
    )
    return bits, np.array(draw(st.lists(values, min_size=1, max_size=64)))


def reconstruct(digits):
    """sum_m 2^(m-1) * c_m per element, from (bits, n) digit planes."""
    weights = np.left_shift(1, np.arange(digits.shape[0]))
    return weights @ digits.astype(np.int64)


class TestActivations:
    def test_htanh_anchors(self):
        x = np.array([2.0, -5.0, 0.3])
        np.testing.assert_array_equal(quant.activation(x, "htanh"), [1.0, -1.0, 0.3])

    def test_hrelu_anchors(self):
        x = np.array([-0.5, 0.5, 3.0])
        np.testing.assert_array_equal(quant.activation(x, "hrelu"), [0.0, 0.5, 1.0])

    def test_sigmoid_center(self):
        assert quant.activation(np.array([0.0]), "sigmoid")[0] == 0.5

    def test_tanh_matches_numpy(self):
        x = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(quant.activation(x, "tanh"), np.tanh(x), rtol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(core.ConfigError):
            quant.activation(np.zeros(1), "relu6")

    def test_grads_match_finite_differences(self):
        # smooth kinds only; the hard kinds have jump derivatives
        x = np.linspace(-2, 2, 101)
        h = 1e-6
        for kind in ("tanh", "sigmoid"):
            fd = (quant.activation(x + h, kind) - quant.activation(x - h, kind)) / (2 * h)
            np.testing.assert_allclose(quant.activation_grad(x, kind), fd, atol=1e-8)

    def test_hard_grads_are_window_indicators(self):
        x = np.array([-1.5, -1.0, 0.0, 1.0, 1.5])
        np.testing.assert_array_equal(quant.activation_grad(x, "htanh"), [0, 1, 1, 1, 0])
        np.testing.assert_array_equal(quant.activation_grad(x, "hrelu"), [0, 0, 1, 1, 0])


class TestQuantizeLinear:
    def test_hand_values(self):
        q = quant.quantize_linear(np.array([0.4]), 3, 1.0)
        assert q.codes[0] == 1
        assert quant.dequantize(q)[0] == pytest.approx(1 / 3)

    def test_saturation(self):
        q = quant.quantize_linear(np.array([2.0]), 3, 1.0)
        assert q.codes[0] == 3
        assert quant.dequantize(q)[0] == 1.0

    def test_zero_fixed_point(self):
        q = quant.quantize_linear(np.array([0.0]), 3, 1.0)
        assert q.codes[0] == 0 and quant.dequantize(q)[0] == 0.0

    def test_bits_out_of_range(self):
        with pytest.raises(core.ConfigError):
            quant.quantize_linear(np.zeros(1), 9)
        with pytest.raises(core.ConfigError):
            quant.quantize_linear(np.zeros(1), 0)

    def test_bad_threshold(self):
        with pytest.raises(core.ConfigError):
            quant.quantize_linear(np.zeros(1), 3, 0.0)

    @pytest.mark.parametrize("bits", [1, 2, 3, 8])
    def test_monotone(self, bits):
        x = np.sort(core.make_rng(bits).uniform(-1.5, 1.5, 300))
        codes = quant.quantize_linear(x, bits, 0.8).codes
        assert np.all(np.diff(codes) >= 0)

    @pytest.mark.parametrize("bits", [1, 2, 5, 8])
    def test_idempotent(self, bits):
        x = core.make_rng(10 + bits).uniform(-2, 2, 200)
        q1 = quant.quantize_linear(x, bits, 1.0)
        q2 = quant.quantize_linear(quant.dequantize(q1), bits, 1.0)
        np.testing.assert_array_equal(q1.codes, q2.codes)


class TestQuantizeOdd:
    def test_two_bit_table(self):
        x = np.array([-0.9, -0.2, 0.4, 0.9])
        np.testing.assert_array_equal(quant.quantize_odd(x, 2).codes, [-3, -1, 1, 3])
        np.testing.assert_allclose(quant.dequantize(quant.quantize_odd(x, 2)),
                                   [-1.0, -1 / 3, 1 / 3, 1.0])

    def test_two_bit_boundaries(self):
        # interval closures: [-1,-2/3] -> -3, (-2/3,0] -> -1, (0,2/3) -> 1, [2/3,1] -> 3
        x = np.array([-2 / 3, 0.0, 2 / 3])
        np.testing.assert_array_equal(quant.quantize_odd(x, 2).codes, [-3, -1, 3])

    def test_one_bit_sign(self):
        x = np.array([-1.0, -0.01, 0.0, 0.01, 1.0])
        np.testing.assert_array_equal(quant.quantize_odd(x, 1).codes, [-1, -1, -1, 1, 1])

    def test_clamps_outside_range(self):
        np.testing.assert_array_equal(
            quant.quantize_odd(np.array([-7.0, 7.0]), 3).codes, [-7, 7])

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_codes_odd_and_bounded(self, bits):
        x = core.make_rng(bits).uniform(-1, 1, 500)
        codes = quant.quantize_odd(x, bits).codes
        assert np.all(codes % 2 != 0)
        assert np.all(np.abs(codes) <= (1 << bits) - 1)

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_monotone(self, bits):
        x = np.sort(core.make_rng(20 + bits).uniform(-1.2, 1.2, 400))
        assert np.all(np.diff(quant.quantize_odd(x, bits).codes) >= 0)

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_idempotent(self, bits):
        x = core.make_rng(30 + bits).uniform(-1, 1, 300)
        q1 = quant.quantize_odd(x, bits)
        q2 = quant.quantize_odd(quant.dequantize(q1), bits)
        np.testing.assert_array_equal(q1.codes, q2.codes)

    def test_scaling_factor_alpha_three(self):
        # 2-bit: quantized value times (2^2 - 1) recovers the integer code
        x = np.linspace(-1, 1, 41)
        q = quant.quantize_odd(x, 2)
        np.testing.assert_array_equal(quant.dequantize(q) * 3, q.codes)

    def test_nan_is_domain_error(self):
        with pytest.raises(core.DomainError, match="1 NaN values"):
            quant.quantize_odd(np.array([0.5, np.nan, -np.inf]), 2)

    def test_infinities_clamp(self):
        np.testing.assert_array_equal(
            quant.quantize_odd(np.array([np.inf, -np.inf]), 3).codes, [7, -7])


class TestThresholdTable:
    """quantize_odd reads its codes from a table of thresholds; each code
    must equal the formula's, bit for bit."""

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_every_anchor_within_four_ulps(self, bits):
        x = np.concatenate([ulps(anchors(bits), n) for n in range(-4, 5)] + [SPECIALS])
        np.testing.assert_array_equal(quant.quantize_odd(x, bits).codes,
                                      frozen_quantize_odd(x, bits))

    @settings(deadline=None)  # the count comes from the profile
    @given(odd_inputs())
    def test_matches_frozen_formula(self, case):
        bits, x = case
        expect = frozen_quantize_odd(x, bits)
        np.testing.assert_array_equal(quant.quantize_odd(x, bits).codes, expect)
        np.testing.assert_array_equal(quant._odd_reference(x, bits), expect)
        for dtype in (np.float64, np.float32):
            codes = quant._odd_codes(x, bits, dtype)
            assert codes.dtype == dtype
            np.testing.assert_array_equal(codes, expect)

    def test_blocks_and_shapes(self):
        # more values than one block, in a 4-d shape, and a 0-d value
        x = core.make_rng(7).uniform(-1.1, 1.1, (3, 2, quant._BLOCK // 3 + 5, 4))
        np.testing.assert_array_equal(quant.quantize_odd(x, 3).codes, frozen_quantize_odd(x, 3))
        assert quant.quantize_odd(np.float64(0.5), 2).codes.shape == ()
        assert quant.quantize_odd(np.float64(0.5), 2).codes == 1

    def test_one_step_per_threshold(self, monkeypatch):
        # a formula that steps down somewhere cannot be read from thresholds
        def falls(x, bits):
            codes = frozen_quantize_odd(x, bits)
            return np.where(codes == 1, -3, codes)

        monkeypatch.setattr(quant, "_odd_reference", falls)
        with pytest.raises(RuntimeError, match="once per threshold"):
            quant._odd_table.__wrapped__(2)


class TestCodesToDigits:
    def test_two_bit_states(self):
        # encoded states listed high bit first: -1 -> {-1,+1}, 3 -> {+1,+1}
        d = quant.odd_code_digits(np.array([-1]), 2)
        assert (d[1][0], d[0][0]) == (-1, 1)
        d = quant.odd_code_digits(np.array([3]), 2)
        assert (d[1][0], d[0][0]) == (1, 1)

    def test_minimum_all_minus(self):
        np.testing.assert_array_equal(quant.odd_code_digits(np.array([-7]), 3).ravel(),
                                      [-1, -1, -1])
        assert gemm.encode_codes(np.array([[-7]]), 3).words.tolist() == [[[0], [0], [0]]]

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_round_trip_exhaustive(self, bits):
        levels = (1 << bits) - 1
        codes = np.arange(-levels, levels + 1, 2, dtype=np.int64)
        np.testing.assert_array_equal(reconstruct(quant.odd_code_digits(codes, bits)), codes)
        np.testing.assert_array_equal(packed_codes(codes, bits), codes)

    def test_even_code_rejected(self):
        with pytest.raises(core.EncodingError):
            quant.odd_code_digits(np.array([0]), 2)
        with pytest.raises(core.EncodingError):
            gemm.encode_codes(np.array([[0]]), 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(core.EncodingError):
            quant.odd_code_digits(np.array([5]), 2)
        with pytest.raises(core.EncodingError):
            gemm.encode_codes(np.array([[5]]), 2)

    def test_linear_grid_rejected(self):
        # 0.4 lands on the odd code 1 of the 3-bit linear grid; the grid tag,
        # not the code, is what keeps it from being decomposed
        q = quant.quantize_linear(np.array([[0.4]]), 3)
        assert q.codes.tolist() == [[1]]
        model = nn.ModelState(stage="quantized", specs=[nn.dense(1, 1, None, 3)], weights=[q])
        with pytest.raises(core.DecompositionError):
            nn.decompose_model(model)


class TestMbitEncoder:
    def test_two_bit_anchor_plus_third(self):
        d = quant.mbit_encoder_digits(np.array([1 / 3]), 2)
        assert (d[1][0], d[0][0]) == (1, -1)  # state {+1,-1}

    def test_two_bit_anchor_minus_third(self):
        d = quant.mbit_encoder_digits(np.array([-1 / 3]), 2)
        assert (d[1][0], d[0][0]) == (-1, 1)  # state {-1,+1}

    def test_three_bit_near_minimum(self):
        d = quant.mbit_encoder_digits(np.array([-0.99]), 3)
        assert reconstruct(d)[0] == -7
        enc = gemm.EncodedMatrix(bits=3, rows=1, cols=1, words=bitops.pack(d[None]))
        assert gemm.decode_codes(enc)[0, 0] == -7

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_matches_canonical_away_from_boundaries(self, bits):
        rng = core.make_rng(40 + bits)
        x = rng.uniform(-1, 1, 20000)
        edges = quant.encoder_boundaries(bits)
        keep = np.min(np.abs(x[:, None] - edges[None, :]), axis=1) > 1e-6
        x = x[keep]
        trig = quant.mbit_encoder_digits(x, bits)
        canon = quant.odd_code_digits(quant.quantize_odd(x, bits).codes, bits)
        np.testing.assert_array_equal(trig, canon)


class TestEncoderDerivative:
    def test_two_bit_values_at_zero(self):
        assert quant.encoder_derivative(0.0, 2, 2) == pytest.approx(0.75 * math.pi)
        assert quant.encoder_derivative(0.0, 2, 1) == pytest.approx(-1.5 * math.pi)

    def test_zero_outside_range(self):
        for bits in (1, 2, 5):
            for m in range(1, bits + 1):
                assert quant.encoder_derivative(1.5, bits, m) == 0.0
                assert quant.encoder_derivative(-1.01, bits, m) == 0.0

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 8])
    def test_matches_finite_differences(self, bits):
        # oracle: central differences of the pre-sign sine expression
        levels = (1 << bits) - 1
        xs = np.linspace(-0.95, 0.95, 100)
        h = 1e-6
        for m in range(1, bits + 1):
            c = levels / (1 << m)
            sgn = 1.0 if m == bits else -1.0

            def pre_sign(x):
                return sgn * np.sin(c * math.pi * x)

            fd = (pre_sign(xs + h) - pre_sign(xs - h)) / (2 * h)
            got = quant.encoder_derivative(xs, bits, m)
            np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-9)

    def test_bad_plane_index(self):
        with pytest.raises(core.ConfigError):
            quant.encoder_derivative(0.0, 2, 3)


class TestBinarize:
    def test_signs(self):
        np.testing.assert_array_equal(
            quant.binarize(np.array([0.3, -0.7, 5.0, 0.0])), [1, -1, 1, 1])

    def test_grad_mask_window(self):
        w = np.array([-1.5, -1.0, 0.0, 1.0, 5.0])
        np.testing.assert_array_equal(quant.binarize_grad_mask(w), [0, 1, 1, 1, 0])

    def test_zero_sign_stable(self):
        assert quant.binarize(np.array([0.0]))[0] == 1.0
        assert quant.binarize(np.array([-0.0]))[0] == 1.0
