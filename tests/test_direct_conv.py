"""The direct binary conv between folded layers: channel-packed pixel images,
the one product of both kernels (``bb_conv`` and ``gemm._conv_sums``) and
the packed-pixel epilogue, against exact integer products and the quantized
stage."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitbranch import _native, core, gemm, nn, quant
from test_native import (FIXTURE_OK, X86_ONLY, check_image, examples,  # noqa: F401
                         fresh_library, kernel, lanes_for, on_numpy, portable_pack,
                         random_odd_codes, same_bits)


@st.composite
def direct_cases(draw):
    """(b, w codes, geometry, M, K, epilogue): a conv of C = 1..70 channels
    over code bytes, Q = 1..70 outputs, kernel 1..4, stride 1..3, padding
    0..2, M and K 1..8, and one of the four epilogues."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c, q = draw(st.integers(1, 70)), draw(st.sampled_from([1, 16, 17, 32, 33, 70]) |
                                         st.integers(1, 70))
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    h = draw(st.integers(max(1, kh - 2 * padding), 9))
    w = draw(st.integers(max(1, kw - 2 * padding), 9))
    m_bits, k_bits = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    b = rng.integers(0, 1 << m_bits, (draw(st.integers(1, 3)), h, w, c)).astype(np.uint8)
    codes = random_odd_codes(rng, (q, c, kh, kw), k_bits)
    full = c * kh * kw * ((1 << m_bits) - 1) * ((1 << k_bits) - 1)
    kind = draw(st.sampled_from(["int", "float", "unpadded", "pixels"]))
    return (b, codes, (kh, kw, stride, padding), m_bits, k_bits,
            *draw_epilogue(draw, rng, kind, q, full))


def draw_epilogue(draw, rng, kind, q, full):
    """(fold, scale, pixels) of an epilogue of q outputs of the kind "int",
    "float", "unpadded" (packed pixels at padding 0, as a dense layer's fold
    writes them) or "pixels" (padding 0..2), with thresholds across
    0 <= s <= full."""
    fold = scale = pixels = None
    if kind == "float":
        scale = draw(st.sampled_from([1.0, -0.37]))
    elif kind != "int":
        bits = draw(st.integers(1, 8))
        levels = (1 << bits) - 1
        s_max = np.sort(rng.integers(-2, full + 2, (levels, q)), axis=0)
        fold = gemm.CodeThresholds(bits, s_max, rng.choice([0, levels], q).astype(np.uint8))
        pixels = (draw(st.sampled_from(lanes_for(q))),
                  0 if kind == "unpadded" else draw(st.integers(0, 2)))
    return fold, scale, pixels


def on_each_kernel(check, *args):
    """check(*args) on the native kernel when it builds, and on the numpy kernel."""
    if _native.library() is not None:
        check(*args)
    on_numpy(check, *args)


def exact_epilogue(acc, full, fold, scale):
    """An epilogue's output by its formula, from the exact accumulators acc (P, Q)."""
    if fold is not None:
        return fold.codes((full - acc) >> 1).astype(np.uint8)
    return acc if scale is None else acc * scale


def exact_conv(b, codes, geometry, m_bits, k_bits, fold, scale):
    """The oracle of direct_conv, on neither kernel: im2col of the input's
    codes, padded with code -1, times the weight codes, in integers, through
    the epilogue's formula."""
    q, c, kh, kw = codes.shape
    x = 2 * b.transpose(0, 3, 1, 2).astype(np.int64) - ((1 << m_bits) - 1)
    acc = nn.im2col(x, *geometry, fill=-1) @ codes.reshape(q, -1).T
    full = c * kh * kw * ((1 << m_bits) - 1) * ((1 << k_bits) - 1)
    return exact_epilogue(acc, full, fold, scale)


class TestPixelImage:
    @settings(max_examples=examples(100), deadline=None)
    @given(data=st.data())
    def test_pack_pixels_layout(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        c, bits = data.draw(st.integers(1, 70)), data.draw(st.integers(1, 8))
        lane, padding = data.draw(st.sampled_from(lanes_for(c))), data.draw(st.integers(0, 2))
        b = rng.integers(0, 1 << bits, (2, data.draw(st.integers(1, 5)),
                                        data.draw(st.integers(1, 5)), c)).astype(np.uint8)
        img = gemm.pack_pixels(b, bits, lane, padding)
        assert img.pixels.shape[3:] == (bits, max(lane // 32, 1))
        check_image(img, b, padding)

    def test_lane_must_hold_the_channels(self):
        # the rule of prepare_weight's packed-pixel epilogue: 16 or 32 bits
        # with C <= lane, or whole 64-bit words of at least C bits
        b = np.zeros((1, 2, 2, 20), dtype=np.uint8)
        for lane, padding in [(8, 0), (0, 0), (-5, 0), (16, 0), (48, 1), (-64, 0), (32, -1)]:
            with pytest.raises(core.ShapeError, match="do not fit packed pixels"):
                gemm.pack_pixels(b, 2, lane, padding)
        with pytest.raises(core.ShapeError, match="do not fit packed pixels"):
            gemm.pack_pixels(np.zeros((1, 2, 2, 70), dtype=np.uint8), 2, 64)
        for lane in (32, 64, 128):
            assert gemm.pack_pixels(b, 2, lane, 1).pixels.shape == (1, 4, 4, 2, max(lane // 32, 1))

    @pytest.mark.parametrize("bits", range(1, 9))
    @pytest.mark.parametrize("c", [1, 15, 16, 17, 32, 33, 64, 70])
    def test_ring_planes(self, bits, c):
        # plane m of the pad byte 2^(M-1) - 1 is set below the top plane only
        lane = gemm.conv_lane(c, 3, 3, bits, 2)
        ring = gemm._ring_pixel(bits, c, lane)
        mask = (1 << c) - 1
        for m in range(bits):
            word = int.from_bytes(ring[m].astype("<u4").tobytes(), "little")
            want = 0 if m == bits - 1 else mask | (mask << 16 if lane == 16 else 0)
            assert word == want, (m, hex(word))

    @pytest.mark.parametrize("c,kh,kw,bits,lane", [
        (1, 3, 3, 2, 16), (16, 3, 3, 2, 16), (17, 3, 3, 2, 32), (32, 3, 3, 2, 32),
        (33, 3, 3, 2, 64), (64, 1, 1, 8, 64), (65, 1, 1, 1, 128), (70, 4, 4, 8, 128),
        # the 16-bit count of one plane pair: kh kw 16 < 2^16
        (16, 63, 65, 1, 16), (16, 64, 64, 1, 32),
        # full = C kh kw (2^M - 1)(2^K - 1) < 2^31 for 32-bit sums, at M = K = 8
        (32, 24, 43, 8, 32), (32, 1, 1033, 8, 64), (16, 1, 2064, 8, 16),
        (16, 1, 2065, 8, 64)])
    def test_lane_rule(self, c, kh, kw, bits, lane):
        assert gemm.conv_lane(c, kh, kw, bits, bits) == lane


def check_direct_conv(case):
    """direct_conv of a direct_cases() case against the exact integer conv."""
    b, codes, geometry, m_bits, k_bits, fold, scale, pixels = case
    q, c, kh, kw = codes.shape
    w = gemm.encode_codes(codes.reshape(q, -1), k_bits)
    weight = gemm.prepare_weight(w, m_bits, fold, scale, (c, kh, kw, geometry[2]), pixels)
    got = gemm.direct_conv(gemm.pack_pixels(b, m_bits, weight.lane, geometry[3]), weight)
    expect = exact_conv(b, codes, geometry, m_bits, k_bits, fold, scale)
    if pixels is None:
        assert same_bits(got, expect)
        return
    oh, ow = gemm.patch_grid((len(b), c, *b.shape[1:3]), kh, kw, geometry[2], geometry[3])
    check_image(got, expect.reshape(len(b), oh, ow, q), pixels[1])
    expect = gemm.pack_pixels(expect.reshape(len(b), oh, ow, q), fold.bits, *pixels)
    np.testing.assert_array_equal(got.pixels, expect.pixels)


class TestDirectConv:
    @settings(**FIXTURE_OK)  # the count comes from the profile
    @given(case=direct_cases())
    def test_equals_gather_path(self, case):
        on_each_kernel(check_direct_conv, case)

    @settings(max_examples=examples(100), **FIXTURE_OK)
    @given(case=direct_cases())
    def test_gemm_pixel_epilogue(self, kernel, case):
        b, codes, geometry, m_bits, k_bits, fold, _, pixels = case
        if fold is None:
            return
        q = len(codes)
        w_ijc = gemm.encode_codes(codes.transpose(0, 2, 3, 1).reshape(q, -1), k_bits)
        grid = (len(b), *gemm.patch_grid((len(b), b.shape[3], *b.shape[1:3]), *geometry))
        patches = gemm.gather_codes(b, m_bits, *geometry)
        got = gemm.encoded_gemm(patches, gemm.prepare_weight(w_ijc, m_bits, fold, pixels=pixels),
                                grid)
        codes_out = exact_conv(b, codes, geometry, m_bits, k_bits, fold, None)
        check_image(got, codes_out.reshape(*grid, q), pixels[1])

    @pytest.mark.parametrize("c,kh,kw,bits", [
        (16, 63, 65, 1), (16, 64, 64, 1), (32, 24, 43, 8), (32, 1, 1033, 8), (16, 1, 2064, 8),
        (16, 1, 2065, 8)])
    @pytest.mark.parametrize("differ", [True, False])
    def test_extreme_sums_at_lane_bounds(self, c, kh, kw, bits, differ):
        # every bit of x against every bit of w: s is full, or 0
        top = (1 << bits) - 1
        b = np.full((1, kh, kw, c), top, dtype=np.uint8)
        codes = np.full((3, c, kh, kw), top if not differ else -top)
        w = gemm.encode_codes(codes.reshape(3, -1), bits)
        full = c * kh * kw * top * top

        def check():
            for scale in (None, 1.0):
                weight = gemm.prepare_weight(w, bits, scale=scale, conv=(c, kh, kw, 1))
                got = gemm.direct_conv(gemm.pack_pixels(b, bits, weight.lane), weight)
                assert got.shape == (1, 3) and np.all(got == (-full if differ else full))
        on_each_kernel(check)

    def test_checks(self):
        on_each_kernel(self.check_errors)

    @staticmethod
    def check_errors():
        w = gemm.encode_codes(np.ones((2, 12), dtype=np.int64), 1)
        weight = gemm.prepare_weight(w, 2, conv=(3, 2, 2, 1))
        img = gemm.pack_pixels(np.zeros((1, 3, 3, 3), dtype=np.uint8), 2, weight.lane)
        assert gemm.direct_conv(img, weight).shape == (4, 2)
        with pytest.raises(core.ShapeError, match="does not fit"):
            gemm.direct_conv(gemm.pack_pixels(np.zeros((1, 3, 3, 3), np.uint8), 1, 16), weight)
        with pytest.raises(core.ShapeError, match="does not fit"):
            gemm.prepare_weight(w, 2, conv=(4, 2, 2, 1))
        with pytest.raises(core.ConfigError, match="direct_conv"):
            gemm.encoded_gemm(gemm.encode_codes(np.ones((1, 12), np.int64), 2), weight)
        with pytest.raises(core.ConfigError, match="prepared with conv"):
            gemm.direct_conv(img, gemm.prepare_weight(w, 2))
        with pytest.raises(core.ConfigError, match="go together"):
            gemm.prepare_weight(w, 2, pixels=(16, 1))


@st.composite
def row_cases(draw):
    """(x codes, w codes, M, K, fold, scale, pixels, grid): a row GEMM of N
    on both sides of the 16-, 32- and 64-bit lanes, M and K 1..8 and one of
    the four epilogues. Its rows are the pixels of grid: (P, 1, 1), P = 1..20,
    or for padded packed pixels a batch of 2..4 images of up to 3 x 3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 16, 17, 27, 31, 32, 33, 63, 64, 65, 784]))
    q = draw(st.sampled_from([1, 16, 17, 32, 33, 70]) | st.integers(1, 70))
    m_bits, k_bits = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["int", "float", "unpadded", "pixels"]))
    if kind == "pixels":
        grid = (draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    else:
        grid = (draw(st.integers(1, 20)), 1, 1)
    xc = random_odd_codes(rng, (grid[0] * grid[1] * grid[2], n), m_bits)
    wc = random_odd_codes(rng, (q, n), k_bits)
    full = n * ((1 << m_bits) - 1) * ((1 << k_bits) - 1)
    return (xc, wc, m_bits, k_bits, *draw_epilogue(draw, rng, kind, q, full), grid)


def check_row_gemm(case):
    """encoded_gemm of a row_cases() case equals direct_conv of its rows as an
    image of grid's pixels with a 1 x 1 kernel, and the exact integer
    product, bit for bit; the row weight's words are the 1 x 1 conv lanes at
    the row lane."""
    xc, wc, m_bits, k_bits, fold, scale, pixels, grid = case
    n = xc.shape[1]
    xe, we = gemm.encode_codes(xc, m_bits), gemm.encode_codes(wc, k_bits)
    rows = gemm.prepare_weight(we, m_bits, fold, scale, pixels=pixels)
    got = gemm.encoded_gemm(xe, rows, grid)
    full = n * ((1 << m_bits) - 1) * ((1 << k_bits) - 1)
    expect = exact_epilogue(xc @ wc.T, full, fold, scale)
    one = gemm.prepare_weight(we, m_bits, fold, scale, (n, 1, 1, 1), pixels)
    b = ((xc + (1 << m_bits) - 1) >> 1).astype(np.uint8).reshape(*grid, n)
    conv = gemm.direct_conv(gemm.pack_pixels(b, m_bits, one.lane), one)
    if pixels is not None:
        check_image(got, expect.reshape(*grid, len(wc)), pixels[1])
        expect = gemm.pack_pixels(expect.reshape(*grid, len(wc)), fold.bits, *pixels)
        got, expect, conv = got.pixels, expect.pixels, conv.pixels
    assert same_bits(got, expect) and same_bits(conv, expect)
    lane = 32 if n <= 32 else 64 * we.words_per_row
    lanes = gemm._conv_lanes(we, n, 1, 1, lane, rows.wt.shape[-1])
    assert same_bits(rows.wt.reshape(lanes.shape), lanes)


class TestRowGemm:
    """A row GEMM is bb_conv of its rows as 1 x 1 pixels with a 1 x 1 kernel."""

    @settings(**FIXTURE_OK)  # the count comes from the profile
    @given(case=row_cases())
    def test_row_gemm_is_a_one_by_one_conv(self, case):
        on_each_kernel(check_row_gemm, case)


@X86_ONLY
@settings(max_examples=examples(60), **FIXTURE_OK)
@given(case=row_cases())
def test_portable_row_gemm_is_a_one_by_one_conv(portable_pack, case):
    check_row_gemm(case)


@st.composite
def folded_chains(draw):
    """(float model, input): 2-3 convs or dense layers, each but the last
    followed by a batchnorm with channels of either sign and by htanh or
    hrelu, so that each folds into the next. Convs have C = 1..70, kernel
    1..4, stride 1..3 and padding 0..2; dense layers widths from 1 to 520,
    across the 16-, 32- and multi-word lanes; M and K 1..8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = draw(st.booleans())
    widths = st.sampled_from([1, 16, 17, 32, 33, 70, 520]) if dense else \
        st.sampled_from([1, 16, 17, 32, 33, 70]) | st.integers(1, 70)
    batch, c = draw(st.integers(1, 2)), draw(widths if dense else st.integers(1, 70))
    h0, w0 = h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    specs, weights = [], []
    n = draw(st.integers(2, 3))
    for i in range(n):
        out = draw(widths)
        m_bits, k_bits = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        follows_bn = draw(st.booleans())
        if dense:
            spec = nn.dense(c, out, m_bits, k_bits, follows_bn=follows_bn)
        else:
            padding, stride = draw(st.integers(0, 2)), draw(st.integers(1, 3))
            kh, kw = draw(st.integers(1, min(4, h + 2 * padding))), \
                draw(st.integers(1, min(4, w + 2 * padding)))
            spec = nn.conv2d(c, out, kh, kw, stride=stride, padding=padding, m_bits=m_bits,
                             k_bits=k_bits, follows_bn=follows_bn)
            h, w = gemm.patch_grid((batch, c, h, w), kh, kw, stride, padding)
        specs.append(spec)
        weights.append(rng.uniform(-1, 1, spec.weight_shape()))
        c = out
        if i == n - 1:
            break
        spread = spec.reduction_len() * 225.0 if follows_bn else 1.0
        specs.append(nn.batchnorm(out))
        weights.append({"gamma": rng.uniform(0.5, 1.5, out) * rng.choice([-1.0, 1.0], out),
                        "beta": rng.uniform(-0.2, 0.2, out),
                        "mean": rng.uniform(-0.5, 0.5, out),
                        "var": rng.uniform(0.5, 2.0, out) * spread})
        specs.append(nn.act_layer(draw(st.sampled_from(["htanh", "hrelu"]))))
        weights.append(None)
    x = rng.uniform(-1.5, 1.5, (batch, specs[0].in_features, *(() if dense else (h0, w0))))
    return nn.ModelState("float", specs, weights), x


def plan_inputs(model, x):
    """The input of each plan step and the output of the last."""
    h, seen = x, []
    for step in nn._plan(model).steps:
        seen.append(h)
        h = step(h)
    return seen + [h]


@X86_ONLY
@settings(max_examples=examples(100), **FIXTURE_OK)
@given(case=direct_cases())
def test_portable_direct_conv_matches_numpy(portable_pack, case):
    check_direct_conv(case)


def bit_layer_input_bytes(model, x):
    """The code bytes, channels-last, of each bit layer's input in the
    quantized stage, (B, 1, 1, N) for a dense layer: what a plan step that
    reads a packed image must find there."""
    h, seen = x, []
    for spec, w in zip(model.specs, model.weights):
        if spec.kind in ("dense", "conv2d"):
            b = ((quant.quantize_odd(h, spec.m_bits).codes + (1 << spec.m_bits) - 1) >> 1)
            b = b.astype(np.uint8)
            seen.append(b.transpose(0, 2, 3, 1) if spec.kind == "conv2d" else b[:, None, None])
        h = nn._layer_forward(h, spec, w, "quantized")
    return seen


class TestFoldedConvs:
    @settings(**FIXTURE_OK)  # the count comes from the profile
    @given(case=folded_chains())
    def test_chains_agree(self, kernel, case):
        model, x = case
        quantized = nn.quantize_model(model)
        decomposed = nn.decompose_model(quantized)
        # every step after the first reads a packed image, rings included,
        # of the quantized stage's code bytes
        seen = plan_inputs(decomposed, x)
        assert len(seen) == len(model.specs) // 3 + 2
        for got, expect, step in zip(seen[1:-1], bit_layer_input_bytes(quantized, x)[1:],
                                     decomposed._plan.steps[1:]):
            assert isinstance(got, gemm.PixelImage)
            assert step.keywords["weight"].conv is not None
            check_image(got, expect, step.keywords["spec"].padding)
        assert same_bits(seen[-1], nn.model_forward(quantized, x))
        if kernel == "native":  # the same images on the numpy kernel, and the same floats
            numpy = on_numpy(plan_inputs, nn.decompose_model(quantized), x)
            for got, expect in zip(seen[1:-1], numpy[1:-1]):
                assert same_bits(got.pixels, expect.pixels)
            assert same_bits(seen[-1], numpy[-1])

    def test_which_steps_take_packed_images(self, kernel):
        rng = core.make_rng(31)
        specs = [nn.conv2d(3, 16, 3, 3, padding=1, m_bits=2, k_bits=2), nn.batchnorm(16),
                 nn.act_layer("htanh"),
                 nn.conv2d(16, 32, 3, 3, stride=2, padding=1, m_bits=2, k_bits=2),
                 nn.act_layer("hrelu"),
                 nn.conv2d(32, 20, 3, 3, padding=1, m_bits=3, k_bits=2), nn.act_layer("tanh"),
                 nn.conv2d(20, 4, 1, 1, m_bits=2, k_bits=2)]
        weights = [rng.uniform(-1, 1, s.weight_shape()) if s.weight_shape() else None
                   for s in specs]
        weights[1] = {"gamma": np.ones(16), "beta": np.zeros(16), "mean": np.zeros(16),
                      "var": np.full(16, 4.0)}
        quantized = nn.quantize_model(nn.ModelState("float", specs, weights))
        decomposed = nn.decompose_model(quantized)
        x = rng.uniform(-1, 1, (2, 3, 8, 8))
        assert same_bits(nn.model_forward(decomposed, x), nn.model_forward(quantized, x))
        forms = [(w.conv is not None, w.pixels, w.lane) for w in
                 (step.keywords["weight"] for step in decomposed._plan.steps
                  if "weight" in step.keywords)]
        # tanh does not fold: conv 3 ends in floats, conv 4 quantizes them
        assert forms == [(False, (16, 1), 0), (True, (32, 1), 16), (True, None, 32),
                         (False, None, 0)]
        # the same in an MLP: a dense fold writes 1 x 1 pixels, which the next
        # dense layer reads as a 1 x 1 conv in the lanes of its N
        specs = [nn.dense(20, 33, m_bits=2, k_bits=2), nn.batchnorm(33), nn.act_layer("htanh"),
                 nn.dense(33, 520, m_bits=2, k_bits=2), nn.act_layer("hrelu"),
                 nn.dense(520, 16, m_bits=3, k_bits=2), nn.act_layer("tanh"),
                 nn.dense(16, 4, m_bits=2, k_bits=2)]
        weights = [rng.uniform(-1, 1, s.weight_shape()) if s.weight_shape() else None
                   for s in specs]
        weights[1] = {"gamma": np.ones(33), "beta": np.zeros(33), "mean": np.zeros(33),
                      "var": np.full(33, 4.0)}
        quantized = nn.quantize_model(nn.ModelState("float", specs, weights))
        decomposed = nn.decompose_model(quantized)
        x = rng.uniform(-1, 1, (5, 20))
        assert same_bits(nn.model_forward(decomposed, x), nn.model_forward(quantized, x))
        forms = [(w.conv, w.pixels, w.lane) for w in
                 (step.keywords["weight"] for step in decomposed._plan.steps
                  if "weight" in step.keywords)]
        assert forms == [(None, (64, 0), 0), ((33, 1, 1, 1), (576, 0), 64),
                         ((520, 1, 1, 1), None, 576), (None, None, 0)]

    def test_plan_runs_on_either_kernel(self):
        # a plan built on the native kernel, where it builds, runs as it is on numpy
        rng = core.make_rng(32)
        specs = [nn.conv2d(2, 3, 3, 3, padding=1, m_bits=2, k_bits=2), nn.act_layer("htanh"),
                 nn.conv2d(3, 2, 3, 3, padding=1, m_bits=2, k_bits=2)]
        weights = [rng.uniform(-1, 1, s.weight_shape()) if s.weight_shape() else None
                   for s in specs]
        quantized = nn.quantize_model(nn.ModelState("float", specs, weights))
        decomposed = nn.decompose_model(quantized)
        x = rng.uniform(-1, 1, (2, 2, 5, 5))
        expect = nn.model_forward(quantized, x)
        assert same_bits(nn.model_forward(decomposed, x), expect)
        plan = decomposed._plan
        assert plan.steps[1].keywords["weight"].conv is not None
        assert same_bits(on_numpy(nn.model_forward, decomposed, x), expect)
        assert decomposed._plan is plan
