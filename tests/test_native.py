"""The native kernels against their numpy oracles, the fallback, and the checks at the C boundary."""

import dataclasses
import math
import os
import platform
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from bitbranch import _native, bitops, core, gemm, nn, quant
from test_model_file import golden_models
from test_quant import SPECIALS, anchors, frozen_quantize_odd, odd_inputs, ulps

SRC = str(Path(__file__).resolve().parents[1] / "src")
# a child process finds the library cache where this one does
XDG_ONLY = {k: v for k, v in os.environ.items() if k in ("XDG_CACHE_HOME", "HOME", "PATH")}


@pytest.fixture(params=["native", "numpy"])
def kernel(request, monkeypatch):
    """Run the test once on the C kernels and once on the numpy fallback."""
    if request.param == "native":
        if _native.library() is None:
            pytest.skip("no C compiler: the native kernels are not built")
    else:
        monkeypatch.setattr(_native, "library", lambda: None)
    return request.param


@pytest.fixture
def fresh_library():
    """Forget the loaded library before and after the test."""
    _native._load.cache_clear()
    yield
    _native._load.cache_clear()


def random_odd_codes(rng, shape, bits):
    return rng.integers(0, 1 << bits, size=shape) * 2 - ((1 << bits) - 1)


def decode_codes_loop(enc):
    """Row-by-row plane unpacking; the reference for the vectorized decode."""
    codes = np.zeros((enc.rows, enc.cols), dtype=np.int64)
    for r in range(enc.rows):
        for m in range(enc.bits):
            row = int.from_bytes(enc.words[r, m].astype("<u8").tobytes(), "little")
            digits = [2 * ((row >> c) & 1) - 1 for c in range(enc.cols)]
            codes[r] += (1 << m) * np.array(digits, dtype=np.int64)
    return codes


def frozen_encode_codes(codes, bits):
    """gemm.encode_codes as it stood before it packed code bytes through
    gather_codes: the {-1,+1} digit planes of quant.odd_code_digits, packed
    by bitops.pack. Frozen here as the digit-level spec of the words."""
    codes = np.asarray(codes, dtype=np.int64)
    rows, cols = codes.shape
    digits = quant.odd_code_digits(codes, bits).reshape(bits, rows, cols)
    return gemm.EncodedMatrix(bits=bits, rows=rows, cols=cols,
                              words=bitops.pack(digits.transpose(1, 0, 2)))


def pad_bits(enc):
    """The bits past the last column in each row's last word."""
    tail = enc.cols % bitops.WORD_BITS
    if tail == 0:
        return np.zeros(1, dtype=np.uint64)
    return enc.words[:, :, -1] >> np.uint64(tail)


def edge_values(bits):
    """Every grid point k/(2^M - 1), its float neighbours and near offsets, and extremes."""
    levels = (1 << bits) - 1
    grid = np.arange(-levels, levels + 1) / levels
    near = [grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf)]
    near += [grid + d for d in (1e-10, -1e-10, 2e-9, -2e-9)]
    extremes = np.array([0.0, -0.0, 1.0, -1.0, 1.5, -1.5, 1e300, -1e300, 5e-324, -5e-324])
    return np.concatenate(near + [extremes])


def examples(n):
    """A pinned example count: n at the default profile, and as many times n
    as the loaded profile draws more (10 n at ``--hypothesis-profile=ci``)."""
    return n * settings().max_examples // settings.get_profile("default").max_examples


def lanes_for(c):
    """Every lane width that holds c channels."""
    return [lane for lane in (16, 32, 64, 128) if c <= lane]


def unpack_pixels(img):
    """(code bytes (B, H, W, C), bits past C in each plane) of a PixelImage,
    read bit by bit from its words: the layout's spec, apart from pack_pixels."""
    bits = np.unpackbits(img.pixels.view(np.uint8), axis=-1, bitorder="little")
    c = img.channels
    b = np.zeros(img.pixels.shape[:3] + (c,), dtype=np.uint8)
    for m in range(img.bits):
        b |= bits[..., m, :c] << np.uint8(m)
    if img.lane == 16:  # the upper half repeats the lower one
        assert np.array_equal(bits[..., 16:32], bits[..., :16])
        return b, bits[..., c:16]
    return b, bits[..., c:]


def check_image(img, interior, padding):
    """img is ``interior``'s bytes inside a ring of the pad byte, no bit set past C."""
    assert img.pixels.dtype == np.uint32 and img.pixels.flags.c_contiguous
    assert img.padding == padding
    b, rest = unpack_pixels(img)
    assert not np.any(rest), "a bit past the channels is set"
    h, w = interior.shape[1:3]
    np.testing.assert_array_equal(b[:, padding:padding + h, padding:padding + w], interior)
    ring = np.ones(b.shape[:3], dtype=bool)
    ring[:, padding:padding + h, padding:padding + w] = False
    assert np.all(b[ring] == (1 << (img.bits - 1)) - 1), "a ring pixel is not the pad byte"


def check_folded_gemm(xe, we, m_bits, fold, expect):
    """encoded_gemm's threshold epilogue writes the code bytes expect (P, Q)
    as the unpadded image of P pixels of 1 x 1, as a dense layer's fold
    does, in every lane that holds the Q outputs."""
    for lane in lanes_for(we.rows):
        weight = gemm.prepare_weight(we, m_bits, fold, pixels=(lane, 0))
        check_image(gemm.encoded_gemm(xe, weight, (xe.rows, 1, 1)),
                    expect.reshape(xe.rows, 1, 1, we.rows), 0)


class TestNativeGemm:
    @settings(max_examples=examples(60), deadline=None)
    @given(p=st.integers(1, 12), q=st.integers(1, 70),
           n=st.sampled_from([1, 27, 63, 64, 65, 127, 128, 784]),
           m_bits=st.integers(1, 8), k_bits=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy_kernel_and_code_matmul(self, p, q, n, m_bits, k_bits, seed):
        rng = np.random.default_rng(seed)
        xc = random_odd_codes(rng, (p, n), m_bits)
        wc = random_odd_codes(rng, (q, n), k_bits)
        xe, we = gemm.encode_codes(xc, m_bits), gemm.encode_codes(wc, k_bits)
        expect = xc @ wc.T
        np.testing.assert_array_equal(on_numpy(gemm.encoded_gemm, xe, we), expect)
        np.testing.assert_array_equal(gemm.encoded_gemm(xe, we), expect)

    def test_threaded_row_split(self, kernel):
        # model_forward keeps its threads keyword, which must not change the output
        rng = core.make_rng(3)
        model = nn.decompose_model(nn.quantize_model(
            nn.init_mlp([200, 40, 30, 5], rng, m_bits=3, k_bits=2)))
        x = rng.uniform(-1, 1, (37, 200))
        one = nn.model_forward(model, x)
        for threads in (2, 3, 5):
            np.testing.assert_array_equal(nn.model_forward(model, x, threads=threads), one)

    def test_forward_starts_no_thread(self, kernel):
        rng = core.make_rng(4)
        model = nn.decompose_model(nn.quantize_model(
            nn.init_mlp([30, 20, 4], rng, m_bits=2, k_bits=2, quantize_input=True)))
        before = threading.active_count()
        nn.model_forward(model, rng.uniform(-1, 1, (9, 30)), threads=6)
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, threads):
        model = nn.decompose_model(nn.quantize_model(
            nn.init_mlp([8, 3], core.make_rng(0), m_bits=1, k_bits=1)))
        with pytest.raises(core.ConfigError):
            nn.model_forward(model, np.zeros((4, 8)), threads=threads)

    @pytest.mark.parametrize("bad", ["rows", "bits", "words", "dtype", "order"])
    def test_mismatched_operand_rejected(self, kernel, bad):
        good = gemm.encode_matrix(np.zeros((3, 70)), 2)
        words = good.words
        fields = {"bits": 2, "rows": 3, "cols": 70}
        if bad == "rows":
            fields["rows"] = 4
        elif bad == "bits":
            fields["bits"] = 3
        elif bad == "words":
            words = words[:, :, :1].copy()
        elif bad == "dtype":
            words = words.astype(np.int64)
        else:
            words = np.asfortranarray(words)
        broken = gemm.EncodedMatrix(words=words, **fields)
        with pytest.raises(core.ShapeError):
            gemm.encoded_gemm(broken, good)
        with pytest.raises(core.ShapeError):
            gemm.encoded_gemm(good, broken)

    def test_overflow_guard(self, kernel):
        huge = gemm.EncodedMatrix(bits=2, rows=1, cols=2**60, words=np.zeros((1, 2, 1), np.uint64))
        with pytest.raises(core.ShapeError, match="overflow"):
            gemm.encoded_gemm(huge, huge)

    def test_overflow_guard_under_python_O(self):
        code = (
            "import sys, numpy as np\n"
            "from bitbranch import core, gemm\n"
            "assert False, 'asserts are on'\n"
            "huge = gemm.EncodedMatrix(bits=2, rows=1, cols=2**60,"
            " words=np.zeros((1, 2, 1), np.uint64))\n"
            "try:\n"
            "    gemm.encoded_gemm(huge, huge)\n"
            "except core.ShapeError as exc:\n"
            "    print('ShapeError', exc)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env={"PYTHONPATH": SRC}, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("ShapeError") and "overflow" in out.stdout


class TestEncodeMatrix:
    @pytest.mark.parametrize("bits", range(1, 9))
    def test_edges_match_quantize_odd(self, kernel, bits):
        rng = core.make_rng(bits)
        values = np.concatenate([edge_values(b) for b in range(1, 9)])
        values = np.concatenate([values, rng.uniform(-1.2, 1.2, 1000)])
        x = np.resize(values, (-(-values.size // 67), 67))
        expect = frozen_encode_codes(quant.quantize_odd(x, bits).codes, bits)
        got = gemm.encode_matrix(x, bits)
        np.testing.assert_array_equal(got.words, expect.words)
        assert (got.bits, got.rows, got.cols) == (expect.bits, expect.rows, expect.cols)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 5), cols=st.integers(1, 140), bits=st.integers(1, 8),
           data=st.data())
    def test_any_finite_input_matches(self, rows, cols, bits, data):
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=rows * cols, max_size=rows * cols))
        x = np.array(values, dtype=np.float64).reshape(rows, cols)
        expect = frozen_encode_codes(quant.quantize_odd(x, bits).codes, bits)
        np.testing.assert_array_equal(gemm.encode_matrix(x, bits).words, expect.words)

    @pytest.mark.parametrize("cols", [1, 63, 64, 65, 130])
    def test_pad_bits_zero(self, kernel, cols):
        # +1 sets every digit, so a leaked pad bit would show
        for x in (np.ones((3, cols)), core.make_rng(cols).uniform(-1, 1, (3, cols))):
            for bits in (1, 2, 8):
                assert not np.any(pad_bits(gemm.encode_matrix(x, bits)))
                assert not np.any(pad_bits(gemm.encode_codes(quant.quantize_odd(x, bits).codes,
                                                             bits)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, kernel, bad):
        x = np.zeros((2, 70))
        x[1, 66] = bad
        with pytest.raises(core.DomainError, match="1 non-finite"):
            gemm.encode_matrix(x, 2)


def im2col_loop(x, kh, kw, stride, padding):
    """One window per output position; the reference for the vectorized nn.im2col."""
    b, c, h, w = x.shape
    x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    rows = [x[n, :, i * stride:i * stride + kh, j * stride:j * stride + kw].reshape(-1)
            for n in range(b) for i in range(oh) for j in range(ow)]
    return np.array(rows, dtype=np.float64).reshape(b * oh * ow, c * kh * kw)


# the kernel fixture is function-scoped, but it only picks the library, which
# every hypothesis example of the test may share
FIXTURE_OK = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def code_grids(draw):
    """(codes, bits): odd codes of 1-70 rows, with column counts on both sides
    of a word edge, holding both ends of the grid."""
    bits = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 70))
    cols = draw(st.sampled_from([1, 27, 63, 64, 65, 784]) | st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = random_odd_codes(rng, (rows, cols), bits)
    levels = (1 << bits) - 1
    codes.flat[rng.integers(0, codes.size, 2)] = [-levels, levels]
    return codes, bits


class TestEncodeCodes:
    """Both kernels' words against the digit planes of quant.odd_code_digits."""

    @settings(**FIXTURE_OK)  # the count comes from the profile
    @given(case=code_grids())
    def test_matches_frozen_digit_packer(self, kernel, case):
        codes, bits = case
        got = gemm.encode_codes(codes, bits)
        expect = frozen_encode_codes(codes, bits)
        assert (got.bits, got.rows, got.cols) == (expect.bits, expect.rows, expect.cols)
        assert got.words.dtype == np.uint64 and got.words.flags.c_contiguous
        np.testing.assert_array_equal(got.words, expect.words)
        assert not np.any(pad_bits(got))

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_off_grid_codes_rejected(self, kernel, bits):
        levels = (1 << bits) - 1
        grid = random_odd_codes(core.make_rng(bits), (3, 70), bits)
        int64 = np.iinfo(np.int64)
        for bad in (0, levels - 1, 1 - levels, levels + 2, -levels - 2, int64.min, int64.max):
            codes = grid.copy()
            codes[2, 66] = bad
            with pytest.raises(core.EncodingError):
                gemm.encode_codes(codes, bits)


class TestQuantizeBytes:
    """Both kernels' code bytes against the formula frozen in test_quant.py."""

    @staticmethod
    def check(x, bits):
        b, bad = gemm.quantize_bytes(x, bits)
        finite = np.isfinite(x)
        expect = (frozen_quantize_odd(np.where(finite, x, 0.0), bits) + (1 << bits) - 1) >> 1
        assert b.dtype == np.uint8 and bad == np.count_nonzero(~finite)
        np.testing.assert_array_equal(b, expect)

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_anchors_and_specials(self, kernel, bits):
        self.check(np.concatenate([ulps(anchors(bits), n) for n in range(-4, 5)] + [SPECIALS]),
                   bits)

    @settings(**FIXTURE_OK)  # the count comes from the profile
    @given(case=odd_inputs())
    def test_matches_frozen_formula(self, kernel, case):
        bits, x = case
        self.check(x, bits)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_is_counted_as_zero(self, kernel, bad):
        for bits in range(1, 9):
            b, count = gemm.quantize_bytes(np.array([bad, 0.5, bad]), bits)
            zero = (frozen_quantize_odd(0.0, bits) + (1 << bits) - 1) >> 1
            assert count == 2 and b[0] == b[2] == zero

    @settings(**FIXTURE_OK)  # the count comes from the profile
    @given(bits=st.integers(1, 8), shape=st.tuples(st.integers(0, 3), st.integers(1, 20),
                                                   st.integers(1, 9), st.integers(1, 9)),
           planar=st.booleans(), data=st.data())
    def test_channels_last_view_equals_its_copy(self, kernel, bits, shape, planar, data):
        # bb_quantize reads a (B, C, H, W) conv input plane by plane and writes
        # its bytes channels-last; a 3-D (B, C, P) input takes the same path
        if planar:
            shape = (shape[0], shape[1], shape[2] * shape[3])
        n = math.prod(shape)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = np.where(rng.random(n) < 0.5, rng.choice(edge_values(bits), n), rng.uniform(-2, 2, n))
        x[rng.random(n) < 0.05] = rng.choice([np.nan, np.inf, -np.inf])
        view = np.moveaxis(x.reshape(shape), 1, -1)
        b, bad = gemm.quantize_bytes(view, bits)
        expect, expect_bad = gemm.quantize_bytes(np.ascontiguousarray(view), bits)
        assert b.dtype == np.uint8 and b.flags.c_contiguous and b.shape == view.shape
        assert bad == expect_bad == np.count_nonzero(~np.isfinite(x))
        np.testing.assert_array_equal(b, expect)
        self.check(np.ascontiguousarray(view), bits)


# The image ends where an inaccessible page begins; each geometry's last
# window ends at the image's last byte. Run in a child, checks raise
# SystemExit.
PAGE_END_RUN = """
import ctypes, mmap
import numpy as np
from bitbranch import _native, gemm

page = mmap.PAGESIZE
mm = mmap.mmap(-1, 3 * page)
base = ctypes.addressof(ctypes.c_char.from_buffer(mm))
if ctypes.CDLL(None).mprotect(ctypes.c_void_p(base + 2 * page), page, 0):
    raise SystemExit("mprotect failed")
buf = np.frombuffer(mm, np.uint8)
rng = np.random.default_rng(5)
for shape, kh, kw, stride in [((3, 1, 1, 70), 1, 1, 1), ((2, 5, 5, 3), 3, 3, 1),
                              ((1, 4, 7, 33), 2, 3, 2), ((1, 1, 1, 1), 1, 1, 1)]:
    size = int(np.prod(shape))
    image = buf[2 * page - size:2 * page].reshape(shape)
    image[...] = rng.integers(0, 4, shape)
    got = gemm.gather_codes(image, 2, kh, kw, stride)
    lib, _native.library = _native.library, lambda: None
    expect = gemm.gather_codes(image, 2, kh, kw, stride)
    _native.library = lib
    if not np.array_equal(got.words, expect.words):
        raise SystemExit(f"gather differs on {shape}")
print("ok")
"""


@st.composite
def conv_inputs(draw, special=()):
    """(x, kh, kw, stride, padding, bits): any geometry that fits, with up to
    70 channels, so a patch row spans up to 18 words; values are the bit
    width's grid points, their float neighbours and extremes, or uniform in
    [-2, 2], plus 1-3 ``special`` values; x is either C-contiguous or a
    channels-last view, as a conv after a conv receives it."""
    b, c = draw(st.integers(1, 3)), draw(st.integers(1, 70))
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    h = draw(st.integers(max(1, kh - 2 * padding), 9))
    w = draw(st.integers(max(1, kw - 2 * padding), 9))
    bits = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = b * c * h * w
    x = np.where(rng.random(n) < 0.5, rng.choice(edge_values(bits), n), rng.uniform(-2, 2, n))
    if special:
        x[rng.integers(0, n, draw(st.integers(1, 3)))] = rng.choice(special)
    if draw(st.booleans()):
        x = x.reshape(b, h, w, c).transpose(0, 3, 1, 2)
    else:
        x = x.reshape(b, c, h, w)
    return x, kh, kw, stride, padding, bits


def on_numpy(fn, *args):
    """fn(*args) with the numpy kernels."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "library", lambda: None)
        return fn(*args)


def require_native():
    if _native.library() is None:
        pytest.skip("no C compiler: the native kernels are not built")


@st.composite
def gemm_cases(draw, ns=(1, 27, 63, 64, 65, 130, 784)):
    """(xc, wc, m_bits, k_bits, fold): p and q on both sides of the C tiles'
    row edges (8 and 4) and output edges (16), n from ``ns``, by default on
    both sides of a word edge; thresholds reach past bisect_thresholds'
    sentinels -1 and full and, for a few outputs, past the int32 range, and
    at 8 fold bits the epilogue counts 255 levels."""
    p = draw(st.integers(1, 9))
    q = draw(st.sampled_from([1, 15, 16, 17, 33, 70]) | st.integers(1, 70))
    n = draw(st.sampled_from(ns))
    m_bits, k_bits, bits = (draw(st.integers(1, 8)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xc = random_odd_codes(rng, (p, n), m_bits)
    wc = random_odd_codes(rng, (q, n), k_bits)
    full = n * ((1 << m_bits) - 1) * ((1 << k_bits) - 1)
    levels = (1 << bits) - 1
    s_max = np.sort(rng.integers(-2, full + 2, (levels, q)), axis=0)
    # outputs whose every level holds (s <= full) or none does
    s_max[:, rng.random(q) < 0.2] = full
    s_max[:, rng.random(q) < 0.1] = -1
    s_max[:, rng.random(q) < 0.05] = rng.choice([2**40, -2**40])
    fold = gemm.CodeThresholds(bits=bits, s_max=s_max, flip=rng.choice([0, levels], q))
    return xc, wc, m_bits, k_bits, fold


class TestEncodePatches:
    @pytest.mark.parametrize("bits", range(1, 9))
    def test_pad_byte_is_the_byte_of_zero(self, kernel, bits):
        # gather_codes pads with this byte without running the quantizer
        assert gemm.quantize_bytes(np.zeros(1), bits)[0][0] == (1 << (bits - 1)) - 1

    @settings(max_examples=300, **FIXTURE_OK)
    @given(case=conv_inputs())
    def test_words_equal_encoded_patch_matrix(self, kernel, case):
        x, kh, kw, stride, padding, bits = case
        patches = im2col_loop(x, kh, kw, stride, padding)
        np.testing.assert_array_equal(nn.im2col(x, kh, kw, stride, padding), patches)
        # gather_codes orders each row (i, j, c), im2col (c, i, j)
        ijc = patches.reshape(len(patches), x.shape[1], kh, kw).transpose(0, 2, 3, 1)
        codes = quant.quantize_odd(ijc.reshape(len(patches), -1), bits).codes
        expect = frozen_encode_codes(codes, bits)
        b, bad = gemm.quantize_bytes(x.transpose(0, 2, 3, 1), bits)
        assert bad == 0 and b.dtype == np.uint8 and b.flags.c_contiguous
        got = gemm.gather_codes(b, bits, kh, kw, stride, padding)
        assert (got.bits, got.rows, got.cols) == (expect.bits, expect.rows, expect.cols)
        np.testing.assert_array_equal(got.words, expect.words)

    @settings(**FIXTURE_OK)  # the count comes from the profile
    @given(case=conv_inputs())
    def test_gather_matches_numpy_fallback(self, case):
        require_native()
        x, kh, kw, stride, padding, bits = case
        b = gemm.quantize_bytes(x.transpose(0, 2, 3, 1), bits)[0]
        got = gemm.gather_codes(b, bits, kh, kw, stride, padding)
        np.testing.assert_array_equal(got.words,
                                      on_numpy(gemm.gather_codes, b, bits, kh, kw, stride,
                                               padding).words)
        assert not np.any(pad_bits(got))

    @pytest.mark.parametrize("c,kh,kw,stride", [
        (3, 3, 3, 1),  # runs of 9 bytes, three per word
        (16, 3, 3, 2),  # 48-byte runs, every second one across a word edge
        (70, 1, 1, 1),  # one run longer than a word
        (21, 4, 3, 1),  # 63-byte runs, each one lane short of a word
        (1, 4, 4, 3),  # 4-byte runs in one word
        (65, 2, 1, 2),  # 65-byte runs: a one-lane piece in every second word
    ])
    def test_gather_pieces_across_word_edges(self, c, kh, kw, stride):
        # every piece of a kernel row that meets a word edge, in each plane
        require_native()
        rng = core.make_rng(c * 100 + kh)
        b = rng.integers(0, 256, (2, kh + 4, kw + 3, c), dtype=np.uint8)
        for bits in range(1, 9):
            b_bits = b & ((1 << bits) - 1)
            got = gemm.gather_codes(b_bits, bits, kh, kw, stride, 1)
            np.testing.assert_array_equal(
                got.words, on_numpy(gemm.gather_codes, b_bits, bits, kh, kw, stride, 1).words)
            assert not np.any(pad_bits(got))

    def test_gather_reads_nothing_past_the_image(self):
        # the masked loads of the last windows reach up to 63 bytes past the
        # image; here those bytes are an inaccessible page, so a load that
        # touched one would kill the child
        require_native()
        out = subprocess.run([sys.executable, "-c", PAGE_END_RUN], capture_output=True,
                             text=True, env={"PYTHONPATH": SRC, **XDG_ONLY}, timeout=120)
        assert out.returncode == 0, out.stderr[-2000:]
        assert out.stdout == "ok\n"

    @settings(max_examples=60, **FIXTURE_OK)
    @given(case=conv_inputs(special=(np.nan, np.inf, -np.inf)))
    def test_non_finite_counts_patch_entries(self, kernel, case):
        x, kh, kw, stride, padding, bits = case
        assume(not np.all(np.isfinite(x)))
        spec = nn.conv2d(x.shape[1], 2, kh, kw, stride=stride, padding=padding, m_bits=bits,
                         k_bits=2)
        wq = quant.quantize_odd(core.make_rng(0).uniform(-1, 1, spec.weight_shape()), 2)
        we = gemm.encode_codes(wq.codes.reshape(2, -1), 2)
        assert gemm.quantize_bytes(x, bits)[1] == np.count_nonzero(~np.isfinite(x))
        bad = int(np.count_nonzero(~np.isfinite(im2col_loop(x, kh, kw, stride, padding))))
        decomposed = nn.ModelState("decomposed", [spec], [we])
        if bad == 0:  # every non-finite element lies outside all windows
            np.testing.assert_array_equal(nn.model_forward(decomposed, x),
                                          nn.conv2d_forward(x, spec, wq, "quantized"))
            return
        with pytest.raises(core.DomainError, match=f"layer input: {bad} non-finite values"):
            nn.model_forward(decomposed, x)


@st.composite
def quantized_convs(draw, special=()):
    """(x, spec, wq): a conv on the odd grid with M and K in 1..8, on either
    side of the float32/float64 switch of ``gemm.code_dtype``; about half
    the examples take M = K = 8 and a reduction of N >= 259, where
    N (2^M - 1)(2^K - 1) >= 2^24. The batch may be empty; x is C-contiguous
    or a channels-last view, with 1-3 ``special`` values."""
    b = draw(st.integers(0, 3))
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    if draw(st.booleans()):
        m_bits = k_bits = 8
        kh, kw = max(kh, 2), max(kw, 2)
        c = draw(st.integers(-(-259 // (kh * kw)), 70))
    else:
        m_bits, k_bits, c = draw(st.integers(1, 8)), draw(st.integers(1, 8)), \
            draw(st.integers(1, 70))
    h = draw(st.integers(max(1, kh - 2 * padding), 8))
    w = draw(st.integers(max(1, kw - 2 * padding), 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = b * c * h * w
    x = np.where(rng.random(n) < 0.5, rng.choice(edge_values(m_bits), n), rng.uniform(-2, 2, n))
    if special and n:
        x[rng.integers(0, n, draw(st.integers(1, 3)))] = rng.choice(special)
    x = x.reshape(b, h, w, c).transpose(0, 3, 1, 2) if draw(st.booleans()) else \
        x.reshape(b, c, h, w)
    spec = nn.conv2d(c, draw(st.integers(1, 20)), kh, kw, stride=stride, padding=padding,
                     m_bits=m_bits, k_bits=k_bits, follows_bn=draw(st.booleans()),
                     r=draw(st.sampled_from([1.0, 0.37])))
    wq = quant.quantize_odd(rng.uniform(-1, 1, spec.weight_shape()), k_bits)
    return x, spec, wq


def patch_quantized_conv(x, spec, wq):
    """The quantized conv as the codes of the zero-padded patch matrix times
    the weight codes, in float64; the oracle of quantizing each input once."""
    geometry = (*spec.kernel, spec.stride, spec.padding)
    patches = quant.quantize_odd(im2col_loop(x, *geometry), spec.m_bits).codes
    acc = patches.astype(np.float64) @ wq.codes.reshape(spec.out_features, -1).T.astype(
        np.float64)
    if not spec.follows_bn:
        acc = acc * (spec.r / (((1 << spec.m_bits) - 1) * ((1 << spec.k_bits) - 1)))
    oh = (x.shape[2] + 2 * spec.padding - spec.kernel[0]) // spec.stride + 1
    ow = (x.shape[3] + 2 * spec.padding - spec.kernel[1]) // spec.stride + 1
    return acc.reshape(len(x), oh, ow, spec.out_features).transpose(0, 3, 1, 2)


class TestQuantizedConv:
    """The quantized stage quantizes a conv input once and gathers the codes."""

    @settings(max_examples=200, deadline=None)
    @given(case=quantized_convs())
    def test_quantize_once_equals_patch_quantize(self, case):
        x, spec, wq = case
        got = nn.conv2d_forward(x, spec, wq, "quantized")
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, patch_quantized_conv(x, spec, wq))

    @settings(max_examples=100, deadline=None)
    @given(case=quantized_convs(special=(np.nan, np.inf, -np.inf)))
    def test_non_finite_counts_patch_entries(self, case):
        x, spec, wq = case
        geometry = (*spec.kernel, spec.stride, spec.padding)
        bad = int(np.count_nonzero(~np.isfinite(im2col_loop(x, *geometry))))
        if bad == 0:  # none, or every one outside all windows
            np.testing.assert_array_equal(nn.conv2d_forward(x, spec, wq, "quantized"),
                                          patch_quantized_conv(x, spec, wq))
            return
        with pytest.raises(core.DomainError, match=f"layer input: {bad} non-finite values"):
            nn.conv2d_forward(x, spec, wq, "quantized")

    def test_stride_skips_non_finite_columns(self):
        # 3x3 windows at stride 3 over 7x7 leave row and column 6 unread
        spec = nn.conv2d(2, 3, 3, 3, stride=3, m_bits=2, k_bits=2)
        wq = quant.quantize_odd(core.make_rng(3).uniform(-1, 1, spec.weight_shape()), 2)
        x = core.make_rng(4).uniform(-1, 1, (2, 2, 7, 7))
        x[0, 1, 6, 0] = np.nan
        x[1, 0, 2, 6] = np.inf
        np.testing.assert_array_equal(nn.conv2d_forward(x, spec, wq, "quantized"),
                                      patch_quantized_conv(x, spec, wq))
        x[1, 1, 5, 5] = -np.inf
        with pytest.raises(core.DomainError, match="conv2d 2->3 3x3 layer input: 1 non-finite"):
            nn.conv2d_forward(x, spec, wq, "quantized")

    @pytest.mark.parametrize("n,dtype", [(258, np.float32), (259, np.float64)])
    def test_code_dtype_switch(self, n, dtype):
        # 259 * 255 * 255 is odd and above 2^24: float32 cannot hold it
        assert gemm.code_dtype(n, 8, 8) is dtype
        spec = nn.dense(n, 1, m_bits=8, k_bits=8, follows_bn=True)
        wq = quant.quantize_odd(np.ones((1, n)), 8)
        got = nn.dense_forward(np.ones((1, n)), spec, wq, "quantized")
        assert got.dtype == np.float64 and got[0, 0] == n * 255 * 255


@st.composite
def random_models(draw):
    """(float model, input): a conv or a dense stack of 1-3 weighted layers with
    M in {None, 1..4} and K in 1..4, each maybe followed by batchnorm (the
    layer then sometimes ``follows_bn``; gamma positive, negative or zero per
    channel) and maybe by an activation: htanh and hrelu fold into the bit
    layer before them, tanh and sigmoid keep the float epilogue."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    conv = draw(st.booleans())
    batch, features = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    h0, w0 = h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    specs, weights = [], []
    for _ in range(draw(st.integers(1, 3))):
        out = draw(st.integers(1, 6))
        bits = {"m_bits": draw(st.sampled_from([None, 1, 2, 3, 4])),
                "k_bits": draw(st.integers(1, 4))}
        bn = draw(st.booleans())
        follows_bn = bn and draw(st.booleans())
        if conv:
            padding, stride = draw(st.integers(0, 2)), draw(st.integers(1, 2))
            kh = draw(st.integers(1, h + 2 * padding))
            kw = draw(st.integers(1, w + 2 * padding))
            spec = nn.conv2d(features, out, kh, kw, stride=stride, padding=padding,
                             follows_bn=follows_bn, **bits)
            h, w = gemm.patch_grid((batch, features, h, w), kh, kw, stride, padding)
        else:
            spec = nn.dense(features, out, follows_bn=follows_bn, **bits)
        specs.append(spec)
        weights.append(rng.uniform(-1, 1, spec.weight_shape()))
        if bn:
            # raw accumulators reach about sqrt(N) (2^M - 1)(2^K - 1): widen the
            # variance so that htanh does not always saturate
            spread = spec.reduction_len() * 225.0 if follows_bn else 1.0
            specs.append(nn.batchnorm(out))
            sign = rng.choice([-1.0, 0.0, 1.0], out, p=[0.4, 0.1, 0.5])
            weights.append({"gamma": rng.uniform(0.5, 1.5, out) * sign,
                            "beta": rng.uniform(-0.2, 0.2, out),
                            "mean": rng.uniform(-0.5, 0.5, out),
                            "var": rng.uniform(0.5, 2.0, out) * spread})
        act = draw(st.sampled_from([None, "htanh", "hrelu", "tanh", "sigmoid"]))
        if act:
            specs.append(nn.act_layer(act))
            weights.append(None)
        features = out
    shape = (batch, specs[0].in_features, *((h0, w0) if conv else ()))
    n = int(np.prod(shape))
    x = np.where(rng.random(n) < 0.3, rng.choice(edge_values(4), n), rng.uniform(-1.5, 1.5, n))
    return nn.ModelState("float", specs, weights), x.reshape(shape)


def quantized_code(specs, weights, acc):
    """The oracle of a fold: the quantized stage's float code of each
    accumulator, through specs[0]'s output and the chain up to the last layer."""
    spec = specs[0]
    h = (acc.astype(np.float64) if spec.follows_bn
         else gemm.scale_output(acc, spec.m_bits, weights[0].bits, spec.r))
    for s, p in zip(specs[1:-1], weights[1:-1]):
        if s.kind == "batchnorm":
            h = nn.batchnorm_forward(h, p["gamma"], p["beta"], p["mean"], p["var"], s.eps)
        else:
            h = quant.activation(h, s.act)
    bits = specs[-1].m_bits
    return (quant.quantize_odd(h, bits).codes + (1 << bits) - 1) >> 1


class TestFold:
    @settings(max_examples=examples(150), deadline=None)
    @given(n=st.integers(1, 40), m_bits=st.integers(1, 3), k_bits=st.integers(1, 3),
           channels=st.integers(1, 4), next_bits=st.integers(1, 4),
           follows_bn=st.booleans(), r=st.sampled_from([1.0, 0.5, 3.0, -1.0]),
           bn=st.booleans(), act=st.sampled_from([None, "htanh", "hrelu"]),
           seed=st.integers(0, 2**32 - 1))
    def test_thresholds_equal_exhaustive_table(self, n, m_bits, k_bits, channels, next_bits,
                                               follows_bn, r, bn, act, seed):
        rng = np.random.default_rng(seed)
        limit = n * ((1 << m_bits) - 1) * ((1 << k_bits) - 1)
        specs = [nn.dense(n, channels, m_bits, k_bits, follows_bn=follows_bn, r=r)]
        weights = [gemm.encode_codes(random_odd_codes(rng, (channels, n), k_bits), k_bits)]
        if bn:
            # gamma positive, negative or zero; the spread puts cell edges inside the range
            spread = limit / 4 if follows_bn else 1.0
            specs.append(nn.batchnorm(channels))
            weights.append({"gamma": rng.uniform(0.2, 2, channels)
                            * rng.choice([-1.0, 0.0, 1.0], channels),
                            "beta": rng.uniform(-0.5, 0.5, channels),
                            "mean": rng.uniform(-0.5, 0.5, channels) * spread,
                            "var": rng.uniform(0.1, 2, channels) * spread ** 2})
        if act:
            specs.append(nn.act_layer(act))
            weights.append(None)
        specs.append(nn.dense(channels, 2, m_bits=next_bits, k_bits=2))
        weights.append(gemm.encode_codes(random_odd_codes(rng, (2, channels), 2), 2))
        fold, nxt = nn.fold_thresholds(specs, weights, 0)
        assert nxt == len(specs) - 1 and fold is not None
        # every popcount sum the GEMM can produce, s in [0, limit]
        s = np.repeat(np.arange(limit + 1)[:, None], channels, axis=1)
        np.testing.assert_array_equal(fold.codes(s), quantized_code(specs, weights, limit - 2 * s))

    def test_large_range_fold(self):
        # dense 784->4 at M = K = 8: full is about 5.1e7, far past an exhaustive table
        rng = core.make_rng(13)
        full = 784 * 255 * 255
        specs = [nn.dense(784, 4, 8, 8), nn.batchnorm(4), nn.act_layer("htanh"),
                 nn.dense(4, 2, m_bits=8, k_bits=2)]
        weights = [gemm.encode_codes(random_odd_codes(rng, (4, 784), 8), 8),
                   {"gamma": np.array([1.3, -0.7, 0.0, 2.1]), "beta": rng.uniform(-0.5, 0.5, 4),
                    "mean": rng.uniform(-50, 50, 4), "var": rng.uniform(0.5, 2, 4) * 200.0 ** 2},
                   None, gemm.encode_codes(random_odd_codes(rng, (2, 4), 2), 2)]
        fold, nxt = nn.fold_thresholds(specs, weights, 0)
        assert nxt == 3 and fold is not None
        # each threshold and its neighbours, random sums and both ends, per channel
        near = (fold.s_max[:, None, :] + np.array([-1, 0, 1])[:, None]).reshape(-1, 4)
        s = np.concatenate([near, rng.integers(0, full + 1, (100_000, 4)),
                            np.array([[0] * 4, [full] * 4])])
        s = np.clip(s, 0, full)
        np.testing.assert_array_equal(fold.codes(s), quantized_code(specs, weights, full - 2 * s))

    @pytest.mark.parametrize("chain", ["zero_var", "tanh", "logits", "float_next"])
    def test_chains_that_do_not_fold(self, chain):
        rng = core.make_rng(9)
        specs = [nn.dense(6, 3, m_bits=2, k_bits=2), nn.batchnorm(3),
                 nn.act_layer("tanh" if chain == "tanh" else "htanh"),
                 nn.dense(3, 2, m_bits=None if chain == "float_next" else 2, k_bits=2)]
        weights = [rng.uniform(-1, 1, (3, 6)),
                   {"gamma": np.ones(3), "beta": np.zeros(3), "mean": np.full(3, 0.5),
                    "var": np.full(3, -1e-5 if chain == "zero_var" else 1.0)},
                   None, rng.uniform(-1, 1, (2, 3))]
        if chain == "logits":
            specs, weights = specs[:3], weights[:3]
        quantized = nn.quantize_model(nn.ModelState("float", specs, weights))
        decomposed = nn.decompose_model(quantized)
        assert nn.fold_thresholds(decomposed.specs, decomposed.weights, 0) == (None, 1)
        x = rng.uniform(-1, 1, (5, 6))
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(nn.model_forward(decomposed, x),
                                          nn.model_forward(quantized, x))

    @pytest.mark.parametrize("t_rows,t_cols,flips", [(3, 3, 4), (3, 4, 3), (1, 4, 4)])
    def test_threshold_shapes_checked(self, kernel, t_rows, t_cols, flips):
        we = gemm.encode_codes(np.ones((4, 5), dtype=np.int64), 1)
        fold = gemm.CodeThresholds(bits=2, s_max=np.zeros((t_rows, t_cols), dtype=np.int64),
                                   flip=np.zeros(flips, dtype=np.uint8))
        for lane in lanes_for(4):
            with pytest.raises(core.ShapeError, match="thresholds"):
                gemm.prepare_weight(we, 1, fold, pixels=(lane, 0))

    def test_prepared_weight_checks(self, kernel):
        xc, wc = np.ones((2, 5), dtype=np.int64), np.ones((4, 5), dtype=np.int64)
        xe, we = gemm.encode_codes(xc, 1), gemm.encode_codes(wc, 1)
        s_max = np.array([[0, 2, 5, 7]] * 3)
        for flip in ([0, 1, 3, 0], [0, 3, 3, -1], [0, 3, 3, 255]):
            for lane in lanes_for(4):
                with pytest.raises(core.DomainError, match="flips"):
                    gemm.prepare_weight(we, 1, gemm.CodeThresholds(2, s_max, np.array(flip)),
                                        pixels=(lane, 0))
        fold = gemm.CodeThresholds(2, s_max, np.array([0, 3, 3, 0], dtype=np.uint8))
        check_folded_gemm(xe, we, 1, fold, fold.codes((5 - xc @ wc.T) >> 1))
        with pytest.raises(core.ShapeError, match="prepared for M=2"):
            gemm.encoded_gemm(xe, gemm.prepare_weight(we, 2))

    @settings(max_examples=examples(60), **FIXTURE_OK)
    @given(case=gemm_cases())
    def test_gemm_epilogue_matches_numpy(self, kernel, case):
        xc, wc, m_bits, k_bits, fold = case
        full = xc.shape[1] * ((1 << m_bits) - 1) * ((1 << k_bits) - 1)
        check_folded_gemm(gemm.encode_codes(xc, m_bits), gemm.encode_codes(wc, k_bits), m_bits,
                          fold, fold.codes((full - xc @ wc.T) >> 1))

    @pytest.mark.parametrize("layout", ["int32", "fortran", "strided"])
    def test_threshold_layouts(self, kernel, layout):
        rng = core.make_rng(11)
        xc, wc = random_odd_codes(rng, (6, 40), 2), random_odd_codes(rng, (7, 40), 2)
        full = 40 * 3 * 3
        s_max = np.sort(rng.integers(-1, full + 1, (3, 7)), axis=0)
        flip = rng.choice([0, 3], 7)
        if layout == "int32":
            s_max, flip = s_max.astype(np.int32), flip.astype(np.int32)
        elif layout == "fortran":
            s_max = np.asfortranarray(s_max)
        else:
            s_max, flip = np.repeat(s_max, 2, axis=1)[:, ::2], np.repeat(flip, 2)[::2]
        fold = gemm.CodeThresholds(bits=2, s_max=s_max, flip=flip)
        check_folded_gemm(gemm.encode_codes(xc, 2), gemm.encode_codes(wc, 2), 2, fold,
                          fold.codes((full - xc @ wc.T) >> 1))


# Every epilogue of encoded_gemm against grids whose pixels are not its rows;
# argv[1] picks the kernel.
GRID_RUN = """
import sys
import numpy as np
from bitbranch import _native, core, gemm

if sys.argv[1] == "numpy":
    _native.library = lambda: None
x = gemm.encode_codes(np.ones((4096, 27), dtype=np.int64), 2)
w = gemm.encode_codes(np.ones((16, 27), dtype=np.int64), 2)
fold = gemm.CodeThresholds(2, np.zeros((3, 16), np.int64), np.zeros(16, np.uint8))
for weight in (gemm.prepare_weight(w, 2), gemm.prepare_weight(w, 2, scale=0.5),
               gemm.prepare_weight(w, 2, fold, pixels=(16, 0)),
               gemm.prepare_weight(w, 2, fold, pixels=(16, 1))):
    for grid in [(1, 1, 1), (2, 2048, 2), (4097, 1, 1), (-1, -64, 64), (4096, 1)]:
        try:
            gemm.encoded_gemm(x, weight, grid)
        except core.ShapeError:
            continue
        raise SystemExit(f"grid {grid} passed")
    gemm.encoded_gemm(x, weight, (4, 32, 32))
print("ok")
"""


def same_bits(a, b):
    """Equal dtype, shape and bytes: -0.0 differs from 0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestEpilogues:
    """The kernels' float epilogue, and the 32-bit tile of n <= 32, against numpy."""

    @settings(**FIXTURE_OK)  # the count comes from the profile
    @given(case=gemm_cases(), follows_bn=st.booleans(),
           r=st.sampled_from([1.0, 0.37, -2.5, 3.0]))
    def test_float_epilogue_equals_acc_output(self, kernel, case, follows_bn, r):
        xc, wc, m_bits, k_bits, _ = case
        spec = nn.dense(xc.shape[1], len(wc), m_bits, k_bits, follows_bn=follows_bn, r=r)
        xe, we = gemm.encode_codes(xc, m_bits), gemm.encode_codes(wc, k_bits)
        acc = gemm.encoded_gemm(xe, gemm.prepare_weight(we, m_bits))
        assert same_bits(acc, xc @ wc.T)
        weight = gemm.prepare_weight(we, m_bits, scale=nn._output_scale(spec, k_bits))
        got = gemm.encoded_gemm(xe, weight)
        assert got.flags.c_contiguous and same_bits(got, nn._acc_output(acc, spec, k_bits))

    @settings(**FIXTURE_OK)  # the count comes from the profile
    @given(case=gemm_cases(ns=(1, 27, 31, 32, 33, 64)),
           scale=st.sampled_from([1.0, 1 / 9, -0.37, 1e-300]))
    def test_short_rows_every_epilogue(self, kernel, case, scale):
        # n <= 32 runs the 32-bit tile; 33 and 64 the 64-bit one
        xc, wc, m_bits, k_bits, fold = case
        xe, we = gemm.encode_codes(xc, m_bits), gemm.encode_codes(wc, k_bits)
        exact = xc @ wc.T
        full = xc.shape[1] * ((1 << m_bits) - 1) * ((1 << k_bits) - 1)
        assert same_bits(gemm.encoded_gemm(xe, gemm.prepare_weight(we, m_bits)), exact)
        assert same_bits(gemm.encoded_gemm(xe, gemm.prepare_weight(we, m_bits, scale=scale)),
                         exact.astype(np.float64) * scale)
        check_folded_gemm(xe, we, m_bits, fold, fold.codes((full - exact) >> 1))

    @pytest.mark.parametrize("which", ["native", "numpy"])
    def test_grid_must_have_every_row(self, which):
        # in a child: a grid of too few rows once overran the output buffer
        # and aborted the process
        if which == "native":
            require_native()
        out = subprocess.run([sys.executable, "-c", GRID_RUN, which], capture_output=True,
                             text=True, env={**XDG_ONLY, "PYTHONPATH": SRC}, timeout=120)
        assert out.returncode == 0, out.stderr[-3000:]
        assert out.stdout == "ok\n"

    def test_pixel_lane_must_hold_the_outputs(self):
        we = gemm.encode_codes(np.ones((20, 5), dtype=np.int64), 1)
        fold = gemm.CodeThresholds(2, np.zeros((3, 20), np.int64), np.zeros(20, np.uint8))
        for pixels in [(16, 1), (48, 1), (0, 0), (-64, 0), (96, 1), (32, -1)]:
            with pytest.raises(core.ShapeError, match="do not fit packed pixels"):
                gemm.prepare_weight(we, 1, fold, pixels=pixels)
        for lane in (32, 64, 128):
            assert gemm.prepare_weight(we, 1, fold, pixels=(lane, 1)).pixels == (lane, 1)

    def test_one_epilogue_per_weight(self, kernel):
        we = gemm.encode_codes(np.ones((4, 5), dtype=np.int64), 1)
        fold = gemm.CodeThresholds(2, np.zeros((3, 4), dtype=np.int64),
                                   np.zeros(4, dtype=np.uint8))
        with pytest.raises(core.ConfigError, match="not both"):
            gemm.prepare_weight(we, 1, fold, scale=0.5)

    def test_thresholds_write_packed_pixels(self):
        # a fold writes the next layer's packed image, which needs its layout and a grid
        xe = gemm.encode_codes(np.ones((2, 5), dtype=np.int64), 1)
        we = gemm.encode_codes(np.ones((4, 5), dtype=np.int64), 1)
        fold = gemm.CodeThresholds(2, np.zeros((3, 4), dtype=np.int64),
                                   np.zeros(4, dtype=np.uint8))
        with pytest.raises(core.ConfigError, match="go together"):
            gemm.prepare_weight(we, 1, fold)
        with pytest.raises(core.ConfigError, match="go together"):
            gemm.prepare_weight(we, 1, pixels=(16, 0))
        with pytest.raises(core.ConfigError, match="go together"):
            gemm.prepare_weight(we, 1, scale=0.5, pixels=(16, 0))
        weight = gemm.prepare_weight(we, 1, fold, pixels=(16, 0))
        with pytest.raises(core.ShapeError, match="needs a grid"):
            gemm.encoded_gemm(xe, weight)
        assert isinstance(gemm.encoded_gemm(xe, weight, (2, 1, 1)), gemm.PixelImage)


class TestDecodeCodes:
    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 6), cols=st.integers(1, 200), bits=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_row_loop(self, rows, cols, bits, seed):
        codes = random_odd_codes(np.random.default_rng(seed), (rows, cols), bits)
        enc = gemm.encode_codes(codes, bits)
        np.testing.assert_array_equal(gemm.decode_codes(enc), decode_codes_loop(enc))
        np.testing.assert_array_equal(gemm.decode_codes(enc), codes)


class TestDecomposedStage:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dense_non_finite_names_layer(self, kernel, bad):
        rng = core.make_rng(0)
        spec = nn.dense(4, 3, m_bits=2, k_bits=2)
        we = gemm.encode_codes(quant.quantize_odd(rng.uniform(-1, 1, (3, 4)), 2).codes, 2)
        x = rng.uniform(-1, 1, (5, 4))
        x[2, 1] = bad
        with pytest.raises(core.DomainError, match="dense 4->3 layer"):
            nn.model_forward(nn.ModelState("decomposed", [spec], [we]), x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_conv2d_non_finite_names_layer(self, kernel, bad):
        rng = core.make_rng(1)
        spec = nn.conv2d(2, 3, 3, 3, padding=1, m_bits=2, k_bits=2)
        wq = quant.quantize_odd(rng.uniform(-1, 1, (3, 2, 3, 3)), 2)
        we = gemm.encode_codes(wq.codes.reshape(3, -1), 2)
        x = rng.uniform(-1, 1, (1, 2, 5, 5))
        x[0, 1, 4, 4] = bad
        with pytest.raises(core.DomainError, match="conv2d 2->3 3x3 layer"):
            nn.model_forward(nn.ModelState("decomposed", [spec], [we]), x)

    def test_stages_agree(self, kernel):
        rng = core.make_rng(2)
        specs = [nn.conv2d(3, 4, 3, 3, padding=1, m_bits=2, k_bits=2), nn.batchnorm(4),
                 nn.act_layer("htanh"),
                 nn.conv2d(4, 5, 3, 3, stride=2, m_bits=3, k_bits=1, follows_bn=True)]
        weights = [rng.uniform(-1, 1, (4, 3, 3, 3)),
                   {"gamma": np.ones(4), "beta": np.zeros(4), "mean": np.zeros(4),
                    "var": np.ones(4)}, None, rng.uniform(-1, 1, (5, 4, 3, 3))]
        quantized = nn.quantize_model(nn.ModelState("float", specs, weights))
        decomposed = nn.decompose_model(quantized)
        x = rng.uniform(-1.5, 1.5, (2, 3, 7, 7))
        np.testing.assert_array_equal(nn.model_forward(decomposed, x, threads=2),
                                      nn.model_forward(quantized, x))

    @pytest.mark.parametrize("conv", [False, True])
    def test_empty_batch_every_stage(self, kernel, conv):
        rng = core.make_rng(8)
        if conv:
            specs = [nn.conv2d(3, 4, 3, 3, padding=1, m_bits=2, k_bits=2), nn.act_layer("htanh"),
                     nn.conv2d(4, 5, 3, 3, stride=2, m_bits=2, k_bits=2)]
            weights = [rng.uniform(-1, 1, s.weight_shape()) if s.weight_shape() else None
                       for s in specs]
            model, x, expect = nn.ModelState("float", specs, weights), np.zeros((0, 3, 7, 7)), \
                (0, 5, 3, 3)
        else:
            model = nn.init_mlp([6, 5, 4, 3], rng, m_bits=2, k_bits=2, quantize_input=True)
            x, expect = np.zeros((0, 6)), (0, 3)
        quantized = nn.quantize_model(model)
        for m in (model, quantized, nn.decompose_model(quantized)):
            assert nn.model_forward(m, x).shape == expect, m.stage

    @settings(max_examples=200, **FIXTURE_OK)
    @given(case=random_models())
    def test_random_architectures_agree(self, kernel, case):
        model, x = case
        quantized = nn.quantize_model(model)
        decomposed = nn.decompose_model(quantized)
        with np.errstate(over="ignore"):  # sigmoid of a large raw accumulator
            np.testing.assert_array_equal(nn.model_forward(decomposed, x),
                                          nn.model_forward(quantized, x))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_finite_input_through_plan(self, kernel, threads):
        # 3x3 windows at stride 3 over 7x7 leave row and column 6 unread
        rng = core.make_rng(7)
        specs = [nn.conv2d(2, 3, 3, 3, stride=3, m_bits=2, k_bits=2), nn.act_layer("htanh"),
                 nn.conv2d(3, 2, 2, 2, m_bits=2, k_bits=2)]
        weights = [rng.uniform(-1, 1, (3, 2, 3, 3)), None, rng.uniform(-1, 1, (2, 3, 2, 2))]
        quantized = nn.quantize_model(nn.ModelState("float", specs, weights))
        decomposed = nn.decompose_model(quantized)
        x = rng.uniform(-1, 1, (4, 2, 7, 7))
        x[1, 0, 6, 2] = x[3, 1, 4, 6] = np.nan
        np.testing.assert_array_equal(nn.model_forward(decomposed, x, threads=threads),
                                      nn.model_forward(quantized, x))
        x[0, 1, 2, 2] = x[3, 0, 0, 0] = np.inf  # inside windows, in two images
        with pytest.raises(core.DomainError) as expect:
            nn.model_forward(quantized, x)
        assert "2 non-finite values" in str(expect.value)
        with pytest.raises(core.DomainError, match=str(expect.value)):
            nn.model_forward(decomposed, x, threads=threads)

    @pytest.mark.parametrize("bad", ["cut", "int64", "fortran"])
    @pytest.mark.parametrize("layer", ["dense", "conv", "full_precision"])
    def test_malformed_words_rejected(self, kernel, layer, bad):
        # the first layer reduces over 72 columns, two words per plane, and
        # would fold into the second; decoding a conv or full-precision
        # weight's words checks them as the GEMM does
        rng = core.make_rng(12)
        if layer == "conv":
            specs = [nn.conv2d(8, 3, 3, 3, m_bits=2, k_bits=2), nn.act_layer("htanh"),
                     nn.conv2d(3, 2, 1, 1, m_bits=2, k_bits=2)]
            x = rng.uniform(-1, 1, (2, 8, 4, 4))
        else:
            m_bits = None if layer == "full_precision" else 2
            specs = [nn.dense(72, 3, m_bits=m_bits, k_bits=2), nn.act_layer("htanh"),
                     nn.dense(3, 2, m_bits=2, k_bits=2)]
            x = rng.uniform(-1, 1, (2, 72))
        weights = [rng.uniform(-1, 1, s.weight_shape()) if s.weight_shape() else None
                   for s in specs]
        decomposed = nn.decompose_model(nn.quantize_model(nn.ModelState("float", specs, weights)))
        w = decomposed.weights[0]
        words = {"cut": w.words[:, :, :1].copy(), "int64": w.words.astype(np.int64),
                 "fortran": np.asfortranarray(w.words)}[bad]
        decomposed.weights[0] = dataclasses.replace(w, words=words)
        with pytest.raises(core.ShapeError, match="uint64 words of shape"):
            nn.model_forward(decomposed, x)

    def test_conv_feeds_dense_every_stage(self, kernel):
        # golden_models(): conv -> batchnorm -> htanh -> dense(100) -> batchnorm ->
        # a dense layer without K. The dense layer flattens the conv output, so
        # neither bit layer folds and both end in the float epilogue.
        models = golden_models()
        x = core.make_rng(24).uniform(-1.5, 1.5, (5, 3, 5, 5))
        out = {stage: nn.model_forward(m, x) for stage, m in models.items()}
        assert all(o.shape == (5, 3) and np.all(np.isfinite(o)) for o in out.values())
        assert same_bits(out["decomposed"], out["quantized"])
        weights = [step.keywords["weight"] for step in models["decomposed"]._plan.steps
                   if "weight" in step.keywords]
        assert [(w.fold, w.scale) for w in weights] == [(None, 1 / 21), (None, 1.0)]

    def test_plan_built_by_first_forward_only(self, tmp_path):
        rng = core.make_rng(5)
        model = nn.init_mlp([12, 8, 3], rng, m_bits=2, k_bits=2, quantize_input=True)
        decomposed = nn.decompose_model(nn.quantize_model(model))
        assert decomposed._plan is None
        path = str(tmp_path / "d.bbm")
        nn.save_model(decomposed, path)
        loaded = nn.load_model(path)
        assert decomposed._plan is None and loaded._plan is None
        x = rng.uniform(-1, 1, (4, 12))
        nn.model_forward(loaded, x)
        plan = loaded._plan
        assert plan is not None
        nn.model_forward(loaded, x, threads=2)
        assert loaded._plan is plan
        loaded.weights[0] = decomposed.weights[0]  # a new weight object: a new plan
        nn.model_forward(loaded, x)
        assert loaded._plan is not plan

    def test_which_layers_fold(self, kernel):
        rng = core.make_rng(6)
        bn = {"gamma": -np.ones(4), "beta": np.zeros(4), "mean": np.zeros(4), "var": np.ones(4)}
        specs = [nn.dense(5, 4, m_bits=2, k_bits=2), nn.batchnorm(4), nn.act_layer("htanh"),
                 nn.dense(4, 4, m_bits=3, k_bits=2), nn.act_layer("tanh"),
                 nn.dense(4, 4, m_bits=2, k_bits=1), nn.act_layer("hrelu"),
                 nn.dense(4, 4, k_bits=2),  # full-precision inputs
                 nn.dense(4, 4, m_bits=2, k_bits=2), nn.act_layer("htanh"),
                 nn.dense(4, 2, m_bits=2, k_bits=2)]
        weights = [rng.uniform(-1, 1, s.weight_shape()) if s.weight_shape() else None
                   for s in specs]
        weights[1] = bn
        quantized = nn.quantize_model(nn.ModelState("float", specs, weights))
        decomposed = nn.decompose_model(quantized)
        x = rng.uniform(-1, 1, (6, 5))
        np.testing.assert_array_equal(nn.model_forward(decomposed, x),
                                      nn.model_forward(quantized, x))
        weights = [step.keywords["weight"] for step in decomposed._plan.steps
                   if "weight" in step.keywords]
        assert [weight.fold is not None for weight in weights] == [True, False, False, True,
                                                                   False]

    def test_loaded_planes_have_zero_pad_bits(self, tmp_path):
        rng = core.make_rng(3)
        model = nn.init_mlp([70, 5, 2], rng, m_bits=2, k_bits=3)
        path = str(tmp_path / "d.bbm")
        nn.save_model(nn.decompose_model(nn.quantize_model(model)), path)
        encoded = [w for w in nn.load_model(path).weights if isinstance(w, gemm.EncodedMatrix)]
        assert encoded and all(not np.any(pad_bits(w)) for w in encoded)


class TestLibrary:
    def test_fallback_same_outputs_one_warning(self, monkeypatch, fresh_library):
        if _native.library() is None:
            pytest.skip("no C compiler: nothing to fall back from")
        rng = core.make_rng(4)
        decomposed = nn.decompose_model(nn.quantize_model(
            nn.init_mlp([30, 20, 4], rng, m_bits=2, k_bits=2, quantize_input=True)))
        x = rng.uniform(-1, 1, (9, 30))
        native = nn.model_forward(decomposed, x, threads=2)

        def no_compiler():
            raise OSError("cc: not found")

        monkeypatch.setattr(_native, "_build", no_compiler)
        _native._load.cache_clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outputs = [nn.model_forward(decomposed, x, threads=t) for t in (1, 2, 1)]
        assert _native.library() is None
        for out in outputs:
            np.testing.assert_array_equal(out, native)
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1 and "numpy kernel" in str(runtime[0].message)

    def test_built_once_into_private_cache(self, monkeypatch, tmp_path, fresh_library):
        if _native.library() is None:
            pytest.skip("no C compiler: the native kernels are not built")
        _native._load.cache_clear()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        builds = []
        real_build = _native._build

        def counting_build():
            builds.append(1)
            return real_build()

        monkeypatch.setattr(_native, "_build", counting_build)
        assert _native.library() is not None
        assert _native.library() is not None
        assert len(builds) == 1
        cache = tmp_path / "bitbranch"
        assert cache.stat().st_mode & 0o777 == 0o700
        assert [p.suffix for p in cache.iterdir()] == [".so"]


@pytest.fixture(params=["-mno-avx512bw", "-mno-avx512vpopcntdq", "-mno-avx512bitalg",
                        "-mno-avx512vbmi"],
                ids=["no_avx512bw", "no_avx512vpopcntdq", "no_avx512bitalg", "no_avx512vbmi"])
def portable_pack(request, monkeypatch, tmp_path_factory, fresh_library):
    """The library built without AVX-512BW, VPOPCNTDQ, BITALG or VBMI. Without
    any of the first three bb_conv, which runs every product, takes its
    portable tiles; without BW bb_gather copies each window into a row
    buffer for the portable pack_word, and without VBMI bb_quantize runs its
    scalar NCHW loop. Each build is made once per session, in its own
    cache."""
    if _native.library() is None:
        pytest.skip("no C compiler: the native kernels are not built")
    cache = tmp_path_factory.getbasetemp() / f"portable{request.param}"
    monkeypatch.setattr(_native, "FLAGS", _native.FLAGS + (request.param,))
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    _native._load.cache_clear()
    assert _native.library() is not None
    assert len(list((cache / "bitbranch").glob("*.so"))) == 1


X86_ONLY = pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                              reason="the -mno-avx512* flags are x86 flags")


@X86_ONLY
@settings(max_examples=100, **FIXTURE_OK)
@given(case=conv_inputs())
def test_portable_pack_word_matches_numpy(portable_pack, case):
    x, kh, kw, stride, padding, bits = case
    b = gemm.quantize_bytes(x.transpose(0, 2, 3, 1), bits)[0]
    got = gemm.gather_codes(b, bits, kh, kw, stride, padding)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "library", lambda: None)
        expect = gemm.gather_codes(b, bits, kh, kw, stride, padding)
    np.testing.assert_array_equal(got.words, expect.words)


@X86_ONLY
@settings(max_examples=60, **FIXTURE_OK)
@given(case=gemm_cases())
def test_portable_gemm_matches_numpy(portable_pack, case):
    xc, wc, m_bits, k_bits, fold = case
    xe, we = gemm.encode_codes(xc, m_bits), gemm.encode_codes(wc, k_bits)
    full = xc.shape[1] * ((1 << m_bits) - 1) * ((1 << k_bits) - 1)
    plain = gemm.prepare_weight(we, m_bits)
    rows = xc @ wc.T
    np.testing.assert_array_equal(gemm.encoded_gemm(xe, plain), rows)
    check_folded_gemm(xe, we, m_bits, fold, fold.codes((full - rows) >> 1))
    assert same_bits(gemm.encoded_gemm(xe, gemm.prepare_weight(we, m_bits, scale=-0.37)),
                     rows.astype(np.float64) * -0.37)


@X86_ONLY
@settings(max_examples=60, **FIXTURE_OK)
@given(bits=st.integers(1, 8), shape=st.tuples(st.integers(1, 3), st.integers(1, 12),
                                               st.integers(1, 9), st.integers(1, 9)),
       data=st.data())
def test_portable_quantize_matches_numpy(portable_pack, bits, shape, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1.5, 1.5, shape)
    x[rng.random(shape) < 0.05] = np.nan
    view = x.transpose(0, 2, 3, 1)
    got, bad = gemm.quantize_bytes(view, bits)
    expect, expect_bad = on_numpy(gemm.quantize_bytes, view, bits)
    assert bad == expect_bad
    np.testing.assert_array_equal(got, expect)


# Run in a child built with -fsanitize=address,undefined: each kernel on
# padding 0..3, stride 1..3, up to 70 channels, bits 1, 2 and 8, and row
# GEMMs through bb_conv in partial tiles, at N on both sides of the 32- and
# 64-bit lanes, with every epilogue: the packed-pixel one as a dense fold
# writes it, unpadded 1 x 1 pixels, up to 512 outputs (16 uint32 a plane, as
# in a 512 -> 512 layer), and padded on a grid of two 3 x 3 images, against
# the numpy kernels; the quantizer on NCHW and
# contiguous input, also on the values that index the ends of its table
# (+-1.0 reads entry B, the last) at bits 1..8, and on NCHW input of 1..8
# channels (the vpermb path with AVX-512 VBMI) and planes that are not whole
# groups of 8 pixels; bb_conv in lanes of 16, 32, 64 and 128 bits with every
# epilogue, and the packed-pixel epilogue of a row GEMM, against the gather
# path on numpy. On a host with AVX-512BW the gather is the masked-load one.
# Checks raise SystemExit, not AssertionError, so that they hold under
# python -O too.
SANITIZED_RUN = """
import numpy as np
from bitbranch import _native, gemm

_native.FLAGS += ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")
native = _native.library()
if native is None:
    raise SystemExit("the sanitized library did not build")


def both(fn, *args):
    got = fn(*args)
    _native.library = lambda: None
    try:
        return got, fn(*args)
    finally:
        _native.library = lambda: native


def check(ok, *case):
    if not ok:
        raise SystemExit(f"native and numpy kernels differ on {case}")


tiny = np.finfo(np.float64).tiny
ends = np.array([1.0, -1.0, np.inf, -np.inf, 1e300, -1e300, 5e-324, -5e-324, tiny / 2, -tiny / 2,
                 np.nan])
for bits in range(1, 9):
    (b, bad), (b_np, bad_np) = both(gemm.quantize_bytes, ends, bits)
    check(bad == bad_np == 3 and np.array_equal(b, b_np), "quantize", ends, bits)
rng = np.random.default_rng(0)
for padding in range(4):
    for stride in range(1, 4):
        for bits in (1, 2, 8):
            c, kh, kw = (int(v) for v in rng.integers(1, [71, 5, 5]))
            h = int(rng.integers(max(1, kh - 2 * padding), 8))
            w = int(rng.integers(max(1, kw - 2 * padding), 8))
            x = rng.uniform(-1.5, 1.5, (2, c, h, w))
            x[0, 0, 0, 0] = np.nan
            for view in (x.transpose(0, 2, 3, 1), np.ascontiguousarray(x.transpose(0, 2, 3, 1))):
                (b, bad), (b_np, bad_np) = both(gemm.quantize_bytes, view, bits)
                check(bad == bad_np == 1 and np.array_equal(b, b_np), "quantize", x.shape, bits)
            got, expect = both(gemm.gather_codes, b, bits, kh, kw, stride, padding)
            check(np.array_equal(got.words, expect.words), "gather", b.shape, bits, kh, kw,
                  stride, padding)
for p, q, n in [(1, 1, 1), (7, 15, 27), (18, 17, 31), (9, 33, 32), (18, 33, 33), (8, 16, 64),
                (18, 17, 65), (17, 33, 130), (8, 16, 784), (18, 65, 130), (9, 512, 512)]:
    for m_bits, k_bits in [(1, 1), (2, 2), (8, 3), (3, 8)]:
        xe = gemm.encode_codes(2 * rng.integers(0, 1 << m_bits, (p, n)) - (1 << m_bits) + 1,
                               m_bits)
        we = gemm.encode_codes(2 * rng.integers(0, 1 << k_bits, (q, n)) - (1 << k_bits) + 1,
                               k_bits)
        full = n * ((1 << m_bits) - 1) * ((1 << k_bits) - 1)
        s_max = np.sort(rng.integers(-1, full + 1, (255, q)), axis=0)
        fold = gemm.CodeThresholds(8, s_max, rng.choice([0, 255], q).astype(np.uint8))
        lane = 16 if q <= 16 else 32 if q <= 32 else 64 * -(-q // 64)
        for weight, grid in [(gemm.prepare_weight(we, m_bits), None),
                             (gemm.prepare_weight(we, m_bits, fold, pixels=(lane, 0)), (p, 1, 1)),
                             (gemm.prepare_weight(we, m_bits, scale=0.37), None),
                             (gemm.prepare_weight(we, m_bits, fold, pixels=(lane, 1)),
                              (2, 3, 3) if p == 18 else (p, 1, 1))]:
            got, expect = both(gemm.encoded_gemm, xe, weight, grid)
            if weight.fold is not None:
                got, expect = got.pixels, expect.pixels
            check(got.dtype == expect.dtype and np.array_equal(got, expect), "gemm", p, q, n,
                  m_bits, k_bits, weight.fold is not None, weight.scale, grid)
for c in range(1, 9):
    x = rng.uniform(-1.5, 1.5, (2, c, 3, 5))
    x[1, c - 1, 2, 4] = np.inf
    (b, bad), (b_np, bad_np) = both(gemm.quantize_bytes, x.transpose(0, 2, 3, 1), 2)
    check(bad == bad_np == 1 and np.array_equal(b, b_np), "nchw quantize", c)
for c, q, kh, kw, stride, padding, m_bits, k_bits in [
        (3, 16, 3, 3, 1, 1, 2, 2), (16, 32, 3, 3, 2, 1, 2, 2), (32, 33, 3, 3, 1, 1, 2, 8),
        (33, 17, 2, 3, 1, 0, 8, 1), (70, 70, 1, 4, 3, 2, 1, 2), (1, 1, 4, 1, 1, 2, 8, 8)]:
    b = rng.integers(0, 1 << m_bits, (2, 7, 6, c)).astype(np.uint8)
    codes = 2 * rng.integers(0, 1 << k_bits, (q, c, kh, kw)) - (1 << k_bits) + 1
    w = gemm.encode_codes(codes.reshape(q, -1), k_bits)
    w_ijc = gemm.encode_codes(codes.transpose(0, 2, 3, 1).reshape(q, -1), k_bits)
    full = c * kh * kw * ((1 << m_bits) - 1) * ((1 << k_bits) - 1)
    fold = gemm.CodeThresholds(3, np.sort(rng.integers(-1, full + 1, (7, q)), axis=0),
                               rng.choice([0, 7], q).astype(np.uint8))
    grid = (2, *gemm.patch_grid((2, c, 7, 6), kh, kw, stride, padding))
    patches = gemm.gather_codes(b, m_bits, kh, kw, stride, padding)
    for epilogue in [(None, None, None), (None, 0.37, None),
                     (fold, None, (gemm.conv_lane(q, 1, 1, 3, 2), 0)),
                     (fold, None, (gemm.conv_lane(q, 3, 3, 3, 2), 1)), (fold, None, (128, 2))]:
        direct = gemm.prepare_weight(w, m_bits, *epilogue[:2], (c, kh, kw, stride), epilogue[2])
        got = gemm.direct_conv(gemm.pack_pixels(b, m_bits, direct.lane, padding), direct)
        got_gemm = gemm.encoded_gemm(patches, gemm.prepare_weight(w_ijc, m_bits, *epilogue[:2],
                                                                  pixels=epilogue[2]), grid)
        _native.library = lambda: None
        expect = gemm.encoded_gemm(patches, gemm.prepare_weight(w_ijc, m_bits, *epilogue[:2],
                                                                pixels=epilogue[2]), grid)
        _native.library = lambda: native
        if epilogue[2] is not None:
            got, got_gemm, expect = got.pixels, got_gemm.pixels, expect.pixels
        check(np.array_equal(got, expect) and np.array_equal(got_gemm, expect), "conv", c, q,
              kh, kw, stride, padding, m_bits, k_bits, epilogue[2])
print("ok")
"""


def libasan() -> str | None:
    """The compiler's ASan runtime, or None without cc or without the library."""
    try:
        path = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    # without the library, cc prints the bare name back
    return path if os.path.isabs(path) and os.path.exists(path) else None


def test_kernels_are_clean_under_sanitizers(tmp_path):
    runtime = libasan()
    if runtime is None:
        pytest.skip("no cc, or cc has no libasan.so")
    # ASan must be the first runtime in the process, before the Python binary's libraries
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": SRC, "LD_PRELOAD": runtime,
           "ASAN_OPTIONS": "detect_leaks=0", "XDG_CACHE_HOME": str(tmp_path)}
    out = subprocess.run([sys.executable, "-c", SANITIZED_RUN], capture_output=True, text=True,
                         env=env, timeout=300)
    assert out.returncode == 0, out.stderr[-3000:]
    assert out.stdout == "ok\n"
