/* Packed {-1,+1} kernels behind bitbranch.gemm, loaded through ctypes.
 *
 * An encoded matrix is uint64 words[rows][bits][n_words], LSB-first, bit 1
 * meaning digit +1, with every pad bit past the last column zero. Python
 * checks shapes, dtypes and contiguity before calling in.
 *
 * Activations travel between the kernels as code bytes
 * b = (code + 2^M - 1) / 2, whose bit m is digit plane m: bb_quantize writes
 * them channels-last from floats, bb_gemm from popcount sums, and bb_gather
 * packs them into the rows of the next GEMM.
 *
 * bb_quantize reads the threshold table of quant._odd_table, the one that
 * quant.quantize_odd reads, so the quantizer's formula lives only in
 * quant._odd_reference. No build flag can move a code: the compare is
 * exact, and half is a power of two, so xc * half rounds nothing and a
 * fused multiply-add rounds xc * half + half as the two operations do.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__AVX512BW__)
#include <immintrin.h>
#elif defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the byte-gather in the portable pack_word assumes a little-endian host"
#endif

/* Outputs of one register tile: TILE_Q uint64 popcount sums are two 512-bit
 * vectors. Each of a tile's TILE_P rows reuses the weight words loaded for
 * it. gemm_tile has two builds, picked at compile time like bb_gather:
 * AVX-512 intrinsics where the CPU has VPOPCNTDQ, BW, VL and DQ, else
 * portable C, the only one that runs on other hosts (x86-64-v2 and -v4
 * included).
 *
 * Three epilogues turn a row's sums s into its outputs: with th, code bytes
 * (see the portable tile_out); else with real, the float (full - 2 s) *
 * scale, one int64 -> double conversion and one IEEE multiply, as
 * gemm.scale_output does them; else the int64 accumulator full - 2 s. */
#define TILE_Q 16

#if defined(__AVX512VPOPCNTDQ__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512DQ__)
/* 8 rows: the 16 per-pair sums fill half of the 32 zmm registers. Against
 * 4 rows it was faster on most shapes of BENCH_12.json (up to 1.13x in its
 * longest run) and never more than 4% slower. */
#define TILE_P 8

/* One row's accumulators full - 2 s, outputs q0 + 0..7 in a0 and q0 + 8..15
 * in a1, stored at [at] under keep: to real as doubles times scale, else to
 * acc as int64. */
static inline __attribute__((always_inline)) void
store_acc(__m512i a0, __m512i a1, __mmask16 keep, int64_t at, double scale,
          int64_t *restrict acc, double *restrict real)
{
    if (real != NULL) {
        const __m512d sc = _mm512_set1_pd(scale);
        _mm512_mask_storeu_pd(real + at, (__mmask8)keep, _mm512_mul_pd(_mm512_cvtepi64_pd(a0), sc));
        _mm512_mask_storeu_pd(real + at + 8, (__mmask8)(keep >> 8),
                              _mm512_mul_pd(_mm512_cvtepi64_pd(a1), sc));
    } else {
        _mm512_mask_storeu_epi64(acc + at, (__mmask8)keep, a0);
        _mm512_mask_storeu_epi64(acc + at + 8, (__mmask8)(keep >> 8), a1);
    }
}

/* The product of rows (TILE_P or 1) rows of x, from row p0 on, with all
 * w_rows outputs of w, as the portable gemm_tile below defines it. Each
 * row's TILE_Q sums live in two zmm registers. Per plane pair (m, k) the
 * plain popcounts are summed over the words and shifted by m + k once, not
 * once per word. Written with intrinsics because GCC 12 vectorizes the
 * portable tile at 256 bits and spills its sums to the stack on every word.
 * The epilogues store whole tiles under a mask of the len outputs that
 * exist, so a partial tile needs no scalar tail. */
static inline __attribute__((always_inline)) void
gemm_tile(int rows, int64_t p0, const uint64_t *restrict x, const uint64_t *restrict wt,
          int64_t w_rows, int64_t q_pad, int x_bits, int w_bits, int64_t n_words,
          int64_t full, const int64_t *restrict th, const uint8_t *restrict flip, int levels,
          double scale, int64_t *restrict acc, double *restrict real, uint8_t *restrict codes)
{
    const int64_t x_stride = x_bits * n_words;
    const uint64_t *xp = x + p0 * x_stride;
    for (int64_t q0 = 0; q0 < w_rows; q0 += TILE_Q) {
        __m512i s[TILE_P][2];
        for (int r = 0; r < rows; r++)
            s[r][0] = s[r][1] = _mm512_setzero_si512();
        for (int m = 0; m < x_bits; m++)
            for (int k = 0; k < w_bits; k++) {
                const uint64_t *xm = xp + m * n_words;
                const uint64_t *wk = wt + k * n_words * q_pad + q0;
                __m512i c[TILE_P][2];
                for (int r = 0; r < rows; r++)
                    c[r][0] = c[r][1] = _mm512_setzero_si512();
                for (int64_t j = 0; j < n_words; j++) {
                    const __m512i w0 = _mm512_loadu_si512(wk + j * q_pad);
                    const __m512i w1 = _mm512_loadu_si512(wk + j * q_pad + 8);
                    for (int r = 0; r < rows; r++) {
                        const __m512i a = _mm512_set1_epi64((long long)xm[r * x_stride + j]);
                        c[r][0] = _mm512_add_epi64(
                            c[r][0], _mm512_popcnt_epi64(_mm512_xor_si512(a, w0)));
                        c[r][1] = _mm512_add_epi64(
                            c[r][1], _mm512_popcnt_epi64(_mm512_xor_si512(a, w1)));
                    }
                }
                const __m128i shift = _mm_cvtsi32_si128(m + k);
                for (int r = 0; r < rows; r++)
                    for (int h = 0; h < 2; h++)
                        s[r][h] = _mm512_add_epi64(s[r][h], _mm512_sll_epi64(c[r][h], shift));
            }
        const int len = w_rows - q0 < TILE_Q ? (int)(w_rows - q0) : TILE_Q;
        const __mmask16 keep = (__mmask16)((1u << len) - 1);
        if (th == NULL) {
            const __m512i f = _mm512_set1_epi64(full);
            for (int r = 0; r < rows; r++) /* s <= full: no overflow */
                store_acc(_mm512_sub_epi64(f, _mm512_add_epi64(s[r][0], s[r][0])),
                          _mm512_sub_epi64(f, _mm512_add_epi64(s[r][1], s[r][1])), keep,
                          (p0 + r) * w_rows + q0, scale, acc, real);
            continue;
        }
        /* byte counters: levels <= 255, so the count never wraps */
        const __m128i minus_one = _mm_set1_epi8(-1);
        __m128i n[TILE_P];
        for (int r = 0; r < rows; r++)
            n[r] = _mm_setzero_si128();
        for (int l = 0; l < levels; l++) {
            const __m512i t0 = _mm512_loadu_si512(th + l * q_pad + q0);
            const __m512i t1 = _mm512_loadu_si512(th + l * q_pad + q0 + 8);
            for (int r = 0; r < rows; r++) {
                const __mmask16 le = (__mmask16)(_mm512_cmple_epi64_mask(s[r][0], t0) |
                                                 (_mm512_cmple_epi64_mask(s[r][1], t1) << 8));
                n[r] = _mm_mask_sub_epi8(n[r], le, n[r], minus_one);
            }
        }
        const __m128i fl = _mm_loadu_si128((const __m128i *)(flip + q0));
        for (int r = 0; r < rows; r++)
            _mm_mask_storeu_epi8(codes + (p0 + r) * w_rows + q0, keep, _mm_xor_si128(n[r], fl));
    }
}

/* The 16 int64 at p as the 32-bit lanes of one zmm: the low halves, or with
 * sat each value clamped to the int32 range. */
static inline __attribute__((always_inline)) __m512i narrow(const int64_t *p, int sat)
{
    const __m512i lo = _mm512_loadu_si512(p), hi = _mm512_loadu_si512(p + 8);
    return _mm512_inserti64x4(
        _mm512_castsi256_si512(sat ? _mm512_cvtsepi64_epi32(lo) : _mm512_cvtepi64_epi32(lo)),
        sat ? _mm512_cvtsepi64_epi32(hi) : _mm512_cvtepi64_epi32(hi), 1);
}

/* gemm_tile for n <= 32, one word per plane with its upper half clear: a
 * row's TILE_Q sums fit the 32-bit lanes of one zmm, since
 * s <= full <= 32 * 255 * 255 < 2^31, and so does every epilogue. The weight
 * words and the thresholds are narrowed once per tile; the thresholds
 * saturate, which keeps s <= th exact for s in [0, full]. */
static inline __attribute__((always_inline)) void
gemm_tile32(int rows, int64_t p0, const uint64_t *restrict x, const uint64_t *restrict wt,
            int64_t w_rows, int64_t q_pad, int x_bits, int w_bits, int64_t full,
            const int64_t *restrict th, const uint8_t *restrict flip, int levels, double scale,
            int64_t *restrict acc, double *restrict real, uint8_t *restrict codes)
{
    const uint64_t *xp = x + p0 * x_bits;
    for (int64_t q0 = 0; q0 < w_rows; q0 += TILE_Q) {
        __m512i w[8]; /* w_bits <= 8 */
        for (int k = 0; k < w_bits; k++)
            w[k] = narrow((const int64_t *)wt + k * q_pad + q0, 0);
        __m512i s[TILE_P];
        for (int r = 0; r < rows; r++)
            s[r] = _mm512_setzero_si512();
        for (int m = 0; m < x_bits; m++) {
            __m512i a[TILE_P];
            for (int r = 0; r < rows; r++)
                a[r] = _mm512_set1_epi32((int)xp[r * x_bits + m]);
            for (int k = 0; k < w_bits; k++) {
                /* vpsllvd is one uop, vpslld by an xmm count two */
                const __m512i shift = _mm512_set1_epi32(m + k);
                for (int r = 0; r < rows; r++)
                    s[r] = _mm512_add_epi32(
                        s[r], _mm512_sllv_epi32(_mm512_popcnt_epi32(_mm512_xor_si512(a[r], w[k])),
                                                shift));
            }
        }
        const int len = w_rows - q0 < TILE_Q ? (int)(w_rows - q0) : TILE_Q;
        const __mmask16 keep = (__mmask16)((1u << len) - 1);
        if (th == NULL) {
            const __m512i f = _mm512_set1_epi32((int)full);
            for (int r = 0; r < rows; r++) {
                const __m512i a = _mm512_sub_epi32(f, _mm512_add_epi32(s[r], s[r]));
                store_acc(_mm512_cvtepi32_epi64(_mm512_castsi512_si256(a)),
                          _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(a, 1)), keep,
                          (p0 + r) * w_rows + q0, scale, acc, real);
            }
            continue;
        }
        const __m128i minus_one = _mm_set1_epi8(-1);
        __m128i n[TILE_P];
        for (int r = 0; r < rows; r++)
            n[r] = _mm_setzero_si128();
        for (int l = 0; l < levels; l++) {
            const __m512i t = narrow(th + l * q_pad + q0, 1);
            for (int r = 0; r < rows; r++)
                n[r] = _mm_mask_sub_epi8(n[r], _mm512_cmple_epi32_mask(s[r], t), n[r], minus_one);
        }
        const __m128i fl = _mm_loadu_si128((const __m128i *)(flip + q0));
        for (int r = 0; r < rows; r++)
            _mm_mask_storeu_epi8(codes + (p0 + r) * w_rows + q0, keep, _mm_xor_si128(n[r], fl));
    }
}
#define SHORT_TILE 1
#else
/* The portable tile: plain C with constant trip counts, which -O3
 * vectorizes over the TILE_Q outputs. It is slower than the tile above
 * where both build: with AVX-512, GCC 12 uses 256-bit vectors, reloads the
 * strides and stores s back to the stack on every word. */
#define TILE_P 4

/* s[r][t] = sum 2^(m+k) popcount(x_m ^ w_k) of row r of x (rows of
 * x_stride words from x on) and output t of wt (columns q_pad apart),
 * shifted into s word by word. */
static inline __attribute__((always_inline)) void
tile_sums(int64_t s[TILE_P][TILE_Q], int rows, const uint64_t *restrict x, int64_t x_stride,
          const uint64_t *restrict wt, int64_t q_pad, int x_bits, int w_bits,
          int64_t n_words)
{
    for (int r = 0; r < rows; r++)
        for (int t = 0; t < TILE_Q; t++)
            s[r][t] = 0;
    for (int m = 0; m < x_bits; m++)
        for (int k = 0; k < w_bits; k++)
            for (int64_t j = 0; j < n_words; j++) {
                const uint64_t *wj = wt + (k * n_words + j) * q_pad;
                uint64_t a[TILE_P];
                for (int r = 0; r < rows; r++)
                    a[r] = x[r * x_stride + m * n_words + j];
                /* t outside r: the vectorizer runs over t, not over j */
                for (int t = 0; t < TILE_Q; t++)
                    for (int r = 0; r < rows; r++)
                        s[r][t] += (int64_t)__builtin_popcountll(a[r] ^ wj[t]) << (m + k);
            }
}

/* One row's tile sums s to its len outputs from column q0 on, at [at + t]:
 * without th, acc = full - 2 s, to real times scale if real is set, else to
 * acc. With th, the code bytes go to codes: the number of levels k with
 * s <= th[k][q], XOR flip[q]. */
static inline __attribute__((always_inline)) void
tile_out(const int64_t *restrict s, int len, int64_t q0, int64_t at, int64_t full,
         const int64_t *restrict th, const uint8_t *restrict flip, int levels, int64_t q_pad,
         double scale, int64_t *restrict acc, double *restrict real, uint8_t *restrict codes)
{
    if (th == NULL) {
        for (int t = 0; t < len; t++) { /* s <= full: no overflow */
            if (real != NULL)
                real[at + t] = (double)(full - s[t] - s[t]) * scale;
            else
                acc[at + t] = full - s[t] - s[t];
        }
        return;
    }
    /* 32-bit counts narrow to bytes in a few vector ops; 64-bit ones do not */
    int32_t n[TILE_Q] = {0};
    for (int k = 0; k < levels; k++)
        for (int t = 0; t < TILE_Q; t++)
            n[t] += s[t] <= th[k * q_pad + q0 + t];
    for (int t = 0; t < len; t++)
        codes[at + t] = (uint8_t)n[t] ^ flip[q0 + t];
}

/* The product of rows (TILE_P or 1) rows of x, from row p0 on, with all
 * w_rows outputs of w. w comes transposed and zero-padded, wt[k][j][q] for
 * q < q_pad, a multiple of TILE_Q, so every tile is whole; the padded
 * outputs are computed and dropped.
 * dot(x_m, w_k) = n - 2 * popcount(x_m ^ w_k): zero pad bits cancel in the
 * XOR, so no NOT and no tail mask. Summing 2^(m+k) * dot over the planes,
 * acc = full - 2 s with full = n (2^M - 1)(2^K - 1) and s the tile sum.
 * The threshold epilogue compares s itself: gemm.bisect_thresholds finds th
 * and flip on s, so they reach the kernel as they are, zero-padded. */
static inline __attribute__((always_inline)) void
gemm_tile(int rows, int64_t p0, const uint64_t *restrict x, const uint64_t *restrict wt,
          int64_t w_rows, int64_t q_pad, int x_bits, int w_bits, int64_t n_words,
          int64_t full, const int64_t *restrict th, const uint8_t *restrict flip, int levels,
          double scale, int64_t *restrict acc, double *restrict real, uint8_t *restrict codes)
{
    const int64_t x_stride = x_bits * n_words;
    for (int64_t q0 = 0; q0 < w_rows; q0 += TILE_Q) {
        int64_t s[TILE_P][TILE_Q];
        tile_sums(s, rows, x + p0 * x_stride, x_stride, wt + q0, q_pad, x_bits, w_bits,
                  n_words);
        for (int r = 0; r < rows; r++) {
            const int64_t at = (p0 + r) * w_rows + q0;
            /* a constant len for whole tiles keeps the stores vectorized */
            if (w_rows - q0 >= TILE_Q)
                tile_out(s[r], TILE_Q, q0, at, full, th, flip, levels, q_pad, scale, acc, real,
                         codes);
            else
                tile_out(s[r], (int)(w_rows - q0), q0, at, full, th, flip, levels, q_pad, scale,
                         acc, real, codes);
        }
    }
}
#endif

void bb_gemm(const uint64_t *x, const uint64_t *wt, int64_t rows, int64_t w_rows,
             int64_t q_pad, int x_bits, int w_bits, int64_t n_words, int64_t n,
             const int64_t *th, const uint8_t *flip, int levels, double scale, int64_t *acc,
             double *real, uint8_t *codes)
{
    const int64_t full = n * ((INT64_C(1) << x_bits) - 1) * ((INT64_C(1) << w_bits) - 1);
    int64_t p = 0;
#ifdef SHORT_TILE
    if (n_words == 1 && n <= 32) {
        for (; p + TILE_P <= rows; p += TILE_P)
            gemm_tile32(TILE_P, p, x, wt, w_rows, q_pad, x_bits, w_bits, full, th, flip, levels,
                        scale, acc, real, codes);
        for (; p < rows; p++)
            gemm_tile32(1, p, x, wt, w_rows, q_pad, x_bits, w_bits, full, th, flip, levels,
                        scale, acc, real, codes);
        return;
    }
#endif
    for (; p + TILE_P <= rows; p += TILE_P)
        gemm_tile(TILE_P, p, x, wt, w_rows, q_pad, x_bits, w_bits, n_words, full, th, flip,
                  levels, scale, acc, real, codes);
    for (; p < rows; p++)
        gemm_tile(1, p, x, wt, w_rows, q_pad, x_bits, w_bits, n_words, full, th, flip, levels,
                  scale, acc, real, codes);
}

/* The code byte of v by quant._odd_table: the byte base[i] below the
 * threshold thr[i] of the clipped value's bucket i, plus 1 at or above it.
 * A non-finite v is encoded as 0.0. */
static inline __attribute__((always_inline)) uint8_t
code_byte(double v, double half, const double *restrict thr, const int64_t *restrict base)
{
    double xc = isfinite(v) ? (v < -1.0 ? -1.0 : (v > 1.0 ? 1.0 : v)) : 0.0;
    int64_t i = (int64_t)(xc * half + half);
    return (uint8_t)(base[i] + (xc >= thr[i]));
}

/* Code bytes of x[batch][channels][plane], written channels-last,
 * b[batch][plane][channels]; a dense input is plane = 1, one contiguous
 * pass. Returns the count of non-finite values. restrict lets GCC
 * vectorize. */
int64_t bb_quantize(const double *restrict x, int64_t batch, int64_t channels, int64_t plane,
                    double half, const double *restrict thr, const int64_t *restrict base,
                    uint8_t *restrict b)
{
    int64_t bad = 0;
    if (plane == 1) {
        for (int64_t t = 0; t < batch * channels; t++) {
            bad += !isfinite(x[t]);
            b[t] = code_byte(x[t], half, thr, base);
        }
        return bad;
    }
    for (int64_t n = 0; n < batch; n++)
        for (int64_t c = 0; c < channels; c++) {
            const double *xc = x + (n * channels + c) * plane;
            uint8_t *bc = b + n * plane * channels + c;
            for (int64_t p = 0; p < plane; p++) {
                bad += !isfinite(xc[p]);
                bc[p * channels] = code_byte(xc[p], half, thr, base);
            }
        }
    return bad;
}

/* The conv patch rows of a channels-last image of code bytes,
 * src[batch][height][width][channels]; a dense input is a 1 x 1 image.
 * gemm.gather_codes pads the image before calling in, so every window lies
 * inside it. Row (b, oh, ow) holds its kh * kw * channels bytes in (i, j, c)
 * order, so each kernel row is one run of kw * channels bytes, and bit i of
 * plane m of the row's word k is bit m of its byte 64 k + i. Pad bits past
 * the last column are zero. Returns 0, or -1 if a buffer cannot be
 * allocated. */
#if defined(__AVX512BW__)
/* A piece is the part of one kernel row that lands in one row word; there
 * are at most n_words + kh of them, in row order, and they are the same for
 * every window. Each is one masked load into its lanes, from its first
 * byte's address minus its first lane, so that lane i reads its own byte;
 * lanes outside the mask read nothing and cannot fault. Each plane is then
 * one vptestmb, so the row is never copied. */
int bb_gather(const uint8_t *src, int64_t batch, int64_t height, int64_t width,
              int64_t channels, int64_t kh, int64_t kw, int64_t stride, int bits,
              uint64_t *words)
{
    const int64_t oh = (height - kh) / stride + 1, ow = (width - kw) / stride + 1;
    const int64_t run = kw * channels, n_words = (kh * run + 63) / 64;
    struct piece {
        int64_t src; /* from the window's first byte, >= 0 as width >= kw */
        __mmask64 lanes;
        int last; /* of its word */
    } *piece = malloc((size_t)(n_words + kh) * sizeof *piece), *end = piece;
    if (piece == NULL)
        return -1;
    for (int64_t u = 0; u < kh; u++)
        for (int64_t t = u * run; t < (u + 1) * run;) {
            const int64_t lane = t % 64, word_end = t - lane + 64;
            const int64_t stop = (u + 1) * run < word_end ? (u + 1) * run : word_end;
            *end++ = (struct piece){u * width * channels + t - u * run - lane,
                                    (~UINT64_C(0) >> (64 - (stop - t))) << lane,
                                    stop % 64 == 0 || stop == kh * run};
            t = stop;
        }
    uint64_t *out = words;
    for (int64_t b = 0; b < batch; b++)
        for (int64_t i = 0; i < oh; i++)
            for (int64_t j = 0; j < ow; j++) {
                const uint8_t *top = src + ((b * height + i * stride) * width + j * stride) *
                                               channels;
                const struct piece *p = piece;
                for (int64_t k = 0; k < n_words; k++) {
                    __m512i v = _mm512_setzero_si512();
                    do /* a word's pieces end at its last: no compare of word indices */
                        v = _mm512_mask_loadu_epi8(v, p->lanes, top + p->src);
                    while (!(p++)->last);
                    for (int m = 0; m < bits; m++)
                        out[m * n_words + k] = _mm512_test_epi8_mask(
                            v, _mm512_set1_epi8((char)(1 << m)));
                }
                out += bits * n_words;
            }
    free(piece);
    return 0;
}
#else
/* Pack 64 bytes into one word of each of the bits planes, out[m * n_words]:
 * bit i of plane m is bit m of byte i. Pad columns must hold the byte 0,
 * which has every bit clear, so the pad bits come out zero. Bit m of 8
 * bytes gathers into 8 adjacent bits: byte i of the masked word lands on
 * bit 56 + i of the product. */
static inline void pack_word(const uint8_t *b, int bits, int64_t n_words, uint64_t *out)
{
    for (int m = 0; m < bits; m++) {
        uint64_t plane = 0;
        for (int g = 0; g < 8; g++) {
            uint64_t v;
            memcpy(&v, b + 8 * g, 8);
            v = ((v >> m) & UINT64_C(0x0101010101010101)) * UINT64_C(0x0102040810204080);
            plane |= (v >> 56) << (8 * g);
        }
        out[m * n_words] = plane;
    }
}

/* Each window's kh runs are copied into a zeroed row buffer, whose words
 * pack_word then splits into planes. */
int bb_gather(const uint8_t *src, int64_t batch, int64_t height, int64_t width,
              int64_t channels, int64_t kh, int64_t kw, int64_t stride, int bits,
              uint64_t *words)
{
    const int64_t oh = (height - kh) / stride + 1, ow = (width - kw) / stride + 1;
    const int64_t run = kw * channels, n_words = (kh * run + 63) / 64;
    /* whole words long; the bytes past the last column stay 0 */
    uint8_t *row = calloc((size_t)n_words + 1, 64);
    if (row == NULL)
        return -1;
    uint64_t *out = words;
    for (int64_t b = 0; b < batch; b++)
        for (int64_t i = 0; i < oh; i++)
            for (int64_t j = 0; j < ow; j++) {
                const uint8_t *top = src + ((b * height + i * stride) * width + j * stride) *
                                               channels;
                for (int64_t u = 0; u < kh; u++)
                    memcpy(row + u * run, top + u * width * channels, (size_t)run);
                for (int64_t k = 0; k < n_words; k++)
                    pack_word(row + 64 * k, bits, n_words, out + k);
                out += bits * n_words;
            }
    free(row);
    return 0;
}
#endif
