/* Packed {-1,+1} kernels behind bitbranch.gemm, loaded through ctypes.
 *
 * An encoded matrix is uint64 words[rows][bits][n_words], LSB-first, bit 1
 * meaning digit +1, with every pad bit past the last column zero. Python
 * checks shapes, dtypes and contiguity before calling in.
 *
 * Activations travel between the kernels as code bytes
 * b = (code + 2^M - 1) / 2, whose bit m is digit plane m: bb_quantize writes
 * them from floats, bb_gemm from popcount sums, and bb_gather packs
 * them into the rows of the next GEMM.
 *
 * Build with -ffp-contract=off and without fast-math: bb_quantize, the one
 * quantizer, must repeat quant.quantize_odd operation for operation, and a
 * fused multiply-add would move values across cell edges.
 * -fno-trapping-math changes no value; it lets the compiler turn the
 * quantizer's branches into vector selects.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__AVX512BW__)
#include <immintrin.h>
#elif defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the byte-gather in pack_word assumes a little-endian host"
#endif

/* Outputs of one register tile: TILE_Q uint64 popcount sums are two 512-bit
 * vectors. Each of a tile's TILE_P rows reuses the weight words loaded for
 * it. gemm_tile has two builds, picked at compile time like pack_word:
 * AVX-512 intrinsics where the CPU has VPOPCNTDQ, BW and VL, else portable
 * C, the only one that runs on other hosts (x86-64-v2 and -v4 included). */
#define TILE_Q 16

#if defined(__AVX512VPOPCNTDQ__) && defined(__AVX512BW__) && defined(__AVX512VL__)
/* 8 rows: the 16 per-pair sums fill half of the 32 zmm registers. Against
 * 4 rows it was faster on most shapes of BENCH_12.json (up to 1.13x in its
 * longest run) and never more than 4% slower. */
#define TILE_P 8

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
          int64_t *restrict acc, uint8_t *restrict codes)
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
            for (int r = 0; r < rows; r++) { /* s <= full: no overflow */
                int64_t *out = acc + (p0 + r) * w_rows + q0;
                _mm512_mask_storeu_epi64(out, (__mmask8)keep,
                                         _mm512_sub_epi64(f, _mm512_add_epi64(s[r][0], s[r][0])));
                _mm512_mask_storeu_epi64(out + 8, (__mmask8)(keep >> 8),
                                         _mm512_sub_epi64(f, _mm512_add_epi64(s[r][1], s[r][1])));
            }
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

/* One row's tile sums s to its len outputs from column q0 on, at
 * acc[at + t] without th: acc = full - 2 s. With th, the code bytes go to
 * codes[at + t]: the number of levels k with s <= th[k][q], XOR flip[q]. */
static inline __attribute__((always_inline)) void
tile_out(const int64_t *restrict s, int len, int64_t q0, int64_t at, int64_t full,
         const int64_t *restrict th, const uint8_t *restrict flip, int levels, int64_t q_pad,
         int64_t *restrict acc, uint8_t *restrict codes)
{
    if (th == NULL) {
        for (int t = 0; t < len; t++) /* s <= full: no overflow */
            acc[at + t] = full - s[t] - s[t];
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
          int64_t *restrict acc, uint8_t *restrict codes)
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
                tile_out(s[r], TILE_Q, q0, at, full, th, flip, levels, q_pad, acc, codes);
            else
                tile_out(s[r], (int)(w_rows - q0), q0, at, full, th, flip, levels, q_pad, acc,
                         codes);
        }
    }
}
#endif

void bb_gemm(const uint64_t *x, const uint64_t *wt, int64_t rows, int64_t w_rows,
             int64_t q_pad, int x_bits, int w_bits, int64_t n_words, int64_t n,
             const int64_t *th, const uint8_t *flip, int levels, int64_t *acc, uint8_t *codes)
{
    const int64_t full = n * ((INT64_C(1) << x_bits) - 1) * ((INT64_C(1) << w_bits) - 1);
    int64_t p = 0;
    for (; p + TILE_P <= rows; p += TILE_P)
        gemm_tile(TILE_P, p, x, wt, w_rows, q_pad, x_bits, w_bits, n_words, full, th, flip,
                  levels, acc, codes);
    for (; p < rows; p++)
        gemm_tile(1, p, x, wt, w_rows, q_pad, x_bits, w_bits, n_words, full, th, flip, levels,
                  acc, codes);
}

/* quant.quantize_odd of n values as code bytes, in one pass that keeps the
 * vector loop long. Non-finite values are encoded as 0.0 and counted; the
 * count is returned. */
int64_t bb_quantize(const double *x, int64_t n, int bits, double edge_snap, uint8_t *b)
{
    const int levels = (1 << bits) - 1;
    int64_t bad = 0;
    for (int64_t t = 0; t < n; t++) {
        int finite = isfinite(x[t]);
        bad += !finite;
        double xc = finite ? (x[t] < -1.0 ? -1.0 : (x[t] > 1.0 ? 1.0 : x[t])) : 0.0;
        double y = fabs(xc) * (double)levels;
        double nearest = trunc(y + 0.5);
        if (fabs(y - nearest) <= edge_snap * (y > 1.0 ? y : 1.0))
            y = nearest;
        double mag = 2.0 * floor(y / 2.0) + 1.0;
        int code = (int)(mag < levels ? mag : levels);
        b[t] = (uint8_t)(((xc > 0.0 ? code : -code) + levels) >> 1);
    }
    return bad;
}

/* Pack 64 bytes into one word of each of the bits planes, out[m * n_words]:
 * bit i of plane m is bit m of byte i. Pad columns must hold the byte 0,
 * which has every bit clear, so the pad bits come out zero. */
#if defined(__AVX512BW__)
static inline void pack_word(const uint8_t *b, int bits, int64_t n_words, uint64_t *out)
{
    const __m512i v = _mm512_loadu_si512(b);
    for (int m = 0; m < bits; m++)
        out[m * n_words] = _mm512_test_epi8_mask(v, _mm512_set1_epi8((char)(1 << m)));
}
#else
/* Bit m of 8 bytes gathers into 8 adjacent bits: byte i of the masked word
 * lands on bit 56 + i of the product. */
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
#endif

/* The conv patch rows of a channels-last image of code bytes,
 * src[batch][height][width][channels]; a dense input is a 1 x 1 image.
 * gemm.gather_codes pads the image before calling in, so every window lies
 * inside it. Row (b, oh, ow) holds its kh * kw * channels bytes in (i, j, c)
 * order, so each kernel row is one run of kw * channels bytes and a window
 * is kh copies from src. Returns 0, or -1 if the row buffer cannot be
 * allocated. */
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
