/* Packed {-1,+1} kernels behind bitbranch.gemm, loaded through ctypes.
 *
 * An encoded matrix is uint64 words[rows][bits][n_words], LSB-first, bit 1
 * meaning digit +1, with every pad bit past the last column zero. Python
 * checks shapes, dtypes and contiguity before calling in.
 *
 * A layer's float input becomes code bytes b = (code + 2^M - 1) / 2, whose
 * bit m is digit plane m: bb_quantize writes them channels-last, and
 * bb_gather packs them into the rows of the layer's product. Between two bit
 * layers that fold, activations travel as packed pixels (gemm.PixelImage):
 * the epilogue writes plane m of each pixel as one lane of channel bits into
 * the next layer's padded image, a dense layer's being 1 x 1 pixels, and
 * bb_conv reads the lanes at each kernel offset; it never writes code bytes.
 * bb_conv is the one product kernel: a row GEMM is its 1 x 1 conv of P
 * pixels of 1 x 1, each plane one lane of 32 or 64 n_words bits.
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

/* Outputs of one register tile: TILE_Q popcount sums are two zmm of int64,
 * or one of int32. Each of a tile's TILE_P rows reuses the weight lanes
 * loaded for it. The tiles have two builds, picked at compile time like
 * bb_gather: AVX-512 intrinsics where the CPU has VPOPCNTDQ, BW, VL, DQ and
 * BITALG (every core with the first four has BITALG: Ice Lake and later,
 * Zen 4), else portable C, the only one on other hosts (x86-64-v4 too). */
#define TILE_Q 16

/* The epilogue of bb_conv. Output row p is one row of a dense product, or
 * output pixel (b, y, x) of a conv, rows in that order.
 * With th, a row's sums s become code bytes, the number of levels with
 * s <= th[level][q], XOR flip[q], written to pixels as the next layer's
 * input: plane m of pixel (b, y + pad, x + pad) of its padded image holds
 * bit m of each output's byte, bit q for output q. Else
 * acc = full - 2 s: to real times scale, one int64 -> double conversion and
 * one IEEE multiply, as gemm.scale_output does them; else to acc as int64. */
struct out {
    const int64_t *th; /* [levels][q_pad] */
    const uint8_t *flip; /* [q_pad] */
    int64_t levels;
    double scale;
    int64_t *acc; /* [rows][w_rows] */
    double *real;
    uint32_t *pixels; /* [batch][oh + 2 pad][ow + 2 pad][planes][units] */
    const uint32_t *ring; /* [planes][units], the pad byte's planes */
    int64_t oh, ow, pad, planes, units, dup; /* dup: a 16-bit lane, stored twice */
};

/* Writes the ring of batch padded images: each pixel within pad of an edge.
 * batch counts the epilogue's images, rows / (oh ow), not the operand's. */
static void fill_ring(const struct out *o, int64_t batch)
{
    const int64_t hp = o->oh + 2 * o->pad, wp = o->ow + 2 * o->pad, n = o->planes * o->units;
    for (int64_t line = 0; line < batch * hp; line++) {
        const int64_t y = line % hp;
        const int edge = y < o->pad || y >= hp - o->pad;
        uint32_t *row = o->pixels + line * wp * n;
        for (int64_t x = 0; x < wp; x += edge || x != o->pad - 1 ? 1 : o->ow + 1)
            for (int64_t k = 0; k < n; k++)
                row[x * n + k] = o->ring[k];
    }
}

/* Row p0 as pixel (b, y, x) of a batch of oh x ow images: two divisions,
 * after which next_pixel steps to the following rows. */
static inline void pixel_of(int64_t p0, int64_t oh, int64_t ow, int64_t *b, int64_t *y, int64_t *x)
{
    const int64_t line = p0 / ow;
    *x = p0 - line * ow;
    *b = line / oh;
    *y = line - *b * oh;
}

static inline void next_pixel(int64_t oh, int64_t ow, int64_t *b, int64_t *y, int64_t *x)
{
    if (++*x == ow) {
        *x = 0;
        if (++*y == oh) {
            *y = 0;
            ++*b;
        }
    }
}

/* The pixels of output rows p0 .. p0 + rows - 1 in the padded image. */
static inline __attribute__((always_inline)) void
pixel_rows(const struct out *o, int rows, int64_t p0, uint32_t **d)
{
    int64_t b, y, x;
    pixel_of(p0, o->oh, o->ow, &b, &y, &x);
    for (int r = 0; r < rows; r++, next_pixel(o->oh, o->ow, &b, &y, &x))
        d[r] = o->pixels + ((b * (o->oh + 2 * o->pad) + y + o->pad) * (o->ow + 2 * o->pad) + x +
                            o->pad) * o->planes * o->units;
}

/* Chunk q0 / 16 of the plane word d: v, bit t for output q0 + t. The first
 * block writes the whole plane, zero past its chunk or in a 16-bit lane
 * v's copy, so no bit past the channels is set; later blocks add chunks. */
static inline __attribute__((always_inline)) void
put_chunk(uint32_t *d, uint32_t v, int64_t q0, const struct out *o)
{
    if (o->units == 1) { /* lanes of 16 and 32 bits */
        *d = q0 == 0 ? (o->dup ? v * 0x10001u : v) : *d | v << 16;
        return;
    }
    if (q0 % 32 == 0)
        d[q0 / 32] = v;
    else
        d[q0 / 32] |= v << 16;
    for (int64_t u = 1; q0 == 0 && u < o->units; u++)
        d[u] = 0;
}

/* A weight as gemm.GemmWeight lays it out once: lanes[w_bits][kh][kw][words]
 * [q_pad] of lane bits each, words = 1 for lanes of 16 and 32 bits, and its
 * conv of channels channels, units uint32 per plane of a pixel. A 16- or
 * 32-bit lane is a plane's first uint32. */
struct weight {
    const void *lanes;
    int64_t lane, units, q_pad, w_rows, kh, kw, stride, channels;
    int x_bits, w_bits;
};

/* bb_conv's operands: a padded image x[batch][height][width][x_bits][units], oh x ow, wt */
struct conv {
    const uint32_t *x;
    int64_t height, width, oh, ow;
    struct weight wt;
};

/* The first word of rows p0 .. p0 + rows - 1's windows: with one offset at
 * stride 1, as in a row GEMM, the rows' own pixels, found with no division. */
static inline __attribute__((always_inline)) void
windows(const struct conv *g, int rows, int64_t p0, const uint32_t **top)
{
    const int64_t px = g->wt.x_bits * g->wt.units;
    if (g->wt.kh == 1 && g->wt.kw == 1 && g->wt.stride == 1) {
        for (int r = 0; r < rows; r++)
            top[r] = g->x + (p0 + r) * px;
        return;
    }
    int64_t b, y, x;
    pixel_of(p0, g->oh, g->ow, &b, &y, &x);
    for (int r = 0; r < rows; r++, next_pixel(g->oh, g->ow, &b, &y, &x))
        top[r] = g->x + ((b * g->height + y * g->wt.stride) * g->width + x * g->wt.stride) * px;
}

#if defined(__AVX512VPOPCNTDQ__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512DQ__) && defined(__AVX512BITALG__)
/* 8 rows: the 16 per-pair sums fill half of the 32 zmm registers. Against
 * 4 rows it was faster on most shapes of BENCH_12.json (up to 1.13x in its
 * longest run) and never more than 4% slower. */
#define TILE_P 8
#define AVX512_TILES 1

/* One row's accumulators full - 2 s, outputs q0 + 0..7 in a0 and q0 + 8..15
 * in a1, stored at [at] under keep: to real as doubles times scale, else to
 * acc as int64. */
static inline __attribute__((always_inline)) void
store_acc(__m512i a0, __m512i a1, __mmask16 keep, int64_t at, const struct out *o)
{
    if (o->real != NULL) {
        const __m512d sc = _mm512_set1_pd(o->scale);
        _mm512_mask_storeu_pd(o->real + at, (__mmask8)keep,
                              _mm512_mul_pd(_mm512_cvtepi64_pd(a0), sc));
        _mm512_mask_storeu_pd(o->real + at + 8, (__mmask8)(keep >> 8),
                              _mm512_mul_pd(_mm512_cvtepi64_pd(a1), sc));
    } else {
        _mm512_mask_storeu_epi64(o->acc + at, (__mmask8)keep, a0);
        _mm512_mask_storeu_epi64(o->acc + at + 8, (__mmask8)(keep >> 8), a1);
    }
}

/* put_chunk of 8 rows' code bytes c, in one vector: in lanes of up to 32
 * bits and at most 2 planes, where the rows' pixels follow each other in a
 * line of the image. Returns 0 for the other tiles. */
static inline __attribute__((always_inline)) int
store_pixels8(const __m128i *c, uint32_t *const *d, int64_t q0, __mmask16 keep,
              const struct out *o)
{
    if (o->units != 1 || o->planes > 2 || d[7] != d[0] + 7 * o->planes)
        return 0;
    const __m512i lo = _mm512_inserti64x4(
        _mm512_castsi256_si512(_mm256_inserti128_si256(_mm256_castsi128_si256(c[0]), c[1], 1)),
        _mm256_inserti128_si256(_mm256_castsi128_si256(c[2]), c[3], 1), 1);
    const __m512i hi = _mm512_inserti64x4(
        _mm512_castsi256_si512(_mm256_inserti128_si256(_mm256_castsi128_si256(c[4]), c[5], 1)),
        _mm256_inserti128_si256(_mm256_castsi128_si256(c[6]), c[7], 1), 1);
    const __mmask64 keep4 = (__mmask64)keep * UINT64_C(0x0001000100010001);
    __m256i w[2] = {_mm256_setzero_si256(), _mm256_setzero_si256()};
    for (int64_t m = 0; m < o->planes; m++) { /* plane m of row r in dword r */
        const __m512i bit = _mm512_set1_epi8((char)(1 << m));
        const long long k_lo = (long long)_mm512_mask_test_epi8_mask(keep4, lo, bit);
        const long long k_hi = (long long)_mm512_mask_test_epi8_mask(keep4, hi, bit);
        w[m] = _mm256_cvtepu16_epi32(_mm_set_epi64x(k_hi, k_lo));
        if (q0 > 0) /* the upper chunk of a 32-bit lane */
            w[m] = _mm256_slli_epi32(w[m], 16);
        else if (o->dup)
            w[m] = _mm256_or_si256(w[m], _mm256_slli_epi32(w[m], 16));
    }
    if (o->planes == 1) {
        __m256i v = w[0];
        if (q0 > 0)
            v = _mm256_or_si256(v, _mm256_loadu_si256((const __m256i *)d[0]));
        _mm256_storeu_si256((__m256i *)d[0], v);
        return 1;
    }
    const __m512i pairs = _mm512_set_epi32(23, 7, 22, 6, 21, 5, 20, 4, 19, 3, 18, 2, 17, 1, 16, 0);
    __m512i v = _mm512_permutex2var_epi32(_mm512_castsi256_si512(w[0]), pairs,
                                          _mm512_castsi256_si512(w[1]));
    if (q0 > 0)
        v = _mm512_or_si512(v, _mm512_loadu_si512(d[0]));
    _mm512_storeu_si512(d[0], v);
    return 1;
}

/* Each row's 16 code bytes n[r], XOR flip, to its pixel. */
static inline __attribute__((always_inline)) void
store_codes(const __m128i *n, int rows, int64_t p0, int64_t q0, __mmask16 keep, const struct out *o)
{
    const __m128i fl = _mm_loadu_si128((const __m128i *)(o->flip + q0));
    uint32_t *d[TILE_P];
    __m128i c[TILE_P];
    pixel_rows(o, rows, p0, d);
    for (int r = 0; r < rows; r++)
        c[r] = _mm_xor_si128(n[r], fl);
    if (rows == TILE_P && store_pixels8(c, d, q0, keep, o))
        return;
    for (int64_t m = 0; m < o->planes; m++) {
        const __m128i bit = _mm_set1_epi8((char)(1 << m));
        for (int r = 0; r < rows; r++)
            put_chunk(d[r] + m * o->units, _mm_mask_test_epi8_mask(keep, c[r], bit), q0, o);
    }
}

/* The epilogue of rows rows of int64 sums, outputs q0 + 0..7 in s[r][0] and
 * q0 + 8..15 in s[r][1]. It compares with _mm512_cmple_epi64_mask, counts
 * levels into a byte vector and writes under a mask of the outputs that
 * exist, so a partial tile needs no scalar tail. */
static inline __attribute__((always_inline)) void
out64(__m512i (*s)[2], int rows, int64_t p0, int64_t q0, int64_t w_rows, int64_t q_pad,
      int64_t full, const struct out *o)
{
    const int len = w_rows - q0 < TILE_Q ? (int)(w_rows - q0) : TILE_Q;
    const __mmask16 keep = (__mmask16)((1u << len) - 1);
    if (o->th == NULL) {
        const __m512i f = _mm512_set1_epi64(full);
        for (int r = 0; r < rows; r++) /* s <= full: no overflow */
            store_acc(_mm512_sub_epi64(f, _mm512_add_epi64(s[r][0], s[r][0])),
                      _mm512_sub_epi64(f, _mm512_add_epi64(s[r][1], s[r][1])), keep,
                      (p0 + r) * w_rows + q0, o);
        return;
    }
    /* byte counters: levels <= 255, so the count never wraps */
    const __m128i minus_one = _mm_set1_epi8(-1);
    __m128i n[TILE_P];
    for (int r = 0; r < rows; r++)
        n[r] = _mm_setzero_si128();
    for (int64_t l = 0; l < o->levels; l++) {
        const __m512i t0 = _mm512_loadu_si512(o->th + l * q_pad + q0);
        const __m512i t1 = _mm512_loadu_si512(o->th + l * q_pad + q0 + 8);
        for (int r = 0; r < rows; r++) {
            const __mmask16 le = (__mmask16)(_mm512_cmple_epi64_mask(s[r][0], t0) |
                                             (_mm512_cmple_epi64_mask(s[r][1], t1) << 8));
            n[r] = _mm_mask_sub_epi8(n[r], le, n[r], minus_one);
        }
    }
    store_codes(n, rows, p0, q0, keep, o);
}

/* out64 for rows of 16 sums in int32 lanes, s <= full < 2^31. The
 * thresholds saturate as they narrow, which keeps s <= th exact for s in
 * [0, full]. */
static inline __attribute__((always_inline)) void
out32(const __m512i *s, int rows, int64_t p0, int64_t q0, int64_t w_rows, int64_t q_pad,
      int64_t full, const struct out *o)
{
    const int len = w_rows - q0 < TILE_Q ? (int)(w_rows - q0) : TILE_Q;
    const __mmask16 keep = (__mmask16)((1u << len) - 1);
    if (o->th == NULL) {
        const __m512i f = _mm512_set1_epi32((int)full);
        for (int r = 0; r < rows; r++) {
            const __m512i a = _mm512_sub_epi32(f, _mm512_add_epi32(s[r], s[r]));
            store_acc(_mm512_cvtepi32_epi64(_mm512_castsi512_si256(a)),
                      _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(a, 1)), keep,
                      (p0 + r) * w_rows + q0, o);
        }
        return;
    }
    const __m128i minus_one = _mm_set1_epi8(-1);
    __m128i n[TILE_P];
    for (int r = 0; r < rows; r++)
        n[r] = _mm_setzero_si128();
    for (int64_t l = 0; l < o->levels; l++) {
        const int64_t *th = o->th + l * q_pad + q0;
        const __m512i t = _mm512_inserti64x4(
            _mm512_castsi256_si512(_mm512_cvtsepi64_epi32(_mm512_loadu_si512(th))),
            _mm512_cvtsepi64_epi32(_mm512_loadu_si512(th + 8)), 1);
        for (int r = 0; r < rows; r++)
            n[r] = _mm_mask_sub_epi8(n[r], _mm512_cmple_epi32_mask(s[r], t), n[r], minus_one);
    }
    store_codes(n, rows, p0, q0, keep, o);
}

/* The conv tiles. For each plane pair (m, k), each row broadcasts its
 * window's plane word at every kernel offset, XORs it with that offset's
 * weight lanes and adds the lane popcounts; the count starts as the first
 * offset's and is shifted by m + k once per pair. one, a compile-time
 * constant, says that the kernel has one offset, as a row GEMM's has.
 * count_short: c[r] (plus c[r] with add) = the popcounts of row r's word at
 * offset at XOR the lanes w, in lanes of 16 bits (lanes16) or 32. */
static inline __attribute__((always_inline)) void
count_short(__m512i *c, int rows, const uint32_t *const *top, int64_t at, __m512i w, int lanes16,
            int add)
{
    for (int r = 0; r < rows; r++) {
        const __m512i d = _mm512_xor_si512(_mm512_set1_epi32((int)top[r][at]), w);
        const __m512i n = lanes16 ? _mm512_popcnt_epi16(d) : _mm512_popcnt_epi32(d);
        c[r] = !add ? n : lanes16 ? _mm512_add_epi16(c[r], n) : _mm512_add_epi32(c[r], n);
    }
}

/* In lanes of 32 bits (lanes16 0) one zmm holds 16 outputs; in lanes of 16
 * bits it holds 32, whose counts (at most kh kw 16 < 2^16) widen to two zmm
 * of 32-bit sums for the shift. */
static inline __attribute__((always_inline)) void
conv_tile_short(int rows, int64_t p0, const struct conv *g, int64_t full, const struct out *o,
                int lanes16, int one)
{
    const uint32_t *top[TILE_P];
    windows(g, rows, p0, top);
    const int64_t kh = one ? 1 : g->wt.kh, kw = one ? 1 : g->wt.kw, q_pad = g->wt.q_pad;
    const int64_t px = g->wt.x_bits * g->wt.units, line = g->width * px, size = lanes16 ? 2 : 4;
    const int64_t block = lanes16 ? 2 * TILE_Q : TILE_Q;
    for (int64_t q0 = 0; q0 < g->wt.w_rows; q0 += block) {
        __m512i lo[TILE_P], hi[TILE_P];
        for (int r = 0; r < rows; r++)
            lo[r] = hi[r] = _mm512_setzero_si512();
        for (int m = 0; m < g->wt.x_bits; m++)
            for (int k = 0; k < g->wt.w_bits; k++) {
                const char *wk = (const char *)g->wt.lanes + (k * kh * kw * q_pad + q0) * size;
                __m512i c[TILE_P];
                count_short(c, rows, top, m * g->wt.units, _mm512_loadu_si512(wk), lanes16, 0);
                for (int64_t i = 0; i < kh; i++)
                    for (int64_t j = i == 0; j < kw; j++)
                        count_short(c, rows, top, i * line + j * px + m * g->wt.units,
                                    _mm512_loadu_si512(wk + (i * kw + j) * q_pad * size),
                                    lanes16, 1);
                const __m512i shift = _mm512_set1_epi32(m + k);
                for (int r = 0; r < rows; r++) {
                    if (!lanes16) {
                        lo[r] = _mm512_add_epi32(lo[r], _mm512_sllv_epi32(c[r], shift));
                        continue;
                    }
                    const __m512i c0 = _mm512_cvtepu16_epi32(_mm512_castsi512_si256(c[r]));
                    const __m512i c1 = _mm512_cvtepu16_epi32(_mm512_extracti64x4_epi64(c[r], 1));
                    lo[r] = _mm512_add_epi32(lo[r], _mm512_sllv_epi32(c0, shift));
                    hi[r] = _mm512_add_epi32(hi[r], _mm512_sllv_epi32(c1, shift));
                }
            }
        out32(lo, rows, p0, q0, g->wt.w_rows, q_pad, full, o);
        if (lanes16 && q0 + TILE_Q < g->wt.w_rows)
            out32(hi, rows, p0, q0 + TILE_Q, g->wt.w_rows, q_pad, full, o);
    }
}

/* count_short in 64-bit words, outputs q0 + 0..7 in c[r][0], q0 + 8..15 in c[r][1] */
static inline __attribute__((always_inline)) void
count64(__m512i (*c)[2], int rows, const uint32_t *const *top, int64_t at, const uint64_t *w,
        int add)
{
    const __m512i w0 = _mm512_loadu_si512(w), w1 = _mm512_loadu_si512(w + 8);
    for (int r = 0; r < rows; r++) {
        uint64_t v;
        memcpy(&v, top[r] + at, 8);
        const __m512i a = _mm512_set1_epi64((long long)v);
        for (int h = 0; h < 2; h++) {
            const __m512i n = _mm512_popcnt_epi64(_mm512_xor_si512(a, h ? w1 : w0));
            c[r][h] = add ? _mm512_add_epi64(c[r][h], n) : n;
        }
    }
}

/* Lanes of whole 64-bit words, 8 outputs per zmm and int64 sums. */
static inline __attribute__((always_inline)) void
conv_tile64(int rows, int64_t p0, const struct conv *g, int64_t full, const struct out *o, int one)
{
    const uint32_t *top[TILE_P];
    windows(g, rows, p0, top);
    const int64_t kh = one ? 1 : g->wt.kh, kw = one ? 1 : g->wt.kw, words = g->wt.lane / 64;
    const int64_t px = g->wt.x_bits * g->wt.units, line = g->width * px, q_pad = g->wt.q_pad;
    for (int64_t q0 = 0; q0 < g->wt.w_rows; q0 += TILE_Q) {
        __m512i s[TILE_P][2];
        for (int r = 0; r < rows; r++)
            s[r][0] = s[r][1] = _mm512_setzero_si512();
        for (int m = 0; m < g->wt.x_bits; m++)
            for (int k = 0; k < g->wt.w_bits; k++) {
                const uint64_t *wk =
                    (const uint64_t *)g->wt.lanes + k * kh * kw * words * q_pad + q0;
                __m512i c[TILE_P][2];
                count64(c, rows, top, m * g->wt.units, wk, 0);
                for (int64_t i = 0; i < kh; i++)
                    for (int64_t j = 0; j < kw; j++)
                        for (int64_t u = i + j == 0; u < words; u++)
                            count64(c, rows, top, i * line + j * px + m * g->wt.units + 2 * u,
                                    wk + ((i * kw + j) * words + u) * q_pad, 1);
                const __m128i shift = _mm_cvtsi32_si128(m + k);
                for (int r = 0; r < rows; r++)
                    for (int h = 0; h < 2; h++)
                        s[r][h] = _mm512_add_epi64(s[r][h], _mm512_sll_epi64(c[r][h], shift));
            }
        out64(s, rows, p0, q0, g->wt.w_rows, q_pad, full, o);
    }
}
#else
/* The portable tiles: plain C with constant trip counts, which -O3
 * vectorizes over the TILE_Q outputs. They are slower than the tiles above
 * where both build: with AVX-512, GCC 12 uses 256-bit vectors, reloads the
 * strides and stores s back to the stack on every word. */
#define TILE_P 4

/* Row r's sums s of its len outputs from q0 on, of a tile from row p0,
 * portable: see struct out. d is the row's pixel for the threshold
 * epilogue. */
static inline __attribute__((always_inline)) void
tile_out(const int64_t *restrict s, int len, int64_t p0, int r, int64_t q0, int64_t w_rows,
         int64_t q_pad, int64_t full, const struct out *o, uint32_t *d)
{
    const int64_t at = (p0 + r) * w_rows + q0;
    if (o->th == NULL) {
        for (int t = 0; t < len; t++) { /* s <= full: no overflow */
            if (o->real != NULL)
                o->real[at + t] = (double)(full - s[t] - s[t]) * o->scale;
            else
                o->acc[at + t] = full - s[t] - s[t];
        }
        return;
    }
    /* 32-bit counts narrow to bytes in a few vector ops; 64-bit ones do not */
    int32_t n[TILE_Q] = {0};
    for (int64_t k = 0; k < o->levels; k++)
        for (int t = 0; t < TILE_Q; t++)
            n[t] += s[t] <= o->th[k * q_pad + q0 + t];
    uint8_t c[TILE_Q] = {0};
    uint64_t v[2];
    for (int t = 0; t < len; t++)
        c[t] = (uint8_t)n[t] ^ o->flip[q0 + t];
    memcpy(v, c, sizeof v);
    for (int64_t m = 0; m < o->planes; m++) { /* bit m of 8 bytes to 8 bits, as pack_word */
        uint32_t bits = 0;
        for (int h = 0; h < 2; h++)
            bits |= (uint32_t)((((v[h] >> m) & UINT64_C(0x0101010101010101)) *
                                UINT64_C(0x0102040810204080)) >> 56) << 8 * h;
        put_chunk(d + m * o->units, bits, q0, o);
    }
}

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

/* The portable product of rows (TILE_P or 1) rows of x, the rows of the
 * tile from row p0, with all w_rows outputs of w. w comes transposed and
 * zero-padded, wt[k][j][q] for q < q_pad, a multiple of TILE_Q, so every
 * tile is whole; the padded outputs are computed and dropped.
 * dot(x_m, w_k) = n - 2 * popcount(x_m ^ w_k): zero pad bits cancel in the
 * XOR, so no NOT and no tail mask. Summing 2^(m+k) * dot over the planes,
 * acc = full - 2 s with full = n (2^M - 1)(2^K - 1) and s the tile sum.
 * The threshold epilogue compares s itself: gemm.bisect_thresholds finds th
 * and flip on s, so they reach the kernel as they are, zero-padded. */
static inline __attribute__((always_inline)) void
portable_tile(int rows, int64_t p0, const uint64_t *restrict x, const uint64_t *restrict wt,
              int64_t w_rows, int64_t q_pad, int x_bits, int w_bits, int64_t n_words,
              int64_t full, const struct out *o)
{
    uint32_t *d[TILE_P] = {NULL};
    if (o->pixels != NULL)
        pixel_rows(o, rows, p0, d);
    for (int64_t q0 = 0; q0 < w_rows; q0 += TILE_Q) {
        int64_t s[TILE_P][TILE_Q];
        tile_sums(s, rows, x, x_bits * n_words, wt + q0, q_pad, x_bits, w_bits, n_words);
        for (int r = 0; r < rows; r++) {
            /* a constant len for whole tiles keeps the stores vectorized */
            if (w_rows - q0 >= TILE_Q)
                tile_out(s[r], TILE_Q, p0, r, q0, w_rows, q_pad, full, o, d[r]);
            else
                tile_out(s[r], (int)(w_rows - q0), p0, r, q0, w_rows, q_pad, full, o, d[r]);
        }
    }
}

/* The portable conv. A window's lanes end to end hold the bits of its
 * patch row in (i, j, c) order, each offset's channels padded to the lane,
 * and bb_conv lays the weight lanes out alike once per call, wt[k][word][q];
 * so a tile concatenates its rows' lanes into the row words x (unless, as
 * in a row GEMM, they are the row words) and runs portable_tile on them. */
static inline __attribute__((always_inline)) void
conv_tile(int rows, int64_t p0, const struct conv *g, const uint64_t *wt, uint64_t *x,
          int64_t n_words, int64_t full, const struct out *o)
{
    const uint32_t *top[TILE_P];
    windows(g, rows, p0, top);
    const struct weight *k = &g->wt;
    const int64_t px = k->x_bits * k->units;
    const int in_place = k->kh * k->kw == 1 && k->stride == 1 && k->units == 2 * n_words;
    if (!in_place)
        memset(x, 0, (size_t)(rows * k->x_bits * n_words) * 8);
    for (int r = 0; !in_place && r < rows; r++)
        for (int m = 0; m < k->x_bits; m++) {
            uint64_t *row = x + (r * k->x_bits + m) * n_words;
            for (int64_t i = 0; i < k->kh; i++)
                for (int64_t j = 0; j < k->kw; j++) {
                    const uint32_t *lane = top[r] + (i * g->width + j) * px + m * k->units;
                    const int64_t at = (i * k->kw + j) * k->lane; /* no lane crosses a word */
                    if (k->lane > 32)
                        memcpy(row + at / 64, lane, (size_t)k->lane / 8);
                    else /* a 16-bit lane's upper half is its copy */
                        row[at / 64] |= (uint64_t)(k->lane == 16 ? lane[0] & 0xFFFF : lane[0])
                                        << at % 64;
                }
        }
    portable_tile(rows, p0, in_place ? (const uint64_t *)top[0] : x, wt, k->w_rows, k->q_pad,
                  k->x_bits, k->w_bits, n_words, full, o);
}
#endif

/* Runs tile over rows rows, TILE_P at a time, then one at a time. */
#define ROW_TILES(tile, ...)                                                                   \
    do {                                                                                       \
        int64_t p = 0;                                                                         \
        for (; p + TILE_P <= rows; p += TILE_P)                                                \
            tile(TILE_P, p, __VA_ARGS__);                                                      \
        for (; p < rows; p++)                                                                  \
            tile(1, p, __VA_ARGS__);                                                           \
    } while (0)

/* The conv of a padded image of packed pixels with the weight k, rows
 * batch * oh * ow, with the epilogue o. Lanes of 16 or 32 bits need
 * full < 2^31 and kh kw lane < 2^lane; gemm.conv_lane picks 64-bit words
 * where they do not hold. Returns 0, or -1 if the portable build cannot
 * allocate its row and weight words. */
int bb_conv(const uint32_t *x, int64_t batch, int64_t height, int64_t width,
            const struct weight *k, const struct out *o)
{
    const int64_t kh = k->kh, kw = k->kw, lane = k->lane;
    const struct conv g = {x, height, width, (height - kh) / k->stride + 1,
                           (width - kw) / k->stride + 1, *k};
    const int64_t rows = batch * g.oh * g.ow;
    const int64_t full = k->channels * kh * kw * ((INT64_C(1) << k->x_bits) - 1) *
                         ((INT64_C(1) << k->w_bits) - 1);
    if (o->pixels != NULL && o->pad > 0 && rows > 0)
        fill_ring(o, rows / (o->oh * o->ow));
#ifdef AVX512_TILES
/* tile, told by a constant last argument whether the kernel has one offset */
#define TAPS(tile, ...)                                                                        \
    do {                                                                                       \
        if (kh * kw == 1) ROW_TILES(tile, __VA_ARGS__, 1);                                     \
        else ROW_TILES(tile, __VA_ARGS__, 0);                                                  \
    } while (0)
    if (lane == 16)
        TAPS(conv_tile_short, &g, full, o, 1);
    else if (lane == 32)
        TAPS(conv_tile_short, &g, full, o, 0);
    else
        TAPS(conv_tile64, &g, full, o);
#else
    const int64_t n_words = (kh * kw * lane + 63) / 64, words = lane > 32 ? lane / 64 : 1;
    /* with one offset in 64-bit words the weight lanes are the row words already */
    const int64_t q_pad = k->q_pad, w_bits = k->w_bits, copy = kh * kw > 1 || lane <= 32;
    uint64_t *wt = calloc((size_t)((copy * w_bits * q_pad + TILE_P * k->x_bits) * n_words), 8);
    if (wt == NULL)
        return -1;
    for (int64_t b = 0; copy && b < w_bits; b++)
        for (int64_t ij = 0; ij < kh * kw; ij++)
            for (int64_t u = 0; u < words; u++)
                for (int64_t q = 0; q < q_pad; q++) {
                    const int64_t from = ((b * kh * kw + ij) * words + u) * q_pad + q;
                    const uint64_t v = lane == 16 ? ((const uint16_t *)k->lanes)[from]
                                       : lane == 32 ? ((const uint32_t *)k->lanes)[from]
                                                    : ((const uint64_t *)k->lanes)[from];
                    const int64_t at = ij * lane + 64 * u;
                    wt[(b * n_words + at / 64) * q_pad + q] |= v << at % 64;
                }
    const uint64_t *lanes = copy ? wt : k->lanes;
    ROW_TILES(conv_tile, &g, lanes, wt + copy * w_bits * n_words * q_pad, n_words, full, o);
    free(wt);
#endif
    return 0;
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

#if defined(__AVX512VBMI__) && defined(__AVX512DQ__)
/* code_byte of the 8 values at v, as the 8 bytes of a word; adds the count
 * of non-finite ones to bad. The table lookups are two gathers. */
static inline __attribute__((always_inline)) uint64_t
code_bytes8(const double *v, double half, const double *thr, const int64_t *base, int64_t *bad)
{
    __m512d x = _mm512_loadu_pd(v);
    const __mmask8 odd = _mm512_fpclass_pd_mask(x, 0x99); /* NaN or infinite */
    *bad += __builtin_popcount(odd);
    x = _mm512_min_pd(_mm512_max_pd(_mm512_mask_mov_pd(x, odd, _mm512_setzero_pd()),
                                    _mm512_set1_pd(-1.0)),
                      _mm512_set1_pd(1.0));
    const __m512d h = _mm512_set1_pd(half);
    const __m512i i = _mm512_cvttpd_epi64(_mm512_add_pd(_mm512_mul_pd(x, h), h));
    const __mmask8 up = _mm512_cmp_pd_mask(x, _mm512_i64gather_pd(i, thr, 8), _CMP_GE_OQ);
    const __m512i b = _mm512_i64gather_epi64(i, base, 8);
    const __m512i code = _mm512_mask_sub_epi64(b, up, b, _mm512_set1_epi64(-1));
    return (uint64_t)_mm_cvtsi128_si64(_mm512_cvtepi64_epi8(code));
}
#endif

/* Code bytes of x[batch][channels][plane], written channels-last,
 * b[batch][plane][channels]; a dense input is plane = 1, one contiguous
 * pass. Returns the count of non-finite values. restrict lets GCC
 * vectorize. With AVX-512 VBMI and up to 8 channels, 8 pixels at a time
 * quantize channel by channel into the words of one zmm, and one vpermb
 * interleaves them into the 8 C bytes of those pixels. */
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
#if defined(__AVX512VBMI__) && defined(__AVX512DQ__)
    const int vector = channels <= 8;
    __m512i order = _mm512_setzero_si512();
    __mmask64 run = 0;
    if (vector) { /* byte p C + c of the pixels takes byte 8 c + p, channel c of pixel p */
        uint8_t from[64] = {0};
        for (int j = 0; j < 8 * channels; j++)
            from[j] = (uint8_t)(j % channels * 8 + j / channels);
        order = _mm512_loadu_si512(from);
        run = ~UINT64_C(0) >> (64 - 8 * channels);
    }
#endif
    for (int64_t n = 0; n < batch; n++) {
        int64_t p0 = 0; /* pixels before p0 are done */
#if defined(__AVX512VBMI__) && defined(__AVX512DQ__)
        for (; vector && p0 + 8 <= plane; p0 += 8) {
            __m512i v = _mm512_setzero_si512();
            for (int64_t c = 0; c < channels; c++)
                v = _mm512_mask_set1_epi64(
                    v, (__mmask8)(1 << c),
                    (long long)code_bytes8(x + (n * channels + c) * plane + p0, half, thr, base,
                                           &bad));
            _mm512_mask_storeu_epi8(b + (n * plane + p0) * channels, run,
                                    _mm512_permutexvar_epi8(order, v));
        }
#endif
        for (int64_t c = 0; c < channels; c++) {
            const double *xc = x + (n * channels + c) * plane;
            uint8_t *bc = b + n * plane * channels + c;
            for (int64_t p = p0; p < plane; p++) {
                bad += !isfinite(xc[p]);
                bc[p * channels] = code_byte(xc[p], half, thr, base);
            }
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
