/* Packed {-1,+1} kernels behind bitbranch.gemm, loaded through ctypes.
 *
 * An encoded matrix is uint64 words[rows][bits][n_words], LSB-first, bit 1
 * meaning digit +1, with every pad bit past the last column zero. Python
 * checks shapes, dtypes and contiguity before calling in.
 *
 * Activations travel between the kernels as code bytes
 * b = (code + 2^M - 1) / 2, whose bit m is digit plane m: bb_quantize writes
 * them from floats, bb_gemm_codes from accumulators, and bb_gather packs
 * them into the rows of the next GEMM.
 *
 * Build with -ffp-contract=off and without fast-math: quantize_line, the one
 * quantizer, must repeat quant.quantize_odd operation for operation, and a
 * fused multiply-add would move values across cell edges.
 * -fno-trapping-math changes no value; it lets the compiler turn the
 * quantizer's branches into vector selects.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the byte-gather in pack_word assumes a little-endian host"
#endif

/* Columns of acc summed in registers at a time. */
#define Q_BLOCK 32

/* s[t] = sum 2^(m+k) popcount(x_m ^ w_k) for len rows of w from b on. */
static inline __attribute__((always_inline)) void
block_sums(int64_t *restrict s, int len, const uint64_t *restrict xp,
           const uint64_t *restrict b, int64_t w_rows, int x_bits, int w_bits,
           int64_t n_words)
{
    for (int t = 0; t < len; t++)
        s[t] = 0;
    for (int m = 0; m < x_bits; m++) {
        for (int k = 0; k < w_bits; k++) {
            for (int64_t j = 0; j < n_words; j++) {
                const uint64_t a = xp[m * n_words + j];
                const uint64_t *bj = b + (k * n_words + j) * w_rows;
                for (int t = 0; t < len; t++)
                    s[t] += (int64_t)__builtin_popcountll(a ^ bj[t]) << (m + k);
            }
        }
    }
}

/* The product of all rows of x with all w_rows rows of w. w comes
 * transposed, wt[k][j][q], so the inner loop runs over q.
 * dot(x_m, w_k) = n - 2 * popcount(x_m ^ w_k): zero pad bits cancel in the
 * XOR, so no NOT and no tail mask. Summing 2^(m+k) * dot over the planes:
 * acc = n (2^M - 1)(2^K - 1) - 2 * sum 2^(m+k) popcount(x_m ^ w_k).
 * Without th the accumulators go to acc[p][q]. With th, output q's code
 * byte goes to codes[p][q]: the number of k < levels with
 * sign[q] * acc >= th[k][q]. */
static inline __attribute__((always_inline)) void
gemm_rows(const uint64_t *restrict x, const uint64_t *restrict wt, int64_t rows,
          int64_t w_rows, int x_bits, int w_bits, int64_t n_words, int64_t n,
          const int64_t *restrict th, const int64_t *restrict sign, int levels,
          int64_t *restrict acc, uint8_t *restrict codes)
{
    const int64_t full = n * ((INT64_C(1) << x_bits) - 1) * ((INT64_C(1) << w_bits) - 1);
    for (int64_t p = 0; p < rows; p++) {
        const uint64_t *xp = x + p * x_bits * n_words;
        for (int64_t q0 = 0; q0 < w_rows; q0 += Q_BLOCK) {
            int64_t s[Q_BLOCK];
            int len = w_rows - q0 < Q_BLOCK ? (int)(w_rows - q0) : Q_BLOCK;
            /* constant trip counts keep s in registers */
            if (len == Q_BLOCK)
                block_sums(s, Q_BLOCK, xp, wt + q0, w_rows, x_bits, w_bits, n_words);
            else
                block_sums(s, len, xp, wt + q0, w_rows, x_bits, w_bits, n_words);
            if (th == NULL) {
                for (int t = 0; t < len; t++) /* s[t] <= full: no overflow */
                    acc[p * w_rows + q0 + t] = full - s[t] - s[t];
                continue;
            }
            int64_t v[Q_BLOCK];
            uint8_t b[Q_BLOCK];
            for (int t = 0; t < len; t++) {
                v[t] = sign[q0 + t] * (full - s[t] - s[t]);
                b[t] = 0;
            }
            for (int k = 0; k < levels; k++) {
                const int64_t *tk = th + k * w_rows + q0;
                for (int t = 0; t < len; t++)
                    b[t] += v[t] >= tk[t];
            }
            memcpy(codes + p * w_rows + q0, b, (size_t)len);
        }
    }
}

void bb_gemm(const uint64_t *x, const uint64_t *wt, int64_t *acc, int64_t rows,
             int64_t w_rows, int x_bits, int w_bits, int64_t n_words, int64_t n)
{
    gemm_rows(x, wt, rows, w_rows, x_bits, w_bits, n_words, n, NULL, NULL, 0, acc, NULL);
}

void bb_gemm_codes(const uint64_t *x, const uint64_t *wt, const int64_t *th,
                   const int64_t *sign, int levels, uint8_t *codes, int64_t rows,
                   int64_t w_rows, int x_bits, int w_bits, int64_t n_words, int64_t n)
{
    gemm_rows(x, wt, rows, w_rows, x_bits, w_bits, n_words, n, th, sign, levels, NULL, codes);
}

/* quant.quantize_odd of n values as code bytes. 0.0 (code -1) gives
 * (2^M - 1) / 2. Non-finite values are encoded as 0.0 and counted; the
 * count is returned. */
static inline int64_t quantize_line(const double *x, int64_t n, int bits, double edge_snap,
                                    uint8_t *b)
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

/* One pass over all n values keeps the quantizer's vector loop long. */
int64_t bb_quantize(const double *x, int64_t n, int bits, double edge_snap, uint8_t *b)
{
    return quantize_line(x, n, bits, edge_snap, b);
}

/* Pack 64 bytes into one word of each of the bits planes, out[m * n_words].
 * Bit m of 8 bytes gathers into 8 adjacent bits: byte i of the masked word
 * lands on bit 56 + i of the product. Pad columns must hold the byte 0, which
 * has every bit clear, so the pad bits come out zero. */
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

/* The conv patch rows of a channels-last image of code bytes,
 * src[batch][height][width][channels]; a dense input is a 1 x 1 image.
 * Row (b, oh, ow) holds its kh * kw * channels bytes in (i, j, c) order, so
 * each kernel row is one run of kw * channels bytes, copied from src where
 * the window lies inside the image and filled with the byte of 0.0 in the
 * padding. Returns 0, or -1 if the row buffer cannot be allocated. */
int bb_gather(const uint8_t *src, int64_t batch, int64_t height, int64_t width,
              int64_t channels, int64_t kh, int64_t kw, int64_t stride, int64_t padding,
              int bits, double edge_snap, uint64_t *words)
{
    const int64_t oh = (height + 2 * padding - kh) / stride + 1;
    const int64_t ow = (width + 2 * padding - kw) / stride + 1;
    const int64_t run = kw * channels, n_words = (kh * run + 63) / 64;
    /* whole words long; the bytes past the last column stay 0 */
    uint8_t *row = calloc((size_t)n_words + 1, 64);
    if (row == NULL)
        return -1;
    const double zero = 0.0;
    uint8_t pad;
    quantize_line(&zero, 1, bits, edge_snap, &pad);
    uint64_t *out = words;
    for (int64_t b = 0; b < batch; b++)
        for (int64_t i = 0; i < oh; i++)
            for (int64_t j = 0; j < ow; j++) {
                const int64_t x0 = j * stride - padding;
                /* window columns lo..hi-1 lie inside the image */
                const int64_t lo = x0 < 0 ? (-x0 < kw ? -x0 : kw) : 0;
                const int64_t hi = width - x0 < kw ? (width - x0 > lo ? width - x0 : lo) : kw;
                for (int64_t u = 0; u < kh; u++) {
                    uint8_t *dst = row + u * run;
                    const int64_t y = i * stride + u - padding;
                    if (y < 0 || y >= height) {
                        memset(dst, pad, (size_t)run);
                        continue;
                    }
                    memset(dst, pad, (size_t)(lo * channels));
                    if (hi > lo)
                        memcpy(dst + lo * channels,
                               src + ((b * height + y) * width + x0 + lo) * channels,
                               (size_t)((hi - lo) * channels));
                    memset(dst + hi * channels, pad, (size_t)((kw - hi) * channels));
                }
                for (int64_t k = 0; k < n_words; k++)
                    pack_word(row + 64 * k, bits, n_words, out + k);
                out += bits * n_words;
            }
    free(row);
    return 0;
}
