/* Packed {-1,+1} kernels behind bitbranch.gemm, loaded through ctypes.
 *
 * An encoded matrix is uint64 words[rows][bits][n_words], LSB-first, bit 1
 * meaning digit +1, with every pad bit past the last column zero. Python
 * checks shapes, dtypes and contiguity before calling in.
 *
 * Build with -ffp-contract=off and without fast-math: quantize_line, the one
 * quantizer of bb_encode and bb_encode_patches, must repeat
 * quant.quantize_odd operation for operation, and a fused multiply-add
 * would move values across cell edges. -fno-trapping-math changes no value;
 * it lets the compiler turn the encoder's branches into vector selects.
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

/* acc[p][q] for rows row_lo..row_hi-1 of x against all w_rows rows of w.
 * w comes transposed, wt[k][j][q], so the inner loop runs over q.
 * dot(x_m, w_k) = n - 2 * popcount(x_m ^ w_k): zero pad bits cancel in the
 * XOR, so no NOT and no tail mask. Summing 2^(m+k) * dot over the planes:
 * acc = n (2^M - 1)(2^K - 1) - 2 * sum 2^(m+k) popcount(x_m ^ w_k). */
void bb_gemm(const uint64_t *restrict x, const uint64_t *restrict wt, int64_t *restrict acc,
             int64_t row_lo, int64_t row_hi, int64_t w_rows,
             int x_bits, int w_bits, int64_t n_words, int64_t n)
{
    const int64_t full = n * ((INT64_C(1) << x_bits) - 1) * ((INT64_C(1) << w_bits) - 1);
    for (int64_t p = row_lo; p < row_hi; p++) {
        const uint64_t *xp = x + p * x_bits * n_words;
        for (int64_t q0 = 0; q0 < w_rows; q0 += Q_BLOCK) {
            int64_t s[Q_BLOCK];
            int len = w_rows - q0 < Q_BLOCK ? (int)(w_rows - q0) : Q_BLOCK;
            if (len == Q_BLOCK) /* constant trip count: s stays in registers */
                block_sums(s, Q_BLOCK, xp, wt + q0, w_rows, x_bits, w_bits, n_words);
            else
                block_sums(s, len, xp, wt + q0, w_rows, x_bits, w_bits, n_words);
            for (int t = 0; t < len; t++) /* s[t] <= full: no overflow */
                acc[p * w_rows + q0 + t] = full - s[t] - s[t];
        }
    }
}

/* quant.quantize_odd of n values as bytes b = (code + 2^M - 1) / 2, whose
 * bit m is digit plane m. 0.0 (code -1) gives (2^M - 1) / 2. Non-finite
 * values are encoded as 0.0 and counted; the count is returned. */
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

/* quant.quantize_odd fused with the digit expansion and packing of
 * gemm.encode_codes, 64 columns at a time. Non-finite inputs are counted
 * and encoded as 0.0; the caller rejects the matrix if any were seen. */
int64_t bb_encode(const double *x, int64_t rows, int64_t cols, int bits,
                  double edge_snap, uint64_t *words)
{
    const int64_t n_words = (cols + 63) / 64;
    int64_t bad = 0;
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t j = 0; j < n_words; j++) {
            int64_t len = cols - 64 * j < 64 ? cols - 64 * j : 64;
            uint8_t b[64] = {0};
            bad += quantize_line(x + r * cols + 64 * j, len, bits, edge_snap, b);
            pack_word(b, bits, n_words, words + r * bits * n_words + j);
        }
    }
    return bad;
}

/* gemm.encode_matrix(nn.im2col(x)) without the float patch matrix, for a
 * C-contiguous x of shape (batch, channels, height, width). Every element is
 * quantized once; the bytes go into a zero-padded image, padding holding the
 * byte of 0.0, and row (b, oh, ow) of the result gathers its channels*kh*kw
 * bytes in im2col's (c, i, j) order. Returns the non-finite count as
 * bb_encode does, or -1 if the buffers cannot be allocated. */
int64_t bb_encode_patches(const double *x, int64_t batch, int64_t channels, int64_t height,
                          int64_t width, int64_t kh, int64_t kw, int64_t stride,
                          int64_t padding, int bits, double edge_snap, uint64_t *words)
{
    const int64_t hp = height + 2 * padding, wp = width + 2 * padding;
    const int64_t oh = (hp - kh) / stride + 1, ow = (wp - kw) / stride + 1;
    const int64_t lines = batch * channels * height;
    const int64_t cols = channels * kh * kw, n_words = (cols + 63) / 64;
    const size_t image_bytes = (size_t)(batch * channels * hp * wp);
    /* one spare byte each: malloc(0) may return NULL. The row is whole words
     * long, with zero pad bytes. */
    uint8_t *q = malloc((size_t)(lines * width) + 1);
    uint8_t *image = malloc(image_bytes + 1);
    uint8_t *row = calloc((size_t)n_words + 1, 64);
    if (q == NULL || image == NULL || row == NULL) {
        free(q);
        free(image);
        free(row);
        return -1;
    }
    /* one pass over all of x keeps the quantizer's vector loop long */
    const int64_t bad = quantize_line(x, lines * width, bits, edge_snap, q);
    const double zero = 0.0;
    uint8_t pad;
    quantize_line(&zero, 1, bits, edge_snap, &pad);
    memset(image, pad, image_bytes);
    for (int64_t l = 0; l < lines; l++) /* l = (b * channels + c) * height + h */
        memcpy(image + ((l / height) * hp + l % height + padding) * wp + padding,
               q + l * width, (size_t)width);
    uint64_t *out = words;
    for (int64_t b = 0; b < batch; b++)
        for (int64_t i = 0; i < oh; i++)
            for (int64_t j = 0; j < ow; j++) {
                uint8_t *r = row;
                for (int64_t c = 0; c < channels; c++)
                    for (int64_t u = 0; u < kh; u++) {
                        const uint8_t *src = image + ((b * channels + c) * hp + i * stride + u) * wp
                                             + j * stride;
                        for (int64_t v = 0; v < kw; v++)
                            *r++ = src[v];
                    }
                for (int64_t k = 0; k < n_words; k++)
                    pack_word(row + 64 * k, bits, n_words, out + k);
                out += bits * n_words;
            }
    free(q);
    free(image);
    free(row);
    return bad;
}
