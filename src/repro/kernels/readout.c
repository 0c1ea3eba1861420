/*
 * Compiled hot-path kernels: the time-domain read-out chain, the im2col
 * gather and the per-channel weight quantiser.
 *
 * Bit-for-bit contract: every routine here must reproduce the numpy
 * reference in `repro.kernels.numpy_impl` exactly, element by element, in
 * the same IEEE-754 rounding.  That is only true when the compiler is
 * forbidden from contracting multiply+add into FMA (numpy rounds each op
 * separately), so this file MUST be compiled with `-ffp-contract=off`.
 * The ctypes loader in `c_impl.py` passes that flag.
 *
 * Layout contract (checked by the Python guards before dispatch):
 *   charges     (T, S, G, P, C)  any element strides, overwritten in place
 *   delay_sums  (T, G, P)        any element strides, same dtype as charges
 *   shifts      (S,)             float64 contiguous, optional
 *   rec_out     (G, P, C)        float64, any element strides
 * All strides are in ELEMENTS, not bytes.
 *
 * The fused chain per element (matching TimeDomainChainSpec.read_out):
 *   v  = charge - offset_coeff * delay_sum     (reference-column subtract)
 *   v  = max(v, 0)                             (clip negative net charge)
 *   v /= capacitance                           (charge -> voltage)
 *   v  = v_threshold - v                       (phase-II headroom)
 *   v  = max(v, 0)
 *   v *= phase2_scale                          (voltage -> crossing time)
 *   v  = full_scale - v                        (time -> count direction)
 *   v /= lsb                                   (counts)
 *   v  = min(v, saturation)                    (optional ADC clamp)
 * then the optional slice recombination accumulates
 *   rec_out[g,p,c] += shifts[s] * v            in t-major, s-inner order —
 * the exact accumulation order numpy's einsum "s,tsgpc->gpc" uses, which
 * the float64 bit-identity tests pin down.
 *
 * The level variant starts from exact integer level products P instead:
 *   v  = (double)P * level_coeff               (net charge; the G_min
 *                                               reference column cancels
 *                                               exactly on the level grid)
 * and runs the rest of the chain in double whatever P's storage type.
 *
 * The loops touch disjoint data per (t, s, g, p) row and carry no global
 * state.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#ifdef _MSC_VER
#define API __declspec(dllexport)
#else
#define API __attribute__((visibility("default")))
#endif

/* Bumped whenever a signature changes; the loader refuses mismatches so a
 * stale cached .so can never be called with the wrong ABI. */
API int64_t repro_kernels_abi_version(void) { return 5; }

static void zero_rec_out(double *rec_out, int64_t n_groups, int64_t n_pos,
                         int64_t n_cols, int64_t rec_sg, int64_t rec_sp,
                         int64_t rec_sc)
{
    int64_t g, p, c;
    for (g = 0; g < n_groups; ++g)
        for (p = 0; p < n_pos; ++p) {
            double *orow = rec_out + g * rec_sg + p * rec_sp;
            for (c = 0; c < n_cols; ++c)
                orow[c * rec_sc] = 0.0;
        }
}

#define DEFINE_READOUT_FUSED(NAME, REAL)                                       \
API void NAME(                                                                 \
    REAL *charges, const REAL *delay_sums,                                     \
    int64_t n_tiles, int64_t n_slices, int64_t n_groups,                       \
    int64_t n_pos, int64_t n_cols,                                             \
    int64_t ch_st, int64_t ch_ss, int64_t ch_sg, int64_t ch_sp, int64_t ch_sc, \
    int64_t ds_st, int64_t ds_sg, int64_t ds_sp,                               \
    double offset_coeff_d, double capacitance_d, double v_threshold_d,         \
    double phase2_scale_d, double full_scale_d, double lsb_d,                  \
    double saturation_d, int32_t has_saturation,                               \
    const double *shifts, double *rec_out,                                     \
    int64_t rec_sg, int64_t rec_sp, int64_t rec_sc)                            \
{                                                                              \
    /* numpy binds python-float scalars to the array dtype (NEP 50), so    */  \
    /* every chain constant is narrowed exactly once, up front.            */  \
    REAL offset_coeff = (REAL)offset_coeff_d;                                  \
    REAL capacitance = (REAL)capacitance_d;                                    \
    REAL v_threshold = (REAL)v_threshold_d;                                    \
    REAL phase2_scale = (REAL)phase2_scale_d;                                  \
    REAL full_scale = (REAL)full_scale_d;                                      \
    REAL lsb = (REAL)lsb_d;                                                    \
    REAL saturation = (REAL)saturation_d;                                      \
    int64_t t, s, g, p, c;                                                     \
    if (shifts != NULL)                                                        \
        zero_rec_out(rec_out, n_groups, n_pos, n_cols, rec_sg, rec_sp, rec_sc);\
    for (t = 0; t < n_tiles; ++t)                                              \
        for (s = 0; s < n_slices; ++s) {                                       \
            double weight = (shifts != NULL) ? shifts[s] : 0.0;                \
            for (g = 0; g < n_groups; ++g)                                     \
                for (p = 0; p < n_pos; ++p) {                                  \
                    REAL offset = offset_coeff *                               \
                        delay_sums[t * ds_st + g * ds_sg + p * ds_sp];         \
                    REAL *row = charges +                                      \
                        t * ch_st + s * ch_ss + g * ch_sg + p * ch_sp;         \
                    double *orow = (shifts != NULL)                            \
                        ? rec_out + g * rec_sg + p * rec_sp : NULL;            \
                    for (c = 0; c < n_cols; ++c) {                             \
                        REAL v = row[c * ch_sc] - offset;                      \
                        if (v < (REAL)0.0) v = (REAL)0.0;                      \
                        v /= capacitance;                                      \
                        v = v_threshold - v;                                   \
                        if (v < (REAL)0.0) v = (REAL)0.0;                      \
                        v *= phase2_scale;                                     \
                        v = full_scale - v;                                    \
                        v /= lsb;                                              \
                        if (has_saturation && v > saturation) v = saturation;  \
                        row[c * ch_sc] = v;                                    \
                        if (orow != NULL)                                      \
                            orow[c * rec_sc] += weight * (double)v;            \
                    }                                                          \
                }                                                              \
        }                                                                      \
}

DEFINE_READOUT_FUSED(readout_fused_f64, double)
DEFINE_READOUT_FUSED(readout_fused_f32, float)

/* The chain fed by exact integer level products (stored as REAL, run in
 * double); the estimates are written back narrowed to REAL. */
#define DEFINE_READOUT_LEVELS(NAME, REAL)                                      \
API void NAME(                                                                 \
    REAL *products,                                                            \
    int64_t n_tiles, int64_t n_slices, int64_t n_groups,                       \
    int64_t n_pos, int64_t n_cols,                                             \
    int64_t ch_st, int64_t ch_ss, int64_t ch_sg, int64_t ch_sp, int64_t ch_sc, \
    double level_coeff, double capacitance, double v_threshold,                \
    double phase2_scale, double full_scale, double lsb,                        \
    double saturation, int32_t has_saturation,                                 \
    const double *shifts, double *rec_out,                                     \
    int64_t rec_sg, int64_t rec_sp, int64_t rec_sc)                            \
{                                                                              \
    int64_t t, s, g, p, c;                                                     \
    if (shifts != NULL)                                                        \
        zero_rec_out(rec_out, n_groups, n_pos, n_cols, rec_sg, rec_sp, rec_sc);\
    for (t = 0; t < n_tiles; ++t)                                              \
        for (s = 0; s < n_slices; ++s) {                                       \
            double weight = (shifts != NULL) ? shifts[s] : 0.0;                \
            for (g = 0; g < n_groups; ++g)                                     \
                for (p = 0; p < n_pos; ++p) {                                  \
                    REAL *row = products +                                     \
                        t * ch_st + s * ch_ss + g * ch_sg + p * ch_sp;         \
                    double *orow = (shifts != NULL)                            \
                        ? rec_out + g * rec_sg + p * rec_sp : NULL;            \
                    for (c = 0; c < n_cols; ++c) {                             \
                        double v = (double)row[c * ch_sc] * level_coeff;       \
                        if (v < 0.0) v = 0.0;                                  \
                        v /= capacitance;                                      \
                        v = v_threshold - v;                                   \
                        if (v < 0.0) v = 0.0;                                  \
                        v *= phase2_scale;                                     \
                        v = full_scale - v;                                    \
                        v /= lsb;                                              \
                        if (has_saturation && v > saturation) v = saturation;  \
                        row[c * ch_sc] = (REAL)v;                              \
                        if (orow != NULL)                                      \
                            orow[c * rec_sc] += weight * v;                    \
                    }                                                          \
                }                                                              \
        }                                                                      \
}

DEFINE_READOUT_LEVELS(readout_levels_f64, double)
DEFINE_READOUT_LEVELS(readout_levels_f32, float)

#define PAD_OFFSET INT64_MIN

/* im2col gather: x (N, CH, H, W) with any element strides -> the GEMM
 * operand cols (N*out_h*out_w, CH*K*K), C-contiguous, zero-padded borders,
 * columns in (c, ki, kj) order.  Pure data movement plus one exact cast.
 * Each output row resolves its K*K source offsets once (PAD_OFFSET marks
 * padding; a real offset may be negative on a flipped view);
 * the channel loop runs innermost when channels are the densest source
 * axis (channel-last views), outermost otherwise. */
#define DEFINE_IM2COL(NAME, SRC, DST)                                          \
API int32_t NAME(                                                              \
    const SRC *x, int64_t n, int64_t ch, int64_t h, int64_t w,                 \
    int64_t sn, int64_t sc, int64_t sh, int64_t sw,                            \
    int64_t kernel, int64_t stride, int64_t pad,                               \
    int64_t out_h, int64_t out_w, DST *cols)                                   \
{                                                                              \
    int64_t kk = kernel * kernel;                                              \
    int64_t ckk = ch * kk;                                                     \
    int64_t img, oh, ow, ki, kj, k, c;                                         \
    int channel_inner = llabs(sc) <= llabs(sw);                                \
    int64_t *offsets = (int64_t *)malloc((size_t)kk * sizeof(int64_t));       \
    if (offsets == NULL) return 1;                                             \
    for (img = 0; img < n; ++img)                                              \
        for (oh = 0; oh < out_h; ++oh)                                         \
            for (ow = 0; ow < out_w; ++ow) {                                   \
                const SRC *xi = x + img * sn;                                  \
                DST *row = cols + ((img * out_h + oh) * out_w + ow) * ckk;     \
                for (ki = 0; ki < kernel; ++ki)                                \
                    for (kj = 0; kj < kernel; ++kj) {                          \
                        int64_t ih = oh * stride - pad + ki;                   \
                        int64_t iw = ow * stride - pad + kj;                   \
                        offsets[ki * kernel + kj] =                            \
                            (ih < 0 || ih >= h || iw < 0 || iw >= w)           \
                                ? PAD_OFFSET : ih * sh + iw * sw;              \
                    }                                                          \
                if (channel_inner) {                                           \
                    for (k = 0; k < kk; ++k) {                                 \
                        DST *dst = row + k;                                    \
                        if (offsets[k] == PAD_OFFSET) {                        \
                            for (c = 0; c < ch; ++c) dst[c * kk] = (DST)0;     \
                        } else {                                               \
                            const SRC *src = xi + offsets[k];                  \
                            for (c = 0; c < ch; ++c)                           \
                                dst[c * kk] = (DST)src[c * sc];                \
                        }                                                      \
                    }                                                          \
                } else {                                                       \
                    for (c = 0; c < ch; ++c) {                                 \
                        const SRC *src = xi + c * sc;                          \
                        DST *dst = row + c * kk;                               \
                        for (k = 0; k < kk; ++k)                               \
                            dst[k] = offsets[k] == PAD_OFFSET                  \
                                ? (DST)0 : (DST)src[offsets[k]];               \
                    }                                                          \
                }                                                              \
            }                                                                  \
    free(offsets);                                                             \
    return 0;                                                                  \
}

DEFINE_IM2COL(im2col_f64_f64, double, double)
DEFINE_IM2COL(im2col_f64_f32, double, float)
DEFINE_IM2COL(im2col_f32_f64, float, double)
DEFINE_IM2COL(im2col_f32_f32, float, float)

/* max |x| over one channel into *peak; returns 0 when a NaN or inf is
 * present.  PEAK_LANES independent maxima let the compiler vectorise the
 * scan (a max is exact, so the lane order cannot change the result); each
 * lane also sums a - a, which turns NaN once any |x| is NaN or inf. */
#define PEAK_LANES 8

static int channel_peak(const double *x, int64_t width, double *peak)
{
    double lane_max[PEAK_LANES] = {0.0}, lane_probe[PEAK_LANES] = {0.0};
    double best = 0.0, probe = 0.0;
    int64_t i = 0, k;
    for (; i + PEAK_LANES <= width; i += PEAK_LANES)
        for (k = 0; k < PEAK_LANES; ++k) {
            double a = fabs(x[i + k]);
            lane_max[k] = a > lane_max[k] ? a : lane_max[k];
            lane_probe[k] += a - a;
        }
    for (; i < width; ++i) {
        double a = fabs(x[i]);
        best = a > best ? a : best;
        probe += a - a;
    }
    for (k = 0; k < PEAK_LANES; ++k) {
        best = lane_max[k] > best ? lane_max[k] : best;
        probe += lane_probe[k];
    }
    *peak = best;
    return probe == probe;
}

/* Symmetric per-channel weight quantiser: channels (n, width) float64,
 * C-contiguous -> values (n, width) of INT, C-contiguous, and scales (n,).
 * One pass per channel, op for op the numpy tier's blocked loop:
 *   peak  = max |x|                    (a NaN or inf stops the call: it
 *                                       returns the channel index + 1)
 *   scale = peak / qmax, or 1.0 where that is not positive
 *   out   = clip(rint(x / scale), -qmax, qmax)
 * The division is IEEE, never a reciprocal multiply.  rint rounds half to
 * even: |v| <= qmax < 2**52 after the division, and adding then
 * subtracting 2**52 leaves no fraction bits, so in the default rounding
 * mode the sum rounds exactly as np.rint does; it needs no ISA flag, and
 * without -ffast-math the compiler may not fold it away.  fabs and
 * copysign compile to bit masks (no libm call, no sign branch).
 * Returns 0 on success. */
#define ROUND_MAGIC 4503599627370496.0 /* 2**52 */

#define DEFINE_QUANTIZE(NAME, INT)                                             \
API int64_t NAME(const double *channels, int64_t n, int64_t width,            \
                 int64_t qmax, INT *values, double *scales)                    \
{                                                                              \
    double limit = (double)qmax;                                               \
    int64_t r, i;                                                              \
    for (r = 0; r < n; ++r) {                                                  \
        const double *x = channels + r * width;                                \
        INT *out = values + r * width;                                         \
        double scale;                                                          \
        if (!channel_peak(x, width, &scale)) return r + 1;                     \
        scale /= limit;                                                        \
        if (!(scale > 0.0)) scale = 1.0;                                       \
        scales[r] = scale;                                                     \
        for (i = 0; i < width; ++i) {                                          \
            double v = x[i] / scale;                                           \
            double m = (fabs(v) + ROUND_MAGIC) - ROUND_MAGIC;                  \
            out[i] = (INT)copysign(m < limit ? m : limit, v);                  \
        }                                                                      \
    }                                                                          \
    return 0;                                                                  \
}

DEFINE_QUANTIZE(quantize_channels_i8, int8_t)
DEFINE_QUANTIZE(quantize_channels_i16, int16_t)
