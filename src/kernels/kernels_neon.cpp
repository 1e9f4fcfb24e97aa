/**
 * @file
 * NEON kernel table (AArch64, where NEON is architecturally
 * guaranteed). dot uses vfmaq (fused, reassociating — tolerance-class
 * like the x86 FMA path); the order-preserving ops use explicit
 * mul + add pairs and shared scalar tails, bit-identical to the
 * scalar table because every kernel TU is built with
 * -ffp-contract=off.
 */

#include "kernels/kernels.hpp"

#include "kernels/kernels_impl.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace a3 {
namespace {

using namespace kernel_detail;

float
dotNeon(const float *a, const float *b, std::size_t n)
{
    float32x4_t acc0 = vdupq_n_f32(0.0f);
    float32x4_t acc1 = vdupq_n_f32(0.0f);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
        acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4),
                         vld1q_f32(b + i + 4));
    }
    if (i + 4 <= n) {
        acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
        i += 4;
    }
    float sum = vaddvq_f32(vaddq_f32(acc0, acc1));
    for (; i < n; ++i)
        sum += a[i] * b[i];
    return sum;
}

void
axpyNeon(float a, const float *x, float *y, std::size_t n)
{
    // Explicit mul + add (not vfmaq): bit-identical to the scalar loop.
    const float32x4_t va = vdupq_n_f32(a);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const float32x4_t prod = vmulq_f32(va, vld1q_f32(x + i));
        vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), prod));
    }
    axpyScalar(a, x + i, y + i, n - i);
}

float
maxReduceNeon(const float *v, std::size_t n)
{
    std::size_t i = 0;
    float best;
    if (n >= 4) {
        float32x4_t acc = vld1q_f32(v);
        for (i = 4; i + 4 <= n; i += 4)
            acc = vmaxq_f32(acc, vld1q_f32(v + i));
        best = vmaxvq_f32(acc);
    } else {
        best = maxReduceScalar(v, 0);  // -inf seed
    }
    for (; i < n; ++i)
        best = best < v[i] ? v[i] : best;
    return best;
}

void
scaleNeon(float *v, std::size_t n, float factor)
{
    const float32x4_t vf = vdupq_n_f32(factor);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(v + i, vmulq_f32(vld1q_f32(v + i), vf));
    scaleScalar(v + i, n - i, factor);
}

void
divideByNeon(float *v, std::size_t n, float denom)
{
    const float32x4_t vd = vdupq_n_f32(denom);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(v + i, vdivq_f32(vld1q_f32(v + i), vd));
    divideByScalar(v + i, n - i, denom);
}

void
gatherDotNeon(const float *mat, std::size_t dims,
              const std::uint32_t *rows, std::size_t count,
              const float *q, float *out)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = dotNeon(mat + rows[i] * dims, q, dims);
}

void
gatherWeightedSumNeon(const float *mat, std::size_t dims,
                      const std::uint32_t *rows, std::size_t count,
                      const float *w, float *out)
{
    for (std::size_t i = 0; i < count; ++i) {
        const float *row = mat + rows[i] * dims;
        const float32x4_t vw = vdupq_n_f32(w[i]);
        std::size_t j = 0;
        for (; j + 4 <= dims; j += 4) {
            const float32x4_t prod = vmulq_f32(vw, vld1q_f32(row + j));
            vst1q_f32(out + j, vaddq_f32(vld1q_f32(out + j), prod));
        }
        for (; j < dims; ++j)
            out[j] += w[i] * row[j];
    }
}

/** Accumulate 16 int8 lane products into an i32 accumulator. */
int32x4_t
macI8Neon(int32x4_t acc, int8x16_t a, int8x16_t b)
{
#if defined(__ARM_FEATURE_DOTPROD)
    return vdotq_s32(acc, a, b);
#else
    const int16x8_t plo = vmull_s8(vget_low_s8(a), vget_low_s8(b));
    const int16x8_t phi = vmull_s8(vget_high_s8(a), vget_high_s8(b));
    return vpadalq_s16(vpadalq_s16(acc, plo), phi);
#endif
}

std::int32_t
dotI8Neon(const std::int8_t *a, const std::int8_t *b, std::size_t n)
{
    int32x4_t acc = vdupq_n_s32(0);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        acc = macI8Neon(acc, vld1q_s8(a + i), vld1q_s8(b + i));
    return vaddvq_s32(acc) + dotI8Scalar(a + i, b + i, n - i);
}

void
gatherDotI8Neon(const std::int8_t *mat, std::size_t dims,
                const std::uint32_t *rows, std::size_t count,
                const std::int8_t *q, std::int32_t *out)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = dotI8Neon(mat + rows[i] * dims, q, dims);
}

/** Unpack 8 packed bytes into 16 sign-extended nibble lanes. */
int8x16_t
unpackNibbles16Neon(const std::uint8_t *p)
{
    const uint8x8_t bytes = vld1_u8(p);
    const uint8x8_t lo = vand_u8(bytes, vdup_n_u8(0xF));
    const uint8x8_t hi = vshr_n_u8(bytes, 4);
    // Interleaving low/high nibbles restores element order 0..15.
    const uint8x8x2_t zipped = vzip_u8(lo, hi);
    int8x16_t v = vreinterpretq_s8_u8(
        vcombine_u8(zipped.val[0], zipped.val[1]));
    // Two's-complement sign extension of 4-bit lanes: (v ^ 8) - 8.
    const int8x16_t eight = vdupq_n_s8(8);
    return vsubq_s8(veorq_s8(v, eight), eight);
}

std::int32_t
dotI4Neon(const std::uint8_t *a, const std::int8_t *q, std::size_t n)
{
    int32x4_t acc = vdupq_n_s32(0);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        acc = macI8Neon(acc, unpackNibbles16Neon(a + i / 2),
                        vld1q_s8(q + i));
    // i is even, so the tail starts on a byte boundary at a + i/2.
    return vaddvq_s32(acc) + dotI4Scalar(a + i / 2, q + i, n - i);
}

void
gatherDotI4Neon(const std::uint8_t *mat, std::size_t dims,
                const std::uint32_t *rows, std::size_t count,
                const std::int8_t *q, std::int32_t *out)
{
    const std::size_t rowBytes = (dims + 1) / 2;
    for (std::size_t i = 0; i < count; ++i)
        out[i] = dotI4Neon(mat + rows[i] * rowBytes, q, dims);
}

std::int32_t
dotI16Neon(const std::int16_t *a, const std::int16_t *b, std::size_t n)
{
    int32x4_t acc0 = vdupq_n_s32(0);
    int32x4_t acc1 = vdupq_n_s32(0);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const int16x8_t va = vld1q_s16(a + i);
        const int16x8_t vb = vld1q_s16(b + i);
        acc0 = vmlal_s16(acc0, vget_low_s16(va), vget_low_s16(vb));
        acc1 = vmlal_s16(acc1, vget_high_s16(va), vget_high_s16(vb));
    }
    return vaddvq_s32(vaddq_s32(acc0, acc1)) +
           dotI16Scalar(a + i, b + i, n - i);
}

void
gatherDotI16Neon(const std::int16_t *mat, std::size_t dims,
                 const std::uint32_t *rows, std::size_t count,
                 const std::int16_t *q, std::int32_t *out)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = dotI16Neon(mat + rows[i] * dims, q, dims);
}

/**
 * y[j] += w * x[j] for 8 int16 lanes widened to int64. The kernel
 * contract (|w| < 2^24 for int8 / int4 lanes, an int32 product for
 * int16 lanes) keeps the 32-bit products exact.
 */
void
accumWiden8Neon(int32x4_t vw, int16x8_t x16, std::int64_t *y)
{
    const int32x4_t plo = vmulq_s32(vmovl_s16(vget_low_s16(x16)), vw);
    const int32x4_t phi = vmulq_s32(vmovl_s16(vget_high_s16(x16)), vw);
    vst1q_s64(y, vaddw_s32(vld1q_s64(y), vget_low_s32(plo)));
    vst1q_s64(y + 2, vaddw_s32(vld1q_s64(y + 2), vget_high_s32(plo)));
    vst1q_s64(y + 4, vaddw_s32(vld1q_s64(y + 4), vget_low_s32(phi)));
    vst1q_s64(y + 6, vaddw_s32(vld1q_s64(y + 6), vget_high_s32(phi)));
}

void
axpyI8Neon(std::int64_t w, const std::int8_t *x, std::int64_t *y,
           std::size_t n)
{
    const int32x4_t vw = vdupq_n_s32(static_cast<std::int32_t>(w));
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
        accumWiden8Neon(vw, vmovl_s8(vld1_s8(x + j)), y + j);
    axpyI8Scalar(w, x + j, y + j, n - j);
}

void
axpyI16Neon(std::int64_t w, const std::int16_t *x, std::int64_t *y,
            std::size_t n)
{
    const int32x4_t vw = vdupq_n_s32(static_cast<std::int32_t>(w));
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
        accumWiden8Neon(vw, vld1q_s16(x + j), y + j);
    axpyI16Scalar(w, x + j, y + j, n - j);
}

void
axpyI4Neon(std::int64_t w, const std::uint8_t *x, std::int64_t *y,
           std::size_t n)
{
    const int32x4_t vw = vdupq_n_s32(static_cast<std::int32_t>(w));
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const int8x16_t v = unpackNibbles16Neon(x + j / 2);
        accumWiden8Neon(vw, vmovl_s8(vget_low_s8(v)), y + j);
        accumWiden8Neon(vw, vmovl_s8(vget_high_s8(v)), y + j + 8);
    }
    axpyI4Scalar(w, x + j / 2, y + j, n - j);
}

}  // namespace

const Kernels *
neonKernels()
{
    static const Kernels table{
        KernelIsa::Neon, dotNeon,
        axpyNeon,        maxReduceNeon,
        kernel_detail::expSumInPlaceScalar,
        scaleNeon,       divideByNeon,
        gatherDotNeon,   gatherWeightedSumNeon,
        dotI8Neon,       gatherDotI8Neon,
        dotI4Neon,       gatherDotI4Neon,
        axpyI8Neon,      axpyI4Neon,
        dotI16Neon,      gatherDotI16Neon,
        axpyI16Neon,
    };
    return &table;
}

}  // namespace a3

#else  // !(__aarch64__ && __ARM_NEON)

namespace a3 {

const Kernels *
neonKernels()
{
    return nullptr;
}

}  // namespace a3

#endif
