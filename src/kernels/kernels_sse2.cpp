/**
 * @file
 * SSE2 kernel table (x86). SSE2 is part of the x86-64 baseline, so
 * this TU needs no special flags and serves as the fallback tier when
 * the CPU lacks AVX2. SSE2 has no FMA, so dot uses mul+add with two
 * accumulators — still reassociating (tolerance-class) relative to the
 * scalar kernel. Order-preserving ops share the scalar tail bodies.
 */

#include "kernels/kernels.hpp"

#include "kernels/kernels_impl.hpp"

#if defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))

#include <emmintrin.h>

namespace a3 {
namespace {

using namespace kernel_detail;

float
hsum128(__m128 v)
{
    v = _mm_add_ps(v, _mm_movehl_ps(v, v));
    v = _mm_add_ss(v, _mm_shuffle_ps(v, v, 0x1));
    return _mm_cvtss_f32(v);
}

float
hmax128(__m128 v)
{
    v = _mm_max_ps(v, _mm_movehl_ps(v, v));
    v = _mm_max_ss(v, _mm_shuffle_ps(v, v, 0x1));
    return _mm_cvtss_f32(v);
}

float
dotSse2(const float *a, const float *b, std::size_t n)
{
    __m128 acc0 = _mm_setzero_ps();
    __m128 acc1 = _mm_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        acc0 = _mm_add_ps(acc0, _mm_mul_ps(_mm_loadu_ps(a + i),
                                           _mm_loadu_ps(b + i)));
        acc1 = _mm_add_ps(acc1, _mm_mul_ps(_mm_loadu_ps(a + i + 4),
                                           _mm_loadu_ps(b + i + 4)));
    }
    if (i + 4 <= n) {
        acc0 = _mm_add_ps(acc0, _mm_mul_ps(_mm_loadu_ps(a + i),
                                           _mm_loadu_ps(b + i)));
        i += 4;
    }
    float sum = hsum128(_mm_add_ps(acc0, acc1));
    for (; i < n; ++i)
        sum += a[i] * b[i];
    return sum;
}

void
axpySse2(float a, const float *x, float *y, std::size_t n)
{
    const __m128 va = _mm_set1_ps(a);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128 prod = _mm_mul_ps(va, _mm_loadu_ps(x + i));
        _mm_storeu_ps(y + i, _mm_add_ps(_mm_loadu_ps(y + i), prod));
    }
    axpyScalar(a, x + i, y + i, n - i);
}

float
maxReduceSse2(const float *v, std::size_t n)
{
    std::size_t i = 0;
    float best;
    if (n >= 4) {
        __m128 acc = _mm_loadu_ps(v);
        for (i = 4; i + 4 <= n; i += 4)
            acc = _mm_max_ps(acc, _mm_loadu_ps(v + i));
        best = hmax128(acc);
    } else {
        best = maxReduceScalar(v, 0);  // -inf seed
    }
    for (; i < n; ++i)
        best = best < v[i] ? v[i] : best;
    return best;
}

void
scaleSse2(float *v, std::size_t n, float factor)
{
    const __m128 vf = _mm_set1_ps(factor);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm_storeu_ps(v + i, _mm_mul_ps(_mm_loadu_ps(v + i), vf));
    scaleScalar(v + i, n - i, factor);
}

void
divideBySse2(float *v, std::size_t n, float denom)
{
    const __m128 vd = _mm_set1_ps(denom);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm_storeu_ps(v + i, _mm_div_ps(_mm_loadu_ps(v + i), vd));
    divideByScalar(v + i, n - i, denom);
}

void
gatherDotSse2(const float *mat, std::size_t dims,
              const std::uint32_t *rows, std::size_t count,
              const float *q, float *out)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = dotSse2(mat + rows[i] * dims, q, dims);
}

std::int32_t
hsumEpi32(__m128i v)
{
    v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
    v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(v);
}

/**
 * Sign-extend 16 packed int8 lanes to two int16x8 halves. SSE2 has no
 * pmovsxbw (SSE4.1) or pmaddubsw (SSSE3), so build the sign mask with
 * a compare and interleave it in.
 */
void
widenS8Sse2(__m128i v, __m128i &lo, __m128i &hi)
{
    const __m128i sign = _mm_cmpgt_epi8(_mm_setzero_si128(), v);
    lo = _mm_unpacklo_epi8(v, sign);
    hi = _mm_unpackhi_epi8(v, sign);
}

std::int32_t
dotI8Sse2(const std::int8_t *a, const std::int8_t *b, std::size_t n)
{
    __m128i acc = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i va = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + i));
        const __m128i vb = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(b + i));
        __m128i alo, ahi, blo, bhi;
        widenS8Sse2(va, alo, ahi);
        widenS8Sse2(vb, blo, bhi);
        acc = _mm_add_epi32(acc, _mm_madd_epi16(alo, blo));
        acc = _mm_add_epi32(acc, _mm_madd_epi16(ahi, bhi));
    }
    return hsumEpi32(acc) + dotI8Scalar(a + i, b + i, n - i);
}

void
gatherDotI8Sse2(const std::int8_t *mat, std::size_t dims,
                const std::uint32_t *rows, std::size_t count,
                const std::int8_t *q, std::int32_t *out)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = dotI8Sse2(mat + rows[i] * dims, q, dims);
}

/** Unpack 8 packed bytes into 16 sign-extended nibble lanes. */
__m128i
unpackNibbles16Sse2(const std::uint8_t *p)
{
    const __m128i bytes = _mm_loadl_epi64(
        reinterpret_cast<const __m128i *>(p));
    const __m128i maskF = _mm_set1_epi8(0xF);
    const __m128i lo = _mm_and_si128(bytes, maskF);
    const __m128i hi =
        _mm_and_si128(_mm_srli_epi16(bytes, 4), maskF);
    // Interleaving low/high nibbles restores element order 0..15.
    __m128i v = _mm_unpacklo_epi8(lo, hi);
    // Two's-complement sign extension of 4-bit lanes: (v ^ 8) - 8.
    const __m128i eight = _mm_set1_epi8(8);
    return _mm_sub_epi8(_mm_xor_si128(v, eight), eight);
}

std::int32_t
dotI4Sse2(const std::uint8_t *a, const std::int8_t *q, std::size_t n)
{
    __m128i acc = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i va = unpackNibbles16Sse2(a + i / 2);
        const __m128i vq = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(q + i));
        __m128i alo, ahi, qlo, qhi;
        widenS8Sse2(va, alo, ahi);
        widenS8Sse2(vq, qlo, qhi);
        acc = _mm_add_epi32(acc, _mm_madd_epi16(alo, qlo));
        acc = _mm_add_epi32(acc, _mm_madd_epi16(ahi, qhi));
    }
    // i is even, so the tail starts on a byte boundary at a + i/2.
    return hsumEpi32(acc) + dotI4Scalar(a + i / 2, q + i, n - i);
}

void
gatherDotI4Sse2(const std::uint8_t *mat, std::size_t dims,
                const std::uint32_t *rows, std::size_t count,
                const std::int8_t *q, std::int32_t *out)
{
    const std::size_t rowBytes = (dims + 1) / 2;
    for (std::size_t i = 0; i < count; ++i)
        out[i] = dotI4Sse2(mat + rows[i] * rowBytes, q, dims);
}

std::int32_t
dotI16Sse2(const std::int16_t *a, const std::int16_t *b, std::size_t n)
{
    // madd pair sums stay below 2 * 32767^2 < 2^31: the quantized
    // lanes never hold -32768.
    const auto load = [](const std::int16_t *p) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    };
    __m128i acc0 = _mm_setzero_si128();
    __m128i acc1 = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        acc0 = _mm_add_epi32(acc0, _mm_madd_epi16(load(a + i),
                                                  load(b + i)));
        acc1 = _mm_add_epi32(acc1, _mm_madd_epi16(load(a + i + 8),
                                                  load(b + i + 8)));
    }
    if (i + 8 <= n) {
        acc0 = _mm_add_epi32(acc0, _mm_madd_epi16(load(a + i),
                                                  load(b + i)));
        i += 8;
    }
    return hsumEpi32(_mm_add_epi32(acc0, acc1)) +
           dotI16Scalar(a + i, b + i, n - i);
}

void
gatherDotI16Sse2(const std::int16_t *mat, std::size_t dims,
                 const std::uint32_t *rows, std::size_t count,
                 const std::int16_t *q, std::int32_t *out)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = dotI16Sse2(mat + rows[i] * dims, q, dims);
}

void
gatherWeightedSumSse2(const float *mat, std::size_t dims,
                      const std::uint32_t *rows, std::size_t count,
                      const float *w, float *out)
{
    for (std::size_t i = 0; i < count; ++i) {
        const float *row = mat + rows[i] * dims;
        const __m128 vw = _mm_set1_ps(w[i]);
        std::size_t j = 0;
        for (; j + 4 <= dims; j += 4) {
            const __m128 prod = _mm_mul_ps(vw, _mm_loadu_ps(row + j));
            _mm_storeu_ps(out + j,
                          _mm_add_ps(_mm_loadu_ps(out + j), prod));
        }
        for (; j < dims; ++j)
            out[j] += w[i] * row[j];
    }
}

}  // namespace

const Kernels *
sse2Kernels()
{
    // axpyI8/axpyI4/axpyI16 widen to int64 lanes, which SSE2 has no
    // usable multiply for; the fallback tier shares the scalar bodies
    // (still exact, still bit-identical — the class is unaffected).
    static const Kernels table{
        KernelIsa::Sse2, dotSse2,
        axpySse2,        maxReduceSse2,
        kernel_detail::expSumInPlaceScalar,
        scaleSse2,       divideBySse2,
        gatherDotSse2,   gatherWeightedSumSse2,
        dotI8Sse2,       gatherDotI8Sse2,
        dotI4Sse2,       gatherDotI4Sse2,
        kernel_detail::axpyI8Scalar,
        kernel_detail::axpyI4Scalar,
        dotI16Sse2,      gatherDotI16Sse2,
        kernel_detail::axpyI16Scalar,
    };
    return &table;
}

}  // namespace a3

#else  // !__SSE2__

namespace a3 {

const Kernels *
sse2Kernels()
{
    return nullptr;
}

}  // namespace a3

#endif
