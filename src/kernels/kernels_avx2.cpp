/**
 * @file
 * AVX2+FMA kernel table (x86). This TU is the only one compiled with
 * -mavx2 -mfma (see CMakeLists.txt); everything it exports is reached
 * only after avx2Kernels() verifies at runtime that the CPU supports
 * both extensions, so the rest of the library stays runnable on any
 * x86-64. Tails reuse the shared scalar bodies from kernels_impl.hpp,
 * keeping the order-preserving ops bit-identical to the scalar table;
 * FMA appears only inside the tolerance-class kernels (dot, gatherDot,
 * and the polynomial exp of expSumInPlace).
 */

#include "kernels/kernels.hpp"

#include "kernels/kernels_impl.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace a3 {
namespace {

using namespace kernel_detail;

float
hsum256(__m256 v)
{
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
    return _mm_cvtss_f32(s);
}

float
hmax256(__m256 v)
{
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 m = _mm_max_ps(lo, hi);
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 0x1));
    return _mm_cvtss_f32(m);
}

/**
 * Vectorized e^x (Cephes expf polynomial, the classic avx_mathfun
 * constants): range-reduce x = n ln2 + r, evaluate a degree-5
 * polynomial on r, and scale by 2^n via exponent insertion. Maximum
 * relative error ~2 ulp versus libm — inside the 1e-6 tolerance
 * contract for the reassociating kernels.
 */
__m256
exp256(__m256 x)
{
    const __m256 hi = _mm256_set1_ps(88.3762626647949f);
    const __m256 lo = _mm256_set1_ps(-88.3762626647949f);
    const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
    const __m256 c1 = _mm256_set1_ps(0.693359375f);
    const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
    const __m256 one = _mm256_set1_ps(1.0f);

    x = _mm256_min_ps(_mm256_max_ps(x, lo), hi);

    // n = round(x / ln2), via floor(x log2e + 0.5).
    __m256 fx = _mm256_fmadd_ps(x, log2e, _mm256_set1_ps(0.5f));
    fx = _mm256_floor_ps(fx);
    // r = x - n ln2, with ln2 split in two for extra precision.
    x = _mm256_fnmadd_ps(fx, c1, x);
    x = _mm256_fnmadd_ps(fx, c2, x);

    __m256 y = _mm256_set1_ps(1.9875691500e-4f);
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
    const __m256 z = _mm256_mul_ps(x, x);
    y = _mm256_fmadd_ps(y, z, _mm256_add_ps(x, one));

    // 2^n by building the float exponent directly.
    __m256i n = _mm256_cvttps_epi32(fx);
    n = _mm256_add_epi32(n, _mm256_set1_epi32(0x7f));
    n = _mm256_slli_epi32(n, 23);
    return _mm256_mul_ps(y, _mm256_castsi256_ps(n));
}

float
expSumInPlaceAvx2(float *v, std::size_t n, float maxVal)
{
    const __m256 vmax = _mm256_set1_ps(maxVal);
    __m256 acc = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 e =
            exp256(_mm256_sub_ps(_mm256_loadu_ps(v + i), vmax));
        _mm256_storeu_ps(v + i, e);
        acc = _mm256_add_ps(acc, e);
    }
    float sum = hsum256(acc);
    for (; i < n; ++i) {
        v[i] = std::exp(v[i] - maxVal);
        sum += v[i];
    }
    return sum;
}

float
dotAvx2(const float *a, const float *b, std::size_t n)
{
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                               _mm256_loadu_ps(b + i + 8), acc1);
    }
    if (i + 8 <= n) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i), acc0);
        i += 8;
    }
    float sum = hsum256(_mm256_add_ps(acc0, acc1));
    for (; i < n; ++i)
        sum += a[i] * b[i];
    return sum;
}

void
axpyAvx2(float a, const float *x, float *y, std::size_t n)
{
    // Explicit mul + add (not fmadd): bit-identical to the scalar loop.
    const __m256 va = _mm256_set1_ps(a);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
        _mm256_storeu_ps(y + i,
                         _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
    }
    axpyScalar(a, x + i, y + i, n - i);
}

float
maxReduceAvx2(const float *v, std::size_t n)
{
    std::size_t i = 0;
    float best;
    if (n >= 8) {
        __m256 acc = _mm256_loadu_ps(v);
        for (i = 8; i + 8 <= n; i += 8)
            acc = _mm256_max_ps(acc, _mm256_loadu_ps(v + i));
        best = hmax256(acc);
    } else {
        best = maxReduceScalar(v, 0);  // -inf seed
    }
    for (; i < n; ++i)
        best = best < v[i] ? v[i] : best;
    return best;
}

void
scaleAvx2(float *v, std::size_t n, float factor)
{
    const __m256 vf = _mm256_set1_ps(factor);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(v + i,
                         _mm256_mul_ps(_mm256_loadu_ps(v + i), vf));
    scaleScalar(v + i, n - i, factor);
}

void
divideByAvx2(float *v, std::size_t n, float denom)
{
    const __m256 vd = _mm256_set1_ps(denom);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(v + i,
                         _mm256_div_ps(_mm256_loadu_ps(v + i), vd));
    divideByScalar(v + i, n - i, denom);
}

void
gatherDotAvx2(const float *mat, std::size_t dims,
              const std::uint32_t *rows, std::size_t count,
              const float *q, float *out)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = dotAvx2(mat + rows[i] * dims, q, dims);
}

void
gatherWeightedSumAvx2(const float *mat, std::size_t dims,
                      const std::uint32_t *rows, std::size_t count,
                      const float *w, float *out)
{
    for (std::size_t i = 0; i < count; ++i) {
        const float *row = mat + rows[i] * dims;
        const __m256 vw = _mm256_set1_ps(w[i]);
        std::size_t j = 0;
        for (; j + 8 <= dims; j += 8) {
            const __m256 prod =
                _mm256_mul_ps(vw, _mm256_loadu_ps(row + j));
            _mm256_storeu_ps(
                out + j, _mm256_add_ps(_mm256_loadu_ps(out + j), prod));
        }
        for (; j < dims; ++j)
            out[j] += w[i] * row[j];
    }
}

std::int32_t
hsumEpi32Avx2(__m256i v)
{
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(s);
}

/**
 * Pairwise i32 sums of x[i]*y[i] over 32 int8 lanes. maddubs wants an
 * unsigned left operand, so move x's sign onto y (|x| * sign(x)*y ==
 * x*y); the pair sums stay below 2*127*127 and cannot saturate the
 * i16 intermediate because the quantized lanes never reach -128.
 */
__m256i
mulSumI8Avx2(__m256i x, __m256i y)
{
    const __m256i ax = _mm256_sign_epi8(x, x);
    const __m256i sy = _mm256_sign_epi8(y, x);
    const __m256i pairs = _mm256_maddubs_epi16(ax, sy);
    return _mm256_madd_epi16(pairs, _mm256_set1_epi16(1));
}

std::int32_t
dotI8Avx2(const std::int8_t *a, const std::int8_t *b, std::size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        acc = _mm256_add_epi32(acc, mulSumI8Avx2(va, vb));
    }
    return hsumEpi32Avx2(acc) + dotI8Scalar(a + i, b + i, n - i);
}

void
gatherDotI8Avx2(const std::int8_t *mat, std::size_t dims,
                const std::uint32_t *rows, std::size_t count,
                const std::int8_t *q, std::int32_t *out)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = dotI8Avx2(mat + rows[i] * dims, q, dims);
}

/** Unpack 16 packed bytes into 32 sign-extended nibble lanes. */
__m256i
unpackNibbles32Avx2(const std::uint8_t *p)
{
    const __m128i bytes = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(p));
    const __m128i maskF = _mm_set1_epi8(0xF);
    const __m128i lo = _mm_and_si128(bytes, maskF);
    const __m128i hi =
        _mm_and_si128(_mm_srli_epi16(bytes, 4), maskF);
    // Interleaving restores element order: 0..15 low, 16..31 high.
    const __m128i il = _mm_unpacklo_epi8(lo, hi);
    const __m128i ih = _mm_unpackhi_epi8(lo, hi);
    __m256i v = _mm256_set_m128i(ih, il);
    const __m256i eight = _mm256_set1_epi8(8);
    return _mm256_sub_epi8(_mm256_xor_si256(v, eight), eight);
}

std::int32_t
dotI4Avx2(const std::uint8_t *a, const std::int8_t *q, std::size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i va = unpackNibbles32Avx2(a + i / 2);
        const __m256i vq = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(q + i));
        acc = _mm256_add_epi32(acc, mulSumI8Avx2(va, vq));
    }
    // i is even, so the tail starts on a byte boundary at a + i/2.
    return hsumEpi32Avx2(acc) + dotI4Scalar(a + i / 2, q + i, n - i);
}

void
gatherDotI4Avx2(const std::uint8_t *mat, std::size_t dims,
                const std::uint32_t *rows, std::size_t count,
                const std::int8_t *q, std::int32_t *out)
{
    const std::size_t rowBytes = (dims + 1) / 2;
    for (std::size_t i = 0; i < count; ++i)
        out[i] = dotI4Avx2(mat + rows[i] * rowBytes, q, dims);
}

std::int32_t
dotI16Avx2(const std::int16_t *a, const std::int16_t *b, std::size_t n)
{
    // madd pair sums stay below 2 * 32767^2 < 2^31: the quantized
    // lanes never hold -32768.
    const auto load = [](const std::int16_t *p) {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    };
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        acc0 = _mm256_add_epi32(
            acc0, _mm256_madd_epi16(load(a + i), load(b + i)));
        acc1 = _mm256_add_epi32(
            acc1, _mm256_madd_epi16(load(a + i + 16), load(b + i + 16)));
    }
    if (i + 16 <= n) {
        acc0 = _mm256_add_epi32(
            acc0, _mm256_madd_epi16(load(a + i), load(b + i)));
        i += 16;
    }
    return hsumEpi32Avx2(_mm256_add_epi32(acc0, acc1)) +
           dotI16Scalar(a + i, b + i, n - i);
}

void
gatherDotI16Avx2(const std::int16_t *mat, std::size_t dims,
                 const std::uint32_t *rows, std::size_t count,
                 const std::int16_t *q, std::int32_t *out)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = dotI16Avx2(mat + rows[i] * dims, q, dims);
}

/**
 * y[j] += w * x[j] for 8 lanes already widened to int32. The kernel
 * contract (|w| < 2^24 for int8 / int4 lanes, an int32 product for
 * int16 lanes) keeps the 32-bit products exact.
 */
void
accumWiden8Avx2(std::int64_t w, __m256i x32, std::int64_t *y)
{
    const __m256i vw =
        _mm256_set1_epi32(static_cast<std::int32_t>(w));
    const __m256i p32 = _mm256_mullo_epi32(x32, vw);
    const __m256i p64lo =
        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(p32));
    const __m256i p64hi =
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(p32, 1));
    __m256i *y0 = reinterpret_cast<__m256i *>(y);
    __m256i *y1 = reinterpret_cast<__m256i *>(y + 4);
    _mm256_storeu_si256(
        y0, _mm256_add_epi64(_mm256_loadu_si256(y0), p64lo));
    _mm256_storeu_si256(
        y1, _mm256_add_epi64(_mm256_loadu_si256(y1), p64hi));
}

void
axpyI8Avx2(std::int64_t w, const std::int8_t *x, std::int64_t *y,
           std::size_t n)
{
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
        accumWiden8Avx2(
            w,
            _mm256_cvtepi8_epi32(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(x + j))),
            y + j);
    axpyI8Scalar(w, x + j, y + j, n - j);
}

void
axpyI16Avx2(std::int64_t w, const std::int16_t *x, std::int64_t *y,
            std::size_t n)
{
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
        accumWiden8Avx2(
            w,
            _mm256_cvtepi16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(x + j))),
            y + j);
    axpyI16Scalar(w, x + j, y + j, n - j);
}

void
axpyI4Avx2(std::int64_t w, const std::uint8_t *x, std::int64_t *y,
           std::size_t n)
{
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m128i bytes = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(x + j / 2));
        const __m128i maskF = _mm_set1_epi8(0xF);
        const __m128i lo = _mm_and_si128(bytes, maskF);
        const __m128i hi =
            _mm_and_si128(_mm_srli_epi16(bytes, 4), maskF);
        __m128i v = _mm_unpacklo_epi8(lo, hi);
        const __m128i eight = _mm_set1_epi8(8);
        v = _mm_sub_epi8(_mm_xor_si128(v, eight), eight);
        accumWiden8Avx2(w, _mm256_cvtepi8_epi32(v), y + j);
        accumWiden8Avx2(w, _mm256_cvtepi8_epi32(_mm_srli_si128(v, 8)),
                        y + j + 8);
    }
    axpyI4Scalar(w, x + j / 2, y + j, n - j);
}

}  // namespace

const Kernels *
avx2Kernels()
{
    if (!__builtin_cpu_supports("avx2") ||
        !__builtin_cpu_supports("fma"))
        return nullptr;
    static const Kernels table{
        KernelIsa::Avx2,   dotAvx2,
        axpyAvx2,          maxReduceAvx2,
        expSumInPlaceAvx2, scaleAvx2,
        divideByAvx2,      gatherDotAvx2,
        gatherWeightedSumAvx2,
        dotI8Avx2,         gatherDotI8Avx2,
        dotI4Avx2,         gatherDotI4Avx2,
        axpyI8Avx2,        axpyI4Avx2,
        dotI16Avx2,        gatherDotI16Avx2,
        axpyI16Avx2,
    };
    return &table;
}

}  // namespace a3

#else  // !(__AVX2__ && __FMA__)

namespace a3 {

const Kernels *
avx2Kernels()
{
    return nullptr;
}

}  // namespace a3

#endif
