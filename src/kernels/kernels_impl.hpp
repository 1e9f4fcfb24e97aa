/**
 * @file
 * Shared scalar bodies for the kernel tables (internal header).
 *
 * Every kernel TU — scalar, SSE2, AVX2, NEON — includes these inline
 * loops: the scalar table uses them directly, and the SIMD tables use
 * them for sub-vector tails. Sharing one definition is what makes the
 * order-preserving ops bit-identical across tables, so do not fork
 * per-TU copies. All kernel TUs are compiled with -ffp-contract=off
 * (see CMakeLists.txt) so a compiler with FMA cannot contract the
 * multiply-add pairs differently in different TUs.
 */

#ifndef A3_KERNELS_KERNELS_IMPL_HPP
#define A3_KERNELS_KERNELS_IMPL_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "fixed/packed.hpp"

namespace a3 {
namespace kernel_detail {

inline float
dotScalar(const float *a, const float *b, std::size_t n)
{
    float sum = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
        sum += a[i] * b[i];
    return sum;
}

inline void
axpyScalar(float a, const float *x, float *y, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] += a * x[i];
}

inline float
maxReduceScalar(const float *v, std::size_t n)
{
    float best = -std::numeric_limits<float>::infinity();
    for (std::size_t i = 0; i < n; ++i)
        best = std::max(best, v[i]);
    return best;
}

inline float
expSumInPlaceScalar(float *v, std::size_t n, float maxVal)
{
    float sum = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = std::exp(v[i] - maxVal);
        sum += v[i];
    }
    return sum;
}

inline void
scaleScalar(float *v, std::size_t n, float factor)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] *= factor;
}

inline void
divideByScalar(float *v, std::size_t n, float denom)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] /= denom;
}

inline void
gatherDotScalar(const float *mat, std::size_t dims,
                const std::uint32_t *rows, std::size_t count,
                const float *q, float *out)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = dotScalar(mat + rows[i] * dims, q, dims);
}

inline void
gatherWeightedSumScalar(const float *mat, std::size_t dims,
                        const std::uint32_t *rows, std::size_t count,
                        const float *w, float *out)
{
    for (std::size_t i = 0; i < count; ++i) {
        const float *row = mat + rows[i] * dims;
        for (std::size_t j = 0; j < dims; ++j)
            out[j] += w[i] * row[j];
    }
}

/*
 * Packed integer bodies. These are exact (integer arithmetic), so the
 * SIMD tables reuse them for tails without any bit-identity caveat;
 * the sharing here is about one source of truth, not rounding.
 */

inline std::int32_t
dotI8Scalar(const std::int8_t *a, const std::int8_t *b, std::size_t n)
{
    std::int32_t sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        sum += static_cast<std::int32_t>(a[i]) *
               static_cast<std::int32_t>(b[i]);
    return sum;
}

inline void
gatherDotI8Scalar(const std::int8_t *mat, std::size_t dims,
                  const std::uint32_t *rows, std::size_t count,
                  const std::int8_t *q, std::int32_t *out)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = dotI8Scalar(mat + rows[i] * dims, q, dims);
}

inline std::int32_t
dotI4Scalar(const std::uint8_t *a, const std::int8_t *q, std::size_t n)
{
    std::int32_t sum = 0;
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const std::uint8_t byte = a[i / 2];
        sum += static_cast<std::int32_t>(unpackNibbleLow(byte)) *
               static_cast<std::int32_t>(q[i]);
        sum += static_cast<std::int32_t>(unpackNibbleHigh(byte)) *
               static_cast<std::int32_t>(q[i + 1]);
    }
    if (i < n)
        sum += static_cast<std::int32_t>(unpackNibbleLow(a[i / 2])) *
               static_cast<std::int32_t>(q[i]);
    return sum;
}

inline void
gatherDotI4Scalar(const std::uint8_t *mat, std::size_t dims,
                  const std::uint32_t *rows, std::size_t count,
                  const std::int8_t *q, std::int32_t *out)
{
    const std::size_t rowBytes = (dims + 1) / 2;
    for (std::size_t i = 0; i < count; ++i)
        out[i] = dotI4Scalar(mat + rows[i] * rowBytes, q, dims);
}

inline void
axpyI8Scalar(std::int64_t w, const std::int8_t *x, std::int64_t *y,
             std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] += w * static_cast<std::int64_t>(x[i]);
}

inline void
axpyI4Scalar(std::int64_t w, const std::uint8_t *x, std::int64_t *y,
             std::size_t n)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const std::uint8_t byte = x[i / 2];
        y[i] += w * static_cast<std::int64_t>(unpackNibbleLow(byte));
        y[i + 1] +=
            w * static_cast<std::int64_t>(unpackNibbleHigh(byte));
    }
    if (i < n)
        y[i] += w * static_cast<std::int64_t>(unpackNibbleLow(x[i / 2]));
}

inline std::int32_t
dotI16Scalar(const std::int16_t *a, const std::int16_t *b,
             std::size_t n)
{
    std::int32_t sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        sum += static_cast<std::int32_t>(a[i]) *
               static_cast<std::int32_t>(b[i]);
    return sum;
}

inline void
gatherDotI16Scalar(const std::int16_t *mat, std::size_t dims,
                   const std::uint32_t *rows, std::size_t count,
                   const std::int16_t *q, std::int32_t *out)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = dotI16Scalar(mat + rows[i] * dims, q, dims);
}

inline void
axpyI16Scalar(std::int64_t w, const std::int16_t *x, std::int64_t *y,
              std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] += w * static_cast<std::int64_t>(x[i]);
}

}  // namespace kernel_detail
}  // namespace a3

#endif  // A3_KERNELS_KERNELS_IMPL_HPP
