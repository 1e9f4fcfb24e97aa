/**
 * @file
 * Test-only scalar oracle for the Figure 5 fixed-point pipeline. It is
 * the unbound datapath: every query re-quantizes the float K/V, so it
 * is the reference the bound QuantizedAttention lanes must match bit
 * for bit.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "attention/types.hpp"
#include "fixed/exp_lut.hpp"
#include "fixed/pipeline_formats.hpp"
#include "fixed/value.hpp"
#include "tensor/matrix.hpp"

namespace a3 {

/**
 * Scalar Figure 5 oracle, straight from the float matrices: quantize
 * every element on the fly, dot products at (2i + log2 d, 2f), the
 * running max, the two-half exponent LUT, the truncating divider, and
 * mulFull() products accumulated at (i + log2 n, 3f). Shares no code
 * with the backend's lanes or kernels.
 */
inline AttentionResult
figure5Oracle(const Matrix &key, const Matrix &value,
              const Vector &query,
              const std::vector<std::uint32_t> &rows, int intBits,
              int fracBits)
{
    const std::size_t n = key.rows();
    const std::size_t d = key.cols();
    const PipelineFormats fmt =
        PipelineFormats::derive(intBits, fracBits, n, d);
    const ExpLut lut(2 * fracBits, 2 * fracBits);
    const FixedFormat in = fmt.input;

    std::vector<std::int64_t> dot(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        for (std::size_t j = 0; j < d; ++j) {
            dot[i] +=
                in.quantize(key(rows[i], j)) * in.quantize(query[j]);
        }
    }
    const std::int64_t maxDot =
        *std::max_element(dot.begin(), dot.end());
    std::vector<std::int64_t> score(rows.size());
    std::int64_t expSum = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        score[i] = lut.lookup(dot[i] - maxDot);
        expSum += score[i];
    }

    AttentionResult r;
    r.scores.assign(n, 0.0f);
    r.weights.assign(n, 0.0f);
    r.candidates = rows;
    r.kept = rows;
    std::vector<std::int64_t> acc(d, 0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const FixedValue weight =
            divide({score[i], fmt.score}, {expSum, fmt.expSum},
                   fmt.weight.intBits, fmt.weight.fracBits);
        r.scores[rows[i]] =
            static_cast<float>(fmt.dotProduct.toDouble(dot[i]));
        r.weights[rows[i]] = static_cast<float>(weight.toDouble());
        for (std::size_t j = 0; j < d; ++j) {
            const FixedValue v{in.quantize(value(rows[i], j)), in};
            acc[j] += mulFull(weight, v).raw;
        }
    }
    r.output.resize(d);
    for (std::size_t j = 0; j < d; ++j)
        r.output[j] = static_cast<float>(fmt.output.toDouble(acc[j]));
    return r;
}

inline std::vector<std::uint32_t>
allRows(std::size_t n)
{
    std::vector<std::uint32_t> rows(n);
    std::iota(rows.begin(), rows.end(), 0u);
    return rows;
}

} // namespace a3
