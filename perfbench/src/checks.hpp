/**
 * @file
 * Output checks computed apart from the program: double-precision
 * softmax attention, the approximation's selection rules, and the
 * fixed-point pipeline's error bound derived from its format.
 *
 * Every check returns true on success and otherwise writes a one-line
 * reason into `why`.
 */
#ifndef PERFBENCH_CHECKS_HPP
#define PERFBENCH_CHECKS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "attention/config.hpp"
#include "bench.hpp"

namespace pb {

/**
 * Exact attention over rows [0, n) of (K, V): the output and weights
 * match the benchmark's own double-precision softmax(K q)^T V within
 * a float rounding bound derived from n and the score magnitudes.
 */
bool checkExact(const Matrix &K, const Matrix &V, std::size_t n,
                const Vector &q, const AttentionResult &r,
                std::string &why);

/**
 * Float approximation (Sections IV-V): kept rows are candidates,
 * candidate scores match the benchmark's dot products, the kept set is
 * exactly the candidates within ln(100/T) of the best candidate score
 * (or the top row alone), the output is the softmax-weighted sum over
 * the kept rows, and the iteration count is at most M.
 */
bool checkApprox(const Matrix &K, const Matrix &V, const Vector &q,
                 const a3::ApproxConfig &config,
                 const AttentionResult &r, std::string &why);

/**
 * Exact fixed-point pipeline at input format (intBits, fracBits):
 * scores equal the integer dot products of the benchmark's own
 * quantization, the output equals the weighted sum of the quantized
 * values under the reported weights, and the weights lie within the
 * bound the exponent-LUT and divider widths imply.
 */
bool checkQuantized(const Matrix &K, const Matrix &V, const Vector &q,
                    int intBits, int fracBits, const AttentionResult &r,
                    std::string &why);

/** Float selection feeding the fixed-point pipeline. */
bool checkApproxQuantized(const Matrix &K, const Matrix &V,
                          const Vector &q,
                          const a3::ApproxConfig &config, int intBits,
                          int fracBits, const AttentionResult &r,
                          std::string &why);

/** Bitwise equality of output, weights, scores, candidates, kept. */
bool bitIdentical(const AttentionResult &a, const AttentionResult &b);

}  // namespace pb

#endif  // PERFBENCH_CHECKS_HPP
