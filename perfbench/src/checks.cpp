#include "checks.hpp"

#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

namespace pb {

namespace {

/** Unit roundoff of float. */
constexpr double kFloatEps = 1.0 / 16777216.0;

template <typename... Args>
bool
failWith(std::string &why, Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    why = os.str();
    return false;
}

double
dotDouble(const Matrix &K, std::size_t row, const Vector &q,
          double &absSum)
{
    double sum = 0.0;
    absSum = 0.0;
    for (std::size_t j = 0; j < q.size(); ++j) {
        const double p = static_cast<double>(K(row, j)) * q[j];
        sum += p;
        absSum += std::fabs(p);
    }
    return sum;
}

/**
 * Softmax attention over `rows` in double, compared with the float
 * result. The float path's error comes from the reassociated dot
 * products (bounded by d * eps * sum|k q| per score), the exponent
 * (relative 1e-5 covers the SIMD polynomial), and the float sums over
 * the rows (bounded by count * eps relative).
 */
bool
checkSoftmaxOver(const Matrix &K, const Matrix &V, const Vector &q,
                 const std::vector<std::uint32_t> &rows,
                 const AttentionResult &r, std::string &why)
{
    const std::size_t d = q.size();
    const std::size_t m = rows.size();
    std::vector<double> score(m), absSum(m);
    double best = -INFINITY;
    for (std::size_t i = 0; i < m; ++i) {
        score[i] = dotDouble(K, rows[i], q, absSum[i]);
        best = std::max(best, score[i]);
    }
    double scoreErrMax = 0.0;
    for (std::size_t i = 0; i < m; ++i)
        scoreErrMax = std::max(
            scoreErrMax, static_cast<double>(d) * kFloatEps * absSum[i]);
    double z = 0.0;
    std::vector<double> w(m);
    for (std::size_t i = 0; i < m; ++i) {
        w[i] = std::exp(score[i] - best);
        z += w[i];
    }
    for (double &x : w)
        x /= z;
    const double sumErr = static_cast<double>(m + d) * kFloatEps;
    for (std::size_t i = 0; i < m; ++i) {
        const double rel = 2.0 * scoreErrMax +
                           std::fabs(score[i] - best) * kFloatEps +
                           1e-5 + 2.0 * sumErr;
        const double got = r.weights[rows[i]];
        if (std::fabs(got - w[i]) > w[i] * rel + 1e-9)
            return failWith(why, "weight of row ", rows[i], " is ", got,
                            ", reference ", w[i]);
    }
    for (std::size_t j = 0; j < d; ++j) {
        double ref = 0.0, tol = 1e-9;
        for (std::size_t i = 0; i < m; ++i) {
            const double v = V(rows[i], j);
            ref += w[i] * v;
            const double rel = 2.0 * scoreErrMax +
                               std::fabs(score[i] - best) * kFloatEps +
                               1e-5 + 3.0 * sumErr;
            tol += w[i] * std::fabs(v) * rel;
        }
        if (std::fabs(r.output[j] - ref) > tol)
            return failWith(why, "output[", j, "] is ", r.output[j],
                            ", reference ", ref, " (bound ", tol, ")");
    }
    return true;
}

bool
ascendingUnique(const std::vector<std::uint32_t> &rows, std::size_t n)
{
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (rows[i] >= n || (i > 0 && rows[i] <= rows[i - 1]))
            return false;
    }
    return true;
}

bool
isSubset(const std::vector<std::uint32_t> &sub,
         const std::vector<std::uint32_t> &super)
{
    return std::includes(super.begin(), super.end(), sub.begin(),
                         sub.end());
}

/** Post-scoring rule over (rows, float scores), as Section IV-D
 *  states it: keep rows within `gap` of the best, else the top row. */
std::vector<std::uint32_t>
expectedKept(const std::vector<std::uint32_t> &rows,
             const std::vector<float> &scores, double gap)
{
    std::vector<std::uint32_t> kept;
    if (rows.empty())
        return kept;
    const float best = *std::max_element(scores.begin(), scores.end());
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (static_cast<double>(best) - static_cast<double>(scores[i]) <=
            gap)
            kept.push_back(rows[i]);
    if (kept.empty())
        kept.push_back(rows[static_cast<std::size_t>(
            std::max_element(scores.begin(), scores.end()) -
            scores.begin())]);
    return kept;
}

/** The symmetric round-to-nearest-even quantizer of format (i, f). */
std::int64_t
quantize(double x, int intBits, int fracBits)
{
    const double maxRaw = std::ldexp(1.0, intBits + fracBits) - 1.0;
    const double rounded = std::nearbyint(std::ldexp(x, fracBits));
    return static_cast<std::int64_t>(
        std::clamp(rounded, -maxRaw, maxRaw));
}

std::int64_t
intDot(const Matrix &K, std::size_t row, const std::vector<std::int64_t> &qq,
       int intBits, int fracBits)
{
    std::int64_t sum = 0;
    for (std::size_t j = 0; j < qq.size(); ++j)
        sum += quantize(K(row, j), intBits, fracBits) * qq[j];
    return sum;
}

/**
 * The fixed-point pipeline over `rows` (ascending). Scores are dot
 * products at 2f fraction bits; the exponent LUT is within 3 LSB of
 * e^x and returns exactly 0 once |x| >= 2^k, the smallest power of
 * two covering ln(2) (2f + 1) (Section III underflow threshold); the
 * divider truncates to 2f bits. Hence with S the exact exponent sum
 * and E the summed LUT error,
 *   |w_i - e_i / S| <= 2^-2f + (eps_i + w_i E) / max(S - E, 1 - eps).
 */
bool
checkQuantizedRows(const Matrix &K, const Matrix &V, const Vector &q,
                   int intBits, int fracBits,
                   const std::vector<std::uint32_t> &rows,
                   const AttentionResult &r, std::string &why)
{
    const std::size_t d = q.size();
    const std::size_t m = rows.size();
    const int F = 2 * fracBits;
    const double lsb = std::ldexp(1.0, -F);
    if (r.output.size() != d || r.weights.size() != K.rows())
        return failWith(why, "quantized result has the wrong shape");

    std::vector<std::int64_t> qq(d);
    for (std::size_t j = 0; j < d; ++j)
        qq[j] = quantize(q[j], intBits, fracBits);
    std::vector<std::int64_t> dots(m);
    std::int64_t maxDot = 0;
    for (std::size_t i = 0; i < m; ++i) {
        dots[i] = intDot(K, rows[i], qq, intBits, fracBits);
        if (i == 0 || dots[i] > maxDot)
            maxDot = dots[i];
        const auto expect =
            static_cast<float>(static_cast<double>(dots[i]) * lsb);
        if (r.scores[rows[i]] != expect)
            return failWith(why, "fixed-point score of row ", rows[i],
                            " is ", r.scores[rows[i]], ", expected ",
                            expect);
    }

    int k = 1;
    while (std::ldexp(1.0, k) < std::log(2.0) * (F + 1))
        ++k;
    const double zeroBeyond = std::ldexp(1.0, k);
    const double lutErr = 3.0 * lsb;
    std::vector<double> e(m), eps(m);
    double s = 0.0, bigE = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        const double x = static_cast<double>(dots[i] - maxDot) * lsb;
        e[i] = std::exp(x);
        eps[i] = -x >= zeroBeyond ? e[i] : lutErr;
        s += e[i];
        bigE += eps[i];
    }
    const double denom = std::max(s - bigE, 1.0 - lutErr);

    // Weights: within the bound, summing to at most 1 (the divider
    // truncates), and zero off the pipeline's rows. They need not be
    // monotone in the score: the two-half LUT rounds each half.
    std::vector<double> bound(m);
    double weightSum = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        const double w = e[i] / s;
        bound[i] = std::min(1.0, lsb + (eps[i] + w * bigE) / denom);
        const double got = r.weights[rows[i]];
        weightSum += got;
        if (std::fabs(got - w) > bound[i] + 1e-12)
            return failWith(why, "fixed-point weight of row ", rows[i],
                            " is ", got, ", reference ", w, " (bound ",
                            bound[i], ")");
    }
    if (weightSum > 1.0 + 1e-9)
        return failWith(why, "fixed-point weights sum to ", weightSum);
    std::size_t nonZeroOff = 0;
    for (std::size_t row = 0, i = 0; row < r.weights.size(); ++row) {
        if (i < m && rows[i] == row) {
            ++i;
            continue;
        }
        nonZeroOff += r.weights[row] != 0.0f ? 1 : 0;
    }
    if (nonZeroOff > 0)
        return failWith(why, nonZeroOff,
                        " rows outside the pipeline carry weight");

    // Output: exactly the weighted sum of the quantized values under
    // the reported weights (the accumulator is exact at 3f bits), and
    // within the weight bound of the double softmax output.
    const double vRes = std::ldexp(1.0, -fracBits);
    for (std::size_t j = 0; j < d; ++j) {
        double exact = 0.0, ref = 0.0, tol = 1e-12;
        for (std::size_t i = 0; i < m; ++i) {
            const double v = static_cast<double>(
                                 quantize(V(rows[i], j), intBits,
                                          fracBits)) *
                             vRes;
            exact += static_cast<double>(r.weights[rows[i]]) * v;
            ref += e[i] / s * v;
            tol += bound[i] * std::fabs(v);
        }
        if (r.output[j] != static_cast<float>(exact))
            return failWith(why, "fixed-point output[", j, "] is ",
                            r.output[j], ", weighted sum ", exact);
        if (std::fabs(r.output[j] - ref) > tol)
            return failWith(why, "fixed-point output[", j, "] is ",
                            r.output[j], ", reference ", ref,
                            " (bound ", tol, ")");
    }
    return true;
}

}  // namespace

bool
checkExact(const Matrix &K, const Matrix &V, std::size_t n,
           const Vector &q, const AttentionResult &r, std::string &why)
{
    if (r.output.size() != q.size() || r.weights.size() != n)
        return failWith(why, "exact result has the wrong shape");
    std::vector<std::uint32_t> rows(n);
    std::iota(rows.begin(), rows.end(), 0u);
    return checkSoftmaxOver(K, V, q, rows, r, why);
}

bool
checkApprox(const Matrix &K, const Matrix &V, const Vector &q,
            const a3::ApproxConfig &config, const AttentionResult &r,
            std::string &why)
{
    const std::size_t n = K.rows();
    if (r.output.size() != q.size() || r.weights.size() != n ||
        r.scores.size() != n)
        return failWith(why, "approx result has the wrong shape");
    const std::size_t m = config.iterationsFor(n);
    if (r.iterations > m)
        return failWith(why, "greedy search ran ", r.iterations,
                        " iterations, M = ", m);
    if (!ascendingUnique(r.candidates, n) || r.candidates.empty())
        return failWith(why, "candidate list malformed");
    if (!ascendingUnique(r.kept, n) || !isSubset(r.kept, r.candidates))
        return failWith(why, "a kept row is not a candidate");

    std::vector<float> candScores(r.candidates.size());
    for (std::size_t i = 0; i < r.candidates.size(); ++i) {
        const std::uint32_t row = r.candidates[i];
        double absSum = 0.0;
        const double ref = dotDouble(K, row, q, absSum);
        candScores[i] = r.scores[row];
        const double tol =
            static_cast<double>(q.size()) * kFloatEps * absSum + 1e-9;
        if (std::fabs(r.scores[row] - ref) > tol)
            return failWith(why, "score of candidate ", row, " is ",
                            r.scores[row], ", dot product ", ref);
    }
    if (expectedKept(r.candidates, candScores, config.scoreGap()) !=
        r.kept)
        return failWith(why, "kept set differs from the candidates "
                             "within ln(100/T) of the best score");
    std::size_t nonZeroOff = 0;
    for (std::size_t row = 0, i = 0; row < n; ++row) {
        if (i < r.kept.size() && r.kept[i] == row) {
            ++i;
            continue;
        }
        nonZeroOff += r.weights[row] != 0.0f ? 1 : 0;
    }
    if (nonZeroOff > 0)
        return failWith(why, nonZeroOff,
                        " rows outside the kept set carry weight");
    return checkSoftmaxOver(K, V, q, r.kept, r, why);
}

bool
checkQuantized(const Matrix &K, const Matrix &V, const Vector &q,
               int intBits, int fracBits, const AttentionResult &r,
               std::string &why)
{
    std::vector<std::uint32_t> rows(K.rows());
    std::iota(rows.begin(), rows.end(), 0u);
    if (r.kept != rows)
        return failWith(why, "exact fixed-point pipeline dropped rows");
    return checkQuantizedRows(K, V, q, intBits, fracBits, rows, r, why);
}

bool
checkApproxQuantized(const Matrix &K, const Matrix &V, const Vector &q,
                     const a3::ApproxConfig &config, int intBits,
                     int fracBits, const AttentionResult &r,
                     std::string &why)
{
    const std::size_t n = K.rows();
    const std::size_t m = config.iterationsFor(n);
    if (r.iterations > m)
        return failWith(why, "greedy search ran ", r.iterations,
                        " iterations, M = ", m);
    if (!ascendingUnique(r.candidates, n) || r.candidates.empty())
        return failWith(why, "candidate list malformed");
    if (!ascendingUnique(r.kept, n) || !isSubset(r.kept, r.candidates))
        return failWith(why, "a kept row is not a candidate");

    std::vector<std::int64_t> qq(q.size());
    for (std::size_t j = 0; j < q.size(); ++j)
        qq[j] = quantize(q[j], intBits, fracBits);
    const double lsb = std::ldexp(1.0, -2 * fracBits);
    std::vector<float> candScores(r.candidates.size());
    for (std::size_t i = 0; i < r.candidates.size(); ++i)
        candScores[i] = static_cast<float>(
            static_cast<double>(
                intDot(K, r.candidates[i], qq, intBits, fracBits)) *
            lsb);
    if (expectedKept(r.candidates, candScores, config.scoreGap()) !=
        r.kept)
        return failWith(why, "kept set differs from the candidates "
                             "within ln(100/T) of the best fixed-point "
                             "score");
    return checkQuantizedRows(K, V, q, intBits, fracBits, r.kept, r, why);
}

bool
bitIdentical(const AttentionResult &a, const AttentionResult &b)
{
    auto same = [](const Vector &x, const Vector &y) {
        return x.size() == y.size() &&
               (x.empty() || std::memcmp(x.data(), y.data(),
                                         x.size() * sizeof(float)) == 0);
    };
    return same(a.output, b.output) && same(a.weights, b.weights) &&
           same(a.scores, b.scores) && a.candidates == b.candidates &&
           a.kept == b.kept && a.iterations == b.iterations;
}

}  // namespace pb
