/**
 * @file
 * Two-half exponent lookup table (Section III, Module 2).
 *
 * A3 computes e^x for non-positive fixed-point x with a lookup table
 * instead of an exponent unit. To keep the table small it exploits
 *
 *     e^(0.10101111b) = e^(0.10100000b) x e^(0.00001111b),
 *
 * i.e. the input bit pattern is split into an upper and a lower half,
 * each indexes a small table, and the two fetched values are multiplied.
 * Because the pipeline subtracts the running maximum before this stage,
 * x <= 0 always holds, so e^x lies in [0, 1] and the result needs no
 * integer bits (Section III-B).
 *
 * Inputs whose magnitude exceeds the underflow threshold — where e^x is
 * smaller than half an output LSB — short-circuit to zero, which also
 * bounds the number of index bits the tables must cover.
 *
 * The lookup is not monotone. Each half-table entry is rounded on its
 * own and the product is truncated, so at a few inputs the score falls
 * by one output LSB as the input rises: ExpLut(8, 8), the table of the
 * paper's f = 4 pipeline, has 22 such points over its whole input
 * range (the first at raw -1568), each a drop of exactly 1 LSB
 * (pinned by ExpLut.PaperFormatNonMonotonePointsPinned). The error
 * against e^x stays inside maxAbsError(); a row with a smaller dot
 * product can still receive a larger weight. This is a property of
 * the paper's two-half design, which this model reproduces rather
 * than corrects.
 */

#ifndef A3_FIXED_EXP_LUT_HPP
#define A3_FIXED_EXP_LUT_HPP

#include <cstdint>
#include <vector>

#include "fixed/format.hpp"

namespace a3 {

/** Hardware-style exponent evaluator for non-positive fixed-point input. */
class ExpLut
{
  public:
    /**
     * Build the two half-tables.
     *
     * @param inputFracBits fraction bits of the (non-positive) input.
     * @param outputFracBits fraction bits of the produced score.
     */
    ExpLut(int inputFracBits, int outputFracBits);

    /**
     * Evaluate e^x for `rawInput` <= 0 interpreted with inputFracBits
     * fraction bits. Returns a raw score with outputFracBits fraction
     * bits, saturated into [0, 2^outputFracBits - 1] (i.e. Q0.f).
     */
    std::int64_t lookup(std::int64_t rawInput) const;

    /** Score format produced by lookup(). */
    FixedFormat outputFormat() const { return {0, outputFracBits_}; }

    /** Number of entries in the upper-half table. */
    std::size_t upperEntries() const { return upperTable_.size(); }

    /** Number of entries in the lower-half table. */
    std::size_t lowerEntries() const { return lowerTable_.size(); }

    /** Total index bits covered before the underflow short-circuit. */
    int indexBits() const { return upperBits_ + lowerBits_; }

    /**
     * Analytic bound on |lookup(x) - e^x| in real-value terms: two table
     * quantization errors plus the product truncation, in output LSBs.
     */
    double maxAbsError() const;

  private:
    int inputFracBits_;
    int outputFracBits_;
    int upperBits_;
    int lowerBits_;
    std::vector<std::int64_t> upperTable_;
    std::vector<std::int64_t> lowerTable_;
};

}  // namespace a3

#endif  // A3_FIXED_EXP_LUT_HPP
