/**
 * @file
 * Tests for the two-half exponent LUT (Section III, Module 2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "fixed/exp_lut.hpp"
#include "util/random.hpp"

namespace a3 {
namespace {

TEST(ExpLut, ZeroInputGivesSaturatedOne)
{
    ExpLut lut(8, 8);
    // e^0 = 1.0 saturates into Q0.8 as 255/256.
    EXPECT_EQ(lut.lookup(0), 255);
}

TEST(ExpLut, KnownValues)
{
    ExpLut lut(8, 8);
    // e^-1: input raw = -256 (1.0 with 8 fraction bits).
    const double got = static_cast<double>(lut.lookup(-256)) / 256.0;
    EXPECT_NEAR(got, std::exp(-1.0), lut.maxAbsError());
    // e^-0.5
    const double half = static_cast<double>(lut.lookup(-128)) / 256.0;
    EXPECT_NEAR(half, std::exp(-0.5), lut.maxAbsError());
}

TEST(ExpLut, UnderflowsToZero)
{
    ExpLut lut(8, 8);
    // e^-30 is far below half an output LSB.
    EXPECT_EQ(lut.lookup(-30 * 256), 0);
}

TEST(ExpLut, MonotoneNonIncreasingWithinOneLsb)
{
    // The two half-tables round independently, so the composed lookup
    // is only monotone to within one output LSB — exactly like the
    // synthesized unit; the analytic error bound still holds.
    ExpLut lut(6, 6);
    std::int64_t prev = lut.lookup(0);
    for (std::int64_t raw = -1; raw >= -(1 << 12); raw -= 3) {
        const std::int64_t cur = lut.lookup(raw);
        EXPECT_LE(cur, prev + 1) << "raw=" << raw;
        prev = std::min(prev, cur);
    }
}

TEST(ExpLut, PaperFormatNonMonotonePointsPinned)
{
    // ExpLut(8, 8) is the LUT of the paper's f = 4 pipeline. Its two
    // halves round independently, so at a fixed set of inputs the
    // score drops as the input rises (a larger dot product gets a
    // smaller weight). Pin that set's size and depth: a table change
    // that adds non-monotone points or deepens a drop fails here.
    ExpLut lut(8, 8);
    int points = 0;
    std::int64_t worstDrop = 0;
    std::int64_t first = 0;
    for (std::int64_t raw = -16384; raw < 0; ++raw) {
        const std::int64_t drop = lut.lookup(raw) - lut.lookup(raw + 1);
        if (drop <= 0)
            continue;
        if (points++ == 0)
            first = raw;
        worstDrop = std::max(worstDrop, drop);
    }
    EXPECT_EQ(points, 22);
    EXPECT_EQ(worstDrop, 1);  // output LSBs
    EXPECT_EQ(first, -1568);
}

TEST(ExpLut, TableSizesAreTwoHalves)
{
    ExpLut lut(8, 8);
    // The split covers indexBits() total bits with two tables whose
    // sizes multiply to 2^indexBits — the paper's decomposition.
    EXPECT_EQ(lut.upperEntries() * lut.lowerEntries(),
              std::size_t{1} << lut.indexBits());
    // Both tables must be far smaller than the monolithic 2^indexBits.
    EXPECT_LT(lut.upperEntries(),
              std::size_t{1} << (lut.indexBits() - 2));
}

/** Property: error bound holds across formats and random inputs. */
class ExpLutErrorBound
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(ExpLutErrorBound, WithinAnalyticBound)
{
    const auto [inBits, outBits] = GetParam();
    ExpLut lut(inBits, outBits);
    Rng rng(400 + static_cast<std::uint64_t>(inBits * 31 + outBits));
    const double outScale = std::ldexp(1.0, outBits);
    for (int i = 0; i < 20000; ++i) {
        // Sample magnitudes heavily in the non-underflow region.
        const double x = -rng.uniform(0.0, 10.0);
        const auto raw = static_cast<std::int64_t>(
            std::floor(x * std::ldexp(1.0, inBits)));
        const double got =
            static_cast<double>(lut.lookup(raw)) / outScale;
        const double exact =
            std::exp(std::ldexp(static_cast<double>(raw), -inBits));
        EXPECT_NEAR(got, exact, lut.maxAbsError())
            << "in=" << inBits << " out=" << outBits << " raw=" << raw;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, ExpLutErrorBound,
    ::testing::Values(std::pair{4, 4}, std::pair{6, 6}, std::pair{8, 8},
                      std::pair{8, 6}, std::pair{10, 10},
                      std::pair{12, 12}));

/**
 * The Section III-B footnote: for x <= 0 the exponential *contracts*
 * quantization error, |e^{x+eps} - e^x| < |eps|.
 */
TEST(ExpLut, ExponentialContractsErrorForNegativeInputs)
{
    Rng rng(500);
    for (int i = 0; i < 10000; ++i) {
        const double x = -rng.uniform(0.0, 8.0);
        const double eps = rng.uniform(-0.03, 0.03);
        if (x + eps > 0.0)
            continue;
        EXPECT_LT(std::fabs(std::exp(x + eps) - std::exp(x)),
                  std::fabs(eps) + 1e-15);
    }
}

}  // namespace
}  // namespace a3
