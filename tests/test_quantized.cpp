/**
 * @file
 * Tests for the bit-accurate fixed-point pipeline (Section III-B) and
 * the Section VI-B quantization claims.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "attention/backend.hpp"
#include "attention/quantized.hpp"
#include "attention/reference.hpp"
#include "engine/engine.hpp"
#include "fixed/value.hpp"
#include "kernels/kernels.hpp"
#include "net/wire.hpp"
#include "util/random.hpp"

#include "figure5_oracle.hpp"

namespace a3 {
namespace {

struct RandomTask
{
    Matrix key;
    Matrix value;
    Vector query;
};

RandomTask
makeTask(Rng &rng, std::size_t n, std::size_t d, double scale = 1.0)
{
    RandomTask t;
    t.key = Matrix(n, d);
    t.value = Matrix(n, d);
    t.query.resize(d);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < d; ++c) {
            t.key(r, c) = static_cast<float>(rng.normal(0.0, scale));
            t.value(r, c) = static_cast<float>(rng.normal(0.0, scale));
        }
    }
    for (auto &x : t.query)
        x = static_cast<float>(rng.normal(0.0, scale));
    return t;
}

TEST(QuantizedAttention, WeightsApproximatelySumToOne)
{
    Rng rng(5000);
    const RandomTask t = makeTask(rng, 30, 16);
    const QuantizedAttention qa(t.key, t.value, 4, 4);
    const AttentionResult r = qa.run(t.query);
    float sum = 0.0f;
    for (float w : r.weights)
        sum += w;
    // Truncating division loses at most one LSB per row.
    EXPECT_NEAR(sum, 1.0f, 30.0f / 256.0f);
}

TEST(QuantizedAttention, MatchesReferenceWithinBoundAtF8)
{
    Rng rng(5001);
    const RandomTask t = makeTask(rng, 20, 16);
    const QuantizedAttention qa(t.key, t.value, 4, 8);
    const AttentionResult q = qa.run(t.query);
    const AttentionResult ref =
        referenceAttention(t.key, t.value, t.query);
    EXPECT_LT(maxAbsDiff(q.output, ref.output), 0.05f);
}

TEST(QuantizedAttention, ErrorDecreasesWithFractionBits)
{
    Rng rng(5002);
    double prevErr = 1e9;
    for (int f : {2, 4, 6, 8, 10}) {
        double worst = 0.0;
        Rng trialRng = rng.split();
        for (int trial = 0; trial < 10; ++trial) {
            const RandomTask t = makeTask(trialRng, 24, 16);
            const QuantizedAttention qa(t.key, t.value, 4, f);
            const AttentionResult q = qa.run(t.query);
            const AttentionResult ref =
                referenceAttention(t.key, t.value, t.query);
            worst = std::max(
                worst,
                static_cast<double>(maxAbsDiff(q.output, ref.output)));
        }
        EXPECT_LT(worst, prevErr * 1.5)
            << "f=" << f;  // allow noise but require overall decay
        prevErr = std::min(prevErr, worst);
    }
    EXPECT_LT(prevErr, 0.02);
}

TEST(QuantizedAttention, SubsetRunNormalizesOverSubset)
{
    Rng rng(5003);
    const RandomTask t = makeTask(rng, 16, 8);
    const QuantizedAttention qa(t.key, t.value, 4, 6);
    const std::vector<std::uint32_t> rows{2, 5, 11};
    AttentionResult r;
    qa.runRowsInto(t.query, rows, r);
    float sum = 0.0f;
    for (std::size_t row = 0; row < 16; ++row) {
        const bool in = std::find(rows.begin(), rows.end(),
                                  static_cast<std::uint32_t>(row)) !=
                        rows.end();
        if (!in) {
            EXPECT_FLOAT_EQ(r.weights[row], 0.0f);
            EXPECT_FLOAT_EQ(r.scores[row], 0.0f);
        }
        sum += r.weights[row];
    }
    EXPECT_NEAR(sum, 1.0f, 3.0f / 64.0f);
}

TEST(QuantizedAttention, ExtremeInputsDoNotOverflow)
{
    // Drive every element to the quantization range limits; the
    // Section III-B widths must absorb it (the run would panic on
    // overflow otherwise).
    const std::size_t n = 320;
    const std::size_t d = 64;
    Matrix key(n, d);
    Matrix value(n, d);
    Vector query(d);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < d; ++c) {
            key(r, c) = (r % 2) ? 15.9375f : -16.0f;
            value(r, c) = (c % 2) ? 15.9375f : -16.0f;
        }
    }
    for (std::size_t c = 0; c < d; ++c)
        query[c] = (c % 3) ? -16.0f : 15.9375f;

    const QuantizedAttention qa(key, value, 4, 4);
    const AttentionResult r = qa.run(query);
    EXPECT_EQ(r.output.size(), d);
    for (float o : r.output) {
        EXPECT_GE(o, -16.0f - 1e-3f);
        EXPECT_LE(o, 16.0f + 1e-3f);  // convex combo of value range
    }
}

TEST(QuantizedAttention, TopWeightRowAgreesWithReference)
{
    // Quantization must not disturb which row wins when the margin is
    // clear (the basis of the <0.1% accuracy-loss claim).
    Rng rng(5004);
    int agreements = 0;
    const int trials = 50;
    for (int trial = 0; trial < trials; ++trial) {
        RandomTask t = makeTask(rng, 20, 16);
        // Plant a clear winner.
        for (std::size_t c = 0; c < 16; ++c)
            t.key(7, c) = t.query[c] * 0.5f;
        const QuantizedAttention qa(t.key, t.value, 4, 4);
        const AttentionResult q = qa.run(t.query);
        const AttentionResult ref =
            referenceAttention(t.key, t.value, t.query);
        std::size_t qTop = 0;
        std::size_t rTop = 0;
        for (std::size_t row = 1; row < 20; ++row) {
            if (q.weights[row] > q.weights[qTop])
                qTop = row;
            if (ref.weights[row] > ref.weights[rTop])
                rTop = row;
        }
        agreements += (qTop == rTop);
    }
    EXPECT_GE(agreements, trials - 2);
}

TEST(QuantizedAttention, FormatsExposedMatchDerivation)
{
    const QuantizedAttention qa(Matrix(320, 64), Matrix(320, 64), 4, 4);
    EXPECT_EQ(qa.formats().dotProduct.str(), "Q14.8");
    EXPECT_EQ(qa.formats().output.str(), "Q13.12");
    EXPECT_EQ(qa.expLut().outputFormat().str(), "Q0.8");
}

TEST(QuantizedAttention, DeterministicAcrossRuns)
{
    Rng rng(5005);
    const RandomTask t = makeTask(rng, 12, 8);
    const QuantizedAttention qa(t.key, t.value, 4, 4);
    const AttentionResult a = qa.run(t.query);
    const AttentionResult b = qa.run(t.query);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.weights, b.weights);
}

// ---------------------------------------------------------------------
// Packed K/V storage (fixed/packed.hpp): lossless lanes, so every
// layout must match the Word32 pipeline bit for bit.
// ---------------------------------------------------------------------

/** (intBits, fracBits, layout Auto resolves to) triples under test. */
struct PackedCase
{
    int intBits;
    int fracBits;
    PackedKvFormat format;
};

const PackedCase kPackedCases[] = {
    {4, 4, PackedKvFormat::Int16},
    {4, 8, PackedKvFormat::Int16},
    {3, 4, PackedKvFormat::Int8},
    {2, 4, PackedKvFormat::Int8},
    {1, 2, PackedKvFormat::Int4},
    {2, 1, PackedKvFormat::Int4},
};

void
expectBitIdentical(const AttentionResult &a, const AttentionResult &b)
{
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.weights, b.weights);
    EXPECT_EQ(a.scores, b.scores);
    EXPECT_EQ(a.candidates, b.candidates);
    EXPECT_EQ(a.kept, b.kept);
}

TEST(QuantizedPacked, AutoResolvesToNarrowestLosslessLane)
{
    EXPECT_EQ(resolvePackedKvFormat(PackedKvFormat::Auto, 1, 2, 64),
              PackedKvFormat::Int4);
    EXPECT_EQ(resolvePackedKvFormat(PackedKvFormat::Auto, 3, 4, 64),
              PackedKvFormat::Int8);
    // The paper's default 9-bit word lands on the int16 lane.
    EXPECT_EQ(resolvePackedKvFormat(PackedKvFormat::Auto, 4, 4, 64),
              PackedKvFormat::Int16);
    EXPECT_EQ(resolvePackedKvFormat(PackedKvFormat::Auto, 4, 8, 64),
              PackedKvFormat::Int16);
    // Explicit requests that fit resolve to themselves.
    EXPECT_EQ(resolvePackedKvFormat(PackedKvFormat::Int8, 3, 4, 64),
              PackedKvFormat::Int8);
    EXPECT_EQ(resolvePackedKvFormat(PackedKvFormat::Int4, 1, 2, 64),
              PackedKvFormat::Int4);
    EXPECT_EQ(resolvePackedKvFormat(PackedKvFormat::Int16, 3, 4, 64),
              PackedKvFormat::Int16);
    EXPECT_EQ(resolvePackedKvFormat(PackedKvFormat::Word32, 4, 4, 64),
              PackedKvFormat::Word32);
    EXPECT_EQ(resolvePackedKvFormat(PackedKvFormat::Word32, 12, 12, 64),
              PackedKvFormat::Word32);
    EXPECT_STREQ(packedKvFormatName(PackedKvFormat::Int4), "int4");
    EXPECT_STREQ(packedKvFormatName(PackedKvFormat::Int16), "int16");
    EXPECT_EQ(packedKvLaneBits(PackedKvFormat::Int8), 8);
    EXPECT_EQ(packedKvLaneBits(PackedKvFormat::Int16), 16);
    EXPECT_EQ(packedRowBytes(PackedKvFormat::Int16, 15), 30u);
    // Appended after Int4: the layout bytes of images and frames of
    // the older layouts do not move.
    EXPECT_EQ(static_cast<int>(PackedKvFormat::Int4), 3);
    EXPECT_EQ(static_cast<int>(PackedKvFormat::Int16), 4);
}

TEST(QuantizedPacked, AutoKeepsWord32WhenAnInt32BoundFails)
{
    // A 16-bit word fits the lane, but at d = 64 its dot format
    // (2*7 + 6 int bits, 16 frac bits) needs 37 bits.
    EXPECT_FALSE(packedKvLaneHolds(PackedKvFormat::Int16, 7, 8, 64));
    EXPECT_EQ(resolvePackedKvFormat(PackedKvFormat::Auto, 7, 8, 64),
              PackedKvFormat::Word32);
    // The dot format of Q1.11 fits at d = 16 (29 bits), but a weight
    // near 1.0 (2^22) times a lane near 2^12 overflows an int32 axpy
    // product: i + 3f = 34 > 31.
    EXPECT_FALSE(packedKvLaneHolds(PackedKvFormat::Int16, 1, 11, 16));
    EXPECT_EQ(resolvePackedKvFormat(PackedKvFormat::Auto, 1, 11, 16),
              PackedKvFormat::Word32);
    // i + 3f = 31 is the widest product that still fits.
    EXPECT_TRUE(packedKvLaneHolds(PackedKvFormat::Int16, 1, 10, 16));
    // Words wider than 16 bits never take a packed lane.
    EXPECT_EQ(resolvePackedKvFormat(PackedKvFormat::Auto, 8, 8, 1),
              PackedKvFormat::Word32);
    EXPECT_EQ(tryResolvePackedKvFormat(PackedKvFormat::Int16, 7, 8, 64),
              PackedKvFormat::Auto);

    // Both fallbacks bind and answer without a panic, matching the
    // scalar oracle.
    Rng rng(5108);
    for (const PackedCase &pc : {PackedCase{7, 8, PackedKvFormat::Word32},
                                 PackedCase{1, 11, PackedKvFormat::Word32}}) {
        const std::size_t d = pc.intBits == 7 ? 64 : 16;
        const RandomTask t = makeTask(rng, 12, d);
        const QuantizedAttention qa(t.key, t.value, pc.intBits,
                                    pc.fracBits);
        ASSERT_EQ(qa.packedFormat(), pc.format);
        expectBitIdentical(qa.run(t.query),
                           figure5Oracle(t.key, t.value, t.query,
                                         allRows(12), pc.intBits,
                                         pc.fracBits));
    }
}

TEST(QuantizedPacked, Int16ExactAtTheWidestAxpyProduct)
{
    // Q1.10 sits on the axpy bound (i + 3f = 31). A one-row subset
    // gives that row the largest weight (1.0, saturated to 2^20 - 1),
    // and saturated values put every lane at +-(2^11 - 1): the
    // largest products the int16 kernels may ever form.
    const std::size_t n = 5;
    for (std::size_t d : {7u, 16u, 33u}) {
        SCOPED_TRACE("d=" + std::to_string(d));
        Matrix key(n, d);
        Matrix value(n, d);
        Vector query(d);
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < d; ++c) {
                key(r, c) = (r + c) % 2 ? 3.0f : -3.0f;
                value(r, c) = (r + c) % 3 ? 3.0f : -3.0f;
            }
        }
        for (std::size_t c = 0; c < d; ++c)
            query[c] = c % 2 ? -3.0f : 3.0f;
        const QuantizedAttention int16(key, value, 1, 10);
        ASSERT_EQ(int16.packedFormat(), PackedKvFormat::Int16);
        const QuantizedAttention word32(key, value, 1, 10,
                                        PackedKvFormat::Word32);
        const Kernels &original = activeKernels();
        for (KernelIsa isa : availableKernelIsas()) {
            SCOPED_TRACE(kernelIsaName(isa));
            setActiveKernels(kernelsFor(isa));
            for (const std::vector<std::uint32_t> &rows :
                 {std::vector<std::uint32_t>{3}, allRows(n)}) {
                AttentionResult a;
                AttentionResult b;
                int16.runRowsInto(query, rows, a);
                word32.runRowsInto(query, rows, b);
                expectBitIdentical(a, b);
            }
        }
        setActiveKernels(original);
    }
}

TEST(QuantizedPacked, PackedBitIdenticalToWord32)
{
    Rng rng(5100);
    // Odd dims exercises the int4 pad nibble; 16 the aligned path.
    for (std::size_t d : {15u, 16u}) {
        for (const PackedCase &pc : kPackedCases) {
            SCOPED_TRACE(std::string("Q") + std::to_string(pc.intBits) +
                         "." + std::to_string(pc.fracBits) + " d=" +
                         std::to_string(d));
            const RandomTask t = makeTask(rng, 40, d);
            const QuantizedAttention word32(t.key, t.value, pc.intBits,
                                            pc.fracBits,
                                            PackedKvFormat::Word32);
            const QuantizedAttention packed(t.key, t.value, pc.intBits,
                                            pc.fracBits);
            ASSERT_EQ(packed.packedFormat(), pc.format);
            for (int q = 0; q < 4; ++q) {
                const RandomTask probe = makeTask(rng, 1, d);
                expectBitIdentical(word32.run(probe.query),
                                   packed.run(probe.query));
            }
        }
    }
}

TEST(QuantizedPacked, EveryLayoutMatchesScalarOracle)
{
    Rng rng(5101);
    const RandomTask t = makeTask(rng, 24, 15);
    const RandomTask extra = makeTask(rng, 6, 15);
    Matrix grownKey = t.key;
    grownKey.appendRows(extra.key);
    Matrix grownValue = t.value;
    grownValue.appendRows(extra.value);
    const std::vector<std::uint32_t> subset{1, 3, 3, 17, 23};
    const Kernels &original = activeKernels();

    const struct
    {
        int intBits;
        int fracBits;
        PackedKvFormat layout;
    } cases[] = {
        {4, 4, PackedKvFormat::Word32}, {3, 4, PackedKvFormat::Word32},
        {4, 4, PackedKvFormat::Int16},  {4, 6, PackedKvFormat::Int16},
        {4, 8, PackedKvFormat::Int16},  {3, 4, PackedKvFormat::Int8},
        {2, 4, PackedKvFormat::Int8},   {1, 2, PackedKvFormat::Int4},
        {2, 1, PackedKvFormat::Int4},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(std::string("Q") + std::to_string(c.intBits) +
                     "." + std::to_string(c.fracBits) + " " +
                     packedKvFormatName(c.layout));
        EngineConfig config;
        config.kind = EngineKind::ExactQuantized;
        config.intBits = c.intBits;
        config.fracBits = c.fracBits;
        config.packedKv = c.layout;
        const QuantizedAttention bound(t.key, t.value, c.intBits,
                                       c.fracBits, c.layout);
        ASSERT_EQ(bound.packedFormat(), c.layout);

        // Packed and Word32 lanes, on the best and the scalar tables.
        for (const Kernels *table : {&original, &scalarKernels()}) {
            setActiveKernels(*table);
            expectBitIdentical(bound.run(t.query),
                               figure5Oracle(t.key, t.value, t.query,
                                             allRows(24), c.intBits,
                                             c.fracBits));
            AttentionResult rowsOut;
            bound.runRowsInto(t.query, subset, rowsOut);
            expectBitIdentical(rowsOut,
                               figure5Oracle(t.key, t.value, t.query,
                                             subset, c.intBits,
                                             c.fracBits));
        }
        setActiveKernels(original);

        QuantizedAttention grown = bound;
        grown.append(extra.key, extra.value);
        expectBitIdentical(grown.run(t.query),
                           figure5Oracle(grownKey, grownValue, t.query,
                                         allRows(30), c.intBits,
                                         c.fracBits));

        WireWriter image;
        grown.serializeState(image);
        WireReader reader(image.bytes());
        const auto restored = deserializeBackend(config, reader);
        ASSERT_NE(restored, nullptr);
        expectBitIdentical(restored->run(t.query),
                           figure5Oracle(grownKey, grownValue, t.query,
                                         allRows(30), c.intBits,
                                         c.fracBits));
    }
}

TEST(QuantizedPacked, BoundPackedMatchesUnboundPipeline)
{
    Rng rng(5101);
    const RandomTask t = makeTask(rng, 24, 15);
    for (const PackedCase &pc : kPackedCases) {
        const QuantizedAttention bound(t.key, t.value, pc.intBits,
                                       pc.fracBits);
        ASSERT_EQ(bound.packedFormat(), pc.format);
        expectBitIdentical(bound.run(t.query),
                           figure5Oracle(t.key, t.value, t.query,
                                         allRows(24), pc.intBits,
                                         pc.fracBits));
    }
}

TEST(QuantizedPacked, SubsetRunsBitIdenticalToWord32)
{
    Rng rng(5102);
    const RandomTask t = makeTask(rng, 30, 15);
    const std::vector<std::uint32_t> rows{1, 3, 3, 17, 29};
    for (const PackedCase &pc : kPackedCases) {
        const QuantizedAttention word32(t.key, t.value, pc.intBits,
                                        pc.fracBits,
                                        PackedKvFormat::Word32);
        const QuantizedAttention packed(t.key, t.value, pc.intBits,
                                        pc.fracBits);
        AttentionResult a;
        AttentionResult b;
        word32.runRowsInto(t.query, rows, a);
        packed.runRowsInto(t.query, rows, b);
        expectBitIdentical(a, b);
    }
}

TEST(QuantizedPacked, AppendMatchesFreshRebind)
{
    Rng rng(5103);
    for (std::size_t d : {15u, 16u}) {
        for (const PackedCase &pc : kPackedCases) {
            SCOPED_TRACE(std::string("Q") + std::to_string(pc.intBits) +
                         "." + std::to_string(pc.fracBits) + " d=" +
                         std::to_string(d));
            const RandomTask base = makeTask(rng, 20, d);
            const RandomTask extra1 = makeTask(rng, 5, d);
            const RandomTask extra2 = makeTask(rng, 3, d);

            QuantizedAttention grown(base.key, base.value, pc.intBits,
                                     pc.fracBits);
            grown.append(extra1.key, extra1.value);
            grown.append(extra2.key, extra2.value);

            Matrix allKey = base.key;
            allKey.appendRows(extra1.key);
            allKey.appendRows(extra2.key);
            Matrix allValue = base.value;
            allValue.appendRows(extra1.value);
            allValue.appendRows(extra2.value);
            const QuantizedAttention fresh(allKey, allValue, pc.intBits,
                                           pc.fracBits);

            ASSERT_EQ(grown.rows(), fresh.rows());
            EXPECT_EQ(grown.memoryBytes(), fresh.memoryBytes());
            const RandomTask probe = makeTask(rng, 1, d);
            expectBitIdentical(grown.run(probe.query),
                               fresh.run(probe.query));
        }
    }
}

TEST(QuantizedPacked, MemoryFootprintShrinksAsDocumented)
{
    Rng rng(5104);
    const std::size_t n = 320;
    const std::size_t d = 64;
    const RandomTask t = makeTask(rng, n, d);

    // The Word32 footprint is format-independent: 2 sides * 4 bytes.
    const QuantizedAttention word32(t.key, t.value, 4, 4,
                                    PackedKvFormat::Word32);
    EXPECT_EQ(word32.memoryBytes(), 2 * n * d * sizeof(std::int32_t));

    // The paper default i = f = 4 packs onto int16: exactly half.
    const QuantizedAttention int16(t.key, t.value, 4, 4);
    ASSERT_EQ(int16.packedFormat(), PackedKvFormat::Int16);
    EXPECT_EQ(int16.memoryBytes(), 2 * n * d * sizeof(std::int16_t));
    EXPECT_EQ(int16.memoryBytes() * 2, word32.memoryBytes());

    const QuantizedAttention int8(t.key, t.value, 3, 4);
    ASSERT_EQ(int8.packedFormat(), PackedKvFormat::Int8);
    EXPECT_EQ(int8.memoryBytes(), 2 * n * d * sizeof(std::int8_t));
    EXPECT_EQ(int8.memoryBytes() * 4, word32.memoryBytes());

    // Acceptance bound: int4-packed is <= 1/6 of the int32-word
    // footprint of the paper-default i=f=4 task (exactly 1/8: the
    // lanes carry no metadata).
    const QuantizedAttention int4(t.key, t.value, 1, 2);
    ASSERT_EQ(int4.packedFormat(), PackedKvFormat::Int4);
    EXPECT_EQ(int4.memoryBytes(), 2 * n * ((d + 1) / 2));
    EXPECT_LE(int4.memoryBytes() * 6, word32.memoryBytes());
    EXPECT_EQ(int4.memoryBytes() * 8, word32.memoryBytes());
}

TEST(QuantizedPacked, EveryIsaBitIdenticalOnPackedBackends)
{
    // The packed kernels are integer-exact, so unlike the float
    // tolerance class the full pipeline must agree bit for bit
    // across every available table.
    Rng rng(5105);
    const RandomTask t = makeTask(rng, 40, 33);
    const Kernels &original = activeKernels();
    for (const PackedCase &pc : kPackedCases) {
        const QuantizedAttention packed(t.key, t.value, pc.intBits,
                                        pc.fracBits);
        setActiveKernels(scalarKernels());
        const AttentionResult scalarResult = packed.run(t.query);
        for (KernelIsa isa : availableKernelIsas()) {
            SCOPED_TRACE(kernelIsaName(isa));
            setActiveKernels(kernelsFor(isa));
            expectBitIdentical(scalarResult, packed.run(t.query));
        }
    }
    setActiveKernels(original);
}

TEST(QuantizedPacked, MakeBackendPropagatesPackedFormat)
{
    Rng rng(5106);
    const RandomTask t = makeTask(rng, 20, 16);
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactQuantized;
    cfg.intBits = 1;
    cfg.fracBits = 2;
    const auto backend = makeBackend(cfg, t.key, t.value);
    const auto *qa = dynamic_cast<const QuantizedAttention *>(
        backend.get());
    ASSERT_NE(qa, nullptr);
    EXPECT_EQ(qa->packedFormat(), PackedKvFormat::Int4);

    // The approx-quantized flow feeds the same packed datapath.
    cfg.kind = EngineKind::ApproxQuantized;
    const auto approx = makeBackend(cfg, t.key, t.value);
    const auto *aqa =
        dynamic_cast<const ApproxQuantizedAttention *>(approx.get());
    ASSERT_NE(aqa, nullptr);
    EXPECT_EQ(aqa->datapath().packedFormat(), PackedKvFormat::Int4);
}

TEST(QuantizedPackedDeath, MakeBackendRejectsTooNarrowLane)
{
    Rng rng(5107);
    const RandomTask t = makeTask(rng, 8, 8);
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactQuantized;
    cfg.intBits = 4;
    cfg.fracBits = 4;  // 9-bit word
    cfg.packedKv = PackedKvFormat::Int8;
    EXPECT_EXIT(makeBackend(cfg, t.key, t.value),
                ::testing::ExitedWithCode(1), "8-bit packed K/V lane");

    cfg.intBits = 2;
    cfg.fracBits = 2;  // 5-bit word
    cfg.packedKv = PackedKvFormat::Int4;
    EXPECT_EXIT(makeBackend(cfg, t.key, t.value),
                ::testing::ExitedWithCode(1), "4-bit packed K/V lane");

    cfg.intBits = 8;
    cfg.fracBits = 8;  // 17-bit word
    cfg.packedKv = PackedKvFormat::Int16;
    EXPECT_EXIT(makeBackend(cfg, t.key, t.value),
                ::testing::ExitedWithCode(1), "16-bit packed K/V lane");

    // A 16-bit word whose dot format overflows the int32 kernels at
    // this width: an explicit int16 request is refused, not wrapped.
    cfg.intBits = 7;
    cfg.fracBits = 8;
    const RandomTask wide = makeTask(rng, 4, 64);
    EXPECT_EXIT(makeBackend(cfg, wide.key, wide.value),
                ::testing::ExitedWithCode(1), "int32 dot or axpy");

    // Exactly at the lane width is accepted.
    cfg.intBits = 1;
    cfg.fracBits = 2;  // 4-bit word
    cfg.packedKv = PackedKvFormat::Int4;
    EXPECT_EQ(makeBackend(cfg, t.key, t.value)->memoryBytes(),
              2 * 8 * 4);
}

TEST(QuantizedPackedDeath, FatalExitsCleanlyWhilePoolThreadsRun)
{
    // fatal() ends the process with status 1 even when engine pool
    // lanes are alive: no static destructor may pull state out from
    // under them.
    Rng rng(5109);
    const RandomTask t = makeTask(rng, 8, 8);
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactQuantized;
    cfg.intBits = 4;
    cfg.fracBits = 4;
    cfg.packedKv = PackedKvFormat::Int8;
    EXPECT_EXIT(
        {
            const auto warm = makeBackend(EngineConfig{}, t.key, t.value);
            AttentionEngine::shared().run(*warm, {t.query, t.query});
            makeBackend(cfg, t.key, t.value);
        },
        ::testing::ExitedWithCode(1), "8-bit packed K/V lane");
}

}  // namespace
}  // namespace a3
