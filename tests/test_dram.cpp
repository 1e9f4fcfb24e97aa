/**
 * @file
 * Tests for the DRAM spill model (Section III-C, "Choice of n and d").
 */

#include <gtest/gtest.h>

#include "attention/quantized.hpp"
#include "energy/power_model.hpp"
#include "sim/accelerator.hpp"
#include "sim/dram.hpp"
#include "util/random.hpp"

namespace a3 {
namespace {

TEST(DramModel, NoRowsNoStall)
{
    DramModel dram(100, 1);
    EXPECT_EQ(dram.stallCycles(320, 0), 0u);
}

TEST(DramModel, PrefetcherHidesLatencyBehindOnChipRows)
{
    // 320 on-chip rows give a 320-cycle head start > 100-cycle
    // latency: the paper's "without exposing memory latency".
    DramModel dram(100, 1);
    EXPECT_EQ(dram.stallCycles(320, 200), 0u);
}

TEST(DramModel, ShallowHeadStartExposesRampOnly)
{
    DramModel dram(100, 1);
    EXPECT_EQ(dram.stallCycles(40, 10), 60u);
}

TEST(DramModel, BandwidthLimitChargesPerRow)
{
    DramModel dram(100, 3);  // 3 cycles per streamed row
    EXPECT_EQ(dram.stallCycles(320, 50), 50u * 2u);
}

TEST(DramModel, EnergyCountsRows)
{
    DramModel dram;
    dram.recordReads(100);
    EXPECT_EQ(dram.reads(), 100u);
    EXPECT_DOUBLE_EQ(dram.energyJ(), 100.0 * DramModel::energyPerRowJ);
}

struct RandomTask
{
    Matrix key;
    Matrix value;
    Vector query;
};

RandomTask
makeTask(Rng &rng, std::size_t n, std::size_t d)
{
    RandomTask t;
    t.key = Matrix(n, d);
    t.value = Matrix(n, d);
    t.query.resize(d);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < d; ++c) {
            t.key(r, c) = static_cast<float>(rng.normal());
            t.value(r, c) = static_cast<float>(rng.normal());
        }
    }
    for (auto &x : t.query)
        x = static_cast<float>(rng.normal());
    return t;
}

TEST(DramSpill, LargeTaskRunsWithHiddenLatency)
{
    // n = 500 on a 320-row SRAM: 180 rows stream from DRAM; with the
    // default timing the prefetcher hides everything, so the latency
    // formula 3n + 27 still holds.
    Rng rng(9400);
    const RandomTask t = makeTask(rng, 500, 64);
    SimConfig cfg;
    cfg.maxRows = 320;
    cfg.dims = 64;
    cfg.mode = A3Mode::Base;
    A3Accelerator acc(cfg);
    acc.loadTask(t.key, t.value);
    acc.submitQuery(t.query);
    acc.drain();
    const RunStats stats = acc.stats();
    EXPECT_EQ(static_cast<Cycle>(stats.avgLatency), 3 * 500 + 27);
    EXPECT_EQ(acc.dram().reads(), 2u * 180u);  // dot + output stages
    EXPECT_EQ(acc.keySram().reads(), 320u);
}

TEST(DramSpill, BandwidthShortfallSlowsPipeline)
{
    Rng rng(9401);
    const RandomTask t = makeTask(rng, 400, 64);
    SimConfig cfg;
    cfg.maxRows = 320;
    cfg.dims = 64;
    cfg.mode = A3Mode::Base;
    cfg.dramRowInterval = 2;  // DRAM delivers a row every 2 cycles
    A3Accelerator acc(cfg);
    acc.loadTask(t.key, t.value);
    acc.submitQuery(t.query);
    acc.drain();
    // 80 DRAM rows add 80 stall cycles in the dot and output stages.
    EXPECT_EQ(static_cast<Cycle>(acc.stats().avgLatency),
              3 * 400 + 27 + 2 * 80);
}

TEST(DramSpill, FunctionalResultUnaffected)
{
    Rng rng(9402);
    const RandomTask t = makeTask(rng, 450, 64);
    SimConfig cfg;
    cfg.maxRows = 320;
    cfg.dims = 64;
    cfg.mode = A3Mode::Base;
    A3Accelerator acc(cfg);
    acc.loadTask(t.key, t.value);
    acc.submitQuery(t.query);
    acc.drain();
    auto out = acc.popOutput();
    ASSERT_TRUE(out.has_value());
    const QuantizedAttention datapath(t.key, t.value, cfg.intBits,
                                      cfg.fracBits);
    const AttentionResult expected = datapath.run(t.query);
    EXPECT_EQ(out->result.output, expected.output);
}

TEST(DramSpill, DramEnergyEntersMemoryBucket)
{
    Rng rng(9403);
    const RandomTask t = makeTask(rng, 400, 64);
    SimConfig cfg;
    cfg.maxRows = 320;
    cfg.dims = 64;
    cfg.mode = A3Mode::Base;
    A3Accelerator acc(cfg);
    acc.loadTask(t.key, t.value);
    acc.submitQuery(t.query);
    acc.drain();
    const EnergyBreakdown e = PowerModel::computeEnergy(acc);
    EXPECT_GE(e.memory, acc.dram().energyJ());
    EXPECT_GT(acc.dram().energyJ(), 0.0);
}

TEST(DramSpill, DisallowedWhenConfigured)
{
    SimConfig cfg;
    cfg.maxRows = 32;
    cfg.dims = 64;
    cfg.mode = A3Mode::Base;
    cfg.allowDramSpill = false;
    A3Accelerator acc(cfg);
    Matrix key(40, 64);
    Matrix value(40, 64);
    EXPECT_DEATH(acc.loadTask(key, value), "exceed capacity");
}

TEST(DramSpill, ApproxModeCannotSpill)
{
    SimConfig cfg;
    cfg.maxRows = 32;
    cfg.dims = 64;
    cfg.mode = A3Mode::Approx;
    A3Accelerator acc(cfg);
    Matrix key(40, 64);
    Matrix value(40, 64);
    EXPECT_DEATH(acc.loadTask(key, value), "sorted key");
}

}  // namespace
}  // namespace a3
