/**
 * @file
 * Tests for the independent-task cluster pattern (Section III-C:
 * "use multiple copies of our A3 units for a different key, value
 * matrices sets" — e.g. one transformer attention head per unit).
 */

#include <gtest/gtest.h>

#include "attention/quantized.hpp"
#include "sim/multi_unit.hpp"
#include "util/random.hpp"

namespace a3 {
namespace {

std::pair<Matrix, Matrix>
randomTask(Rng &rng, std::size_t n, std::size_t d)
{
    Matrix key(n, d);
    Matrix value(n, d);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < d; ++c) {
            key(r, c) = static_cast<float>(rng.normal());
            value(r, c) = static_cast<float>(rng.normal());
        }
    }
    return {std::move(key), std::move(value)};
}

Vector
randomQuery(Rng &rng, std::size_t d)
{
    Vector q(d);
    for (auto &x : q)
        x = static_cast<float>(rng.normal());
    return q;
}

SimConfig
config(std::size_t n)
{
    SimConfig cfg;
    cfg.maxRows = n;
    cfg.dims = 64;
    cfg.mode = A3Mode::Base;
    return cfg;
}

TEST(ClusterHeads, IndependentTasksRunConcurrently)
{
    Rng rng(9700);
    const std::size_t heads = 4;
    const std::size_t n = 64;
    A3Cluster cluster(config(n), heads);

    std::vector<std::pair<Matrix, Matrix>> tasks;
    std::vector<std::vector<Vector>> queries(heads);
    for (std::size_t h = 0; h < heads; ++h) {
        tasks.push_back(randomTask(rng, n, 64));
        for (int q = 0; q < 6; ++q)
            queries[h].push_back(randomQuery(rng, 64));
    }
    cluster.loadTasks(tasks);
    const ClusterStats stats = cluster.runPerUnit(queries);

    EXPECT_EQ(stats.queries, heads * 6);
    for (std::uint64_t q : stats.perUnitQueries)
        EXPECT_EQ(q, 6u);
    // Concurrent heads: makespan equals one head's serial time,
    // not the sum over heads: 3(n+9) fill + 5(n+9) steady.
    EXPECT_EQ(stats.makespan, (3 + 6 - 1) * (n + 9));
}

TEST(ClusterHeads, PerHeadResultsMatchSoloUnits)
{
    Rng rng(9701);
    const std::size_t heads = 3;
    const std::size_t n = 32;
    A3Cluster cluster(config(n), heads);
    std::vector<std::pair<Matrix, Matrix>> tasks;
    std::vector<std::vector<Vector>> queries(heads);
    for (std::size_t h = 0; h < heads; ++h) {
        tasks.push_back(randomTask(rng, n, 64));
        queries[h].push_back(randomQuery(rng, 64));
    }
    cluster.loadTasks(tasks);
    cluster.runPerUnit(queries);

    for (std::size_t h = 0; h < heads; ++h) {
        A3Accelerator solo(config(n));
        solo.loadTask(tasks[h].first, tasks[h].second);
        solo.submitQuery(queries[h][0]);
        solo.drain();
        const auto expected = solo.popOutput();
        ASSERT_TRUE(expected.has_value());

        // Unit h's own output: a cluster that loaded task h into
        // another unit fails here.
        EXPECT_EQ(cluster.unit(h).pendingOutputs(), 1u);
        const auto got = cluster.popOutput(h);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(cluster.unit(h).pendingOutputs(), 0u);
        EXPECT_EQ(got->result.output, expected->result.output);
        EXPECT_EQ(got->result.weights, expected->result.weights);

        // The paper's i = f = 4 binds onto the int16 lane, which is
        // bit-identical to the Word32 datapath.
        const QuantizedAttention packed(tasks[h].first, tasks[h].second,
                                        4, 4);
        EXPECT_EQ(packed.packedFormat(), PackedKvFormat::Int16);
        const AttentionResult word32 =
            QuantizedAttention(tasks[h].first, tasks[h].second, 4, 4,
                               PackedKvFormat::Word32)
                .run(queries[h][0]);
        EXPECT_EQ(word32.output, got->result.output);
        EXPECT_EQ(word32.weights, got->result.weights);
    }
}

TEST(ClusterHeads, TaskCountMustMatchUnits)
{
    Rng rng(9702);
    A3Cluster cluster(config(16), 2);
    std::vector<std::pair<Matrix, Matrix>> tasks;
    tasks.push_back(randomTask(rng, 16, 64));
    EXPECT_DEATH(cluster.loadTasks(tasks), "one task per unit");
}

TEST(ClusterHeads, QueryListCountMustMatchUnits)
{
    Rng rng(9703);
    A3Cluster cluster(config(16), 2);
    cluster.loadTask(randomTask(rng, 16, 64).first,
                     randomTask(rng, 16, 64).second);
    std::vector<std::vector<Vector>> queries(1);
    queries[0].push_back(randomQuery(rng, 64));
    EXPECT_DEATH(cluster.runPerUnit(queries),
                 "one query list per unit");
}

}  // namespace
}  // namespace a3
