/**
 * @file
 * Tests for the batched AttentionEngine and its thread pool: batched
 * results must be bit-identical to sequential per-query runs, result
 * order must be deterministic for any thread count, and the edge
 * cases (empty batch, single query) must hold.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "attention/approx_attention.hpp"
#include "attention/backend.hpp"
#include "attention/multi_hop.hpp"
#include "attention/quantized.hpp"
#include "engine/engine.hpp"
#include "engine/thread_pool.hpp"
#include "util/random.hpp"

#include "figure5_oracle.hpp"

namespace a3 {
namespace {

struct TestTask
{
    Matrix key;
    Matrix value;
    std::vector<Vector> queries;
};

TestTask
makeTask(std::uint64_t seed, std::size_t n, std::size_t d,
         std::size_t queryCount)
{
    Rng rng(seed);
    TestTask t;
    t.key = Matrix(n, d);
    t.value = Matrix(n, d);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < d; ++c) {
            t.key(r, c) = static_cast<float>(rng.normal());
            t.value(r, c) = static_cast<float>(rng.normal());
        }
    }
    t.queries.resize(queryCount);
    for (auto &q : t.queries) {
        q.resize(d);
        for (auto &x : q)
            x = static_cast<float>(rng.normal());
    }
    return t;
}

void
expectBitIdentical(const AttentionResult &a, const AttentionResult &b)
{
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.weights, b.weights);
    EXPECT_EQ(a.scores, b.scores);
    EXPECT_EQ(a.candidates, b.candidates);
    EXPECT_EQ(a.kept, b.kept);
    EXPECT_EQ(a.iterations, b.iterations);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.threadCount(), threads);
        const std::size_t count = 1000;
        std::vector<std::atomic<int>> hits(count);
        pool.parallelFor(count, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    ThreadPool pool(4);
    for (int job = 0; job < 50; ++job) {
        std::atomic<std::size_t> sum{0};
        pool.parallelFor(17, [&](std::size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 17u * 16u / 2u);
    }
}

TEST(ThreadPool, NestedParallelForRunsInlineInsteadOfDeadlocking)
{
    ThreadPool pool(4);
    std::atomic<std::size_t> inner{0};
    pool.parallelFor(8, [&](std::size_t) {
        pool.parallelFor(8, [&](std::size_t) {
            inner.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(inner.load(), 64u);
}

TEST(ThreadPool, EmptyJobReturnsImmediately)
{
    ThreadPool pool(4);
    bool touched = false;
    pool.parallelFor(0, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

// --- Stress shapes, exercised under TSan by the CI sanitizer job. ---

TEST(ThreadPoolStress, RepeatedBackToBackJobs)
{
    // Thousands of tiny jobs in a row shake out wake/sleep races
    // between the generation counter and the condition variables.
    ThreadPool pool(8);
    std::atomic<std::uint64_t> total{0};
    std::uint64_t expected = 0;
    for (int job = 0; job < 2000; ++job) {
        const std::size_t count = static_cast<std::size_t>(job % 7);
        expected += count * (count + 1) / 2;
        pool.parallelFor(count, [&](std::size_t i) {
            total.fetch_add(i + 1, std::memory_order_relaxed);
        });
    }
    EXPECT_EQ(total.load(), expected);
}

TEST(ThreadPoolStress, SingleLanePoolRunsEverythingInline)
{
    // A 1-lane pool has no background workers: every index runs on
    // the calling thread, in order, with no synchronization to race.
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    for (int job = 0; job < 100; ++job) {
        pool.parallelFor(5, [&](std::size_t i) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(i);
        });
    }
    ASSERT_EQ(order.size(), 500u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i % 5);
}

TEST(ThreadPoolStress, NestedDispatchFromInsideJobs)
{
    // Nested parallelFor from inside a job must run inline on the
    // dispatching lane rather than deadlock on the serialization
    // lock — repeatedly, from every lane, two levels deep.
    ThreadPool pool(4);
    std::atomic<std::size_t> leaves{0};
    for (int job = 0; job < 50; ++job) {
        pool.parallelFor(8, [&](std::size_t) {
            pool.parallelFor(4, [&](std::size_t) {
                pool.parallelFor(2, [&](std::size_t) {
                    leaves.fetch_add(1, std::memory_order_relaxed);
                });
            });
        });
    }
    EXPECT_EQ(leaves.load(), 50u * 8u * 4u * 2u);
}

/** All four backends answer through the same polymorphic interface. */
TEST(AttentionBackend, FactoryCoversEveryKind)
{
    const TestTask t = makeTask(100, 24, 16, 1);
    for (EngineKind kind :
         {EngineKind::ExactFloat, EngineKind::ApproxFloat,
          EngineKind::ExactQuantized, EngineKind::ApproxQuantized}) {
        EngineConfig cfg;
        cfg.kind = kind;
        const auto backend = makeBackend(cfg, t.key, t.value);
        ASSERT_NE(backend, nullptr) << engineKindName(kind);
        EXPECT_EQ(backend->rows(), 24u);
        EXPECT_EQ(backend->dims(), 16u);
        EXPECT_FALSE(backend->name().empty());
        const AttentionResult r = backend->run(t.queries[0]);
        EXPECT_EQ(r.output.size(), 16u);
        EXPECT_EQ(r.weights.size(), 24u);
    }
}

TEST(AttentionBackend, BoundQuantizedMatchesUnboundDatapath)
{
    const TestTask t = makeTask(200, 20, 8, 3);
    const QuantizedAttention bound(t.key, t.value, 4, 4);
    for (const Vector &q : t.queries) {
        expectBitIdentical(bound.run(q),
                           figure5Oracle(t.key, t.value, q, allRows(20),
                                         4, 4));
    }
}

TEST(AttentionEngine, BatchedBitIdenticalToSequentialAllBackends)
{
    const TestTask t = makeTask(300, 40, 16, 24);
    for (EngineKind kind :
         {EngineKind::ExactFloat, EngineKind::ApproxFloat,
          EngineKind::ExactQuantized, EngineKind::ApproxQuantized}) {
        EngineConfig cfg;
        cfg.kind = kind;
        const auto backend = makeBackend(cfg, t.key, t.value);

        std::vector<AttentionResult> sequential;
        sequential.reserve(t.queries.size());
        for (const Vector &q : t.queries)
            sequential.push_back(backend->run(q));

        const AttentionEngine engine(4);
        const std::vector<AttentionResult> batched =
            engine.run(*backend, t.queries);
        ASSERT_EQ(batched.size(), sequential.size())
            << engineKindName(kind);
        for (std::size_t i = 0; i < batched.size(); ++i) {
            SCOPED_TRACE(std::string(engineKindName(kind)) +
                         " query " + std::to_string(i));
            expectBitIdentical(batched[i], sequential[i]);
        }
    }
}

TEST(AttentionEngine, DeterministicOrderingAcrossThreadCounts)
{
    const TestTask t = makeTask(400, 64, 16, 48);
    const ApproxAttention backend(t.key, t.value,
                                  ApproxConfig::conservative());

    const AttentionEngine one(1);
    const std::vector<AttentionResult> reference =
        one.run(backend, t.queries);
    for (std::size_t threads : {2u, 8u}) {
        const AttentionEngine engine(threads);
        EXPECT_EQ(engine.threads(), threads);
        // Repeat to shake out scheduling-dependent orderings.
        for (int repeat = 0; repeat < 3; ++repeat) {
            const std::vector<AttentionResult> batched =
                engine.run(backend, t.queries);
            ASSERT_EQ(batched.size(), reference.size());
            for (std::size_t i = 0; i < batched.size(); ++i) {
                SCOPED_TRACE("threads " + std::to_string(threads) +
                             " query " + std::to_string(i));
                expectBitIdentical(batched[i], reference[i]);
            }
        }
    }
}

TEST(AttentionEngine, EmptyBatch)
{
    const TestTask t = makeTask(500, 12, 8, 0);
    const ApproxAttention backend(t.key, t.value,
                                  ApproxConfig::conservative());
    const AttentionEngine engine(4);
    EXPECT_TRUE(engine.run(backend, {}).empty());
    EXPECT_TRUE(engine.runGroups({}).empty());
}

TEST(AttentionEngine, SingleQueryBatch)
{
    const TestTask t = makeTask(600, 12, 8, 1);
    const ApproxAttention backend(t.key, t.value,
                                  ApproxConfig::conservative());
    const AttentionEngine engine(8);
    const auto batched = engine.run(backend, t.queries);
    ASSERT_EQ(batched.size(), 1u);
    expectBitIdentical(batched[0], backend.run(t.queries[0]));
}

TEST(AttentionEngine, RequestGroupsKeepPerGroupOrder)
{
    // Three sequences (groups) with different shapes and backends —
    // the multi-sequence / multi-head pattern.
    const TestTask a = makeTask(700, 16, 8, 5);
    const TestTask b = makeTask(701, 32, 8, 2);
    const TestTask c = makeTask(702, 24, 8, 7);
    const ApproxAttention backendA(a.key, a.value,
                                   ApproxConfig::conservative());
    const ReferenceAttention backendB(b.key, b.value);
    const QuantizedAttention backendC(c.key, c.value, 4, 4);

    std::vector<AttentionRequestGroup> groups;
    groups.push_back({&backendA, a.queries});
    groups.push_back({&backendB, b.queries});
    groups.push_back({&backendC, c.queries});

    const AttentionEngine engine(8);
    const auto results = engine.runGroups(groups);
    ASSERT_EQ(results.size(), 3u);
    ASSERT_EQ(results[0].size(), 5u);
    ASSERT_EQ(results[1].size(), 2u);
    ASSERT_EQ(results[2].size(), 7u);
    for (std::size_t i = 0; i < a.queries.size(); ++i)
        expectBitIdentical(results[0][i], backendA.run(a.queries[i]));
    for (std::size_t i = 0; i < b.queries.size(); ++i)
        expectBitIdentical(results[1][i], backendB.run(b.queries[i]));
    for (std::size_t i = 0; i < c.queries.size(); ++i)
        expectBitIdentical(results[2][i], backendC.run(c.queries[i]));
}

TEST(AttentionEngine, SelfAttentionMatchesSequentialLoop)
{
    const TestTask t = makeTask(800, 24, 16, 0);
    Matrix queries(24, 16);
    Rng rng(801);
    for (std::size_t r = 0; r < 24; ++r)
        for (std::size_t c = 0; c < 16; ++c)
            queries(r, c) = static_cast<float>(rng.normal());

    const ApproxConfig config = ApproxConfig::conservative();
    const AttentionEngine engine(4);
    const SelfAttentionResult batched =
        engine.selfAttention(t.key, t.value, queries, config);

    // Sequential reference: the pre-engine per-token loop.
    const ApproxAttention backend(t.key, t.value, config);
    ASSERT_EQ(batched.perToken.size(), 24u);
    for (std::size_t tok = 0; tok < 24; ++tok) {
        Vector q(queries.row(tok).begin(), queries.row(tok).end());
        expectBitIdentical(batched.perToken[tok], backend.run(q));
    }
    EXPECT_EQ(batched.outputs.rows(), 24u);
}

TEST(AttentionEngine, MultiHopBatchMatchesSequential)
{
    const TestTask t = makeTask(900, 20, 8, 6);
    const MultiHopAttention hops(t.key, t.value,
                                 ApproxConfig::conservative(), 3);
    const std::vector<MultiHopResult> batched =
        hops.runBatch(t.queries);
    ASSERT_EQ(batched.size(), t.queries.size());
    for (std::size_t i = 0; i < t.queries.size(); ++i) {
        const MultiHopResult sequential = hops.run(t.queries[i]);
        ASSERT_EQ(batched[i].hops.size(), sequential.hops.size());
        EXPECT_EQ(batched[i].finalQuery, sequential.finalQuery);
        for (std::size_t h = 0; h < sequential.hops.size(); ++h)
            expectBitIdentical(batched[i].hops[h],
                               sequential.hops[h]);
    }
}

TEST(AttentionEngine, SharedEngineSingleton)
{
    EXPECT_EQ(&AttentionEngine::shared(), &AttentionEngine::shared());
    EXPECT_GE(AttentionEngine::shared().threads(), 1u);
}

}  // namespace
}  // namespace a3
