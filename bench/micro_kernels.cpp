/**
 * @file
 * Google-benchmark microbenchmarks for the software kernels: exact
 * attention, the two greedy-search implementations, preprocessing,
 * and the bit-accurate fixed-point pipeline.
 *
 * These support the complexity claims of Section IV: the efficient
 * greedy search's query-time cost scales with M (not n*d), while the
 * base form pays the full O(nd log nd) sort.
 */

#include <benchmark/benchmark.h>

#include "attention/approx_attention.hpp"
#include "attention/candidate_search.hpp"
#include "attention/quantized.hpp"
#include "attention/reference.hpp"
#include "engine/engine.hpp"
#include "kernels/kernels.hpp"
#include "util/random.hpp"

namespace {

using namespace a3;

struct Fixture
{
    Matrix key;
    Matrix value;
    Vector query;
    SortedKey sorted;
};

Fixture
makeFixture(std::size_t n, std::size_t d)
{
    Rng rng(42);
    Fixture f;
    f.key = Matrix(n, d);
    f.value = Matrix(n, d);
    f.query.resize(d);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < d; ++c) {
            f.key(r, c) = static_cast<float>(rng.normal());
            f.value(r, c) = static_cast<float>(rng.normal());
        }
    }
    for (auto &x : f.query)
        x = static_cast<float>(rng.normal());
    f.sorted = SortedKey::build(f.key);
    return f;
}

void
BM_ReferenceAttention(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const Fixture f = makeFixture(n, 64);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            referenceAttention(f.key, f.value, f.query));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReferenceAttention)->Arg(20)->Arg(186)->Arg(320);

void
BM_BaseGreedySearch(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const Fixture f = makeFixture(n, 64);
    const std::size_t m = n / 2;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            baseGreedySearch(f.key, f.query, m));
    }
}
BENCHMARK(BM_BaseGreedySearch)->Arg(20)->Arg(186)->Arg(320);

void
BM_EfficientGreedySearch(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const Fixture f = makeFixture(n, 64);
    const std::size_t m = n / 2;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            efficientGreedySearch(f.sorted, f.query, m));
    }
}
BENCHMARK(BM_EfficientGreedySearch)->Arg(20)->Arg(186)->Arg(320);

void
BM_SortedKeyPreprocess(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const Fixture f = makeFixture(n, 64);
    for (auto _ : state)
        benchmark::DoNotOptimize(SortedKey::build(f.key));
}
BENCHMARK(BM_SortedKeyPreprocess)->Arg(320);

void
BM_ApproxAttentionEndToEnd(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const Fixture f = makeFixture(n, 64);
    const ApproxAttention engine(f.key, f.value,
                                 ApproxConfig::conservative());
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.run(f.query));
}
BENCHMARK(BM_ApproxAttentionEndToEnd)->Arg(186)->Arg(320);

void
BM_QuantizedPipeline(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const Fixture f = makeFixture(n, 64);
    const QuantizedAttention qa(f.key, f.value, 4, 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(qa.run(f.query));
}
BENCHMARK(BM_QuantizedPipeline)->Arg(320);

void
BM_EngineBatch(benchmark::State &state)
{
    // 64 queries against one preprocessed backend through the shared
    // AttentionEngine; compare against 64x BM_ApproxAttentionEndToEnd
    // for the batching + threading win.
    const auto n = static_cast<std::size_t>(state.range(0));
    const Fixture f = makeFixture(n, 64);
    const ApproxAttention backend(f.key, f.value,
                                  ApproxConfig::conservative());
    Rng rng(7);
    std::vector<Vector> batch(64, f.query);
    for (auto &q : batch)
        for (auto &x : q)
            x += 0.05f * static_cast<float>(rng.normal());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            AttentionEngine::shared().run(backend, batch));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_EngineBatch)->Arg(186)->Arg(320);

// ------------------------------------------------------------ kernels
// Per-primitive scalar-vs-SIMD comparison for the kernels layer; the
// 0/1 argument selects the table (0 = scalar, 1 = the widest table
// selectKernels() would pick), so pairs of lines give the per-kernel
// speedup directly.

const Kernels &
tableFor(std::int64_t variant)
{
    return variant == 0 ? scalarKernels() : selectKernels();
}

void
BM_KernelDot(benchmark::State &state)
{
    const Kernels &k = tableFor(state.range(0));
    const Fixture f = makeFixture(2, 512);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            k.dot(f.key.data().data(), f.value.data().data(), 512));
    }
    state.SetLabel(kernelIsaName(k.isa));
}
BENCHMARK(BM_KernelDot)->Arg(0)->Arg(1);

void
BM_KernelGatherDot(benchmark::State &state)
{
    // The approx scoring shape: 160 candidate rows out of 320, d = 64.
    const Kernels &k = tableFor(state.range(0));
    const Fixture f = makeFixture(320, 64);
    std::vector<std::uint32_t> rows(160);
    for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i] = static_cast<std::uint32_t>(2 * i);
    Vector out(rows.size());
    for (auto _ : state) {
        k.gatherDot(f.key.data().data(), 64, rows.data(), rows.size(),
                    f.query.data(), out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetLabel(kernelIsaName(k.isa));
}
BENCHMARK(BM_KernelGatherDot)->Arg(0)->Arg(1);

void
BM_KernelGatherWeightedSum(benchmark::State &state)
{
    const Kernels &k = tableFor(state.range(0));
    const Fixture f = makeFixture(320, 64);
    std::vector<std::uint32_t> rows(160);
    for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i] = static_cast<std::uint32_t>(2 * i);
    Vector weights(rows.size(), 1.0f / 160.0f);
    Vector out(64);
    for (auto _ : state) {
        std::fill(out.begin(), out.end(), 0.0f);
        k.gatherWeightedSum(f.value.data().data(), 64, rows.data(),
                            rows.size(), weights.data(), out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetLabel(kernelIsaName(k.isa));
}
BENCHMARK(BM_KernelGatherWeightedSum)->Arg(0)->Arg(1);

void
BM_KernelSoftmaxPath(benchmark::State &state)
{
    // maxReduce + expSumInPlace + divideBy over n = 320 scores.
    const Kernels &k = tableFor(state.range(0));
    const Fixture f = makeFixture(320, 2);
    const Vector scores = f.key.column(0);
    Vector work(scores.size());
    for (auto _ : state) {
        std::copy(scores.begin(), scores.end(), work.begin());
        const float maxVal = k.maxReduce(work.data(), work.size());
        const float sum =
            k.expSumInPlace(work.data(), work.size(), maxVal);
        k.divideBy(work.data(), work.size(), sum);
        benchmark::DoNotOptimize(work.data());
    }
    state.SetLabel(kernelIsaName(k.isa));
}
BENCHMARK(BM_KernelSoftmaxPath)->Arg(0)->Arg(1);

}  // namespace
