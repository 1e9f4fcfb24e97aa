/**
 * @file
 * Section VI-B quantization study: task-metric impact of the input
 * fraction-bit width f, using the bit-accurate fixed-point pipeline.
 *
 * The paper reports that f = 4 costs less than 0.1% accuracy across
 * all workloads; this sweep regenerates that claim and shows the
 * degradation cliff at very small f.
 *
 * Each row also reports the packed K/V layout the configuration's
 * Auto resolution selects (fixed/packed.hpp) and the bound-task
 * footprint it implies at the representative 320 x 64 BERT shape —
 * packing is lossless, so the metric column is identical across
 * layouts and the kv columns show what the accuracy of that row
 * costs to hold in memory. The int4-eligible configs (word width
 * <= 4 bits) are swept explicitly at the bottom of each table.
 */

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "fixed/packed.hpp"
#include "harness/accuracy.hpp"
#include "util/table.hpp"

namespace {

using namespace a3;

/** The representative 320 x 64 task shape of the kv columns. */
constexpr std::size_t kShapeRows = 320;
constexpr std::size_t kShapeDims = 64;

/**
 * Bound-task K/V bytes at the representative shape: the key and value
 * lane arrays (QuantizedAttention::memoryBytes mirrors this).
 */
std::string
kvBytesAt320x64(PackedKvFormat resolved)
{
    return std::to_string(2 * kShapeRows *
                          packedRowBytes(resolved, kShapeDims));
}

}  // namespace

int
main()
{
    struct QuantPoint
    {
        int intBits;
        int fracBits;
    };
    // The paper's f sweep at i = 4, then the int4-eligible corner
    // (i + f + 1 <= 4) the packed storage layer adds.
    const QuantPoint points[] = {{4, 2}, {4, 3}, {4, 4}, {4, 6},
                                 {4, 8}, {1, 2}, {2, 1}};

    const auto workloads = makeAllWorkloads();
    for (const auto &wptr : workloads) {
        const Workload &w = *wptr;
        const std::size_t episodes = bench::episodesFor(w);

        EngineConfig exact;
        exact.kind = EngineKind::ExactFloat;
        const AccuracyReport base =
            evaluateAccuracy(w, exact, episodes, bench::benchSeed);

        Table table("Quantization sweep (" + w.name() + ", metric: " +
                    w.metricName() + ")");
        table.setHeader({"config", "kv format", "kv bytes @320x64",
                         "metric", "delta vs float"});
        table.addRow({"float (reference)", "float32",
                      kvBytesAt320x64(PackedKvFormat::Word32),
                      Table::num(base.metric), "-"});
        for (const QuantPoint p : points) {
            EngineConfig cfg;
            cfg.kind = EngineKind::ExactQuantized;
            cfg.intBits = p.intBits;
            cfg.fracBits = p.fracBits;
            const PackedKvFormat resolved = resolvePackedKvFormat(
                cfg.packedKv, p.intBits, p.fracBits, kShapeDims);
            const AccuracyReport r =
                evaluateAccuracy(w, cfg, episodes, bench::benchSeed);
            table.addRow({"i=" + std::to_string(p.intBits) +
                              ", f=" + std::to_string(p.fracBits),
                          packedKvFormatName(resolved),
                          kvBytesAt320x64(resolved),
                          Table::num(r.metric),
                          Table::num(r.metric - base.metric, 4)});
        }
        table.print();
    }
    std::printf("Paper claim: f = 4 degrades accuracy by less than "
                "0.1%% on every workload (Section VI-B).\n");
    std::printf("Packing is lossless: for a given (i, f) the metric "
                "is bit-identical across kv formats; only the "
                "footprint changes.\n");
    return 0;
}
