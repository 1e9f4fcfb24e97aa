#include <cstdio>
#include <filesystem>

#include "families.hpp"
#include "util/logging.hpp"

namespace pb {

bool
workloadParams(const std::string &name, WorkloadParams &p)
{
    p = WorkloadParams{};
    a3::TraceConfig &t = p.trace;
    t.seed = 1;
    t.arrivals = a3::ArrivalProcess::Poisson;
    t.tightDeadlineSeconds = 0.0;
    t.looseDeadlineSeconds = 0.0;
    t.ragFraction = 0.6;
    t.appendEveryQueries = 4;
    if (name == "paper_contexts") {
        // bAbI / SQuAD / BERT-sized contexts: per-query fixed costs
        // (dispatch, result buffers, the Word32 lane) dominate.
        p.contexts = 16;
        p.minRows = 50;
        p.maxRows = 500;
        p.queriesPerContext = 8;
        p.paperQueriesPerContext = 2;
        t.durationSeconds = 2.0;
        t.arrivalsPerSecond = 250.0;
        t.sessionCount = 48;
        t.documentCount = 8;
        t.appendRows = 32;
        t.maxContextRows = 1024;
        t.contextRows = {{64, 0.4}, {192, 0.35}, {448, 0.25}};
        p.shardRows = 128;
        p.cacheBudgetBytes = 1536u * 1024u;
        p.remoteRows = 512;
        p.remoteQueries = 8;
        return true;
    }
    if (name == "long_context") {
        // One 64k-row context (32 MB of float K/V, over the 8 MB L2):
        // bandwidth-bound scans and the greedy search dominate.
        p.contexts = 1;
        p.minRows = 65536;
        p.maxRows = 65536;
        p.queriesPerContext = 8;
        p.paperQueriesPerContext = 1;
        t.durationSeconds = 1.0;
        t.arrivalsPerSecond = 100.0;
        t.sessionCount = 12;
        t.documentCount = 4;
        t.appendRows = 512;
        t.maxContextRows = 12288;
        t.contextRows = {{2048, 0.5}, {8192, 0.5}};
        p.shardRows = 4096;
        p.cacheBudgetBytes = 8u * 1024u * 1024u;
        p.remoteRows = 4096;
        p.remoteQueries = 8;
        return true;
    }
    return false;
}

RunResult
runWorkload(const RunOptions &options)
{
    WorkloadParams params;
    if (!workloadParams(options.workload, params))
        a3::fatal("unknown workload '", options.workload, "'");
    std::filesystem::create_directories(options.workDir);

    SpanLog spans;
    RemoteFamily remote(params, options.seed, options.workerBin,
                        options.workDir, spans);
    AttentionFamily attention(params, options.seed, spans);
    ServingFamily serving(params, options.seed, options.workDir, spans);
    const double setupSeconds = now() - options.processStart;

    Sampler sampler;
    attention.addOps(sampler);
    serving.addOps(sampler);
    remote.addOps(sampler);
    // A traced run records spans in every other round; the rounds
    // without them give the untraced figures its overhead is
    // measured against.
    auto traced = [&](std::size_t round) {
        return options.trace && round % 2 == 0;
    };
    sampler.run(options.seconds, 8, [&](std::size_t round) {
        spans.setEnabled(traced(round));
    });
    spans.setEnabled(false);
    sampler.describe();

    RunResult result;
    result.attempted = sampler.attempted();
    result.failed = serving.failed();
    attention.check(result.checks);
    serving.check(result.checks);
    remote.check(result.checks);

    auto endToEnd = [&](const std::function<bool(std::size_t)> &rounds) {
        Metrics m;
        attention.metrics(sampler, rounds, m);
        serving.metrics(sampler, rounds, m);
        remote.metrics(sampler, rounds, m);
        return m;
    };
    if (!options.trace) {
        result.metrics = endToEnd([](std::size_t) { return true; });
        result.metrics["setup_s"] = {setupSeconds, "s"};
        return result;
    }

    // Tracing overhead: mean ratio of the traced rounds' per-query
    // times to the untraced rounds'.
    const Metrics on = endToEnd(traced);
    const Metrics off =
        endToEnd([&](std::size_t r) { return !traced(r); });
    double ratio = 0.0;
    int timed = 0;
    for (const auto &[name, metric] : off) {
        if (metric.unit != "us" && metric.unit != "1/s" &&
            metric.unit != "ns")
            continue;
        const double traceValue = on.at(name).value;
        ratio += metric.unit == "1/s" ? metric.value / traceValue
                                      : traceValue / metric.value;
        ++timed;
    }
    result.metrics["trace.overhead_pct"] = {
        100.0 * (ratio / timed - 1.0), "%"};

    attention.layerMetrics(result.metrics);
    serving.layerMetrics(result.metrics);
    remote.layerMetrics(result.metrics);

    const std::string path = options.workDir + "/spans-" +
                             options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    if (!spans.writeJson(path))
        result.checks.fail("cannot write " + path);
    if (spans.dropped() > 0)
        std::fprintf(stderr, "perfbench: span log full, %zu spans dropped\n",
                     spans.dropped());
    return result;
}

}  // namespace pb
