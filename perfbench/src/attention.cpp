#include "attention/candidate_search.hpp"
#include "attention/post_scoring.hpp"
#include "attention/quantized.hpp"
#include "attention/sorted_key.hpp"
#include "checks.hpp"
#include "families.hpp"
#include "kernels/kernels.hpp"
#include "serving/partial_merge.hpp"
#include "serving/sharded_backend.hpp"
#include "util/random.hpp"

namespace pb {

using a3::ApproxConfig;
using a3::EngineConfig;
using a3::EngineKind;

Context
makeContext(std::uint64_t seed, std::size_t rows, std::size_t dims,
            std::size_t queries)
{
    // Keys and values are N(0, 0.5^2); each query leans on two planted
    // rows (0.6 k_a + 0.4 k_b plus noise), so attention is peaked
    // around a few relevant memories, as in the paper's QA tasks.
    a3::Rng rng(seed);
    Context c{Matrix(rows, dims), Matrix(rows, dims), {}};
    for (float &x : c.key.data())
        x = static_cast<float>(rng.normal(0.0, 0.5));
    for (float &x : c.value.data())
        x = static_cast<float>(rng.normal(0.0, 0.5));
    const auto last = static_cast<std::int64_t>(rows) - 1;
    for (std::size_t i = 0; i < queries; ++i) {
        const auto a = static_cast<std::size_t>(rng.uniformInt(0, last));
        const auto b = static_cast<std::size_t>(rng.uniformInt(0, last));
        Vector q(dims);
        for (std::size_t j = 0; j < dims; ++j)
            q[j] = static_cast<float>(0.6 * c.key(a, j) +
                                      0.4 * c.key(b, j) +
                                      rng.normal(0.0, 0.3));
        c.queries.push_back(std::move(q));
    }
    return c;
}

const std::vector<KindSpec> &
kindSpecs()
{
    static const std::vector<KindSpec> specs = [] {
        auto config = [](EngineKind kind, ApproxConfig approx,
                         int intBits) {
            EngineConfig c;
            c.kind = kind;
            c.approx = approx;
            c.intBits = intBits;
            c.fracBits = 4;
            return c;
        };
        // i = 3 / f = 4 is an 8-bit word, which Auto packs to the
        // int8 lane; the paper's i = 4 / f = 4 is 9 bits (Word32).
        return std::vector<KindSpec>{
            {"exact_us", config(EngineKind::ExactFloat,
                                ApproxConfig::exact(), 4),
             false},
            {"approx_aggr_us", config(EngineKind::ApproxFloat,
                                      ApproxConfig::aggressive(), 4),
             false},
            {"approx_cons_us", config(EngineKind::ApproxFloat,
                                      ApproxConfig::conservative(), 4),
             false},
            {"quant_int8_us", config(EngineKind::ExactQuantized,
                                     ApproxConfig::exact(), 3),
             false},
            {"quant_paper_us", config(EngineKind::ExactQuantized,
                                      ApproxConfig::exact(), 4),
             true},
            {"approx_quant_paper_us",
             config(EngineKind::ApproxQuantized,
                    ApproxConfig::conservative(), 4),
             true},
        };
    }();
    return specs;
}

AttentionFamily::AttentionFamily(const WorkloadParams &params,
                                 std::uint64_t seed, SpanLog &spans)
    : params_(params), spans_(spans)
{
    // Row counts form a fixed ladder over [minRows, maxRows], so the
    // work per pass is the same on every seed; the seed picks values.
    a3::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xa77e);
    for (std::size_t c = 0; c < params.contexts; ++c) {
        const std::size_t rows =
            params.minRows + (params.maxRows - params.minRows) * c /
                                 std::max<std::size_t>(params.contexts - 1, 1);
        contexts_.push_back(makeContext(rng(), rows, params.dims,
                                        params.queriesPerContext));
    }
    for (const KindSpec &spec : kindSpecs()) {
        Kind kind;
        kind.spec = &spec;
        const std::size_t perContext =
            spec.paperFormat && params.paperQueriesPerContext > 0
                ? params.paperQueriesPerContext
                : params.queriesPerContext;
        for (const Context &ctx : contexts_) {
            kind.backends.push_back(
                a3::makeBackend(spec.config, ctx.key, ctx.value));
            a3::AttentionRequestGroup group;
            group.backend = kind.backends.back().get();
            group.queries.assign(ctx.queries.begin(),
                                 ctx.queries.begin() + perContext);
            kind.queries += perContext;
            kind.groups.push_back(std::move(group));
        }
        // Warm the lane: size the thread-local scratch and the result
        // slots for this kind before any pass is timed.
        for (int pass = 0; pass < 2; ++pass)
            engine_.runGroupsInto(kind.groups, kind.results);
        kinds_.push_back(std::move(kind));
    }
}

void
AttentionFamily::addOps(Sampler &sampler)
{
    for (Kind &kind : kinds_) {
        const std::size_t series = sampler.series(kind.spec->metric);
        sampler.addOp(kind.spec->metric, kSliceSeconds,
                      [this, &kind, &sampler, series] {
                          const double t0 = now();
                          {
                              SpanLog::Scope span(spans_,
                                                  kind.spec->metric,
                                                  ++passes_);
                              engine_.runGroupsInto(kind.groups,
                                                    kind.results);
                          }
                          const double dt = now() - t0;
                          sampler.add(series,
                                      dt * 1e6 /
                                          static_cast<double>(
                                              kind.queries));
                          return static_cast<std::uint64_t>(
                              kind.queries);
                      });
    }
}

void
AttentionFamily::check(CheckLog &log) const
{
    for (const Kind &kind : kinds_) {
        const EngineConfig &config = kind.spec->config;
        for (std::size_t g = 0; g < kind.groups.size(); ++g) {
            const Context &ctx = contexts_[g];
            for (std::size_t i = 0; i < kind.groups[g].queries.size();
                 ++i) {
                const Vector &q = kind.groups[g].queries[i];
                const AttentionResult &r = kind.results[g][i];
                std::string why;
                bool ok = false;
                switch (config.kind) {
                case EngineKind::ExactFloat:
                    ok = checkExact(ctx.key, ctx.value, ctx.key.rows(),
                                    q, r, why);
                    break;
                case EngineKind::ApproxFloat:
                    ok = checkApprox(ctx.key, ctx.value, q,
                                     config.approx, r, why);
                    break;
                case EngineKind::ExactQuantized:
                    ok = checkQuantized(ctx.key, ctx.value, q,
                                        config.intBits, config.fracBits,
                                        r, why);
                    break;
                case EngineKind::ApproxQuantized:
                    ok = checkApproxQuantized(
                        ctx.key, ctx.value, q, config.approx,
                        config.intBits, config.fracBits, r, why);
                    break;
                }
                ++log.checked;
                if (!ok)
                    log.fail(std::string(kind.spec->metric) +
                             " context " + std::to_string(g) +
                             " query " + std::to_string(i) + ": " +
                             why);
            }
        }
        // The packed int8 lane and the Word32 lane of one format are
        // bit-identical.
        if (config.kind != EngineKind::ExactQuantized ||
            kind.spec->paperFormat)
            continue;
        for (std::size_t g = 0; g < kind.groups.size(); ++g) {
            const auto *packed =
                dynamic_cast<const a3::QuantizedAttention *>(
                    kind.backends[g].get());
            if (packed == nullptr ||
                packed->packedFormat() != a3::PackedKvFormat::Int8) {
                log.fail("quant_int8 backend is not on the int8 lane");
                continue;
            }
            EngineConfig word = config;
            word.packedKv = a3::PackedKvFormat::Word32;
            const auto reference = a3::makeBackend(
                word, contexts_[g].key, contexts_[g].value);
            for (std::size_t i = 0; i < kind.groups[g].queries.size();
                 ++i) {
                ++log.checked;
                if (!bitIdentical(
                        reference->run(kind.groups[g].queries[i]),
                        kind.results[g][i]))
                    log.fail("int8 and Word32 lanes differ, context " +
                             std::to_string(g));
            }
        }
    }
}

void
AttentionFamily::metrics(const Sampler &sampler,
                         const std::function<bool(std::size_t)> &rounds,
                         Metrics &out) const
{
    for (const Kind &kind : kinds_)
        out[kind.spec->metric] = {
            sampler.best(kind.spec->metric, rounds), "us"};
}

namespace {

/** Median seconds of `reps` runs of `body`. */
template <typename Body>
double
medianSeconds(std::size_t reps, Body &&body)
{
    std::vector<double> times;
    for (std::size_t r = 0; r < reps; ++r) {
        const double t0 = now();
        body();
        times.push_back(now() - t0);
    }
    return median(times);
}

}  // namespace

void
AttentionFamily::layerMetrics(Metrics &out) const
{
    std::size_t totalRows = 0, totalQueries = 0;
    for (const Context &ctx : contexts_) {
        totalRows += ctx.key.rows();
        totalQueries += ctx.queries.size();
    }
    const std::size_t reps = std::max<std::size_t>(
        3, 2000000 / std::max<std::size_t>(totalRows * params_.dims, 1));

    // Sorted-key preprocessing (Section IV-A), the approx kinds'
    // share of set-up.
    std::vector<a3::SortedKey> sorted(contexts_.size());
    const double buildSeconds = medianSeconds(reps, [&] {
        for (std::size_t c = 0; c < contexts_.size(); ++c)
            sorted[c] = a3::SortedKey::build(contexts_[c].key);
    });
    out["attention.sorted_key.build_ns_per_row"] = {
        buildSeconds * 1e9 / static_cast<double>(totalRows), "ns"};

    // Greedy candidate search and post-scoring at the conservative
    // preset, called directly.
    const ApproxConfig cons = ApproxConfig::conservative();
    std::vector<a3::CandidateSearchResult> found(totalQueries);
    const double searchSeconds = medianSeconds(reps, [&] {
        std::size_t k = 0;
        for (std::size_t c = 0; c < contexts_.size(); ++c)
            for (const Vector &q : contexts_[c].queries)
                found[k++] = a3::efficientGreedySearch(
                    sorted[c], q,
                    cons.iterationsFor(contexts_[c].key.rows()),
                    cons.skipHeuristic);
    });
    double candidates = 0.0, iterations = 0.0;
    std::vector<Vector> scores(totalQueries);
    const a3::Kernels &kern = a3::activeKernels();
    {
        std::size_t k = 0;
        for (std::size_t c = 0; c < contexts_.size(); ++c) {
            for (const Vector &q : contexts_[c].queries) {
                candidates += static_cast<double>(
                    found[k].candidates.size());
                iterations += static_cast<double>(found[k].maxPops);
                scores[k].resize(found[k].candidates.size());
                kern.gatherDot(contexts_[c].key.data().data(),
                               params_.dims, found[k].candidates.data(),
                               found[k].candidates.size(), q.data(),
                               scores[k].data());
                ++k;
            }
        }
    }
    const auto nq = static_cast<double>(totalQueries);
    out["attention.candidate_search.us_per_query"] = {
        searchSeconds * 1e6 / nq, "us"};
    out["attention.candidate_search.candidates_per_query"] = {
        candidates / nq, "count"};
    out["attention.candidate_search.iterations_per_query"] = {
        iterations / nq, "count"};
    double kept = 0.0;
    const double postSeconds = medianSeconds(reps * 4, [&] {
        kept = 0.0;
        for (std::size_t k = 0; k < totalQueries; ++k)
            kept += static_cast<double>(
                a3::postScoringSelect(found[k].candidates, scores[k],
                                      cons.scoreGap())
                    .size());
    });
    out["attention.post_scoring.us_per_query"] = {
        postSeconds * 1e6 / nq, "us"};
    out["attention.post_scoring.kept_per_query"] = {kept / nq, "count"};

    // Engine overhead: the one-lane batch pass minus direct runInto()
    // on the same exact backends, interleaved.
    const Kind &exact = kinds_.front();
    std::vector<std::vector<AttentionResult>> batch;
    AttentionResult direct;
    std::vector<double> viaEngine, viaDirect;
    for (std::size_t r = 0; r < 15 * reps; ++r) {
        double t0 = now();
        engine_.runGroupsInto(exact.groups, batch);
        viaEngine.push_back(now() - t0);
        t0 = now();
        for (const auto &group : exact.groups)
            for (const Vector &q : group.queries)
                group.backend->runInto(q, direct);
        viaDirect.push_back(now() - t0);
    }
    const auto passQueries = static_cast<double>(exact.queries);
    out["engine.overhead_us_per_query"] = {
        (median(viaEngine) - median(viaDirect)) * 1e6 / passQueries,
        "us"};

    // Shard merge (mergeShardPartials) over four shards of the largest
    // context.
    std::size_t largest = 0;
    for (std::size_t c = 1; c < contexts_.size(); ++c)
        if (contexts_[c].key.rows() > contexts_[largest].key.rows())
            largest = c;
    const Context &ctx = contexts_[largest];
    const std::size_t n = ctx.key.rows();
    a3::ShardedConfig sharding;
    sharding.shardRows = (n + 3) / 4;
    a3::ShardedBackend sharded(kindSpecs().front().config, ctx.key,
                               ctx.value, sharding);
    std::vector<a3::PartialResult> partials(sharded.workUnitCount());
    std::vector<std::size_t> offsets(partials.size());
    for (std::size_t u = 0; u < partials.size(); ++u) {
        sharded.runUnitPartialInto(u, ctx.queries.front(), partials[u]);
        offsets[u] = sharded.shardOffset(u);
    }
    a3::PartialResult merged;
    const std::size_t mergeReps = std::max<std::size_t>(
        20, 4000000 / (n * params_.dims));
    const double mergeSeconds = medianSeconds(5, [&] {
        for (std::size_t r = 0; r < mergeReps; ++r)
            a3::mergeShardPartials(partials, offsets, n, params_.dims,
                                   merged);
    });
    out["engine.merge_us_per_query"] = {
        mergeSeconds * 1e6 / static_cast<double>(mergeReps), "us"};

    kernelLayerMetrics(ctx, out);
}

}  // namespace pb
