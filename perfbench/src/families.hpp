/**
 * @file
 * The three operation families every workload runs, each bound to the
 * workload's inputs:
 *
 *  - AttentionFamily: batched queries through AttentionEngine::
 *    runGroupsInto on one lane, one op per backend kind;
 *  - ServingFamily: a seeded trace replayed as fast as possible
 *    through SessionCache, ShardStore and BatchScheduler on two
 *    engine lanes;
 *  - RemoteFamily: one context sharded over two shard_worker
 *    processes on AF_UNIX sockets behind RemoteShardCoordinator,
 *    queried by one client thread in a closed loop.
 *
 * Each family binds its inputs in its constructor (set-up), registers
 * its timed ops with the Sampler, checks the outputs of its last timed
 * calls, and, in a traced run, measures its layers from outside.
 */
#ifndef PERFBENCH_FAMILIES_HPP
#define PERFBENCH_FAMILIES_HPP

#include <memory>
#include <string>
#include <vector>

#include "attention/backend.hpp"
#include "bench.hpp"
#include "engine/engine.hpp"
#include "trace/generator.hpp"

namespace pb {

/** The inputs of one workload. */
struct WorkloadParams
{
    std::size_t dims = 64;

    // Attention family: contexts with rows spaced evenly over
    // [minRows, maxRows], `queriesPerContext` queries each per pass.
    std::size_t contexts = 16;
    std::size_t minRows = 50;
    std::size_t maxRows = 500;
    std::size_t queriesPerContext = 2;
    /** Queries per pass for the two i = 4 / f = 4 kinds, whose Word32
     *  lane is far slower; 0 = same as the others. */
    std::size_t paperQueriesPerContext = 0;

    // Serving family.
    a3::TraceConfig trace;
    std::size_t shardRows = 128;
    std::size_t cacheBudgetBytes = 1u << 20;

    // Remote family: one context over two workers.
    std::size_t remoteRows = 512;
    std::size_t remoteQueries = 8;
};

/** Slice of one timed op per round (see bench.hpp). */
constexpr double kSliceSeconds = 0.06;

/** Params of a named workload; false if the name is unknown. */
bool workloadParams(const std::string &name, WorkloadParams &out);

/** Seeded attention context: keys, values, and planted queries. */
struct Context
{
    Matrix key;
    Matrix value;
    std::vector<Vector> queries;
};

Context makeContext(std::uint64_t seed, std::size_t rows,
                    std::size_t dims, std::size_t queries);

/** The six backend kinds every attention op set covers. */
struct KindSpec
{
    const char *metric;  ///< end-to-end metric name
    a3::EngineConfig config;
    bool paperFormat;  ///< i = 4 / f = 4 (Word32 lane)
};
const std::vector<KindSpec> &kindSpecs();

class AttentionFamily
{
  public:
    AttentionFamily(const WorkloadParams &params, std::uint64_t seed,
                    SpanLog &spans);
    void addOps(Sampler &sampler);
    void check(CheckLog &log) const;
    void metrics(const Sampler &sampler,
                 const std::function<bool(std::size_t)> &rounds,
                 Metrics &out) const;
    /** Per-layer probes (traced runs). */
    void layerMetrics(Metrics &out) const;

  private:
    struct Kind
    {
        const KindSpec *spec = nullptr;
        std::vector<std::unique_ptr<a3::AttentionBackend>> backends;
        std::vector<a3::AttentionRequestGroup> groups;
        std::vector<std::vector<AttentionResult>> results;
        std::size_t queries = 0;
    };
    const WorkloadParams &params_;
    SpanLog &spans_;
    a3::AttentionEngine engine_{1};
    std::vector<Context> contexts_;
    std::vector<Kind> kinds_;
    std::uint64_t passes_ = 0;
};

class ServingFamily
{
  public:
    ServingFamily(const WorkloadParams &params, std::uint64_t seed,
                  const std::string &workDir, SpanLog &spans);
    ~ServingFamily();
    void addOps(Sampler &sampler);
    void check(CheckLog &log) const;
    void metrics(const Sampler &sampler,
                 const std::function<bool(std::size_t)> &rounds,
                 Metrics &out) const;
    void layerMetrics(Metrics &out) const;
    /** Operations that failed (shed or unrecoverable), all replays. */
    std::uint64_t failed() const;
    /** Self-test: replay once with one completion dropped. */
    void replayLosingOneCompletion();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

class RemoteFamily
{
  public:
    RemoteFamily(const WorkloadParams &params, std::uint64_t seed,
                 const std::string &workerBin,
                 const std::string &workDir, SpanLog &spans);
    ~RemoteFamily();
    void addOps(Sampler &sampler);
    void check(CheckLog &log) const;
    void metrics(const Sampler &sampler,
                 const std::function<bool(std::size_t)> &rounds,
                 Metrics &out) const;
    void layerMetrics(Metrics &out) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Kernel-table and roofline probes over one context's tensors. */
void kernelLayerMetrics(const Context &context, Metrics &out);

}  // namespace pb

#endif  // PERFBENCH_FAMILIES_HPP
