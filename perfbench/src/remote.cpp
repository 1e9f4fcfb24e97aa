#include <filesystem>

#include "checks.hpp"
#include "families.hpp"
#include "net/frame.hpp"
#include "net/process.hpp"
#include "serving/remote_coordinator.hpp"
#include "serving/remote_protocol.hpp"
#include "serving/sharded_backend.hpp"
#include "util/logging.hpp"

namespace pb {

namespace {

/** Frame bytes and query round trips seen by the coordinator. */
struct WireCounters
{
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    bool timing = false;
    double rttSeconds = 0.0;
    std::uint64_t rtts = 0;
};

/**
 * Transport decorator counting whole frames (header + payload) and
 * timing each Query frame to the reply that answers it. The
 * coordinator drives its transports from one thread.
 */
class CountingTransport final : public a3::Transport
{
  public:
    CountingTransport(std::shared_ptr<a3::Transport> inner,
                      WireCounters &counters)
        : inner_(std::move(inner)), counters_(counters)
    {
    }

    a3::NetStatus send(const a3::Frame &frame) override
    {
        counters_.sent += a3::kFrameHeaderBytes + frame.payload.size();
        if (frame.type == a3::FrameType::Query)
            sentAt_ = now();
        return inner_->send(frame);
    }

    a3::NetStatus recv(a3::Frame &out, double timeoutSeconds) override
    {
        const a3::NetStatus status = inner_->recv(out, timeoutSeconds);
        if (!status.ok())
            return status;
        counters_.received += a3::kFrameHeaderBytes + out.payload.size();
        const bool reply = out.type == a3::FrameType::PartialReply ||
                           out.type == a3::FrameType::ResultReply;
        if (reply && counters_.timing && sentAt_ > 0.0) {
            counters_.rttSeconds += now() - sentAt_;
            ++counters_.rtts;
        }
        if (reply)
            sentAt_ = 0.0;
        return status;
    }

    void close() override { inner_->close(); }
    bool isOpen() const override { return inner_->isOpen(); }

  private:
    std::shared_ptr<a3::Transport> inner_;
    WireCounters &counters_;
    double sentAt_ = 0.0;
};

constexpr std::size_t kWorkers = 2;

}  // namespace

struct RemoteFamily::Impl
{
    const WorkloadParams &params;
    SpanLog &spans;
    a3::EngineConfig inner;
    Context ctx;
    std::size_t shardRows = 0;
    std::vector<std::string> sockets;
    std::vector<a3::ChildProcess> workers;
    WireCounters counters;
    std::unique_ptr<a3::RemoteShardCoordinator> coordinator;
    std::vector<AttentionResult> results;
    std::uint64_t next = 0;
    /** Counters once set-up (binds, warm-up) is done. */
    std::uint64_t sentAtSetup = 0;
    std::uint64_t receivedAtSetup = 0;

    Impl(const WorkloadParams &p, std::uint64_t seed,
         const std::string &workerBin, const std::string &workDir,
         SpanLog &s)
        : params(p), spans(s),
          ctx(makeContext(seed * 0xbf58476d1ce4e5b9ull + 0x4e7,
                          p.remoteRows, p.dims, p.remoteQueries))
    {
        inner.kind = a3::EngineKind::ExactFloat;
        shardRows = (p.remoteRows + kWorkers - 1) / kWorkers;
        std::vector<a3::RemoteWorkerSpec> specs;
        workers.resize(kWorkers);
        for (std::size_t w = 0; w < kWorkers; ++w) {
            const std::string name = "worker" + std::to_string(w);
            sockets.push_back(workDir + "/" + name + ".sock");
            std::filesystem::remove(sockets.back());
            const a3::NetStatus status =
                workers[w].spawn(workerBin, {sockets.back(), name});
            if (!status.ok())
                a3::fatal("cannot spawn ", workerBin, ": ",
                          status.message);
            specs.push_back(a3::unixWorkerSpec(name, sockets.back(), 10.0));
        }
        a3::RemoteShardConfig config;
        config.shardRows = shardRows;
        config.replication = 1;
        config.queryDeadlineSeconds = 10.0;
        config.decorateTransport =
            [this](std::shared_ptr<a3::Transport> transport) {
                return std::make_shared<CountingTransport>(
                    std::move(transport), counters);
            };
        coordinator = std::make_unique<a3::RemoteShardCoordinator>(
            inner, ctx.key, ctx.value, std::move(specs), config);
        results.resize(ctx.queries.size());
        for (int pass = 0; pass < 2; ++pass)
            for (std::size_t q = 0; q < ctx.queries.size(); ++q)
                coordinator->runInto(ctx.queries[q], results[q]);
        sentAtSetup = counters.sent;
        receivedAtSetup = counters.received;
    }

    ~Impl()
    {
        coordinator.reset();
        for (a3::ChildProcess &worker : workers)
            worker.wait();
        std::error_code ignored;
        for (const std::string &socket : sockets)
            std::filesystem::remove(socket, ignored);
    }
};

RemoteFamily::RemoteFamily(const WorkloadParams &params,
                           std::uint64_t seed,
                           const std::string &workerBin,
                           const std::string &workDir, SpanLog &spans)
    : impl_(std::make_unique<Impl>(params, seed, workerBin, workDir,
                                   spans))
{
}

RemoteFamily::~RemoteFamily() = default;

void
RemoteFamily::addOps(Sampler &sampler)
{
    const std::size_t latency = sampler.series("remote_us");
    const std::size_t wire = sampler.series("wire_bytes_per_query");
    sampler.addOp("remote", kSliceSeconds,
                  [=, this, &sampler] {
                      Impl &im = *impl_;
                      const std::size_t q =
                          im.next++ % im.ctx.queries.size();
                      im.counters.timing = im.spans.enabled();
                      const std::uint64_t before =
                          im.counters.sent + im.counters.received;
                      const double t0 = now();
                      {
                          SpanLog::Scope span(
                              im.spans,
                              "serving.remote_coordinator.runInto",
                              im.next);
                          im.coordinator->runInto(im.ctx.queries[q],
                                                  im.results[q]);
                      }
                      sampler.add(latency, (now() - t0) * 1e6);
                      sampler.add(wire,
                                  static_cast<double>(
                                      im.counters.sent +
                                      im.counters.received - before));
                      return std::uint64_t{1};
                  });
}

void
RemoteFamily::check(CheckLog &log) const
{
    const Impl &im = *impl_;
    a3::ShardedConfig sharding;
    sharding.shardRows = im.shardRows;
    const a3::ShardedBackend local(im.inner, im.ctx.key, im.ctx.value,
                                   sharding);
    for (std::size_t q = 0; q < im.ctx.queries.size(); ++q) {
        ++log.checked;
        const AttentionResult &remote = im.results[q];
        if (!bitIdentical(remote, local.run(im.ctx.queries[q])))
            log.fail("remote query " + std::to_string(q) +
                     " differs from the in-process ShardedBackend");
        std::string why;
        if (!checkExact(im.ctx.key, im.ctx.value, im.ctx.key.rows(),
                        im.ctx.queries[q], remote, why))
            log.fail("remote query " + std::to_string(q) + ": " + why);
    }
}

void
RemoteFamily::metrics(const Sampler &sampler,
                      const std::function<bool(std::size_t)> &rounds,
                      Metrics &out) const
{
    out["remote_query_us"] = {sampler.best("remote_us", rounds),
                              "us"};
    out["wire_bytes_per_query"] = {
        sampler.best("wire_bytes_per_query", rounds), "B"};
}

void
RemoteFamily::layerMetrics(Metrics &out) const
{
    const Impl &im = *impl_;
    const std::size_t shards = im.coordinator->shardCount();

    // Encode and decode one query's frames with the public protocol
    // functions: a Query frame per shard out, a PartialReply per shard
    // back.
    a3::ShardedConfig sharding;
    sharding.shardRows = im.shardRows;
    const a3::ShardedBackend local(im.inner, im.ctx.key, im.ctx.value,
                                   sharding);
    std::vector<a3::QueryPayload> queryPayloads(shards);
    std::vector<a3::PartialReplyPayload> replyPayloads(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        queryPayloads[s].requestId = s + 1;
        queryPayloads[s].shardId = static_cast<std::uint32_t>(s);
        queryPayloads[s].generation = 1;
        queryPayloads[s].query = im.ctx.queries.front();
        replyPayloads[s].requestId = s + 1;
        replyPayloads[s].shardId = static_cast<std::uint32_t>(s);
        local.runUnitPartialInto(s, im.ctx.queries.front(),
                                 replyPayloads[s].partial);
    }
    std::vector<a3::Frame> queryFrames(shards), replyFrames(shards);
    std::vector<double> encode, decode;
    a3::QueryPayload queryOut;
    a3::PartialReplyPayload replyOut;
    for (int rep = 0; rep < 31; ++rep) {
        double t0 = now();
        for (std::size_t s = 0; s < shards; ++s) {
            queryFrames[s] = a3::encodeQuery(queryPayloads[s]);
            replyFrames[s] = a3::encodePartialReply(replyPayloads[s]);
        }
        encode.push_back(now() - t0);
        t0 = now();
        for (std::size_t s = 0; s < shards; ++s) {
            a3::decodeQuery(queryFrames[s], queryOut);
            a3::decodePartialReply(replyFrames[s], replyOut);
        }
        decode.push_back(now() - t0);
    }
    out["net.encode_us_per_query"] = {median(encode) * 1e6, "us"};
    out["net.decode_us_per_query"] = {median(decode) * 1e6, "us"};

    const double rtts =
        static_cast<double>(std::max<std::uint64_t>(im.counters.rtts, 1));
    // Mean time from a shard's Query frame to its reply; the shards of
    // one query overlap.
    out["net.rtt_us_per_query"] = {im.counters.rttSeconds * 1e6 / rtts,
                                   "us"};
    const double queries =
        static_cast<double>(std::max<std::uint64_t>(im.next, 1));
    out["net.bytes_sent_per_query"] = {
        static_cast<double>(im.counters.sent - im.sentAtSetup) / queries,
        "B"};
    out["net.bytes_received_per_query"] = {
        static_cast<double>(im.counters.received - im.receivedAtSetup) /
            queries,
        "B"};

    const a3::RemoteCoordinatorStats stats = im.coordinator->stats();
    out["serving.remote_coordinator.retries"] = {
        static_cast<double>(stats.retries), "count"};
    out["serving.remote_coordinator.timeouts"] = {
        static_cast<double>(stats.timeouts), "count"};
    out["serving.remote_coordinator.failovers"] = {
        static_cast<double>(stats.failovers), "count"};
    out["serving.remote_coordinator.local_fallbacks"] = {
        static_cast<double>(stats.localFallbacks), "count"};
}

}  // namespace pb
