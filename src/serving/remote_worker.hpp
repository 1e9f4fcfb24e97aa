/**
 * @file
 * Shard worker: the server half of the distributed serving tier.
 *
 * A ShardWorker binds row-slices shipped to it as BindShard frames
 * (building the same makeBackend() engines the coordinator would
 * build locally — the other half of the bit-identity guarantee) and
 * answers Query frames with softmax partials or, in wantFull mode,
 * full normalized results. One serve() loop handles one connection;
 * the worker is deliberately single-threaded per connection so
 * replies preserve query order (the FIFO property the coordinator's
 * reply matching relies on).
 *
 * Robustness contract: a frame that decodes but violates the
 * protocol (unknown shard, stale generation, config makeBackend()
 * would reject) yields a typed ErrorReply and the connection stays
 * up; only an unrecoverable transport failure (poisoned stream,
 * peer close) or an explicit Shutdown frame ends the loop. A worker
 * must never abort on anything a peer sent it.
 *
 * Two deployment shapes share this class: tools/shard_worker wraps
 * it in a process around a UnixServerSocket, and InProcessWorker
 * runs it on a thread over a socketpair — which is how tests and
 * the fault-injection harness exercise the exact production serve
 * loop without process management.
 */

#ifndef A3_SERVING_REMOTE_WORKER_HPP
#define A3_SERVING_REMOTE_WORKER_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "attention/backend.hpp"
#include "net/transport.hpp"
#include "serving/remote_protocol.hpp"

namespace a3 {

/**
 * Reject an EngineConfig that arrived over the wire if makeBackend()
 * would fatal() on it for a `dims`-column shard (non-positive
 * quantization widths, input word over the lane budget, an explicit
 * packed lane whose int32 kernels the task would overflow). The
 * worker gates every BindShard through this so a hostile or buggy
 * peer gets a typed ErrorReply instead of killing the process.
 */
NetStatus validateRemoteEngineConfig(const EngineConfig &config,
                                     std::size_t dims);

/** Serves BindShard/Query/Heartbeat frames on one connection. */
class ShardWorker
{
  public:
    explicit ShardWorker(std::string name);

    /**
     * Answer frames on `transport` until a Shutdown frame (returns
     * Ok), orderly peer close (returns Closed), or an unrecoverable
     * transport failure (returns that status). Recoverable protocol
     * errors — bad checksums, malformed payloads, unknown shards,
     * stale generations — are answered with ErrorReply frames and
     * the loop continues.
     */
    NetStatus serve(Transport &transport);

    /** Shards currently bound (distinct shard ids). */
    std::size_t shardsBound() const { return shards_.size(); }

    const std::string &name() const { return name_; }

  private:
    struct BoundShard
    {
        std::uint64_t generation = 0;
        std::unique_ptr<AttentionBackend> backend;
    };

    /** Dispatch one frame; false only when serve() must stop. */
    bool handleFrame(Transport &transport, const Frame &frame,
                     NetStatus &stop);

    void handleBind(Transport &transport, const Frame &frame);
    void handleQuery(Transport &transport, const Frame &frame);

    std::string name_;
    std::map<std::uint32_t, BoundShard> shards_;
};

/**
 * A ShardWorker on a dedicated thread over a socketpair — the
 * production serve loop without the process. clientTransport() is
 * the coordinator-side endpoint (wrap it in a FaultyTransport to
 * inject faults between coordinator and this worker). stop() closes
 * the worker side, which unblocks the serve loop and joins the
 * thread; the destructor stops implicitly.
 */
class InProcessWorker
{
  public:
    explicit InProcessWorker(std::string name);
    ~InProcessWorker();

    InProcessWorker(const InProcessWorker &) = delete;
    InProcessWorker &operator=(const InProcessWorker &) = delete;

    std::shared_ptr<Transport> clientTransport() { return client_; }

    /** Close both endpoints and join the serve thread. */
    void stop();

    const std::string &name() const { return worker_.name(); }

  private:
    ShardWorker worker_;
    std::shared_ptr<Transport> client_;
    std::shared_ptr<Transport> server_;
    std::thread thread_;
};

}  // namespace a3

#endif  // A3_SERVING_REMOTE_WORKER_HPP
