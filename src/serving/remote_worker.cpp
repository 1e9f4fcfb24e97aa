#include "serving/remote_worker.hpp"

#include <utility>

#include "fixed/packed.hpp"
#include "util/logging.hpp"

namespace a3 {

namespace {

/** ErrorReply for `requestId`; best-effort (send may fail). */
void
sendError(Transport &transport, std::uint64_t requestId,
          NetError code, std::string message)
{
    ErrorReplyPayload reply;
    reply.requestId = requestId;
    reply.code = code;
    reply.message = std::move(message);
    transport.send(encodeErrorReply(reply));
}

}  // namespace

NetStatus
validateRemoteEngineConfig(const EngineConfig &config, std::size_t dims)
{
    if (config.kind != EngineKind::ExactQuantized &&
        config.kind != EngineKind::ApproxQuantized)
        return NetStatus::success();
    if (config.intBits <= 0 || config.fracBits <= 0)
        return NetStatus::failure(
            NetError::WorkerError,
            "quantization widths must be positive");
    const int word = config.intBits + config.fracBits + 1;
    const int lane = config.packedKv == PackedKvFormat::Auto
                         ? 32
                         : packedKvLaneBits(config.packedKv);
    if (word > lane)
        return NetStatus::failure(
            NetError::WorkerError,
            "input word of " + std::to_string(word) +
                " bits exceeds the " + std::to_string(lane) +
                "-bit lane");
    if (tryResolvePackedKvFormat(config.packedKv, config.intBits,
                                 config.fracBits,
                                 dims) == PackedKvFormat::Auto)
        return NetStatus::failure(
            NetError::WorkerError,
            std::string("the ") + packedKvFormatName(config.packedKv) +
                " lane's int32 kernels would overflow on " +
                std::to_string(dims) + " columns");
    return NetStatus::success();
}

ShardWorker::ShardWorker(std::string name) : name_(std::move(name))
{
}

NetStatus
ShardWorker::serve(Transport &transport)
{
    Frame frame;
    while (true) {
        const NetStatus status = transport.recv(frame, -1.0);
        if (!status.ok()) {
            if (status.error == NetError::BadChecksum) {
                // The frame was fully consumed; the stream is still
                // in sync, so report and keep serving — this is the
                // path a corrupted query retries through.
                sendError(transport, 0, NetError::BadChecksum,
                          status.message);
                continue;
            }
            // Closed, Malformed, BadVersion, Timeout mid-frame:
            // the transport has already poisoned the connection.
            return status;
        }
        NetStatus stop = NetStatus::success();
        if (!handleFrame(transport, frame, stop))
            return stop;
    }
}

bool
ShardWorker::handleFrame(Transport &transport, const Frame &frame,
                         NetStatus &stop)
{
    switch (frame.type) {
    case FrameType::Hello: {
        HelloPayload hello;
        const NetStatus status = decodeHello(frame, hello);
        if (!status.ok()) {
            sendError(transport, 0, status.error, status.message);
            return true;
        }
        HelloPayload ack;
        ack.peer = name_;
        transport.send(encodeHello(ack, /*ack=*/true));
        return true;
    }
    case FrameType::BindShard:
        handleBind(transport, frame);
        return true;
    case FrameType::Query:
        handleQuery(transport, frame);
        return true;
    case FrameType::Heartbeat: {
        HeartbeatPayload beat;
        const NetStatus status = decodeHeartbeat(frame, beat);
        if (!status.ok()) {
            sendError(transport, 0, status.error, status.message);
            return true;
        }
        beat.shardsBound =
            static_cast<std::uint32_t>(shards_.size());
        transport.send(encodeHeartbeat(beat, /*ack=*/true));
        return true;
    }
    case FrameType::Shutdown:
        stop = NetStatus::success();
        return false;
    default:
        // A client-bound frame (acks, replies) arriving at the
        // worker is a protocol violation, but the stream is intact:
        // report and keep serving.
        sendError(transport, 0, NetError::Malformed,
                  std::string("unexpected ") +
                      frameTypeName(frame.type) +
                      " frame at worker");
        return true;
    }
}

void
ShardWorker::handleBind(Transport &transport, const Frame &frame)
{
    BindShardPayload bind;
    NetStatus status = decodeBindShard(frame, bind);
    if (!status.ok()) {
        sendError(transport, 0, status.error, status.message);
        return;
    }
    status = validateRemoteEngineConfig(bind.config, bind.key.cols());
    if (!status.ok()) {
        sendError(transport, 0, status.error, status.message);
        return;
    }
    BoundShard &slot = shards_[bind.shardId];
    slot.generation = bind.generation;
    slot.backend = makeBackend(bind.config, std::move(bind.key),
                               std::move(bind.value));

    BindAckPayload ack;
    ack.shardId = bind.shardId;
    ack.generation = bind.generation;
    transport.send(encodeBindAck(ack));
}

void
ShardWorker::handleQuery(Transport &transport, const Frame &frame)
{
    QueryPayload query;
    const NetStatus status = decodeQuery(frame, query);
    if (!status.ok()) {
        sendError(transport, 0, status.error, status.message);
        return;
    }
    const auto it = shards_.find(query.shardId);
    if (it == shards_.end()) {
        sendError(transport, query.requestId, NetError::WorkerError,
                  "shard " + std::to_string(query.shardId) +
                      " is not bound");
        return;
    }
    const BoundShard &shard = it->second;
    if (shard.generation != query.generation) {
        sendError(transport, query.requestId, NetError::StaleShard,
                  "shard " + std::to_string(query.shardId) +
                      " is at generation " +
                      std::to_string(shard.generation) + ", not " +
                      std::to_string(query.generation));
        return;
    }
    if (query.query.size() != shard.backend->dims()) {
        sendError(transport, query.requestId, NetError::WorkerError,
                  "query dimension " +
                      std::to_string(query.query.size()) +
                      " does not match the task dimension " +
                      std::to_string(shard.backend->dims()));
        return;
    }
    if (query.wantFull) {
        // Single-shard mode: the full normalized result, exactly
        // what ShardedBackend's S = 1 runInto() delegation returns.
        thread_local ResultReplyPayload reply;
        reply.requestId = query.requestId;
        reply.shardId = query.shardId;
        shard.backend->runInto(query.query, reply.result);
        transport.send(encodeResultReply(reply));
    } else {
        thread_local PartialReplyPayload reply;
        reply.requestId = query.requestId;
        reply.shardId = query.shardId;
        shard.backend->runPartialInto(query.query, reply.partial);
        transport.send(encodePartialReply(reply));
    }
}

InProcessWorker::InProcessWorker(std::string name)
    : worker_(std::move(name))
{
    auto [client, server] = transportPair();
    client_ = std::move(client);
    server_ = std::move(server);
    a3Assert(client_ != nullptr && server_ != nullptr,
             "socketpair construction failed");
    thread_ = std::thread([this] { worker_.serve(*server_); });
}

InProcessWorker::~InProcessWorker()
{
    stop();
}

void
InProcessWorker::stop()
{
    if (server_ != nullptr)
        server_->close();
    if (client_ != nullptr)
        client_->close();
    if (thread_.joinable())
        thread_.join();
}

}  // namespace a3
