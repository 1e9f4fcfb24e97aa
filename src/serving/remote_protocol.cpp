#include "serving/remote_protocol.hpp"

#include <utility>

#include "net/wire.hpp"

namespace a3 {

namespace {

NetStatus
malformed(const char *what)
{
    return NetStatus::failure(NetError::Malformed, what);
}

NetStatus
requireType(const Frame &frame, FrameType expected)
{
    if (frame.type != expected)
        return NetStatus::failure(
            NetError::Malformed,
            std::string("expected ") + frameTypeName(expected) +
                " frame, got " + frameTypeName(frame.type));
    return NetStatus::success();
}

void
putMatrix(WireWriter &w, const Matrix &m)
{
    w.u32(static_cast<std::uint32_t>(m.rows()));
    w.u32(static_cast<std::uint32_t>(m.cols()));
    w.floats(m.data().data(), m.data().size());
}

bool
getMatrix(WireReader &r, Matrix &out)
{
    const std::uint32_t rows = r.u32();
    const std::uint32_t cols = r.u32();
    std::vector<float> data;
    r.floats(data);
    if (!r.ok() ||
        data.size() != static_cast<std::size_t>(rows) * cols)
        return false;
    out = Matrix(rows, cols);
    out.data() = std::move(data);
    return true;
}

void
putEngineConfig(WireWriter &w, const EngineConfig &config)
{
    w.u8(static_cast<std::uint8_t>(config.kind));
    w.u32(static_cast<std::uint32_t>(config.intBits));
    w.u32(static_cast<std::uint32_t>(config.fracBits));
    w.u8(static_cast<std::uint8_t>(config.packedKv));
    w.u8(config.approx.candidateSelection ? 1 : 0);
    w.u8(config.approx.postScoring ? 1 : 0);
    w.f64(config.approx.mFraction);
    w.u64(config.approx.mAbsolute);
    w.f64(config.approx.thresholdPercent);
    w.u8(config.approx.skipHeuristic ? 1 : 0);
}

bool
getEngineConfig(WireReader &r, EngineConfig &out)
{
    const std::uint8_t kind = r.u8();
    out.intBits = static_cast<int>(r.u32());
    out.fracBits = static_cast<int>(r.u32());
    const std::uint8_t packed = r.u8();
    out.approx.candidateSelection = r.u8() != 0;
    out.approx.postScoring = r.u8() != 0;
    out.approx.mFraction = r.f64();
    out.approx.mAbsolute = static_cast<std::size_t>(r.u64());
    out.approx.thresholdPercent = r.f64();
    out.approx.skipHeuristic = r.u8() != 0;
    if (!r.ok() ||
        kind > static_cast<std::uint8_t>(
                   EngineKind::ApproxQuantized) ||
        packed > static_cast<std::uint8_t>(PackedKvFormat::Int16))
        return false;
    out.kind = static_cast<EngineKind>(kind);
    out.packedKv = static_cast<PackedKvFormat>(packed);
    return true;
}

void
putIds(WireWriter &w, const std::vector<std::uint32_t> &ids)
{
    w.u32s(ids.data(), ids.size());
}

}  // namespace

Frame
encodeHello(const HelloPayload &payload, bool ack)
{
    WireWriter w;
    w.u16(payload.version);
    w.str(payload.peer);
    return {ack ? FrameType::HelloAck : FrameType::Hello,
            w.take()};
}

NetStatus
decodeHello(const Frame &frame, HelloPayload &out)
{
    if (frame.type != FrameType::Hello &&
        frame.type != FrameType::HelloAck)
        return malformed("expected hello/hello-ack frame");
    WireReader r(frame.payload);
    out.version = r.u16();
    out.peer = r.str();
    if (!r.done())
        return malformed("malformed hello payload");
    if (out.version != kProtocolVersion)
        return NetStatus::failure(
            NetError::BadVersion,
            "peer speaks protocol version " +
                std::to_string(out.version));
    return NetStatus::success();
}

Frame
encodeBindShard(const BindShardPayload &payload)
{
    WireWriter w;
    w.u32(payload.shardId);
    w.u64(payload.generation);
    putEngineConfig(w, payload.config);
    putMatrix(w, payload.key);
    putMatrix(w, payload.value);
    return {FrameType::BindShard, w.take()};
}

NetStatus
decodeBindShard(const Frame &frame, BindShardPayload &out)
{
    NetStatus status = requireType(frame, FrameType::BindShard);
    if (!status.ok())
        return status;
    WireReader r(frame.payload);
    out.shardId = r.u32();
    out.generation = r.u64();
    if (!getEngineConfig(r, out.config))
        return malformed("malformed engine config");
    if (!getMatrix(r, out.key) || !getMatrix(r, out.value))
        return malformed("malformed shard matrices");
    if (!r.done())
        return malformed("trailing bytes after bind payload");
    if (out.key.rows() != out.value.rows() ||
        out.key.cols() != out.value.cols() || out.key.empty())
        return malformed("bind shard key/value shape mismatch");
    return NetStatus::success();
}

Frame
encodeBindAck(const BindAckPayload &payload)
{
    WireWriter w;
    w.u32(payload.shardId);
    w.u64(payload.generation);
    return {FrameType::BindAck, w.take()};
}

NetStatus
decodeBindAck(const Frame &frame, BindAckPayload &out)
{
    NetStatus status = requireType(frame, FrameType::BindAck);
    if (!status.ok())
        return status;
    WireReader r(frame.payload);
    out.shardId = r.u32();
    out.generation = r.u64();
    if (!r.done())
        return malformed("malformed bind-ack payload");
    return NetStatus::success();
}

Frame
encodeQuery(const QueryPayload &payload)
{
    WireWriter w;
    w.u64(payload.requestId);
    w.u32(payload.shardId);
    w.u64(payload.generation);
    w.u8(payload.wantFull ? 1 : 0);
    w.floats(payload.query.data(), payload.query.size());
    return {FrameType::Query, w.take()};
}

NetStatus
decodeQuery(const Frame &frame, QueryPayload &out)
{
    NetStatus status = requireType(frame, FrameType::Query);
    if (!status.ok())
        return status;
    WireReader r(frame.payload);
    out.requestId = r.u64();
    out.shardId = r.u32();
    out.generation = r.u64();
    const std::uint8_t wantFull = r.u8();
    r.floats(out.query);
    if (!r.done() || wantFull > 1 || out.query.empty())
        return malformed("malformed query payload");
    out.wantFull = wantFull != 0;
    return NetStatus::success();
}

Frame
encodePartialReply(const PartialReplyPayload &payload)
{
    const PartialResult &p = payload.partial;
    WireWriter w;
    w.u64(payload.requestId);
    w.u32(payload.shardId);
    w.f32(p.maxScore);
    w.f32(p.expSum);
    w.u64(p.iterations);
    w.floats(p.accum.data(), p.accum.size());
    w.floats(p.expWeights.data(), p.expWeights.size());
    w.floats(p.scores.data(), p.scores.size());
    putIds(w, p.candidates);
    putIds(w, p.kept);
    return {FrameType::PartialReply, w.take()};
}

NetStatus
decodePartialReply(const Frame &frame, PartialReplyPayload &out)
{
    NetStatus status =
        requireType(frame, FrameType::PartialReply);
    if (!status.ok())
        return status;
    WireReader r(frame.payload);
    out.requestId = r.u64();
    out.shardId = r.u32();
    PartialResult &p = out.partial;
    p.maxScore = r.f32();
    p.expSum = r.f32();
    p.iterations = static_cast<std::size_t>(r.u64());
    r.floats(p.accum);
    r.floats(p.expWeights);
    r.floats(p.scores);
    r.u32s(p.candidates);
    r.u32s(p.kept);
    if (!r.done() || p.scores.size() != p.expWeights.size())
        return malformed("malformed partial-reply payload");
    return NetStatus::success();
}

Frame
encodeResultReply(const ResultReplyPayload &payload)
{
    const AttentionResult &res = payload.result;
    WireWriter w;
    w.u64(payload.requestId);
    w.u32(payload.shardId);
    w.u64(res.iterations);
    w.floats(res.output.data(), res.output.size());
    w.floats(res.weights.data(), res.weights.size());
    w.floats(res.scores.data(), res.scores.size());
    putIds(w, res.candidates);
    putIds(w, res.kept);
    return {FrameType::ResultReply, w.take()};
}

NetStatus
decodeResultReply(const Frame &frame, ResultReplyPayload &out)
{
    NetStatus status = requireType(frame, FrameType::ResultReply);
    if (!status.ok())
        return status;
    WireReader r(frame.payload);
    out.requestId = r.u64();
    out.shardId = r.u32();
    AttentionResult &res = out.result;
    res.iterations = static_cast<std::size_t>(r.u64());
    r.floats(res.output);
    r.floats(res.weights);
    r.floats(res.scores);
    r.u32s(res.candidates);
    r.u32s(res.kept);
    if (!r.done() || res.scores.size() != res.weights.size())
        return malformed("malformed result-reply payload");
    return NetStatus::success();
}

Frame
encodeHeartbeat(const HeartbeatPayload &payload, bool ack)
{
    WireWriter w;
    w.u64(payload.sequence);
    w.u32(payload.shardsBound);
    return {ack ? FrameType::HeartbeatAck : FrameType::Heartbeat,
            w.take()};
}

NetStatus
decodeHeartbeat(const Frame &frame, HeartbeatPayload &out)
{
    if (frame.type != FrameType::Heartbeat &&
        frame.type != FrameType::HeartbeatAck)
        return malformed("expected heartbeat/ack frame");
    WireReader r(frame.payload);
    out.sequence = r.u64();
    out.shardsBound = r.u32();
    if (!r.done())
        return malformed("malformed heartbeat payload");
    return NetStatus::success();
}

Frame
encodeErrorReply(const ErrorReplyPayload &payload)
{
    WireWriter w;
    w.u64(payload.requestId);
    w.u32(static_cast<std::uint32_t>(payload.code));
    w.str(payload.message);
    return {FrameType::ErrorReply, w.take()};
}

NetStatus
decodeErrorReply(const Frame &frame, ErrorReplyPayload &out)
{
    NetStatus status = requireType(frame, FrameType::ErrorReply);
    if (!status.ok())
        return status;
    WireReader r(frame.payload);
    out.requestId = r.u64();
    const std::uint32_t code = r.u32();
    out.message = r.str();
    if (!r.done() ||
        code > static_cast<std::uint32_t>(NetError::SystemError))
        return malformed("malformed error-reply payload");
    out.code = static_cast<NetError>(code);
    return NetStatus::success();
}

Frame
encodeShutdown()
{
    return {FrameType::Shutdown, {}};
}

}  // namespace a3
