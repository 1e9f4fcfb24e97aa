/**
 * @file
 * Tests for the distributed serving tier: wire primitives and frame
 * codecs (round trips, strict malformed rejection, checksums),
 * deterministic fault injection, the shard worker protocol loop,
 * and the RemoteShardCoordinator's exactness and robustness — bit
 * identity with the in-process ShardedBackend for every engine
 * kind, and the deadline/retry/failover/rebind/local escalation
 * ladder under injected faults and real SIGKILLed worker
 * processes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "attention/backend.hpp"
#include "engine/engine.hpp"
#include "net/fault_injector.hpp"
#include "net/frame.hpp"
#include "net/process.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "serving/batch_scheduler.hpp"
#include "serving/remote_coordinator.hpp"
#include "serving/remote_worker.hpp"
#include "serving/sharded_backend.hpp"
#include "serving/session_cache.hpp"
#include "util/random.hpp"

#ifndef A3_SHARD_WORKER_BIN
#define A3_SHARD_WORKER_BIN ""
#endif

namespace a3 {
namespace {

constexpr EngineKind kAllKinds[] = {
    EngineKind::ExactFloat, EngineKind::ApproxFloat,
    EngineKind::ExactQuantized, EngineKind::ApproxQuantized};

Matrix
randomMatrix(Rng &rng, std::size_t n, std::size_t d)
{
    Matrix m(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c)
            m(r, c) = static_cast<float>(rng.normal());
    return m;
}

Vector
randomQuery(Rng &rng, std::size_t d)
{
    Vector q(d);
    for (auto &x : q)
        x = static_cast<float>(rng.normal());
    return q;
}

void
expectBitIdentical(const AttentionResult &a,
                   const AttentionResult &b)
{
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.weights, b.weights);
    EXPECT_EQ(a.scores, b.scores);
    EXPECT_EQ(a.candidates, b.candidates);
    EXPECT_EQ(a.kept, b.kept);
    EXPECT_EQ(a.iterations, b.iterations);
}

EngineConfig
configFor(EngineKind kind)
{
    EngineConfig config;
    config.kind = kind;
    config.intBits = 5;
    config.fracBits = 6;
    return config;
}

// ------------------------------------------------------------ wire

TEST(RemoteWireTest, RoundTripsEveryPrimitive)
{
    WireWriter w;
    w.u8(0xAB);
    w.u16(0xBEEF);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.f32(-1.5f);
    w.f64(2.25);
    w.str("hello");
    const float floats[] = {1.0f, -0.0f, 3.5f};
    w.floats(floats, 3);
    const std::uint32_t ids[] = {7, 11};
    w.u32s(ids, 2);

    WireReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u16(), 0xBEEF);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.f32(), -1.5f);
    EXPECT_EQ(r.f64(), 2.25);
    EXPECT_EQ(r.str(), "hello");
    std::vector<float> gotFloats;
    r.floats(gotFloats);
    EXPECT_EQ(gotFloats, std::vector<float>({1.0f, -0.0f, 3.5f}));
    std::vector<std::uint32_t> gotIds;
    r.u32s(gotIds);
    EXPECT_EQ(gotIds, std::vector<std::uint32_t>({7, 11}));
    EXPECT_TRUE(r.done());
}

TEST(RemoteWireTest, OverrunLatchesFailure)
{
    WireWriter w;
    w.u16(42);
    WireReader r(w.bytes());
    r.u32();  // 4 bytes from a 2-byte buffer
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u8(), 0u);  // stays failed
    EXPECT_FALSE(r.done());
}

TEST(RemoteWireTest, HostileLengthPrefixIsRejected)
{
    // A length prefix claiming far more elements than the buffer
    // holds must fail cleanly instead of allocating gigabytes.
    WireWriter w;
    w.u64(0x7FFFFFFFFFFFull);
    WireReader r(w.bytes());
    std::vector<float> out;
    r.floats(out);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(out.empty());
}

// ----------------------------------------------------------- frame

TEST(RemoteFrameTest, HeaderRoundTrip)
{
    Frame frame{FrameType::Query, {1, 2, 3, 4}};
    const std::vector<std::uint8_t> bytes = encodeFrame(frame);
    ASSERT_GE(bytes.size(), kFrameHeaderBytes);

    FrameHeader header;
    EXPECT_TRUE(
        decodeFrameHeader(bytes.data(), bytes.size(), header)
            .ok());
    EXPECT_EQ(header.type, FrameType::Query);
    EXPECT_EQ(header.payloadLength, 4u);
    const std::vector<std::uint8_t> payload(
        bytes.begin() +
            static_cast<std::ptrdiff_t>(kFrameHeaderBytes),
        bytes.end());
    EXPECT_TRUE(verifyFramePayload(header, payload).ok());
}

TEST(RemoteFrameTest, RejectsBadMagicVersionTypeAndLength)
{
    const Frame frame{FrameType::Heartbeat, {9, 9}};
    FrameHeader header;

    std::vector<std::uint8_t> bad = encodeFrame(frame);
    bad[0] ^= 0xFF;  // magic
    EXPECT_EQ(
        decodeFrameHeader(bad.data(), bad.size(), header).error,
        NetError::Malformed);

    bad = encodeFrame(frame);
    bad[4] ^= 0xFF;  // version
    EXPECT_EQ(
        decodeFrameHeader(bad.data(), bad.size(), header).error,
        NetError::BadVersion);

    bad = encodeFrame(frame);
    bad[6] = 0x77;  // unknown type
    EXPECT_EQ(
        decodeFrameHeader(bad.data(), bad.size(), header).error,
        NetError::Malformed);

    bad = encodeFrame(frame);
    bad[11] = 0x41;  // absurd payload length
    EXPECT_EQ(
        decodeFrameHeader(bad.data(), bad.size(), header).error,
        NetError::Malformed);
}

TEST(RemoteFrameTest, ChecksumMismatchIsTyped)
{
    const Frame frame{FrameType::Query, {5, 6, 7}};
    std::vector<std::uint8_t> bytes = encodeFrame(frame);
    bytes[kFrameHeaderBytes + 1] ^= 0x10;  // corrupt payload
    FrameHeader header;
    ASSERT_TRUE(
        decodeFrameHeader(bytes.data(), bytes.size(), header)
            .ok());
    const std::vector<std::uint8_t> payload(
        bytes.begin() +
            static_cast<std::ptrdiff_t>(kFrameHeaderBytes),
        bytes.end());
    EXPECT_EQ(verifyFramePayload(header, payload).error,
              NetError::BadChecksum);
}

// -------------------------------------------------------- protocol

TEST(RemoteProtocolTest, BindShardRoundTrip)
{
    Rng rng(3);
    BindShardPayload bind;
    bind.shardId = 3;
    bind.generation = 17;
    bind.config = configFor(EngineKind::ApproxQuantized);
    bind.key = randomMatrix(rng, 6, 4);
    bind.value = randomMatrix(rng, 6, 4);

    BindShardPayload out;
    ASSERT_TRUE(decodeBindShard(encodeBindShard(bind), out).ok());
    EXPECT_EQ(out.shardId, 3u);
    EXPECT_EQ(out.generation, 17u);
    EXPECT_EQ(out.config.kind, EngineKind::ApproxQuantized);
    EXPECT_EQ(out.config.intBits, 5);
    EXPECT_EQ(out.config.fracBits, 6);
    EXPECT_TRUE(out.key == bind.key);
    EXPECT_TRUE(out.value == bind.value);
}

TEST(RemoteProtocolTest, PartialReplyRoundTripIsBitExact)
{
    PartialReplyPayload reply;
    reply.requestId = 99;
    reply.shardId = 2;
    reply.partial.maxScore = 1.25f;
    reply.partial.expSum = 0.875f;
    reply.partial.iterations = 12;
    reply.partial.accum = {0.1f, -2.5f};
    reply.partial.expWeights = {0.5f, 0.25f, 0.0f};
    reply.partial.scores = {1.0f, -1.0f, 0.0f};
    reply.partial.candidates = {0, 1};
    reply.partial.kept = {1};

    PartialReplyPayload out;
    ASSERT_TRUE(
        decodePartialReply(encodePartialReply(reply), out).ok());
    EXPECT_EQ(out.requestId, 99u);
    EXPECT_EQ(out.partial.maxScore, 1.25f);
    EXPECT_EQ(out.partial.expSum, 0.875f);
    EXPECT_EQ(out.partial.accum, reply.partial.accum);
    EXPECT_EQ(out.partial.expWeights, reply.partial.expWeights);
    EXPECT_EQ(out.partial.scores, reply.partial.scores);
    EXPECT_EQ(out.partial.candidates, reply.partial.candidates);
    EXPECT_EQ(out.partial.kept, reply.partial.kept);
}

TEST(RemoteProtocolTest, RejectsTruncatedAndTrailingPayloads)
{
    QueryPayload query;
    query.requestId = 5;
    query.query = {1.0f, 2.0f};
    Frame frame = encodeQuery(query);

    Frame truncated = frame;
    truncated.payload.pop_back();
    QueryPayload out;
    EXPECT_EQ(decodeQuery(truncated, out).error,
              NetError::Malformed);

    Frame trailing = frame;
    trailing.payload.push_back(0);
    EXPECT_EQ(decodeQuery(trailing, out).error,
              NetError::Malformed);

    Frame wrongType = frame;
    wrongType.type = FrameType::Heartbeat;
    EXPECT_EQ(decodeQuery(wrongType, out).error,
              NetError::Malformed);
}

TEST(RemoteProtocolTest, RejectsOutOfRangeEnums)
{
    // An ErrorReply whose code is outside NetError's range must
    // not be cast blindly.
    WireWriter w;
    w.u64(1);
    w.u32(200);
    w.str("boom");
    Frame frame{FrameType::ErrorReply, w.take()};
    ErrorReplyPayload out;
    EXPECT_EQ(decodeErrorReply(frame, out).error,
              NetError::Malformed);
}

TEST(RemoteProtocolTest, PackedInt16LaneCrossesTheWire)
{
    Rng rng(5);
    BindShardPayload bind;
    bind.config = configFor(EngineKind::ExactQuantized);
    bind.config.packedKv = PackedKvFormat::Int16;
    bind.key = randomMatrix(rng, 3, 4);
    bind.value = randomMatrix(rng, 3, 4);
    Frame frame = encodeBindShard(bind);
    BindShardPayload out;
    ASSERT_TRUE(decodeBindShard(frame, out).ok());
    EXPECT_EQ(out.config.packedKv, PackedKvFormat::Int16);

    // The layout byte follows shardId (u32), generation (u64), kind
    // (u8), intBits and fracBits (u32 each); one past Int16 is out of
    // range.
    const std::size_t layoutByte = 4 + 8 + 1 + 4 + 4;
    ASSERT_EQ(frame.payload[layoutByte],
              static_cast<std::uint8_t>(PackedKvFormat::Int16));
    frame.payload[layoutByte] += 1;
    EXPECT_FALSE(decodeBindShard(frame, out).ok());

    // The worker accepts an explicit int16 lane the task fits, and
    // refuses one whose word or int32 kernels it would overflow.
    EngineConfig config = configFor(EngineKind::ExactQuantized);
    config.packedKv = PackedKvFormat::Int16;
    EXPECT_TRUE(validateRemoteEngineConfig(config, 64).ok());
    config.intBits = 8;
    config.fracBits = 8;  // 17-bit word
    EXPECT_FALSE(validateRemoteEngineConfig(config, 64).ok());
    config.intBits = 7;  // 16-bit word, 37-bit dot format at d = 64
    EXPECT_FALSE(validateRemoteEngineConfig(config, 64).ok());
    config.packedKv = PackedKvFormat::Auto;  // falls back to Word32
    EXPECT_TRUE(validateRemoteEngineConfig(config, 64).ok());
}

TEST(RemoteProtocolTest, WorkerConfigValidationMatchesMakeBackend)
{
    EngineConfig config = configFor(EngineKind::ExactQuantized);
    EXPECT_TRUE(validateRemoteEngineConfig(config, 16).ok());

    config.intBits = 0;
    EXPECT_FALSE(validateRemoteEngineConfig(config, 16).ok());

    config = configFor(EngineKind::ExactQuantized);
    config.intBits = 20;
    config.fracBits = 20;  // 41-bit word over the 32-bit lane
    EXPECT_FALSE(validateRemoteEngineConfig(config, 16).ok());

    // Float kinds ignore the quantization fields entirely.
    config = configFor(EngineKind::ExactFloat);
    config.intBits = -3;
    EXPECT_TRUE(validateRemoteEngineConfig(config, 16).ok());
}

// -------------------------------------------------- fault injector

TEST(FaultInjectorTest, SameSeedSameDecisions)
{
    const std::vector<FaultRule> rules = {
        {FrameType::Query, false, FaultAction::Drop,
         FaultDirection::Send, 0.5, 0.0, 100}};
    FaultInjector a(42, rules);
    FaultInjector b(42, rules);
    for (int i = 0; i < 200; ++i) {
        const bool hitA =
            a.decide(FrameType::Query, FaultDirection::Send) !=
            nullptr;
        const bool hitB =
            b.decide(FrameType::Query, FaultDirection::Send) !=
            nullptr;
        EXPECT_EQ(hitA, hitB) << "decision " << i;
    }
    EXPECT_EQ(a.stats().dropped, b.stats().dropped);
    EXPECT_GT(a.stats().dropped, 0u);
    EXPECT_LT(a.stats().dropped, 200u);
}

TEST(FaultInjectorTest, RespectsTypeDirectionAndBudget)
{
    const std::vector<FaultRule> rules = {
        {FrameType::Query, false, FaultAction::Corrupt,
         FaultDirection::Send, 1.0, 0.0, 2}};
    FaultInjector injector(7, rules);

    EXPECT_EQ(injector.decide(FrameType::Heartbeat,
                              FaultDirection::Send),
              nullptr);
    EXPECT_EQ(injector.decide(FrameType::Query,
                              FaultDirection::Recv),
              nullptr);
    EXPECT_NE(injector.decide(FrameType::Query,
                              FaultDirection::Send),
              nullptr);
    EXPECT_NE(injector.decide(FrameType::Query,
                              FaultDirection::Send),
              nullptr);
    // Budget of 2 is exhausted.
    EXPECT_EQ(injector.decide(FrameType::Query,
                              FaultDirection::Send),
              nullptr);
    EXPECT_EQ(injector.stats().corrupted, 2u);
}

TEST(FaultInjectorTest, CorruptedFrameFailsRealChecksum)
{
    auto [client, server] = transportPair();
    ASSERT_NE(client, nullptr);
    auto injector = std::make_shared<FaultInjector>(
        1, std::vector<FaultRule>{{FrameType::Query, false,
                                   FaultAction::Corrupt,
                                   FaultDirection::Send, 1.0, 0.0,
                                   1}});
    FaultyTransport faulty(client, injector);

    ASSERT_TRUE(
        faulty.send(Frame{FrameType::Query, {1, 2, 3, 4}}).ok());
    Frame got;
    EXPECT_EQ(server->recv(got, 1.0).error, NetError::BadChecksum);

    // The budget is spent: the next frame arrives intact.
    ASSERT_TRUE(
        faulty.send(Frame{FrameType::Query, {5, 6}}).ok());
    ASSERT_TRUE(server->recv(got, 1.0).ok());
    EXPECT_EQ(got.payload, std::vector<std::uint8_t>({5, 6}));
    client->close();
    server->close();
}

// ------------------------------------------------------- transport

TEST(RemoteTransportTest, FirstByteTimeoutLeavesStreamUsable)
{
    auto [client, server] = transportPair();
    ASSERT_NE(client, nullptr);
    Frame got;
    EXPECT_EQ(server->recv(got, 0.02).error, NetError::Timeout);
    EXPECT_TRUE(server->isOpen());

    ASSERT_TRUE(
        client->send(Frame{FrameType::Heartbeat, {1}}).ok());
    EXPECT_TRUE(server->recv(got, 1.0).ok());
    EXPECT_EQ(got.type, FrameType::Heartbeat);
    client->close();
    server->close();
}

TEST(RemoteTransportTest, PeerCloseIsTyped)
{
    auto [client, server] = transportPair();
    ASSERT_NE(client, nullptr);
    client->close();
    Frame got;
    EXPECT_EQ(server->recv(got, 1.0).error, NetError::Closed);
    server->close();
}

// ---------------------------------------------------------- worker

/** Fixture pairing an in-process worker with a client transport. */
class RemoteWorkerTest : public ::testing::Test
{
  protected:
    RemoteWorkerTest() : worker_("w0")
    {
        client_ = worker_.clientTransport();
    }

    NetStatus
    roundTrip(const Frame &frame, Frame &reply)
    {
        NetStatus status = client_->send(frame);
        if (!status.ok())
            return status;
        return client_->recv(reply, 2.0);
    }

    InProcessWorker worker_;
    std::shared_ptr<Transport> client_;
};

TEST_F(RemoteWorkerTest, AnswersHelloAndHeartbeat)
{
    Frame reply;
    HelloPayload hello;
    ASSERT_TRUE(
        roundTrip(encodeHello(hello, false), reply).ok());
    HelloPayload ack;
    ASSERT_TRUE(decodeHello(reply, ack).ok());
    EXPECT_EQ(ack.peer, "w0");

    HeartbeatPayload beat;
    beat.sequence = 5;
    ASSERT_TRUE(
        roundTrip(encodeHeartbeat(beat, false), reply).ok());
    HeartbeatPayload beatAck;
    ASSERT_TRUE(decodeHeartbeat(reply, beatAck).ok());
    EXPECT_EQ(beatAck.sequence, 5u);
    EXPECT_EQ(beatAck.shardsBound, 0u);
}

TEST_F(RemoteWorkerTest, BindsAndAnswersBitIdenticalPartials)
{
    Rng rng(11);
    const Matrix key = randomMatrix(rng, 10, 8);
    const Matrix value = randomMatrix(rng, 10, 8);
    const EngineConfig config = configFor(EngineKind::ExactFloat);

    BindShardPayload bind;
    bind.shardId = 0;
    bind.generation = 1;
    bind.config = config;
    bind.key = key;
    bind.value = value;
    Frame reply;
    ASSERT_TRUE(roundTrip(encodeBindShard(bind), reply).ok());
    BindAckPayload ack;
    ASSERT_TRUE(decodeBindAck(reply, ack).ok());
    EXPECT_EQ(ack.generation, 1u);

    const auto local = makeBackend(config, key, value);
    const Vector query = randomQuery(rng, 8);
    QueryPayload q;
    q.requestId = 1;
    q.generation = 1;
    q.query = query;
    ASSERT_TRUE(roundTrip(encodeQuery(q), reply).ok());
    PartialReplyPayload partial;
    ASSERT_TRUE(decodePartialReply(reply, partial).ok());

    PartialResult want;
    local->runPartialInto(query, want);
    EXPECT_EQ(partial.partial.maxScore, want.maxScore);
    EXPECT_EQ(partial.partial.expSum, want.expSum);
    EXPECT_EQ(partial.partial.accum, want.accum);
    EXPECT_EQ(partial.partial.expWeights, want.expWeights);
}

TEST_F(RemoteWorkerTest, RejectsStaleGenerationAndUnknownShard)
{
    Rng rng(13);
    BindShardPayload bind;
    bind.shardId = 4;
    bind.generation = 3;
    bind.config = configFor(EngineKind::ExactFloat);
    bind.key = randomMatrix(rng, 4, 4);
    bind.value = randomMatrix(rng, 4, 4);
    Frame reply;
    ASSERT_TRUE(roundTrip(encodeBindShard(bind), reply).ok());

    QueryPayload q;
    q.requestId = 9;
    q.shardId = 4;
    q.generation = 2;  // stale
    q.query = randomQuery(rng, 4);
    ASSERT_TRUE(roundTrip(encodeQuery(q), reply).ok());
    ErrorReplyPayload error;
    ASSERT_TRUE(decodeErrorReply(reply, error).ok());
    EXPECT_EQ(error.code, NetError::StaleShard);
    EXPECT_EQ(error.requestId, 9u);

    q.shardId = 77;  // never bound
    q.generation = 3;
    q.requestId = 10;
    ASSERT_TRUE(roundTrip(encodeQuery(q), reply).ok());
    ASSERT_TRUE(decodeErrorReply(reply, error).ok());
    EXPECT_EQ(error.code, NetError::WorkerError);
}

TEST_F(RemoteWorkerTest, RejectsLethalConfigWithoutDying)
{
    Rng rng(17);
    BindShardPayload bind;
    bind.shardId = 0;
    bind.generation = 1;
    bind.config = configFor(EngineKind::ExactQuantized);
    bind.config.intBits = 0;  // makeBackend would fatal() on this
    bind.key = randomMatrix(rng, 4, 4);
    bind.value = randomMatrix(rng, 4, 4);
    Frame reply;
    ASSERT_TRUE(roundTrip(encodeBindShard(bind), reply).ok());
    ErrorReplyPayload error;
    ASSERT_TRUE(decodeErrorReply(reply, error).ok());
    EXPECT_EQ(error.code, NetError::WorkerError);

    // The worker survived and still answers.
    HeartbeatPayload beat;
    ASSERT_TRUE(
        roundTrip(encodeHeartbeat(beat, false), reply).ok());
    EXPECT_EQ(reply.type, FrameType::HeartbeatAck);
}

// ----------------------------------------------------- coordinator

/** In-process worker fleet + coordinator factory for the tests. */
struct Fleet
{
    std::vector<std::unique_ptr<InProcessWorker>> workers;
    std::shared_ptr<FaultInjector> injector;

    std::vector<RemoteWorkerSpec>
    specs()
    {
        std::vector<RemoteWorkerSpec> result;
        for (auto &worker : workers) {
            RemoteWorkerSpec spec;
            spec.name = worker->name();
            spec.connect = [&worker](NetStatus &) {
                return worker->clientTransport();
            };
            result.push_back(std::move(spec));
        }
        return result;
    }
};

Fleet
makeFleet(std::size_t count)
{
    Fleet fleet;
    for (std::size_t w = 0; w < count; ++w)
        fleet.workers.push_back(std::make_unique<InProcessWorker>(
            "w" + std::to_string(w)));
    return fleet;
}

RemoteShardConfig
fastConfig()
{
    RemoteShardConfig config;
    config.shardRows = 16;
    config.queryDeadlineSeconds = 0.25;
    config.heartbeatTimeoutSeconds = 0.1;
    config.retryBackoffSeconds = 0.001;
    config.retryBackoffMaxSeconds = 0.004;
    return config;
}

TEST(RemoteCoordinatorTest, BitIdenticalToShardedForEveryKind)
{
    Rng rng(101);
    const std::size_t n = 70;  // 5 shards of 14 at shardRows 16
    const std::size_t d = 16;
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);

    for (const EngineKind kind : kAllKinds) {
        const EngineConfig inner = configFor(kind);
        Fleet fleet = makeFleet(3);
        RemoteShardConfig config = fastConfig();
        RemoteShardCoordinator remote(inner, key, value,
                                      fleet.specs(), config);
        ShardedBackend sharded(inner, key, value,
                               ShardedConfig{config.shardRows});
        ASSERT_EQ(remote.rows(), sharded.rows());
        ASSERT_EQ(remote.shardCount(), 5u);

        for (int i = 0; i < 8; ++i) {
            const Vector query = randomQuery(rng, d);
            expectBitIdentical(remote.run(query),
                               sharded.run(query));
        }
        const RemoteCoordinatorStats stats = remote.stats();
        EXPECT_EQ(stats.localFallbacks, 0u);
        EXPECT_EQ(stats.failovers, 0u);
    }
}

TEST(RemoteCoordinatorTest, SingleShardMatchesUnshardedBitExactly)
{
    Rng rng(103);
    const Matrix key = randomMatrix(rng, 12, 8);
    const Matrix value = randomMatrix(rng, 12, 8);

    // The quantized kinds are the reason wantFull exists: their
    // partial roundtrip is not bit-tight, so single-shard queries
    // must travel as full results.
    for (const EngineKind kind : kAllKinds) {
        const EngineConfig inner = configFor(kind);
        Fleet fleet = makeFleet(1);
        RemoteShardConfig config = fastConfig();
        config.shardRows = 64;
        RemoteShardCoordinator remote(inner, key, value,
                                      fleet.specs(), config);
        ASSERT_EQ(remote.shardCount(), 1u);
        const auto plain = makeBackend(inner, key, value);
        for (int i = 0; i < 4; ++i) {
            const Vector query = randomQuery(rng, 8);
            expectBitIdentical(remote.run(query),
                               plain->run(query));
        }
    }
}

TEST(RemoteCoordinatorTest, PackedInt16ShardsMatchWord32)
{
    // configFor's Q5.6 is a 12-bit word: Auto binds every remote shard
    // on the int16 lane, which must answer bit for bit like Word32.
    Rng rng(107);
    const std::size_t n = 70;
    const std::size_t d = 16;
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);
    for (const EngineKind kind :
         {EngineKind::ExactQuantized, EngineKind::ApproxQuantized}) {
        const EngineConfig inner = configFor(kind);
        EngineConfig word32 = inner;
        word32.packedKv = PackedKvFormat::Word32;
        for (const std::size_t shardRows : {16u, 128u}) {
            Fleet fleet = makeFleet(2);
            RemoteShardConfig config = fastConfig();
            config.shardRows = shardRows;
            RemoteShardCoordinator remote(inner, key, value,
                                          fleet.specs(), config);
            ShardedBackend reference(word32, key, value,
                                     ShardedConfig{shardRows});
            for (int i = 0; i < 4; ++i) {
                const Vector query = randomQuery(rng, d);
                expectBitIdentical(remote.run(query),
                                   reference.run(query));
            }
            EXPECT_EQ(remote.stats().localFallbacks, 0u);
        }
    }
}

TEST(RemoteCoordinatorTest, AppendTracksShardedLayout)
{
    Rng rng(107);
    const std::size_t d = 8;
    Matrix key = randomMatrix(rng, 20, d);
    Matrix value = randomMatrix(rng, 20, d);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(2);
    RemoteShardConfig config = fastConfig();
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ShardedBackend sharded(inner, key, value,
                           ShardedConfig{config.shardRows});

    // Crosses the capacity of the last shard and opens a new one.
    const Matrix moreKey = randomMatrix(rng, 18, d);
    const Matrix moreValue = randomMatrix(rng, 18, d);
    remote.append(moreKey, moreValue);
    sharded.append(moreKey, moreValue);
    ASSERT_EQ(remote.rows(), sharded.rows());

    for (int i = 0; i < 6; ++i) {
        const Vector query = randomQuery(rng, d);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
}

TEST(RemoteCoordinatorTest, ServesEverythingLocallyWithNoWorkers)
{
    Rng rng(109);
    const Matrix key = randomMatrix(rng, 40, 8);
    const Matrix value = randomMatrix(rng, 40, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    RemoteShardCoordinator remote(inner, key, value, {},
                                  fastConfig());
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});
    const Vector query = randomQuery(rng, 8);
    expectBitIdentical(remote.run(query), sharded.run(query));
    EXPECT_GT(remote.stats().localFallbacks, 0u);
}

// ------------------------------------------------- fault tolerance

TEST(RemoteFaultToleranceTest, RetriesThroughDroppedQueries)
{
    Rng rng(211);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(2);
    auto injector = std::make_shared<FaultInjector>(
        5, std::vector<FaultRule>{{FrameType::Query, false,
                                   FaultAction::Drop,
                                   FaultDirection::Send, 1.0, 0.0,
                                   2}});
    RemoteShardConfig config = fastConfig();
    config.queryDeadlineSeconds = 0.05;
    config.decorateTransport =
        [injector](std::shared_ptr<Transport> inner) {
            return std::make_shared<FaultyTransport>(
                std::move(inner), injector);
        };
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    for (int i = 0; i < 4; ++i) {
        const Vector query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    const RemoteCoordinatorStats stats = remote.stats();
    EXPECT_EQ(injector->stats().dropped, 2u);
    EXPECT_GT(stats.timeouts, 0u);
    EXPECT_GT(stats.retries, 0u);
    EXPECT_EQ(stats.localFallbacks, 0u);
}

TEST(RemoteFaultToleranceTest, RecoversFromCorruptedQueries)
{
    Rng rng(223);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ApproxFloat);

    Fleet fleet = makeFleet(2);
    auto injector = std::make_shared<FaultInjector>(
        6, std::vector<FaultRule>{{FrameType::Query, false,
                                   FaultAction::Corrupt,
                                   FaultDirection::Send, 1.0, 0.0,
                                   3}});
    RemoteShardConfig config = fastConfig();
    config.decorateTransport =
        [injector](std::shared_ptr<Transport> inner) {
            return std::make_shared<FaultyTransport>(
                std::move(inner), injector);
        };
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    for (int i = 0; i < 4; ++i) {
        const Vector query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    EXPECT_EQ(injector->stats().corrupted, 3u);
    EXPECT_GT(remote.stats().retries, 0u);
    EXPECT_EQ(remote.stats().localFallbacks, 0u);
}

TEST(RemoteFaultToleranceTest, FailsOverWhenAConnectionCloses)
{
    Rng rng(227);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(3);
    RemoteShardConfig config = fastConfig();
    config.replication = 2;
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    // Sanity, then kill worker 0 mid-service.
    Vector query = randomQuery(rng, 8);
    expectBitIdentical(remote.run(query), sharded.run(query));
    fleet.workers[0]->stop();

    for (int i = 0; i < 6; ++i) {
        query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    EXPECT_EQ(remote.workerHealth(0), WorkerHealth::Dead);
    EXPECT_GT(remote.stats().failovers +
                  remote.stats().rebinds,
              0u);
    EXPECT_EQ(remote.stats().localFallbacks, 0u);
}

TEST(RemoteFaultToleranceTest, HeartbeatMarksDeadAndReReplicates)
{
    Rng rng(229);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(2);
    RemoteShardConfig config = fastConfig();
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ASSERT_EQ(remote.workerHealth(0), WorkerHealth::Healthy);
    ASSERT_EQ(remote.workerHealth(1), WorkerHealth::Healthy);

    remote.heartbeat();
    EXPECT_EQ(remote.workerHealth(0), WorkerHealth::Healthy);

    fleet.workers[1]->stop();
    remote.heartbeat();  // recv on a closed socketpair: dead
    EXPECT_EQ(remote.workerHealth(1), WorkerHealth::Dead);

    // Worker 1's shards were re-replicated onto worker 0, so
    // queries proceed without local fallback.
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});
    const Vector query = randomQuery(rng, 8);
    expectBitIdentical(remote.run(query), sharded.run(query));
    EXPECT_GT(remote.stats().rebinds, 0u);
    EXPECT_EQ(remote.stats().localFallbacks, 0u);
}

TEST(RemoteFaultToleranceTest, FallsBackLocallyWhenAllWorkersDie)
{
    Rng rng(233);
    const Matrix key = randomMatrix(rng, 32, 8);
    const Matrix value = randomMatrix(rng, 32, 8);
    const EngineConfig inner = configFor(EngineKind::ExactQuantized);

    Fleet fleet = makeFleet(2);
    RemoteShardConfig config = fastConfig();
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    for (auto &worker : fleet.workers)
        worker->stop();

    for (int i = 0; i < 3; ++i) {
        const Vector query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    EXPECT_GT(remote.stats().localFallbacks, 0u);
    EXPECT_EQ(remote.workerHealth(0), WorkerHealth::Dead);
    EXPECT_EQ(remote.workerHealth(1), WorkerHealth::Dead);
}

TEST(RemoteFaultToleranceTest, DelayedRepliesAreStaleNotWrong)
{
    Rng rng(239);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(2);
    // Delay shard replies past their deadline: each delayed reply
    // limps in during the retry's wait, exercising the stale-reply
    // discard rather than result corruption.
    auto injector = std::make_shared<FaultInjector>(
        8, std::vector<FaultRule>{{FrameType::PartialReply, false,
                                   FaultAction::Delay,
                                   FaultDirection::Recv, 1.0, 0.0,
                                   2}});
    RemoteShardConfig config = fastConfig();
    config.decorateTransport =
        [injector](std::shared_ptr<Transport> inner) {
            return std::make_shared<FaultyTransport>(
                std::move(inner), injector);
        };
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    for (int i = 0; i < 4; ++i) {
        const Vector query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    EXPECT_EQ(injector->stats().delayed, 2u);
    EXPECT_GT(remote.stats().timeouts, 0u);
}

/**
 * The serving tier above the coordinator: a BatchScheduler drains a
 * session whose backend is a RemoteShardCoordinator while one of
 * its workers dies between submit and drain. The failover happens
 * inside the drain's engine pass; completions must stay in ticket
 * order across the boundary and bit-identical to the in-process
 * ShardedBackend.
 */
TEST(RemoteFaultToleranceTest, SchedulerDrainSurvivesFailover)
{
    Rng rng(401);
    const std::size_t d = 8;
    const Matrix key = randomMatrix(rng, 48, d);
    const Matrix value = randomMatrix(rng, 48, d);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(3);
    RemoteShardConfig config = fastConfig();
    config.replication = 2;
    auto remote = std::make_shared<RemoteShardCoordinator>(
        inner, key, value, fleet.specs(), config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    AttentionEngine engine(2);
    SessionCache cache;
    BatchScheduler scheduler(engine, cache);
    cache.insert("remote", remote);

    std::vector<std::uint64_t> tickets;
    std::vector<Vector> queries;
    const auto submitWave = [&](int count) {
        for (int i = 0; i < count; ++i) {
            Vector q = randomQuery(rng, d);
            const AdmissionOutcome outcome =
                scheduler.submit("remote", q);
            ASSERT_TRUE(outcome.admitted());
            tickets.push_back(outcome.ticket);
            queries.push_back(std::move(q));
        }
    };
    const auto expectWave =
        [&](const std::vector<ServingResult> &completions,
            std::size_t firstIndex) {
            for (std::size_t i = 0; i < completions.size(); ++i) {
                SCOPED_TRACE("completion " + std::to_string(i));
                const std::size_t at = firstIndex + i;
                EXPECT_EQ(completions[i].ticket, tickets[at]);
                EXPECT_TRUE(completions[i].ok());
                expectBitIdentical(completions[i].result,
                                   sharded.run(queries[at]));
            }
        };

    submitWave(4);
    const auto healthy = scheduler.drain();
    ASSERT_EQ(healthy.size(), 4u);
    expectWave(healthy, 0);

    // Worker death lands between submit and drain: the coordinator
    // fails over / rebinds inside the drain's engine pass.
    submitWave(4);
    fleet.workers[0]->stop();
    const auto failedOver = scheduler.drain();
    ASSERT_EQ(failedOver.size(), 4u);
    expectWave(failedOver, 4);
    EXPECT_GT(remote->stats().failovers + remote->stats().rebinds,
              0u);

    // Tickets stay globally ordered across the failover boundary,
    // and the recovered backend keeps answering further drains.
    EXPECT_LT(healthy.back().ticket, failedOver.front().ticket);
    submitWave(2);
    const auto recovered = scheduler.drain();
    ASSERT_EQ(recovered.size(), 2u);
    expectWave(recovered, 8);
    EXPECT_EQ(remote->workerHealth(0), WorkerHealth::Dead);
}

/**
 * Worker connection that answers `delaySeconds` late while `slow` is
 * set: a recv whose timeout is shorter times out with the frame
 * still queued, a longer one gets the frame after the delay.
 */
class SlowRecvTransport final : public Transport
{
  public:
    SlowRecvTransport(std::shared_ptr<Transport> inner,
                      std::shared_ptr<std::atomic<bool>> slow,
                      double delaySeconds)
        : inner_(std::move(inner)), slow_(std::move(slow)),
          delay_(delaySeconds)
    {
    }

    NetStatus send(const Frame &frame) override
    {
        return inner_->send(frame);
    }
    NetStatus recv(Frame &out, double timeoutSeconds) override
    {
        if (slow_->load()) {
            if (timeoutSeconds >= 0.0 && timeoutSeconds < delay_) {
                sleepFor(timeoutSeconds);
                return NetStatus::failure(NetError::Timeout,
                                          "slow worker");
            }
            sleepFor(delay_);
            if (timeoutSeconds >= 0.0)
                timeoutSeconds -= delay_;
        }
        return inner_->recv(out, timeoutSeconds);
    }
    void close() override { inner_->close(); }
    bool isOpen() const override { return inner_->isOpen(); }

  private:
    static void sleepFor(double seconds)
    {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds));
    }

    std::shared_ptr<Transport> inner_;
    std::shared_ptr<std::atomic<bool>> slow_;
    double delay_;
};

/**
 * A deadline travels with its own request only. A drain whose group
 * carried a short budget runs first; a later request without a
 * deadline on the same session meets a worker that answers after
 * that budget but well within queryDeadlineSeconds, and must be
 * answered remotely with no timeout and no worker marked down.
 */
TEST(RemoteFaultToleranceTest, ShortDeadlineDoesNotStickToLaterRequests)
{
    Rng rng(409);
    const std::size_t d = 8;
    const Matrix key = randomMatrix(rng, 48, d);
    const Matrix value = randomMatrix(rng, 48, d);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(2);
    auto slow = std::make_shared<std::atomic<bool>>(false);
    RemoteShardConfig config = fastConfig();
    config.queryDeadlineSeconds = 5.0;
    config.decorateTransport =
        [slow](std::shared_ptr<Transport> transport) {
            return std::make_shared<SlowRecvTransport>(
                std::move(transport), slow, 0.3);
        };
    auto remote = std::make_shared<RemoteShardCoordinator>(
        inner, key, value, fleet.specs(), config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    AttentionEngine engine(2);
    SessionCache cache;
    BatchScheduler scheduler(engine, cache);
    cache.insert("remote", remote);

    SubmitOptions tight;
    tight.deadlineSeconds = 0.1;
    const Vector first = randomQuery(rng, d);
    ASSERT_TRUE(scheduler.submit("remote", first, tight).admitted());
    const auto fast = scheduler.drain();
    ASSERT_EQ(fast.size(), 1u);
    ASSERT_TRUE(fast[0].ok());
    expectBitIdentical(fast[0].result, sharded.run(first));
    ASSERT_EQ(remote->stats().timeouts, 0u);

    slow->store(true);
    const Vector second = randomQuery(rng, d);
    ASSERT_TRUE(scheduler.submit("remote", second).admitted());
    const auto late = scheduler.drain();
    slow->store(false);
    ASSERT_EQ(late.size(), 1u);
    ASSERT_TRUE(late[0].ok());
    expectBitIdentical(late[0].result, sharded.run(second));

    const RemoteCoordinatorStats stats = remote->stats();
    EXPECT_EQ(stats.timeouts, 0u);
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(stats.localFallbacks, 0u);
    EXPECT_EQ(remote->workerHealth(0), WorkerHealth::Healthy);
    EXPECT_EQ(remote->workerHealth(1), WorkerHealth::Healthy);
}

/**
 * Worker connection that stalls every receive until `stallUntil`
 * (steady-clock seconds; 0 = no stall): a receive whose timeout ends
 * first times out, a longer one gets its frame once the stall ends.
 */
class StallTransport final : public Transport
{
  public:
    StallTransport(std::shared_ptr<Transport> inner,
                   std::shared_ptr<std::atomic<double>> stallUntil)
        : inner_(std::move(inner)), stallUntil_(std::move(stallUntil))
    {
    }

    NetStatus send(const Frame &frame) override
    {
        return inner_->send(frame);
    }
    NetStatus recv(Frame &out, double timeoutSeconds) override
    {
        const double stall = stallUntil_->load() - steadySeconds();
        if (stall > 0.0) {
            if (timeoutSeconds >= 0.0 && timeoutSeconds < stall) {
                sleepFor(timeoutSeconds);
                return NetStatus::failure(NetError::Timeout,
                                          "stalled worker");
            }
            sleepFor(stall);
            if (timeoutSeconds >= 0.0)
                timeoutSeconds -= stall;
        }
        return inner_->recv(out, timeoutSeconds);
    }
    void close() override { inner_->close(); }
    bool isOpen() const override { return inner_->isOpen(); }

    static double steadySeconds()
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

  private:
    static void sleepFor(double seconds)
    {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds));
    }

    std::shared_ptr<Transport> inner_;
    std::shared_ptr<std::atomic<double>> stallUntil_;
};

/**
 * One stall, one miss. Four lanes wait on the same worker when it
 * stalls a little longer than queryDeadlineSeconds; every wait times
 * out, but together they are one missed deadline, so the worker is
 * at most Suspect — never Dead, never rebound — and every query is
 * answered remotely once the stall ends.
 */
TEST(RemoteFaultToleranceTest, OverlappingWaitsOnOneStallCountOneMiss)
{
    Rng rng(601);
    const std::size_t d = 8;
    const Matrix key = randomMatrix(rng, 64, d);  // 4 shards of 16
    const Matrix value = randomMatrix(rng, 64, d);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);
    std::vector<Vector> queries(8);
    for (Vector &query : queries)
        query = randomQuery(rng, d);

    Fleet fleet = makeFleet(2);
    auto stallUntil = std::make_shared<std::atomic<double>>(0.0);
    auto wrapped = std::make_shared<std::atomic<int>>(0);
    RemoteShardConfig config = fastConfig();
    config.queryDeadlineSeconds = 0.2;
    config.decorateTransport =
        [stallUntil, wrapped](std::shared_ptr<Transport> transport)
        -> std::shared_ptr<Transport> {
        if (wrapped->fetch_add(1) != 0)
            return transport;  // only worker 0 stalls
        return std::make_shared<StallTransport>(std::move(transport),
                                                stallUntil);
    };
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ASSERT_EQ(remote.shardCount(), 4u);
    const ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    const AttentionEngine engine(4);
    std::vector<AttentionResult> results;
    stallUntil->store(StallTransport::steadySeconds() +
                      config.queryDeadlineSeconds + 0.05);
    engine.runInto(remote, queries, results);
    ASSERT_EQ(results.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q)
        expectBitIdentical(results[q], sharded.run(queries[q]));

    const RemoteCoordinatorStats stats = remote.stats();
    EXPECT_GE(stats.timeouts, 1u);
    EXPECT_EQ(stats.rebinds, 0u);
    EXPECT_EQ(stats.localFallbacks, 0u);
    EXPECT_NE(remote.workerHealth(0), WorkerHealth::Dead);
    EXPECT_EQ(remote.workerHealth(1), WorkerHealth::Healthy);
}

/**
 * A request whose deadline lapses while a healthy worker computes
 * its shards is late whichever rung answers; it waits for the reply
 * in flight rather than binding a local copy of the shard, so it is
 * answered remotely and the coordinator's footprint does not grow.
 */
TEST(RemoteFaultToleranceTest, LapsedDeadlineWaitsForTheReplyInFlight)
{
    Rng rng(607);
    const std::size_t d = 8;
    const Matrix key = randomMatrix(rng, 48, d);  // 3 shards of 16
    const Matrix value = randomMatrix(rng, 48, d);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(2);
    auto slow = std::make_shared<std::atomic<bool>>(false);
    RemoteShardConfig config = fastConfig();
    config.queryDeadlineSeconds = 5.0;
    config.decorateTransport =
        [slow](std::shared_ptr<Transport> transport) {
            return std::make_shared<SlowRecvTransport>(
                std::move(transport), slow, 0.15);
        };
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    const ShardedBackend sharded(inner, key, value, ShardedConfig{16});
    const std::size_t bytesBefore = remote.memoryBytes();

    const Vector query = randomQuery(rng, d);
    QueryContext context;
    context.deadlineSeconds = StallTransport::steadySeconds() + 0.05;
    slow->store(true);
    AttentionResult got;
    remote.runInto(query, got, context);
    slow->store(false);
    expectBitIdentical(got, sharded.run(query));

    const RemoteCoordinatorStats stats = remote.stats();
    EXPECT_EQ(stats.localFallbacks, 0u);
    EXPECT_EQ(stats.timeouts, 0u);
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(remote.memoryBytes(), bytesBefore);
    EXPECT_EQ(remote.workerHealth(0), WorkerHealth::Healthy);
    EXPECT_EQ(remote.workerHealth(1), WorkerHealth::Healthy);
}

/** Worker connection dropping BindShard frames while `drop` is set. */
class BindDropTransport final : public Transport
{
  public:
    BindDropTransport(std::shared_ptr<Transport> inner,
                      std::shared_ptr<std::atomic<bool>> drop)
        : inner_(std::move(inner)), drop_(std::move(drop))
    {
    }

    NetStatus send(const Frame &frame) override
    {
        if (frame.type == FrameType::BindShard && drop_->load())
            return NetStatus::success();
        return inner_->send(frame);
    }
    NetStatus recv(Frame &out, double timeoutSeconds) override
    {
        return inner_->recv(out, timeoutSeconds);
    }
    void close() override { inner_->close(); }
    bool isOpen() const override { return inner_->isOpen(); }

  private:
    std::shared_ptr<Transport> inner_;
    std::shared_ptr<std::atomic<bool>> drop_;
};

/**
 * A late request takes a local engine that already exists. Shard 1
 * falls back to a local engine while its worker is gone and the
 * survivor drops binds; a heartbeat then binds it onto the
 * survivor. When that survivor turns slow, a request whose deadline
 * lapses answers shard 1 from the existing local engine at once and
 * waits for shard 0's reply in flight; nothing new is bound.
 */
TEST(RemoteFaultToleranceTest, LateRequestUsesAnExistingLocalEngine)
{
    Rng rng(613);
    const std::size_t d = 8;
    const Matrix key = randomMatrix(rng, 32, d);  // 2 shards of 16
    const Matrix value = randomMatrix(rng, 32, d);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(2);
    auto dropBinds = std::make_shared<std::atomic<bool>>(false);
    auto slow = std::make_shared<std::atomic<bool>>(false);
    RemoteShardConfig config = fastConfig();
    config.queryDeadlineSeconds = 0.3;
    config.decorateTransport =
        [dropBinds, slow](std::shared_ptr<Transport> transport) {
            return std::make_shared<SlowRecvTransport>(
                std::make_shared<BindDropTransport>(
                    std::move(transport), dropBinds),
                slow, 0.2);
        };
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ASSERT_EQ(remote.shardCount(), 2u);
    const ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    // Worker 1 (shard 1's home) goes away and the rebind onto worker
    // 0 is dropped: shard 1 ends on the local rung.
    fleet.workers[1]->stop();
    dropBinds->store(true);
    const Vector first = randomQuery(rng, d);
    expectBitIdentical(remote.run(first), sharded.run(first));
    ASSERT_EQ(remote.stats().localFallbacks, 1u);

    // A heartbeat re-replicates shard 1 onto worker 0.
    dropBinds->store(false);
    remote.heartbeat();
    ASSERT_EQ(remote.workerHealth(0), WorkerHealth::Healthy);
    const std::size_t bytesBefore = remote.memoryBytes();
    const std::size_t rebindsBefore = remote.stats().rebinds;

    const Vector second = randomQuery(rng, d);
    QueryContext context;
    context.deadlineSeconds = StallTransport::steadySeconds() + 0.05;
    slow->store(true);
    AttentionResult got;
    remote.runInto(second, got, context);
    slow->store(false);
    expectBitIdentical(got, sharded.run(second));

    const RemoteCoordinatorStats stats = remote.stats();
    EXPECT_EQ(stats.localFallbacks, 2u);  // shard 1 only
    EXPECT_EQ(stats.rebinds, rebindsBefore);
    EXPECT_EQ(remote.memoryBytes(), bytesBefore);
    EXPECT_EQ(remote.workerHealth(0), WorkerHealth::Healthy);
}

/** Runs `hook` once, as the `at`-th Query frame of the fleet leaves. */
class QueryHookTransport final : public Transport
{
  public:
    QueryHookTransport(std::shared_ptr<Transport> inner,
                       std::shared_ptr<std::atomic<int>> sent, int at,
                       std::function<void()> hook)
        : inner_(std::move(inner)), sent_(std::move(sent)), at_(at),
          hook_(std::move(hook))
    {
    }

    NetStatus send(const Frame &frame) override
    {
        if (frame.type == FrameType::Query &&
            sent_->fetch_add(1) + 1 == at_)
            hook_();
        return inner_->send(frame);
    }
    NetStatus recv(Frame &out, double timeoutSeconds) override
    {
        return inner_->recv(out, timeoutSeconds);
    }
    void close() override { inner_->close(); }
    bool isOpen() const override { return inner_->isOpen(); }

  private:
    std::shared_ptr<Transport> inner_;
    std::shared_ptr<std::atomic<int>> sent_;
    int at_;
    std::function<void()> hook_;
};

/**
 * Engine-driven remote sessions: 1- and 4-lane engines run batches
 * in which every lane pipelines one query's shards, and every answer
 * must be bit-identical to ShardedBackend for every kind — on a
 * clean fleet, under a seeded fault schedule, and with one worker
 * stopped mid-batch. Concurrent queries race on the per-worker and
 * per-shard locks (the TSan job runs this test).
 */
TEST(RemoteEngineTest, EngineLanesMatchShardedUnderFaultsAndWorkerLoss)
{
    Rng rng(503);
    const std::size_t n = 70;  // 5 shards of 14 at shardRows 16
    const std::size_t d = 16;
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);
    std::vector<Vector> queries(12);
    for (Vector &query : queries)
        query = randomQuery(rng, d);

    enum class Scenario { Clean, Faults, WorkerStopped };
    for (const EngineKind kind : kAllKinds) {
        const EngineConfig inner = configFor(kind);
        const ShardedBackend sharded(inner, key, value,
                                     ShardedConfig{16});
        for (const std::size_t lanes : {1u, 4u}) {
            for (const Scenario scenario :
                 {Scenario::Clean, Scenario::Faults,
                  Scenario::WorkerStopped}) {
                SCOPED_TRACE(
                    std::string(engineKindName(kind)) + ", lanes " +
                    std::to_string(lanes) + ", scenario " +
                    std::to_string(static_cast<int>(scenario)));
                Fleet fleet = makeFleet(2);
                RemoteShardConfig config = fastConfig();
                config.replication = 2;
                std::shared_ptr<FaultInjector> injector;
                if (scenario == Scenario::Faults) {
                    config.queryDeadlineSeconds = 0.05;
                    injector = std::make_shared<FaultInjector>(
                        17, std::vector<FaultRule>{
                                {FrameType::Query, false,
                                 FaultAction::Drop,
                                 FaultDirection::Send, 1.0, 0.0, 1},
                                {FrameType::Query, false,
                                 FaultAction::Corrupt,
                                 FaultDirection::Send, 0.1, 0.0, 2},
                                {FrameType::PartialReply, false,
                                 FaultAction::Delay,
                                 FaultDirection::Recv, 0.1, 0.0, 2}});
                    config.decorateTransport =
                        [injector](std::shared_ptr<Transport> t) {
                            return std::make_shared<FaultyTransport>(
                                std::move(t), injector);
                        };
                } else if (scenario == Scenario::WorkerStopped) {
                    auto sent = std::make_shared<std::atomic<int>>(0);
                    InProcessWorker *victim = fleet.workers[1].get();
                    config.decorateTransport =
                        [sent, victim](std::shared_ptr<Transport> t) {
                            return std::make_shared<QueryHookTransport>(
                                std::move(t), sent, 20,
                                [victim] { victim->stop(); });
                        };
                }
                RemoteShardCoordinator remote(inner, key, value,
                                              fleet.specs(), config);
                ASSERT_EQ(remote.shardCount(), 5u);
                ASSERT_EQ(remote.workUnitCount(), 1u);

                const AttentionEngine engine(lanes);
                std::vector<AttentionResult> results;
                engine.runInto(remote, queries, results);
                ASSERT_EQ(results.size(), queries.size());
                std::size_t failed = 0;
                for (std::size_t q = 0; q < queries.size(); ++q) {
                    const AttentionResult want =
                        sharded.run(queries[q]);
                    expectBitIdentical(results[q], want);
                    if (results[q].output != want.output)
                        ++failed;
                }
                EXPECT_EQ(failed, 0u);
                // The engine's lanes agree with a direct call on the
                // same coordinator.
                expectBitIdentical(remote.run(queries.front()),
                                   results.front());
                if (injector != nullptr)
                    EXPECT_EQ(injector->stats().dropped, 1u);
                if (scenario == Scenario::WorkerStopped)
                    EXPECT_EQ(remote.workerHealth(1),
                              WorkerHealth::Dead);
            }
        }
    }
}

// -------------------------------------------------- real processes

bool
workerBinaryAvailable()
{
    const std::string bin = A3_SHARD_WORKER_BIN;
    return !bin.empty() && access(bin.c_str(), X_OK) == 0;
}

std::string
socketPath(const std::string &tag)
{
    return "/tmp/a3_remote_test_" + tag + "_" +
           std::to_string(getpid()) + ".sock";
}

TEST(RemoteProcessTest, RealWorkersAreBitIdentical)
{
    if (!workerBinaryAvailable())
        GTEST_SKIP() << "shard_worker binary not built";
    Rng rng(307);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ApproxQuantized);

    std::vector<ChildProcess> procs(2);
    std::vector<RemoteWorkerSpec> specs;
    for (std::size_t w = 0; w < procs.size(); ++w) {
        const std::string path =
            socketPath("ident" + std::to_string(w));
        ASSERT_TRUE(procs[w]
                        .spawn(A3_SHARD_WORKER_BIN,
                               {path, "p" + std::to_string(w)})
                        .ok());
        specs.push_back(
            unixWorkerSpec("p" + std::to_string(w), path, 3.0));
    }

    RemoteShardConfig config = fastConfig();
    config.queryDeadlineSeconds = 2.0;
    RemoteShardCoordinator remote(inner, key, value, specs,
                                  config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});
    for (int i = 0; i < 6; ++i) {
        const Vector query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    EXPECT_EQ(remote.stats().localFallbacks, 0u);
}

TEST(RemoteProcessTest, SurvivesSigkilledWorker)
{
    if (!workerBinaryAvailable())
        GTEST_SKIP() << "shard_worker binary not built";
    Rng rng(311);
    const Matrix key = randomMatrix(rng, 64, 8);
    const Matrix value = randomMatrix(rng, 64, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    std::vector<ChildProcess> procs(3);
    std::vector<RemoteWorkerSpec> specs;
    for (std::size_t w = 0; w < procs.size(); ++w) {
        const std::string path =
            socketPath("kill" + std::to_string(w));
        ASSERT_TRUE(procs[w]
                        .spawn(A3_SHARD_WORKER_BIN,
                               {path, "k" + std::to_string(w)})
                        .ok());
        specs.push_back(
            unixWorkerSpec("k" + std::to_string(w), path, 3.0));
    }

    RemoteShardConfig config = fastConfig();
    config.queryDeadlineSeconds = 0.5;
    RemoteShardCoordinator remote(inner, key, value, specs,
                                  config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    Vector query = randomQuery(rng, 8);
    expectBitIdentical(remote.run(query), sharded.run(query));

    // SIGKILL one worker: the kernel closes its sockets, and the
    // next queries must fail over with zero wrong answers.
    procs[1].kill();
    procs[1].wait();

    for (int i = 0; i < 8; ++i) {
        query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    EXPECT_EQ(remote.workerHealth(1), WorkerHealth::Dead);
    EXPECT_GT(remote.stats().failovers + remote.stats().rebinds,
              0u);
    EXPECT_EQ(remote.stats().localFallbacks, 0u);
}

// ---------------------------------------------- background heartbeat

TEST(RemoteFaultToleranceTest, BackgroundHeartbeatDetectsDeadWorker)
{
    Rng rng(307);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(2);
    RemoteShardConfig config = fastConfig();
    config.heartbeatPeriodSeconds = 0.005;
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ASSERT_EQ(remote.workerHealth(1), WorkerHealth::Healthy);

    // Kill a worker and wait for the coordinator's OWN thread to
    // notice — the caller never invokes heartbeat().
    fleet.workers[1]->stop();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (remote.workerHealth(1) != WorkerHealth::Dead &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(remote.workerHealth(1), WorkerHealth::Dead);

    // The same thread re-replicated the dead worker's shards, so
    // queries proceed bit-identically with no local fallback.
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});
    for (int i = 0; i < 4; ++i) {
        const Vector query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    EXPECT_GT(remote.stats().rebinds, 0u);
    EXPECT_EQ(remote.stats().localFallbacks, 0u);
}

TEST(RemoteFaultToleranceTest, BackgroundHeartbeatStopsPromptly)
{
    Rng rng(311);
    const Matrix key = randomMatrix(rng, 32, 8);
    const Matrix value = randomMatrix(rng, 32, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    // A period much longer than the test: the destructor must
    // interrupt the sleep instead of waiting a full period out, and
    // must still shut the workers down cleanly afterwards.
    Fleet fleet = makeFleet(2);
    RemoteShardConfig config = fastConfig();
    config.heartbeatPeriodSeconds = 30.0;
    const auto start = std::chrono::steady_clock::now();
    {
        RemoteShardCoordinator remote(inner, key, value,
                                      fleet.specs(), config);
        const Vector query = randomQuery(rng, 8);
        ShardedBackend sharded(inner, key, value, ShardedConfig{16});
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    const double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(elapsed, 10.0);
}

TEST(RemoteFaultToleranceTest,
     BackgroundHeartbeatCoexistsWithExplicitCalls)
{
    Rng rng(313);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(2);
    RemoteShardConfig config = fastConfig();
    config.heartbeatPeriodSeconds = 0.002;
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    // Caller-driven heartbeats and queries interleave with the
    // background prober; health stays consistent and every answer
    // stays bit-identical.
    for (int i = 0; i < 10; ++i) {
        remote.heartbeat();
        const Vector query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    EXPECT_EQ(remote.workerHealth(0), WorkerHealth::Healthy);
    EXPECT_EQ(remote.workerHealth(1), WorkerHealth::Healthy);
    EXPECT_EQ(remote.stats().localFallbacks, 0u);
}

}  // namespace
}  // namespace a3
