/**
 * @file
 * Tests for cross-session prefix sharing and the disk spill tier:
 * content addressing (determinism, config sensitivity, the running
 * tail hasher), ShardStore resolution order (live -> spill -> cold)
 * with refcount semantics, spill-image round trips pinned
 * bit-identical for every backend kind and packed format, corrupt /
 * stale image rejection falling back to cold binds, the
 * SessionCache typed surface (BindOutcome / AppendOutcome /
 * SessionHandle staleness), shared-bytes-once budget accounting,
 * eviction safety for shared shards, copy-on-append tail isolation,
 * freeze-path compaction, and deadline-hint propagation from the
 * scheduler into backends.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "attention/backend.hpp"
#include "attention/quantized.hpp"
#include "engine/engine.hpp"
#include "serving/batch_scheduler.hpp"
#include "serving/session_cache.hpp"
#include "serving/shard_image.hpp"
#include "serving/shard_store.hpp"
#include "serving/sharded_backend.hpp"
#include "util/random.hpp"

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
expectBitIdentical(const AttentionResult &a, const AttentionResult &b)
{
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.weights, b.weights);
    EXPECT_EQ(a.scores, b.scores);
    EXPECT_EQ(a.candidates, b.candidates);
    EXPECT_EQ(a.kept, b.kept);
    EXPECT_EQ(a.iterations, b.iterations);
}

/** Fresh unique spill directory under /tmp, removed on destruction. */
class TempSpillDir
{
  public:
    TempSpillDir()
    {
        char templ[] = "/tmp/a3_prefix_test_XXXXXX";
        const char *made = mkdtemp(templ);
        EXPECT_NE(made, nullptr);
        path_ = made ? made : "";
    }

    ~TempSpillDir()
    {
        if (path_.empty())
            return;
        const std::string cmd = "rm -rf '" + path_ + "'";
        [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

EngineConfig
configOf(EngineKind kind)
{
    EngineConfig config;
    config.kind = kind;
    return config;
}

// -- Content addressing ---------------------------------------------

TEST(ShardStoreKeys, ContentKeyDeterministicAndInputSensitive)
{
    Rng rng(7);
    const Matrix key = randomMatrix(rng, 48, 16);
    const Matrix value = randomMatrix(rng, 48, 16);
    const EngineConfig config = configOf(EngineKind::ExactFloat);

    ShardKeyHasher a;
    a.mixConfig(config, key.cols());
    a.mixTaskRows(key, value, 0, 32);
    ShardKeyHasher b;
    b.mixConfig(config, key.cols());
    b.mixTaskRows(key, value, 0, 32);
    EXPECT_EQ(a.key(), b.key());

    // A different row slice of the same matrices hashes differently.
    ShardKeyHasher c;
    c.mixConfig(config, key.cols());
    c.mixTaskRows(key, value, 16, 32);
    EXPECT_FALSE(a.key() == c.key());

    // A single flipped float changes the key.
    Matrix tweaked = key;
    tweaked(3, 5) += 1.0f;
    ShardKeyHasher d;
    d.mixConfig(config, key.cols());
    d.mixTaskRows(tweaked, value, 0, 32);
    EXPECT_FALSE(a.key() == d.key());
}

TEST(ShardStoreKeys, ConfigFingerprintCoversOnlyRelevantKnobs)
{
    Rng rng(11);
    const Matrix key = randomMatrix(rng, 32, 8);
    const Matrix value = randomMatrix(rng, 32, 8);

    // Quantization widths are irrelevant to ExactFloat shards: two
    // float configs differing only in intBits share a key...
    EngineConfig floatA = configOf(EngineKind::ExactFloat);
    floatA.intBits = 4;
    EngineConfig floatB = floatA;
    floatB.intBits = 6;
    ShardKeyHasher a, b;
    a.mixConfig(floatA, key.cols());
    a.mixTaskRows(key, value, 0, 32);
    b.mixConfig(floatB, key.cols());
    b.mixTaskRows(key, value, 0, 32);
    EXPECT_EQ(a.key(), b.key());

    // ...while for a quantized kind the same knob splits the key.
    EngineConfig quantA = configOf(EngineKind::ExactQuantized);
    quantA.intBits = 4;
    EngineConfig quantB = quantA;
    quantB.intBits = 6;
    ShardKeyHasher c, d;
    c.mixConfig(quantA, key.cols());
    c.mixTaskRows(key, value, 0, 32);
    d.mixConfig(quantB, key.cols());
    d.mixTaskRows(key, value, 0, 32);
    EXPECT_FALSE(c.key() == d.key());

    // And kinds never collide with each other.
    ShardKeyHasher e;
    e.mixConfig(configOf(EngineKind::ApproxFloat), key.cols());
    e.mixTaskRows(key, value, 0, 32);
    EXPECT_FALSE(a.key() == e.key());
    EXPECT_FALSE(c.key() == e.key());
}

TEST(ShardStoreKeys, RunningTailHashMatchesFreshBind)
{
    Rng rng(13);
    const Matrix key = randomMatrix(rng, 64, 12);
    const Matrix value = randomMatrix(rng, 64, 12);
    const EngineConfig config = configOf(EngineKind::ExactQuantized);

    // A tail bound over rows [0, 16) then extended by [16, 64) in
    // three appends must freeze to the key of a one-shot bind.
    auto tail = ShardHandle::bindTail(config, key, value, 0, 16);
    tail->appendRows(key.rowSlice(16, 16), value.rowSlice(16, 16));
    tail->appendRows(key.rowSlice(32, 8), value.rowSlice(32, 8));
    tail->appendRows(key.rowSlice(40, 24), value.rowSlice(40, 24));
    tail->freeze();

    auto fresh = ShardHandle::bindTail(config, key, value, 0, 64);
    fresh->freeze();

    EXPECT_EQ(tail->contentKey(), fresh->contentKey());
    EXPECT_EQ(tail->contentKey().hex(), fresh->contentKey().hex());
    EXPECT_EQ(tail->contentKey().hex().size(), 32u);
}

TEST(ShardStoreKeys, HexRoundTrips)
{
    ShardKey key{0x0123456789abcdefull, 0xfedcba9876543210ull};
    ShardKey parsed;
    ASSERT_TRUE(ShardKey::parseHex(key.hex(), parsed));
    EXPECT_EQ(key, parsed);
    EXPECT_FALSE(ShardKey::parseHex("not-a-key", parsed));
    EXPECT_FALSE(ShardKey::parseHex(key.hex().substr(1), parsed));
}

// -- ShardStore resolution and refcounting --------------------------

TEST(ShardStoreAcquire, DedupsLiveHandlesAcrossCallers)
{
    Rng rng(17);
    const Matrix key = randomMatrix(rng, 96, 16);
    const Matrix value = randomMatrix(rng, 96, 16);
    const EngineConfig config = configOf(EngineKind::ExactFloat);

    ShardStore store;
    ShardSource source = ShardSource::ColdBound;
    auto first = store.acquire(config, key, value, 0, 48, &source);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(source, ShardSource::ColdBound);
    EXPECT_TRUE(first->frozen());
    EXPECT_EQ(store.liveCount(), 1u);

    // Same slice again: the very same handle object, refcounted.
    auto second = store.acquire(config, key, value, 0, 48, &source);
    EXPECT_EQ(second.get(), first.get());
    EXPECT_EQ(source, ShardSource::LiveShared);
    EXPECT_GE(second.use_count(), 2);
    EXPECT_EQ(store.liveCount(), 1u);

    // A different slice cold-binds its own handle.
    auto other = store.acquire(config, key, value, 48, 48, &source);
    EXPECT_NE(other.get(), first.get());
    EXPECT_EQ(source, ShardSource::ColdBound);
    EXPECT_EQ(store.liveCount(), 2u);

    const ShardStoreStats stats = store.stats();
    EXPECT_EQ(stats.liveHits, 1u);
    EXPECT_EQ(stats.coldBinds, 2u);
    EXPECT_EQ(stats.spillRestores, 0u);
}

TEST(ShardStoreAcquire, DeadHandleIsPrunedAndReboundCold)
{
    Rng rng(19);
    const Matrix key = randomMatrix(rng, 32, 8);
    const Matrix value = randomMatrix(rng, 32, 8);
    const EngineConfig config = configOf(EngineKind::ApproxFloat);

    ShardStore store;  // no spill dir: dropping the handle loses it
    auto handle = store.acquire(config, key, value, 0, 32);
    ASSERT_NE(handle, nullptr);
    EXPECT_EQ(store.liveCount(), 1u);

    handle.reset();  // last reference gone; weak entry is now dead

    ShardSource source = ShardSource::LiveShared;
    auto again = store.acquire(config, key, value, 0, 32, &source);
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(source, ShardSource::ColdBound);
    EXPECT_EQ(store.stats().coldBinds, 2u);
    EXPECT_EQ(store.liveCount(), 1u);
}

TEST(ShardStoreAcquire, AdoptFrozenPrefersLiveCanonicalHandle)
{
    Rng rng(23);
    const Matrix key = randomMatrix(rng, 40, 8);
    const Matrix value = randomMatrix(rng, 40, 8);
    const EngineConfig config = configOf(EngineKind::ExactFloat);

    ShardStore store;
    auto canonical = store.acquire(config, key, value, 0, 40);
    ASSERT_NE(canonical, nullptr);

    // Another session freezes an identical tail; adoption must hand
    // back the canonical live handle, not index a duplicate.
    auto dup = ShardHandle::bindTail(config, key, value, 0, 40);
    dup->freeze();
    ASSERT_EQ(dup->contentKey(), canonical->contentKey());
    auto adopted = store.adoptFrozen(std::move(dup));
    EXPECT_EQ(adopted.get(), canonical.get());
    EXPECT_EQ(store.liveCount(), 1u);
    EXPECT_EQ(store.stats().adoptions, 1u);
    EXPECT_EQ(store.stats().liveHits, 1u);
}

// -- Spill tier -----------------------------------------------------

TEST(SpillTier, RoundTripBitIdenticalForEveryKind)
{
    Rng rng(29);
    const std::size_t n = 72;
    const std::size_t d = 16;
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);
    const Vector query = randomQuery(rng, d);

    for (EngineKind kind : kAllKinds) {
        SCOPED_TRACE(engineKindName(kind));
        const EngineConfig config = configOf(kind);
        TempSpillDir dir;

        ShardKey spilledKey;
        {
            ShardStore store({dir.path(), 0});
            auto handle = store.acquire(config, key, value, 0, n);
            ASSERT_NE(handle, nullptr);
            spilledKey = handle->contentKey();
            EXPECT_EQ(store.spillCount(), 1u);
            EXPECT_EQ(store.stats().spillWrites, 1u);
        }  // store and handle die; only the image remains

        // A fresh store over the same directory restarts warm: the
        // scan re-indexes the image and acquire() restores from it.
        ShardStore restarted({dir.path(), 0});
        EXPECT_EQ(restarted.spillCount(), 1u);
        ShardSource source = ShardSource::ColdBound;
        auto restored =
            restarted.acquire(config, key, value, 0, n, &source);
        ASSERT_NE(restored, nullptr);
        EXPECT_EQ(source, ShardSource::SpillRestored);
        EXPECT_EQ(restored->contentKey(), spilledKey);
        EXPECT_EQ(restarted.stats().spillRestores, 1u);
        EXPECT_EQ(restarted.stats().coldBinds, 0u);

        // Restored answers must be bit-identical to a cold bind.
        auto cold = makeBackend(config, key, value);
        AttentionResult fromSpill, fromCold;
        restored->backend().runInto(query, fromSpill);
        cold->runInto(query, fromCold);
        expectBitIdentical(fromSpill, fromCold);
    }
}

TEST(SpillTier, PackedFormatsRoundTripBitIdentical)
{
    Rng rng(31);
    const std::size_t n = 64;
    const std::size_t d = 12;
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);
    const Vector query = randomQuery(rng, d);

    const PackedKvFormat formats[] = {PackedKvFormat::Word32,
                                      PackedKvFormat::Int16,
                                      PackedKvFormat::Int8,
                                      PackedKvFormat::Int4};
    for (PackedKvFormat format : formats) {
        SCOPED_TRACE(packedKvFormatName(format));
        EngineConfig config = configOf(EngineKind::ExactQuantized);
        config.intBits = format == PackedKvFormat::Int4 ? 1 : 3;
        config.fracBits = format == PackedKvFormat::Int4 ? 2 : 4;
        if (format == PackedKvFormat::Int16)
            config.intBits = 4;  // the 9-bit paper default
        config.packedKv = format;
        TempSpillDir dir;

        {
            ShardStore store({dir.path(), 0});
            auto handle = store.acquire(config, key, value, 0, n);
            ASSERT_NE(handle, nullptr);
        }
        ShardStore restarted({dir.path(), 0});
        ShardSource source = ShardSource::ColdBound;
        auto restored =
            restarted.acquire(config, key, value, 0, n, &source);
        ASSERT_NE(restored, nullptr);
        EXPECT_EQ(source, ShardSource::SpillRestored);

        auto cold = makeBackend(config, key, value);
        AttentionResult fromSpill, fromCold;
        restored->backend().runInto(query, fromSpill);
        cold->runInto(query, fromCold);
        expectBitIdentical(fromSpill, fromCold);
    }
}

TEST(SpillTier, PackedLegacyWord32ImageFallsBackToColdBind)
{
    // Auto once bound the paper's 9-bit i = f = 4 words as Word32;
    // it now binds them on the int16 lane. A Word32 image, even one
    // filed under the int16 config's own key, must be rejected and
    // re-bound cold, never decoded as int16 lanes.
    Rng rng(47);
    const std::size_t n = 40;
    const std::size_t d = 16;
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);
    const Vector query = randomQuery(rng, d);
    EngineConfig config = configOf(EngineKind::ExactQuantized);
    config.intBits = 4;
    config.fracBits = 4;
    EngineConfig legacy = config;
    legacy.packedKv = PackedKvFormat::Word32;

    ShardKeyHasher hasher;
    hasher.mixConfig(config, d);
    hasher.mixTaskRows(key, value, 0, n);
    const ShardKey contentKey = hasher.key();
    const auto word32 = makeBackend(legacy, key, value);
    const std::vector<std::uint8_t> image =
        encodeShardImage(legacy, contentKey, *word32);
    EXPECT_EQ(decodeShardImage(config, contentKey, image.data(),
                               image.size()),
              nullptr);
    // The bytes are intact: they decode under the layout they carry.
    EXPECT_NE(decodeShardImage(legacy, contentKey, image.data(),
                               image.size()),
              nullptr);

    TempSpillDir dir;
    {
        const std::string path =
            dir.path() + "/" + contentKey.hex() + ".shard";
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(image.data(), 1, image.size(), f),
                  image.size());
        std::fclose(f);
    }
    ShardStore store({dir.path(), 0});
    EXPECT_EQ(store.spillCount(), 1u);
    ShardSource source = ShardSource::SpillRestored;
    auto handle = store.acquire(config, key, value, 0, n, &source);
    ASSERT_NE(handle, nullptr);
    EXPECT_EQ(source, ShardSource::ColdBound);
    EXPECT_EQ(store.stats().spillRejects, 1u);
    const auto *bound =
        dynamic_cast<const QuantizedAttention *>(&handle->backend());
    ASSERT_NE(bound, nullptr);
    EXPECT_EQ(bound->packedFormat(), PackedKvFormat::Int16);

    AttentionResult got, want;
    handle->backend().runInto(query, got);
    word32->runInto(query, want);
    expectBitIdentical(got, want);
}

TEST(SpillTier, CorruptImageRejectedAndColdBound)
{
    Rng rng(37);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig config = configOf(EngineKind::ExactFloat);
    TempSpillDir dir;

    std::string imagePath;
    {
        ShardStore store({dir.path(), 0});
        auto handle = store.acquire(config, key, value, 0, 48);
        ASSERT_NE(handle, nullptr);
        imagePath =
            dir.path() + "/" + handle->contentKey().hex() + ".shard";
    }

    // Flip one payload byte in place.
    {
        std::FILE *f = std::fopen(imagePath.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
        const int last = std::fgetc(f);
        ASSERT_NE(last, EOF);
        ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
        std::fputc(last ^ 0xff, f);
        std::fclose(f);
    }

    ShardStore restarted({dir.path(), 0});
    EXPECT_EQ(restarted.spillCount(), 1u);
    ShardSource source = ShardSource::SpillRestored;
    auto handle = restarted.acquire(config, key, value, 0, 48, &source);
    ASSERT_NE(handle, nullptr);  // a bad image is a miss, not an error
    EXPECT_EQ(source, ShardSource::ColdBound);
    EXPECT_EQ(restarted.stats().spillRejects, 1u);
    EXPECT_EQ(restarted.stats().coldBinds, 1u);

    Rng qrng(38);
    const Vector query = randomQuery(qrng, 8);
    auto cold = makeBackend(config, key, value);
    AttentionResult got, want;
    handle->backend().runInto(query, got);
    cold->runInto(query, want);
    expectBitIdentical(got, want);
}

TEST(SpillTier, VersionMismatchRejected)
{
    Rng rng(41);
    const Matrix key = randomMatrix(rng, 32, 8);
    const Matrix value = randomMatrix(rng, 32, 8);
    const EngineConfig config = configOf(EngineKind::ExactFloat);

    auto handle = ShardHandle::bindTail(config, key, value, 0, 32);
    handle->freeze();
    std::vector<std::uint8_t> image =
        encodeShardImage(config, handle->contentKey(),
                         handle->backend());
    ASSERT_GE(image.size(), 6u);
    image[4] ^= 0x01;  // bump the little-endian version field

    auto decoded =
        decodeShardImage(config, handle->contentKey(), image.data(),
                         image.size());
    EXPECT_EQ(decoded, nullptr);

    // Untouched, the same bytes decode fine.
    image[4] ^= 0x01;
    decoded = decodeShardImage(config, handle->contentKey(),
                               image.data(), image.size());
    EXPECT_NE(decoded, nullptr);
}

TEST(SpillTier, BudgetEvictsLeastRecentlyTouchedImage)
{
    Rng rng(43);
    const Matrix key = randomMatrix(rng, 90, 8);
    const Matrix value = randomMatrix(rng, 90, 8);
    const EngineConfig config = configOf(EngineKind::ExactFloat);
    TempSpillDir dir;

    // Budget fits roughly two 30-row float images, not three.
    ShardStore probe({dir.path(), 0});
    auto sized = probe.acquire(config, key, value, 0, 30);
    ASSERT_NE(sized, nullptr);
    const std::size_t oneImage = probe.spillBytesInUse();
    ASSERT_GT(oneImage, 0u);

    ShardStore store({dir.path() + "/capped", oneImage * 5 / 2});
    auto a = store.acquire(config, key, value, 0, 30);
    auto b = store.acquire(config, key, value, 30, 30);
    ASSERT_EQ(store.spillCount(), 2u);
    auto c = store.acquire(config, key, value, 60, 30);
    EXPECT_EQ(store.spillCount(), 2u);
    EXPECT_EQ(store.stats().spillEvictions, 1u);
    EXPECT_LE(store.spillBytesInUse(), oneImage * 5 / 2);

    // The evicted image was the least recently touched (shard a);
    // dropping every live handle and re-acquiring proves c survived
    // on disk while a is gone.
    a.reset();
    b.reset();
    c.reset();
    ShardSource source = ShardSource::ColdBound;
    auto cAgain = store.acquire(config, key, value, 60, 30, &source);
    ASSERT_NE(cAgain, nullptr);
    EXPECT_EQ(source, ShardSource::SpillRestored);
    cAgain.reset();
    auto aAgain = store.acquire(config, key, value, 0, 30, &source);
    ASSERT_NE(aAgain, nullptr);
    EXPECT_EQ(source, ShardSource::ColdBound);
}

// -- Cross-session sharing through the cache ------------------------

TEST(PrefixSharing, SessionsShareFrozenShardsChargedOnce)
{
    Rng rng(47);
    const std::size_t n = 96;
    const std::size_t d = 16;
    const std::size_t shardRows = 32;
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);

    for (EngineKind kind : kAllKinds) {
        SCOPED_TRACE(engineKindName(kind));
        ShardStore store;
        SessionCacheConfig config;
        config.engine = configOf(kind);
        config.shardRows = shardRows;
        config.store = &store;
        SessionCache cache(config);

        BindOutcome first = cache.bindSession("alice", key, value);
        ASSERT_TRUE(first.bound());
        EXPECT_EQ(first.status, BindStatus::BoundFresh);
        EXPECT_EQ(first.shardCount, 3u);
        EXPECT_EQ(first.sharedShards, 0u);
        EXPECT_GT(first.chargedBytes, 0u);

        BindOutcome second = cache.bindSession("bob", key, value);
        ASSERT_TRUE(second.bound());
        EXPECT_EQ(second.status, BindStatus::BoundShared);
        EXPECT_EQ(second.shardCount, 3u);
        // 96 = 3 x 32: every shard is full and frozen, so all of
        // bob's shards dedup against alice's (no private tail rows).
        EXPECT_EQ(second.sharedShards, 3u);
        EXPECT_EQ(second.logicalBytes, first.logicalBytes);
        // Shared bytes are charged once: bob adds nothing.
        EXPECT_EQ(second.chargedBytes, 0u);
        EXPECT_EQ(cache.bytesInUse(), first.chargedBytes);

        // The sharing is by handle identity, not by coincidence.
        auto aliceBackend = first.handle.backend();
        auto bobBackend = second.handle.backend();
        ASSERT_NE(aliceBackend, nullptr);
        ASSERT_NE(bobBackend, nullptr);
        const auto *aliceSharded =
            dynamic_cast<const ShardedBackend *>(aliceBackend.get());
        const auto *bobSharded =
            dynamic_cast<const ShardedBackend *>(bobBackend.get());
        ASSERT_NE(aliceSharded, nullptr);
        ASSERT_NE(bobSharded, nullptr);
        for (std::size_t s = 0; s < 3; ++s)
            EXPECT_EQ(aliceSharded->shardHandle(s).get(),
                      bobSharded->shardHandle(s).get());
    }
}

TEST(PrefixSharing, EvictingSharedSessionKeepsOthersAlive)
{
    Rng rng(53);
    const std::size_t n = 64;
    const std::size_t d = 12;
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);
    const Vector query = randomQuery(rng, d);

    ShardStore store;
    SessionCacheConfig config;
    config.engine = configOf(EngineKind::ExactQuantized);
    config.shardRows = 32;
    config.store = &store;
    SessionCache cache(config);

    BindOutcome alice = cache.bindSession("alice", key, value);
    BindOutcome bob = cache.bindSession("bob", key, value);
    ASSERT_TRUE(alice.bound());
    ASSERT_TRUE(bob.bound());
    EXPECT_EQ(bob.status, BindStatus::BoundShared);

    AttentionResult before;
    bob.handle.backend()->runInto(query, before);

    // Dropping alice must not disturb bob: the shared shards stay
    // alive through bob's references, and his answers are unchanged.
    ASSERT_TRUE(cache.erase("alice"));
    EXPECT_EQ(alice.handle.backend(), nullptr);  // handle went stale
    ASSERT_NE(bob.handle.backend(), nullptr);
    AttentionResult after;
    bob.handle.backend()->runInto(query, after);
    expectBitIdentical(before, after);
    EXPECT_EQ(store.liveCount(), 2u);

    // Bob alone now carries the charge (same bytes, one session).
    EXPECT_EQ(cache.bytesInUse(), alice.chargedBytes);
}

TEST(PrefixSharing, AppendAfterShareCopiesOnlyTheTail)
{
    Rng rng(59);
    const std::size_t d = 12;
    const std::size_t shardRows = 32;
    const Matrix key = randomMatrix(rng, 80, d);
    const Matrix value = randomMatrix(rng, 80, d);

    ShardStore store;
    SessionCacheConfig config;
    config.engine = configOf(EngineKind::ExactFloat);
    config.shardRows = shardRows;
    config.store = &store;
    SessionCache cache(config);

    // 80 rows = 2 frozen shards + a 16-row mutable tail each. The
    // frozen prefix is shared; the tails are private per session.
    BindOutcome alice = cache.bindSession("alice", key, value);
    BindOutcome bob = cache.bindSession("bob", key, value);
    ASSERT_TRUE(alice.bound());
    ASSERT_TRUE(bob.bound());
    EXPECT_EQ(alice.shardCount, 3u);
    EXPECT_EQ(bob.sharedShards, 2u);

    const auto *aliceSharded = dynamic_cast<const ShardedBackend *>(
        alice.handle.backend().get());
    const auto *bobSharded = dynamic_cast<const ShardedBackend *>(
        bob.handle.backend().get());
    ASSERT_NE(aliceSharded, nullptr);
    ASSERT_NE(bobSharded, nullptr);
    const ShardHandle *aliceFrozen0 =
        aliceSharded->shardHandle(0).get();
    const ShardHandle *aliceFrozen1 =
        aliceSharded->shardHandle(1).get();
    EXPECT_EQ(bobSharded->shardHandle(0).get(), aliceFrozen0);
    EXPECT_EQ(bobSharded->shardHandle(1).get(), aliceFrozen1);
    EXPECT_NE(bobSharded->shardHandle(2).get(),
              aliceSharded->shardHandle(2).get());

    // Growing alice touches only her tail: the shared frozen shards
    // are the same objects afterwards, and bob is untouched.
    Rng grow(60);
    const Matrix moreKey = randomMatrix(grow, 24, d);
    const Matrix moreValue = randomMatrix(grow, 24, d);
    AppendOutcome grown =
        cache.appendSession(alice.handle, moreKey, moreValue);
    ASSERT_TRUE(grown.ok());
    EXPECT_EQ(grown.rowsAppended, 24u);
    // 80 + 24 = 104 rows: the tail froze at 96 and a new one opened.
    EXPECT_EQ(grown.shardCount, 4u);
    EXPECT_EQ(aliceSharded->shardHandle(0).get(), aliceFrozen0);
    EXPECT_EQ(aliceSharded->shardHandle(1).get(), aliceFrozen1);
    EXPECT_TRUE(aliceSharded->shardHandle(2)->frozen());
    EXPECT_FALSE(aliceSharded->shardHandle(3)->frozen());
    EXPECT_EQ(bobSharded->rows(), 80u);
    EXPECT_EQ(bobSharded->shardCount(), 3u);
}

TEST(PrefixSharing, WarmRebindRestoresFromSpill)
{
    Rng rng(61);
    const std::size_t n = 96;
    const std::size_t d = 12;
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);
    const Vector query = randomQuery(rng, d);
    const EngineConfig engine = configOf(EngineKind::ApproxQuantized);
    TempSpillDir dir;

    AttentionResult coldAnswer;
    {
        ShardStore store({dir.path(), 0});
        SessionCacheConfig config;
        config.engine = engine;
        config.shardRows = 32;
        config.store = &store;
        SessionCache cache(config);
        BindOutcome cold = cache.bindSession("doc", key, value);
        ASSERT_TRUE(cold.bound());
        EXPECT_EQ(cold.status, BindStatus::BoundFresh);
        cold.handle.backend()->runInto(query, coldAnswer);
        EXPECT_EQ(store.spillCount(), 3u);
    }  // cache, store, and every live handle die

    // A fresh store over the same spill dir re-binds warm: every
    // shard restores from disk and the answers are bit-identical.
    ShardStore store({dir.path(), 0});
    SessionCacheConfig config;
    config.engine = engine;
    config.shardRows = 32;
    config.store = &store;
    SessionCache cache(config);
    BindOutcome warm = cache.bindSession("doc", key, value);
    ASSERT_TRUE(warm.bound());
    EXPECT_EQ(warm.status, BindStatus::BoundRestored);
    EXPECT_EQ(warm.restoredShards, 3u);
    EXPECT_EQ(warm.sharedShards, 0u);
    AttentionResult warmAnswer;
    warm.handle.backend()->runInto(query, warmAnswer);
    expectBitIdentical(warmAnswer, coldAnswer);
}

TEST(PrefixSharing, StoreBackedMatchesStoreLessResults)
{
    Rng rng(67);
    const std::size_t n = 80;
    const std::size_t d = 16;
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);

    // Store-backed partitioning is prefix-aligned rather than
    // balanced, so shard boundaries differ from the legacy layout —
    // but the merged answer must agree to the documented reference
    // bound, and for a single shard both modes are bit-identical to
    // the unsharded backend.
    for (EngineKind kind : kAllKinds) {
        SCOPED_TRACE(engineKindName(kind));
        const EngineConfig config = configOf(kind);
        ShardStore store;
        ShardedConfig withStore;
        withStore.shardRows = n;  // single shard: exact delegation
        withStore.store = &store;
        ShardedBackend sharded(config, key, value, withStore);
        ASSERT_EQ(sharded.shardCount(), 1u);

        auto plain = makeBackend(config, key, value);
        Rng qrng(68);
        for (int i = 0; i < 3; ++i) {
            const Vector query = randomQuery(qrng, d);
            AttentionResult got, want;
            sharded.runInto(query, got);
            plain->runInto(query, want);
            expectBitIdentical(got, want);
        }
    }
}

// -- Typed session surface ------------------------------------------

TEST(SessionHandles, BindStatusProgression)
{
    Rng rng(71);
    const Matrix key = randomMatrix(rng, 64, 8);
    const Matrix value = randomMatrix(rng, 64, 8);

    ShardStore store;
    SessionCacheConfig config;
    config.engine = configOf(EngineKind::ExactFloat);
    config.shardRows = 32;
    config.store = &store;
    SessionCache cache(config);

    BindOutcome fresh = cache.bindSession("s1", key, value);
    EXPECT_EQ(fresh.status, BindStatus::BoundFresh);
    BindOutcome again = cache.bindSession("s1", key, value);
    EXPECT_EQ(again.status, BindStatus::AlreadyBound);
    EXPECT_EQ(again.handle.backend().get(),
              fresh.handle.backend().get());
    BindOutcome shared = cache.bindSession("s2", key, value);
    EXPECT_EQ(shared.status, BindStatus::BoundShared);

    EXPECT_STREQ(bindStatusName(BindStatus::AlreadyBound),
                 "already_bound");
    EXPECT_STREQ(bindStatusName(BindStatus::BoundFresh),
                 "bound_fresh");
    EXPECT_STREQ(bindStatusName(BindStatus::BoundShared),
                 "bound_shared");
    EXPECT_STREQ(bindStatusName(BindStatus::BoundRestored),
                 "bound_restored");
    EXPECT_STREQ(appendStatusName(AppendStatus::Appended), "appended");
    EXPECT_STREQ(appendStatusName(AppendStatus::SessionUnbound),
                 "session_unbound");
}

TEST(SessionHandles, StaleHandleAppendFailsTyped)
{
    Rng rng(73);
    const std::size_t d = 8;
    const Matrix key = randomMatrix(rng, 32, d);
    const Matrix value = randomMatrix(rng, 32, d);
    const Matrix moreKey = randomMatrix(rng, 4, d);
    const Matrix moreValue = randomMatrix(rng, 4, d);

    SessionCacheConfig config;
    config.engine = configOf(EngineKind::ExactFloat);
    SessionCache cache(config);

    // Never-issued handle: invalid, append refuses typed.
    SessionHandle never;
    EXPECT_FALSE(never.valid());
    AppendOutcome refused =
        cache.appendSession(never, moreKey, moreValue);
    EXPECT_EQ(refused.status, AppendStatus::SessionUnbound);
    EXPECT_EQ(refused.rowsAppended, 0u);

    // Evicted session: the issued handle goes stale.
    BindOutcome bound = cache.bindSession("doc", key, value);
    ASSERT_TRUE(bound.bound());
    ASSERT_TRUE(cache.erase("doc"));
    EXPECT_EQ(bound.handle.backend(), nullptr);
    AppendOutcome stale =
        cache.appendSession(bound.handle, moreKey, moreValue);
    EXPECT_EQ(stale.status, AppendStatus::SessionUnbound);

    // Re-bound session: a handle for the *old* binding must not
    // append to the new one, even though the id matches.
    BindOutcome first = cache.bindSession("doc", key, value);
    ASSERT_TRUE(cache.erase("doc"));
    BindOutcome second = cache.bindSession("doc", key, value);
    AppendOutcome wrongBinding =
        cache.appendSession(first.handle, moreKey, moreValue);
    EXPECT_EQ(wrongBinding.status, AppendStatus::SessionUnbound);
    AppendOutcome rightBinding =
        cache.appendSession(second.handle, moreKey, moreValue);
    EXPECT_EQ(rightBinding.status, AppendStatus::Appended);
    EXPECT_EQ(rightBinding.rowsAppended, 4u);

    // lookupSession hands back a live handle for the current binding.
    SessionHandle looked = cache.lookupSession("doc");
    EXPECT_TRUE(looked.valid());
    EXPECT_EQ(looked.backend().get(), second.handle.backend().get());
    EXPECT_FALSE(cache.lookupSession("missing").valid());
}

TEST(SessionHandles, SchedulerSubmitsThroughHandles)
{
    Rng rng(79);
    const std::size_t d = 16;
    const Matrix key = randomMatrix(rng, 96, d);
    const Matrix value = randomMatrix(rng, 96, d);

    ShardStore store;
    SessionCacheConfig config;
    config.engine = configOf(EngineKind::ExactFloat);
    config.shardRows = 32;
    config.store = &store;
    SessionCache cache(config);
    AttentionEngine engine(2);
    BatchScheduler scheduler(engine, cache);

    BindOutcome alice = cache.bindSession("alice", key, value);
    BindOutcome bob = cache.bindSession("bob", key, value);
    ASSERT_TRUE(alice.bound());
    ASSERT_TRUE(bob.bound());

    auto a1 = scheduler.submit(alice.handle, randomQuery(rng, d));
    auto b1 = scheduler.submit(bob.handle, randomQuery(rng, d));
    auto a2 = scheduler.submit(alice.handle, randomQuery(rng, d));
    EXPECT_TRUE(a1.admitted());
    EXPECT_TRUE(b1.admitted());
    EXPECT_TRUE(a2.admitted());

    auto results = scheduler.drain();
    ASSERT_EQ(results.size(), 3u);
    for (const auto &r : results) {
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r.result.output.size(), d);
    }
}

// -- Deadline-budget propagation ------------------------------------

/** Reference wrapper that records the last deadline hint it saw. */
class HintRecordingBackend final : public AttentionBackend
{
  public:
    HintRecordingBackend(Matrix key, Matrix value)
        : inner_(std::move(key), std::move(value))
    {
    }

    std::string name() const override { return "hint-recorder"; }
    void runInto(const Vector &query,
                 AttentionResult &out) const override
    {
        inner_.runInto(query, out);
    }
    void runPartialInto(const Vector &query,
                        PartialResult &out) const override
    {
        inner_.runPartialInto(query, out);
    }
    void append(const Matrix &keyRows,
                const Matrix &valueRows) override
    {
        inner_.append(keyRows, valueRows);
    }
    std::size_t memoryBytes() const override
    {
        return inner_.memoryBytes();
    }
    std::size_t rows() const override { return inner_.rows(); }
    std::size_t dims() const override { return inner_.dims(); }

    void queryDeadlineHint(double remainingSeconds) const override
    {
        lastHint_ = remainingSeconds;
        ++hintCalls_;
    }

    double lastHint() const { return lastHint_; }
    std::size_t hintCalls() const { return hintCalls_; }

  private:
    ReferenceAttention inner_;
    mutable double lastHint_ = -1.0;
    mutable std::size_t hintCalls_ = 0;
};

TEST(DeadlineBudget, DrainPublishesRemainingBudgetToBackends)
{
    Rng rng(83);
    const std::size_t d = 8;
    SessionCache cache;
    auto recorder = std::make_shared<HintRecordingBackend>(
        randomMatrix(rng, 32, d), randomMatrix(rng, 32, d));
    cache.insert("doc", recorder);

    AttentionEngine engine(1);
    BatchScheduler scheduler(engine, cache);

    SubmitOptions options;
    options.deadlineSeconds = 5.0;
    auto admitted =
        scheduler.submit("doc", randomQuery(rng, d), options);
    ASSERT_TRUE(admitted.admitted());
    auto results = scheduler.drain();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok());

    // The drain published the request's remaining budget — positive,
    // and no more than the full deadline — before the engine pass.
    EXPECT_EQ(recorder->hintCalls(), 1u);
    EXPECT_GT(recorder->lastHint(), 0.0);
    EXPECT_LE(recorder->lastHint(), 5.0);
    EXPECT_EQ(scheduler.stats().deadlineHintedGroups, 1u);
}

TEST(DeadlineBudget, GroupsWithoutDeadlinesPublishNoHint)
{
    Rng rng(89);
    const std::size_t d = 8;
    SessionCache cache;
    auto recorder = std::make_shared<HintRecordingBackend>(
        randomMatrix(rng, 32, d), randomMatrix(rng, 32, d));
    cache.insert("doc", recorder);

    AttentionEngine engine(1);
    BatchScheduler scheduler(engine, cache);
    auto admitted = scheduler.submit("doc", randomQuery(rng, d));
    ASSERT_TRUE(admitted.admitted());
    auto results = scheduler.drain();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(recorder->hintCalls(), 0u);
    EXPECT_EQ(scheduler.stats().deadlineHintedGroups, 0u);
}

// -- Freeze-path compaction -----------------------------------------

TEST(PrefixCompaction, FreezeCompactsAppendSlackWithoutDrift)
{
    Rng rng(101);
    const std::size_t d = 12;
    const Matrix key = randomMatrix(rng, 64, d);
    const Matrix value = randomMatrix(rng, 64, d);

    for (EngineKind kind : kAllKinds) {
        SCOPED_TRACE(engineKindName(kind));
        const EngineConfig config = configOf(kind);

        // Build a tail through many small appends (accumulating
        // over-reserve slack), freeze it, and pin its answers to a
        // one-shot cold bind of the same rows: compaction moved
        // bytes, never values — including the sorted-key column
        // order the approx kinds search.
        auto tail = ShardHandle::bindTail(config, key, value, 0, 8);
        for (std::size_t row = 8; row < 64; row += 8)
            tail->appendRows(key.rowSlice(row, 8),
                             value.rowSlice(row, 8));
        const std::size_t before = tail->bytes();
        tail->freeze();
        EXPECT_LE(tail->bytes(), before);

        auto cold = makeBackend(config, key, value);
        Rng qrng(102);
        for (int i = 0; i < 3; ++i) {
            const Vector query = randomQuery(qrng, d);
            AttentionResult got, want;
            tail->backend().runInto(query, got);
            cold->runInto(query, want);
            expectBitIdentical(got, want);
        }
    }
}

TEST(PrefixCompaction, CompactIsIdempotentAndReportsReclaim)
{
    Rng rng(103);
    const std::size_t d = 8;
    Matrix key = randomMatrix(rng, 16, d);
    Matrix value = randomMatrix(rng, 16, d);
    const Matrix moreKey = randomMatrix(rng, 48, d);
    const Matrix moreValue = randomMatrix(rng, 48, d);

    for (EngineKind kind : kAllKinds) {
        SCOPED_TRACE(engineKindName(kind));
        auto backend = makeBackend(configOf(kind), key, value);
        backend->append(moreKey, moreValue);
        const std::size_t bytesBefore = backend->memoryBytes();
        backend->compact();
        // Compaction releases slack capacity; the logical footprint
        // never grows, and a second compact finds nothing left.
        EXPECT_LE(backend->memoryBytes(), bytesBefore);
        EXPECT_EQ(backend->compact(), 0u);
    }
}

}  // namespace
}  // namespace a3
