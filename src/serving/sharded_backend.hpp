/**
 * @file
 * Sharded attention over huge contexts.
 *
 * One backend/engine task caps what a session can hold: the sorted
 * key, the quantized lanes, and every per-query pass are sized by the
 * task's row count. ShardedBackend lifts that cap by partitioning a
 * task's key/value rows into S row-contiguous shards, binding an
 * inner backend per shard (any of the four kinds via makeBackend),
 * fanning queries out across the shards, and merging the per-shard
 * softmax partials with the numerically stable log-sum-exp combine
 * (see PartialResult for the decomposition).
 *
 * Since PR 9 the composite no longer owns its shards: each shard is a
 * refcounted ShardHandle (shard_store.hpp). Two modes:
 *
 *  - Store-less (ShardedConfig::store == nullptr): the legacy layout
 *    — size-balanced partition, private untracked handles, behavior
 *    bit-identical to the owning implementation.
 *  - Store-backed: the partition is *prefix-aligned* — floor(n /
 *    shardRows) full shards plus a remainder tail — so a shard's
 *    identity depends only on its absolute row slice and the binding
 *    config, never on the total session length. Full shards are
 *    acquired through the ShardStore (deduped against live sessions,
 *    restored from spill, or cold-bound); only the mutable tail is
 *    private to this session. When append() fills the tail it is
 *    frozen (compacted + content-addressed), adopted into the store,
 *    and a new tail opens — copy-on-append touches exactly one shard.
 *
 * Parallelism comes from above, not from a borrowed pool: the
 * backend exposes its shards through the AttentionBackend work-unit
 * contract (workUnitCount() / runUnitPartialInto() /
 * mergeUnitsInto()), and AttentionEngine flattens every (query,
 * shard) unit of a batch into one work list — shard partials from
 * many queries share the same pool lanes, with no nested
 * ThreadPool. Direct runInto() calls compute the shards serially on
 * the calling thread.
 *
 * Guarantees:
 *  - S = 1 delegates straight to the wrapped backend, so a sharded
 *    session that fits one shard is bit-identical to an unsharded
 *    one, for every backend kind.
 *  - Shard partials are always merged serially in shard-index order
 *    after the fan-out completes, so results are bit-identical
 *    between serial and engine-parallel fan-out and across thread
 *    counts (the exact-match mode: fixed merge order).
 *  - Shared, spill-restored, and cold-bound shards produce
 *    bit-identical partials (preprocessing is deterministic and the
 *    spill image round-trips state verbatim), so store-backed
 *    results never depend on which tier served a shard.
 *  - Reference shards match the unsharded reference within a small
 *    ULP bound (each weight picks up one exp(m_s - M) scaling and
 *    the value accumulation is reassociated at shard boundaries);
 *    approx/quantized shards are accuracy-bounded against the
 *    unsharded flow because selection and fixed-point sizing are
 *    shard-local.
 *
 * ShardedBackend implements AttentionBackend, so the serving tier —
 * SessionCache byte accounting, BatchScheduler coalescing, the
 * batched AttentionEngine — handles sharded sessions unchanged:
 * memoryBytes() aggregates the shards (logical bytes; the shared-once
 * accounting lives in SessionCache, which sees the handles) and
 * append() routes new rows to the mutable tail.
 */

#ifndef A3_SERVING_SHARDED_BACKEND_HPP
#define A3_SERVING_SHARDED_BACKEND_HPP

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "attention/backend.hpp"
#include "attention/types.hpp"
#include "serving/shard_store.hpp"
#include "tensor/matrix.hpp"

namespace a3 {

/** Partitioning and fan-out knobs of one ShardedBackend. */
struct ShardedConfig
{
    /**
     * Row capacity of one shard (> 0). Binding n rows creates
     * ceil(n / shardRows) shards; append() fills the tail shard to
     * this capacity before opening another.
     */
    std::size_t shardRows = 4096;

    /**
     * Cross-session shard registry; nullptr keeps the legacy
     * store-less behavior (balanced partition, private shards).
     * Non-owning — the store must outlive every backend bound
     * against it.
     */
    ShardStore *store = nullptr;
};

/** Row-sharded composite over refcounted shard handles. */
class ShardedBackend final : public AttentionBackend
{
  public:
    /**
     * Partition (key, value) into ceil(n / config.shardRows) shards.
     * Store-less: size-balanced slices, private handles. Store-backed:
     * prefix-aligned slices with full shards resolved through the
     * store (live -> spill -> cold) and a private mutable tail.
     */
    ShardedBackend(const EngineConfig &inner, Matrix key, Matrix value,
                   ShardedConfig config);

    /** "sharded(<inner name>)", e.g. "sharded(reference)". */
    std::string name() const override;

    /**
     * Answer one query: per-shard partials computed serially on the
     * calling thread, then the fixed-order log-sum-exp merge. With a
     * single shard this delegates to the wrapped backend's runInto()
     * — bit-identical by construction. Row ids in scores, weights,
     * candidates, and kept are global; iterations sums the shards.
     */
    void runInto(const Vector &query,
                 AttentionResult &out) const override;

    /**
     * Work-unit decomposition: one unit per shard when S > 1 (the
     * engine fans the units out and merges them in shard order), one
     * unit total when S = 1 (so the engine keeps the wrapped
     * backend's exact runInto() path — the S = 1 bit-identity
     * guarantee for the quantized kinds).
     */
    std::size_t workUnitCount() const override;
    void runUnitPartialInto(std::size_t unit, const Vector &query,
                            PartialResult &out) const override;
    void mergeUnitsInto(const std::vector<PartialResult> &partials,
                        AttentionResult &out) const override;

    /**
     * Merge the shard partials into one unnormalized partial (global
     * max, summed exp-sum, scaled accumulation) — the full backend
     * contract, so a sharded session can feed any consumer of the
     * partial path. Shards themselves are always the plain kinds
     * (makeBackend), never nested sharded backends.
     */
    void runPartialInto(const Vector &query,
                        PartialResult &out) const override;

    /**
     * Route appended rows to the mutable tail until it reaches
     * shardRows capacity. Store-backed, a full tail freezes into the
     * store (compaction + content key + write-through spill) and a
     * new private tail opens; frozen shards are never touched, which
     * is the copy-on-append guarantee. Global row ids keep ascending
     * across the shard boundary.
     */
    void append(const Matrix &keyRows,
                const Matrix &valueRows) override;

    /**
     * Sum of the shards' preprocessed bytes — logical footprint,
     * counting a shared shard fully (SessionCache's charged-bytes
     * accounting deduplicates across sessions via the handles).
     */
    std::size_t memoryBytes() const override;

    /** Total rows across the shards. */
    std::size_t rows() const override;

    std::size_t dims() const override { return dims_; }

    /** Shards currently bound. */
    std::size_t shardCount() const { return shards_.size(); }

    /** Inner backend of shard `s` (for tests and introspection). */
    const AttentionBackend &shard(std::size_t s) const;

    /** Refcounted handle of shard `s` (identity = sharing). */
    const std::shared_ptr<ShardHandle> &
    shardHandle(std::size_t s) const;

    /** Global row id of shard `s`'s first row. */
    std::size_t shardOffset(std::size_t s) const;

    /** Shards the initial bind deduped against live sessions. */
    std::size_t bindSharedShards() const { return bindShared_; }

    /** Shards the initial bind restored from the spill tier. */
    std::size_t bindRestoredShards() const { return bindRestored_; }

    const ShardedConfig &config() const { return config_; }

  private:
    /**
     * Fan runPartialInto() across the shards into partials[s] slots
     * of `partials` (resized to shardCount()), serially on the
     * calling thread.
     */
    void computePartials(const Vector &query,
                         std::vector<PartialResult> &partials) const;

    /**
     * Log-sum-exp combine of the shard partials, serially in shard
     * order, into one global-row-id partial.
     */
    void mergePartials(const std::vector<PartialResult> &partials,
                       PartialResult &out) const;

    /** Freeze the tail into the store and swap in the canonical
     *  handle (store-backed mode only). */
    void freezeTail();

    EngineConfig inner_;
    ShardedConfig config_;
    std::vector<std::shared_ptr<ShardHandle>> shards_;
    /** Global row id of each shard's first row. */
    std::vector<std::size_t> offsets_;
    std::size_t dims_ = 0;
    std::size_t bindShared_ = 0;
    std::size_t bindRestored_ = 0;
};

/**
 * Convenience factory mirroring makeBackend(): a sharded backend over
 * inner backends of the configured kind.
 */
std::unique_ptr<AttentionBackend>
makeShardedBackend(const EngineConfig &inner, Matrix key, Matrix value,
                   ShardedConfig config);

}  // namespace a3

#endif  // A3_SERVING_SHARDED_BACKEND_HPP
