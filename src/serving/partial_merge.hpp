/**
 * @file
 * Shared shard layout and partial-merge helpers.
 *
 * The fixed-order log-sum-exp combine of per-shard softmax partials
 * (see PartialResult for the decomposition) is the determinism
 * anchor of every sharded execution mode: ShardedBackend's
 * in-process fan-out, and RemoteShardCoordinator's fan-out over
 * worker processes, both merge through this one function — which is
 * what makes remote results bit-identical to local ones, including
 * runs where a worker died mid-query and a replica or local rebind
 * supplied the partial (the merge only sees *which* partials, never
 * *where* they were computed).
 *
 * growShardLayout() is the matching layout half: both backends
 * must slice rows identically or the per-shard partials would
 * differ before the merge even runs.
 */

#ifndef A3_SERVING_PARTIAL_MERGE_HPP
#define A3_SERVING_PARTIAL_MERGE_HPP

#include <cstddef>
#include <vector>

#include "attention/types.hpp"

namespace a3 {

/**
 * Row counts of the row-contiguous shards after `added` rows join a
 * layout whose shards hold `sizes` rows. A fresh bind (empty
 * `sizes`) partitions the rows into ceil(added / shardRows) balanced
 * shards: sizes differ by at most one (the first added % S are one
 * row larger). An append fills the last shard to shardRows, then
 * opens new shards of at most shardRows. Existing shards only grow,
 * so shard s keeps its offset. This is the layout contract the
 * store-less ShardedBackend and RemoteShardCoordinator share.
 */
std::vector<std::size_t> growShardLayout(std::vector<std::size_t> sizes,
                                         std::size_t added,
                                         std::size_t shardRows);

/**
 * Log-sum-exp combine of per-shard partials, serially in shard
 * order, into one partial over global row ids. partials[s] covers
 * the rows starting at offsets[s]; its local row count is its
 * expWeights length. `totalRows` and `dims` size the output
 * buffers. The merge order is fixed regardless of how (or where)
 * the partials were computed — the exact-match determinism
 * contract.
 */
void mergeShardPartials(const std::vector<PartialResult> &partials,
                        const std::vector<std::size_t> &offsets,
                        std::size_t totalRows, std::size_t dims,
                        PartialResult &out);

}  // namespace a3

#endif  // A3_SERVING_PARTIAL_MERGE_HPP
