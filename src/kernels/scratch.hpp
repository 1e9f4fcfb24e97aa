/**
 * @file
 * Reusable per-thread workspace for the attention hot paths.
 *
 * Every AttentionBackend::runInto() call needs short-lived buffers —
 * candidate row lists, per-candidate scores, softmax workspace, the
 * greedy-search heaps, the quantized pipeline's integer lanes. Before
 * this arena existed each run() allocated them fresh; now each thread
 * (each AttentionEngine lane) owns one Scratch whose buffers are
 * grown to the task size on first use and then reused, so
 * steady-state serving performs zero heap allocations per query.
 *
 * Buffer ownership is static per call path, so nested stages never
 * alias:
 *  - sub:                  subsetAttentionInto() softmax workspace
 *  - candScores:           approx flows' candidate dot products
 *  - rowIds:               candidate rows (or the full-row iota)
 *  - kept:                 post-scoring survivors
 *  - greedy/maxHeap/minHeap: efficientGreedySearch working state
 *  - queryQ/dotQ/scoreQ/outQ: quantized pipeline lanes
 *  - queryQ8/queryQ16/dotQ32: packed-kernel lanes of the same pipeline
 *
 * Scratch is deliberately value-only state: reusing it changes which
 * bytes of memory are written, never the values computed, so batched
 * results stay bit-identical to sequential ones.
 */

#ifndef A3_KERNELS_SCRATCH_HPP
#define A3_KERNELS_SCRATCH_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace a3 {

/**
 * One element-wise product in flight inside the greedy search: its
 * value, the matrix coordinates it came from, and its position in the
 * sorted column (the pointer of Figure 7).
 */
struct GreedyHeapEntry
{
    double score;
    std::uint32_t rowId;
    std::uint32_t colId;
    std::int64_t pos;
};

/** Per-thread reusable buffers for one in-flight attention query. */
struct Scratch
{
    /** Softmax workspace over the kept-row subset (length m). */
    std::vector<float> sub;

    /** Candidate dot-product scores (length = candidate count). */
    std::vector<float> candScores;

    /** Candidate row ids, or the full-row iota for exact flows. */
    std::vector<std::uint32_t> rowIds;

    /** Post-scoring survivors. */
    std::vector<std::uint32_t> kept;

    /** Greedy accumulator per row (length n, double precision). */
    std::vector<double> greedy;

    /** Max-side priority heap of the efficient greedy search. */
    std::vector<GreedyHeapEntry> maxHeap;

    /** Min-side priority heap. */
    std::vector<GreedyHeapEntry> minHeap;

    /** Quantized query lane (length d). */
    std::vector<std::int64_t> queryQ;

    /** Packed-path query lane: the same quantized words as int8. */
    std::vector<std::int8_t> queryQ8;

    /** int16-lane query: the same quantized words as int16. */
    std::vector<std::int16_t> queryQ16;

    /** Quantized dot-product lane (length = row count). */
    std::vector<std::int64_t> dotQ;

    /** Packed-kernel dot accumulators (length = row count). */
    std::vector<std::int32_t> dotQ32;

    /** Quantized exponent-score lane (length = row count). */
    std::vector<std::int64_t> scoreQ;

    /** Quantized output accumulators (length d). */
    std::vector<std::int64_t> outQ;

    /**
     * Grow every buffer to the capacity an (n x d) task can need, so
     * later runInto() calls on this thread never reallocate. Called by
     * backends at bind time for the binding thread, and by the
     * engine on each lane before it runs a work unit.
     */
    void reserveTask(std::size_t rows, std::size_t dims);

    /**
     * The calling thread's arena. Thread-local: the engine's pool
     * threads each own one, which lives as long as the thread.
     */
    static Scratch &forThread();
};

}  // namespace a3

#endif  // A3_KERNELS_SCRATCH_HPP
