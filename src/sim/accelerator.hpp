/**
 * @file
 * Top-level A3 device model.
 *
 * Usage mirrors the paper's offloading mechanism (Section III-C): the
 * host copies a key matrix and a value matrix into the device SRAM at
 * comprehension time (loadTask), then submits query vectors which are
 * buffered in the query queue. The cycle loop moves queries through the
 * stage latches — candidate selection (approx mode only), dot product,
 * exponent (+ fused post-scoring), output — and completed outputs land
 * in the output queue with full timing records.
 *
 * Functional data comes from the bit-accurate fixed-point backend
 * makeBackend() binds (ExactQuantized in base mode, ApproxQuantized in
 * approx mode), so a simulated run returns the very vectors the RTL
 * would produce, plus per-stage activity for the Figure 15 energy
 * model.
 */

#ifndef A3_SIM_ACCELERATOR_HPP
#define A3_SIM_ACCELERATOR_HPP

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "attention/backend.hpp"
#include "sim/dram.hpp"
#include "sim/modules.hpp"
#include "sim/sram.hpp"
#include "sim/types.hpp"

namespace a3 {

/** Aggregate performance counters of one simulated run. */
struct RunStats
{
    /** Cycle the simulation stopped at (all queries drained). */
    Cycle totalCycles = 0;

    /** Number of completed queries. */
    std::uint64_t queries = 0;

    /** Mean pipeline latency per query in cycles (queueing excluded,
     * matching the paper's per-operation latency). */
    double avgLatency = 0.0;

    /** Mean candidates C per query (== n in base mode). */
    double avgCandidates = 0.0;

    /** Mean post-scoring survivors K per query. */
    double avgKept = 0.0;

    /** Sustained throughput in queries per second at the sim clock. */
    double queriesPerSecond = 0.0;

    /** Cycles between the first and last query completion, per query. */
    double cyclesPerQuery = 0.0;
};

/** One simulated A3 unit. */
class A3Accelerator
{
  public:
    explicit A3Accelerator(SimConfig config);

    /**
     * Copy a task's matrices into the device SRAM, preprocessing
     * (column sort) included in approx mode. Models comprehension-time
     * work; not charged to query latency (Section III-C).
     */
    void loadTask(const Matrix &key, const Matrix &value);

    /** Enqueue one query at the current cycle. */
    void submitQuery(const Vector &query);

    /** Advance one clock cycle. */
    void tick();

    /** Run until every submitted query has completed. */
    void drain();

    /** Pop the oldest completed query, if any. */
    std::optional<QueryJob> popOutput();

    /** Summarize timing over every query completed so far. */
    RunStats stats() const;

    /** Convenience: submit all queries, drain, and summarize. */
    RunStats runAll(const std::vector<Vector> &queries);

    const SimConfig &config() const { return config_; }
    Cycle now() const { return now_; }

    /** Completed outputs waiting in the output queue. */
    std::size_t pendingOutputs() const { return outputQueue_.size(); }

    /** Queries submitted but not yet completed. */
    std::uint64_t inFlight() const { return inFlight_; }

    const Sram &keySram() const { return keySram_; }
    const Sram &valueSram() const { return valueSram_; }
    const Sram &sortedKeySram() const { return sortedKeySram_; }

    /** DRAM spill model (Section III-C); idle unless rows > maxRows. */
    const DramModel &dram() const { return dram_; }

    /** Stage activity, in pipeline order (candidate stage only in
     * approx mode). */
    std::vector<const Stage *> stages() const;

  private:
    /** Resolve functional results and work sizes for a query. */
    std::unique_ptr<QueryJob> makeJob(const Vector &query);

    /** Try to move completed jobs downstream; returns true if moved. */
    void advancePipeline();

    SimConfig config_;
    Cycle now_ = 0;
    std::uint64_t nextId_ = 0;

    Sram keySram_;
    Sram valueSram_;
    Sram sortedKeySram_;
    DramModel dram_;

    std::unique_ptr<CandidateSelectionStage> candidateStage_;
    std::unique_ptr<DotProductStage> dotStage_;
    std::unique_ptr<ExponentStage> exponentStage_;
    std::unique_ptr<OutputStage> outputStage_;

    std::deque<std::unique_ptr<QueryJob>> queryQueue_;
    std::deque<QueryJob> outputQueue_;
    std::vector<QueryJob> completed_;

    /** The loaded task, bound into the mode's quantized backend. */
    std::unique_ptr<AttentionBackend> backend_;
    std::uint64_t inFlight_ = 0;
};

}  // namespace a3

#endif  // A3_SIM_ACCELERATOR_HPP
