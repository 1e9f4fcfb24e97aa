#include "sim/accelerator.hpp"

#include <algorithm>

#include "fixed/pipeline_formats.hpp"
#include "util/logging.hpp"

namespace a3 {

namespace {

/** Bytes of one quantized matrix element ((i + f + 1)-bit word). */
std::size_t
elementBytes(const SimConfig &config)
{
    return (static_cast<std::size_t>(config.intBits) +
            static_cast<std::size_t>(config.fracBits) + 1 + 7) / 8;
}

/** Bytes of one sorted-key entry: element plus its row id. */
std::size_t
sortedEntryBytes(const SimConfig &config)
{
    const std::size_t idBytes =
        (static_cast<std::size_t>(ceilLog2(config.maxRows)) + 7) / 8;
    return elementBytes(config) + std::max<std::size_t>(idBytes, 1);
}

}  // namespace

A3Accelerator::A3Accelerator(SimConfig config)
    : config_(config),
      keySram_("key_matrix",
               config_.maxRows * config_.dims * elementBytes(config_),
               config_.dims * elementBytes(config_)),
      valueSram_("value_matrix",
                 config_.maxRows * config_.dims * elementBytes(config_),
                 config_.dims * elementBytes(config_)),
      sortedKeySram_("sorted_key_matrix",
                     config_.maxRows * config_.dims *
                         sortedEntryBytes(config_),
                     sortedEntryBytes(config_)),
      dram_(config.dramLatency, config.dramRowInterval)
{
    a3Assert(config_.maxRows > 0 && config_.dims > 0,
             "accelerator sized with empty dimensions");
    if (config_.mode == A3Mode::Approx) {
        candidateStage_ = std::make_unique<CandidateSelectionStage>(
            config_, &sortedKeySram_);
    }
    dotStage_ = std::make_unique<DotProductStage>(config_, &keySram_,
                                                  &dram_);
    exponentStage_ = std::make_unique<ExponentStage>(config_);
    outputStage_ = std::make_unique<OutputStage>(config_, &valueSram_,
                                                 &dram_);
}

void
A3Accelerator::loadTask(const Matrix &key, const Matrix &value)
{
    const std::size_t rowCapacity =
        config_.maxRows +
        (config_.allowDramSpill && config_.mode == A3Mode::Base
             ? config_.maxDramRows
             : 0);
    a3Assert(key.rows() <= rowCapacity,
             "task rows ", key.rows(), " exceed capacity ",
             rowCapacity,
             config_.mode == A3Mode::Approx
                 ? " (the sorted key must stay on chip, so approx "
                   "mode cannot spill to DRAM)"
                 : "");
    a3Assert(key.cols() == config_.dims,
             "task dimension ", key.cols(), " != datapath width ",
             config_.dims);
    a3Assert(inFlight_ == 0 && queryQueue_.empty(),
             "cannot reload the task while queries are in flight");

    EngineConfig engine;
    engine.kind = config_.mode == A3Mode::Approx
                      ? EngineKind::ApproxQuantized
                      : EngineKind::ExactQuantized;
    engine.approx = config_.approx;
    engine.intBits = config_.intBits;
    engine.fracBits = config_.fracBits;
    backend_ = makeBackend(engine, key, value);

    // Matrices stream in one row per cycle at comprehension time; the
    // first maxRows rows land in SRAM, the remainder stays in DRAM.
    const std::size_t sramRows =
        std::min(key.rows(), config_.maxRows);
    const std::size_t bytes =
        sramRows * key.cols() * elementBytes(config_);
    keySram_.fill(bytes, sramRows);
    valueSram_.fill(bytes, sramRows);
    if (config_.mode == A3Mode::Approx) {
        sortedKeySram_.fill(
            key.rows() * key.cols() * sortedEntryBytes(config_),
            key.rows());
    }
}

std::unique_ptr<QueryJob>
A3Accelerator::makeJob(const Vector &query)
{
    a3Assert(backend_ != nullptr, "submitQuery before loadTask");
    a3Assert(query.size() == config_.dims,
             "query dimension ", query.size(), " != datapath width ",
             config_.dims);
    const std::size_t n = backend_->rows();

    auto job = std::make_unique<QueryJob>();
    job->id = nextId_++;
    job->query = query;
    job->taskRows = n;
    job->dramRows = n > config_.maxRows ? n - config_.maxRows : 0;
    job->submitCycle = now_;

    // The backend runs the whole functional flow (approx mode: greedy
    // selection, the candidate pass, post-scoring on its fixed-point
    // scores, and the pass over the K survivors); the stages only
    // need its work sizes.
    backend_->runInto(query, job->result);
    job->iterM = job->result.iterations;
    job->candidatesC = job->result.candidates.size();
    job->keptK = job->result.kept.size();
    return job;
}

void
A3Accelerator::submitQuery(const Vector &query)
{
    queryQueue_.push_back(makeJob(query));
    ++inFlight_;
}

void
A3Accelerator::advancePipeline()
{
    // Downstream first, so a latch freed this cycle can accept a new
    // query in the same cycle (fully pipelined handoff).
    if (outputStage_->done(now_)) {
        QueryJob finished = std::move(*outputStage_->release(now_));
        finished.finishCycle = now_;
        completed_.push_back(finished);
        outputQueue_.push_back(std::move(finished));
        --inFlight_;
    }
    if (exponentStage_->done(now_) && outputStage_->idle())
        outputStage_->accept(exponentStage_->release(now_), now_);
    if (dotStage_->done(now_) && exponentStage_->idle())
        exponentStage_->accept(dotStage_->release(now_), now_);

    Stage *head = dotStage_.get();
    if (candidateStage_) {
        if (candidateStage_->done(now_) && dotStage_->idle())
            dotStage_->accept(candidateStage_->release(now_), now_);
        head = candidateStage_.get();
    }
    if (!queryQueue_.empty() && head->idle()) {
        auto job = std::move(queryQueue_.front());
        queryQueue_.pop_front();
        job->startCycle = now_;
        head->accept(std::move(job), now_);
    }
}

void
A3Accelerator::tick()
{
    advancePipeline();
    ++now_;
}

void
A3Accelerator::drain()
{
    while (inFlight_ > 0)
        tick();
    // Undo the final increment past the last completion so totalCycles
    // reflects the cycle the last output was produced.
    if (now_ > 0)
        --now_;
}

std::optional<QueryJob>
A3Accelerator::popOutput()
{
    if (outputQueue_.empty())
        return std::nullopt;
    QueryJob front = std::move(outputQueue_.front());
    outputQueue_.pop_front();
    return front;
}

RunStats
A3Accelerator::stats() const
{
    RunStats s;
    s.totalCycles = now_;
    s.queries = completed_.size();
    if (completed_.empty())
        return s;
    double latencySum = 0.0;
    double candSum = 0.0;
    double keptSum = 0.0;
    for (const QueryJob &job : completed_) {
        latencySum += static_cast<double>(job.pipelineLatency());
        candSum += static_cast<double>(job.candidatesC);
        keptSum += static_cast<double>(job.keptK);
    }
    const auto count = static_cast<double>(completed_.size());
    s.avgLatency = latencySum / count;
    s.avgCandidates = candSum / count;
    s.avgKept = keptSum / count;
    const double seconds = static_cast<double>(now_) /
                           (config_.clockGhz * 1e9);
    s.queriesPerSecond = seconds > 0.0 ? count / seconds : 0.0;
    if (completed_.size() > 1) {
        const Cycle first = completed_.front().finishCycle;
        const Cycle last = completed_.back().finishCycle;
        s.cyclesPerQuery =
            static_cast<double>(last - first) / (count - 1.0);
    } else {
        s.cyclesPerQuery = static_cast<double>(now_);
    }
    return s;
}

RunStats
A3Accelerator::runAll(const std::vector<Vector> &queries)
{
    for (const Vector &q : queries)
        submitQuery(q);
    drain();
    return stats();
}

std::vector<const Stage *>
A3Accelerator::stages() const
{
    std::vector<const Stage *> out;
    if (candidateStage_)
        out.push_back(candidateStage_.get());
    out.push_back(dotStage_.get());
    out.push_back(exponentStage_.get());
    out.push_back(outputStage_.get());
    return out;
}

}  // namespace a3
