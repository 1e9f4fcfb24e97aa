/**
 * @file
 * Multiple A3 units (Section III-C, "Use of Multiple A3 Units").
 *
 * Two deployment patterns from the paper:
 *  - independent tasks: each unit holds its own key/value matrices
 *    (different attention heads, different stories);
 *  - shared task: several units replicate the same key/value matrices
 *    and split one query stream to multiply throughput — the
 *    configuration the paper invokes when arguing 6-7 conservative
 *    units overtake the Titan V on BERT.
 *
 * This model implements the shared-task pattern: queries are
 * dispatched to the least-loaded unit (ties to the lowest unit id),
 * every unit runs its own cycle-accurate pipeline, and the aggregate
 * statistics describe the cluster.
 */

#ifndef A3_SIM_MULTI_UNIT_HPP
#define A3_SIM_MULTI_UNIT_HPP

#include <memory>
#include <optional>
#include <vector>

#include "sim/accelerator.hpp"

namespace a3 {

/** Aggregate statistics of a multi-unit run. */
struct ClusterStats
{
    /** Cycles until the last unit drained. */
    Cycle makespan = 0;

    /** Total queries completed across units. */
    std::uint64_t queries = 0;

    /** Aggregate throughput in queries/second at the sim clock. */
    double queriesPerSecond = 0.0;

    /** Mean pipeline latency across all queries, cycles. */
    double avgLatency = 0.0;

    /** Completed queries per unit (dispatch balance check). Use
     * clusterEnergy() in energy/power_model.hpp for joules. */
    std::vector<std::uint64_t> perUnitQueries;
};

/** A cluster of identical A3 units replicating one task. */
class A3Cluster
{
  public:
    /**
     * @param config per-unit configuration.
     * @param units number of replicas (>= 1).
     */
    A3Cluster(const SimConfig &config, std::size_t units);

    /** Load the same task into every unit (shared-task pattern). */
    void loadTask(const Matrix &key, const Matrix &value);

    /**
     * Independent-task pattern: give each unit its own key/value pair
     * (e.g. one attention head per unit). `tasks.size()` must equal
     * units().
     */
    void loadTasks(
        const std::vector<std::pair<Matrix, Matrix>> &tasks);

    /**
     * Dispatch each query to the unit with the fewest assigned
     * queries so far, run all units to completion, and aggregate.
     */
    ClusterStats runAll(const std::vector<Vector> &queries);

    /**
     * Independent-task companion to loadTasks(): unit u answers
     * `perUnitQueries[u]` against its own matrices; all units run
     * concurrently and the aggregate is returned.
     */
    ClusterStats runPerUnit(
        const std::vector<std::vector<Vector>> &perUnitQueries);

    std::size_t units() const { return units_.size(); }
    const A3Accelerator &unit(std::size_t index) const;

    /** Pop the oldest completed query of unit `index`, if any. */
    std::optional<QueryJob> popOutput(std::size_t index);

  private:
    std::vector<std::unique_ptr<A3Accelerator>> units_;
};

}  // namespace a3

#endif  // A3_SIM_MULTI_UNIT_HPP
