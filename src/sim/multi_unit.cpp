#include "sim/multi_unit.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace a3 {

A3Cluster::A3Cluster(const SimConfig &config, std::size_t units)
{
    a3Assert(units >= 1, "cluster needs at least one unit");
    units_.reserve(units);
    for (std::size_t u = 0; u < units; ++u)
        units_.push_back(std::make_unique<A3Accelerator>(config));
}

void
A3Cluster::loadTask(const Matrix &key, const Matrix &value)
{
    for (auto &unit : units_)
        unit->loadTask(key, value);
}

void
A3Cluster::loadTasks(
    const std::vector<std::pair<Matrix, Matrix>> &tasks)
{
    a3Assert(tasks.size() == units_.size(),
             "need exactly one task per unit: ", tasks.size(), " vs ",
             units_.size());
    for (std::size_t u = 0; u < units_.size(); ++u)
        units_[u]->loadTask(tasks[u].first, tasks[u].second);
}

const A3Accelerator &
A3Cluster::unit(std::size_t index) const
{
    a3Assert(index < units_.size(), "unit index out of range");
    return *units_[index];
}

std::optional<QueryJob>
A3Cluster::popOutput(std::size_t index)
{
    a3Assert(index < units_.size(), "unit index out of range");
    return units_[index]->popOutput();
}

ClusterStats
A3Cluster::runAll(const std::vector<Vector> &queries)
{
    // Least-loaded dispatch; with identical units this is round-robin
    // but stays balanced if callers interleave runAll() invocations.
    std::vector<std::size_t> assigned(units_.size(), 0);
    std::vector<std::vector<Vector>> perUnit(units_.size());
    for (const Vector &q : queries) {
        const std::size_t target = static_cast<std::size_t>(
            std::min_element(assigned.begin(), assigned.end()) -
            assigned.begin());
        perUnit[target].push_back(q);
        ++assigned[target];
    }
    return runPerUnit(perUnit);
}

ClusterStats
A3Cluster::runPerUnit(
    const std::vector<std::vector<Vector>> &perUnit)
{
    a3Assert(perUnit.size() == units_.size(),
             "need one query list per unit: ", perUnit.size(), " vs ",
             units_.size());

    ClusterStats stats;
    stats.perUnitQueries.resize(units_.size(), 0);
    double latencyWeighted = 0.0;
    for (std::size_t u = 0; u < units_.size(); ++u) {
        if (perUnit[u].empty())
            continue;
        const RunStats unitStats = units_[u]->runAll(perUnit[u]);
        stats.makespan = std::max(stats.makespan,
                                  unitStats.totalCycles);
        stats.queries += unitStats.queries;
        stats.perUnitQueries[u] = unitStats.queries;
        latencyWeighted += unitStats.avgLatency *
                           static_cast<double>(unitStats.queries);
    }
    a3Assert(stats.queries > 0, "cluster run completed no queries");
    stats.avgLatency =
        latencyWeighted / static_cast<double>(stats.queries);
    const double seconds =
        static_cast<double>(stats.makespan) /
        (units_[0]->config().clockGhz * 1e9);
    stats.queriesPerSecond =
        seconds > 0.0 ? static_cast<double>(stats.queries) / seconds
                      : 0.0;
    return stats;
}

}  // namespace a3
