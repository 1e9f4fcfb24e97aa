#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <utility>

#include "kernels/scratch.hpp"
#include "util/logging.hpp"

namespace a3 {

namespace {

/**
 * One borrowed group of a flattened pass: the backend, its queries,
 * and the result slots they answer into. runInto() and
 * runGroupsInto() both reduce to a span of these, so the single-
 * backend and multi-group entry points share one execution core.
 */
struct GroupView
{
    const AttentionBackend *backend = nullptr;
    const std::vector<Vector> *queries = nullptr;
    std::vector<AttentionResult> *results = nullptr;
};

/**
 * The flattened execution core: decompose every (group, query) into
 * the backend's work units (workUnitCount() — one per shard for a
 * sharded backend, one total for a plain one), run all units of the
 * whole batch on one work list, and have the lane that finishes a
 * query's last unit merge its partials serially in unit order
 * (mergeUnitsInto). Single-unit queries take the backend's exact
 * runInto() path, so bit-identity with sequential run() calls is
 * preserved for every kind — including the quantized backends, whose
 * partial roundtrip is only ULP-bounded. No backend ever borrows a
 * nested pool: shard partials from many queries share these lanes.
 */
void
runFlattened(const ThreadPool &pool,
             const std::vector<GroupView> &views,
             const GroupCompletionHook &onGroupDone)
{
    struct WorkUnit
    {
        std::uint32_t group;
        std::uint32_t query;
        std::uint32_t unit;
    };

    std::size_t maxQueries = 0;
    std::size_t totalUnits = 0;
    std::vector<std::size_t> unitCount(views.size());
    /** Flat query index: queryBase[g] + q addresses the partial
     *  slots and unit countdown of (g, q). */
    std::vector<std::size_t> queryBase(views.size() + 1, 0);
    for (std::size_t g = 0; g < views.size(); ++g) {
        const GroupView &view = views[g];
        a3Assert(view.backend != nullptr,
                 "request group ", g, " has no backend");
        view.results->resize(view.queries->size());
        unitCount[g] = view.backend->workUnitCount();
        a3Assert(unitCount[g] > 0,
                 "backend of group ", g, " reports zero work units");
        maxQueries = std::max(maxQueries, view.queries->size());
        totalUnits += unitCount[g] * view.queries->size();
        queryBase[g + 1] = queryBase[g] + view.queries->size();
    }

    // Round-robin batch formation at query granularity: every unit
    // of query q of every group lands in the list before query q+1
    // of any, so a huge group cannot monopolize the first lanes and
    // every group's per-query cost is spread evenly across the pass.
    // Units of one query stay adjacent, keeping a query's shard
    // passes temporally close (their merge runs as soon as the last
    // one lands). The interleave only reorders which lane picks up
    // which unit — the merge order is fixed — so results are
    // bit-identical to any other order.
    std::vector<WorkUnit> work;
    work.reserve(totalUnits);
    for (std::size_t q = 0; q < maxQueries; ++q)
        for (std::size_t g = 0; g < views.size(); ++g)
            if (q < views[g].queries->size())
                for (std::size_t u = 0; u < unitCount[g]; ++u)
                    work.push_back({static_cast<std::uint32_t>(g),
                                    static_cast<std::uint32_t>(q),
                                    static_cast<std::uint32_t>(u)});

    // Per-query partial slots and unit countdowns, only materialized
    // for multi-unit groups; the lane that takes a query's counter
    // to zero saw every other lane's partial (acq_rel) and owns the
    // serial merge.
    const std::size_t totalQueries = queryBase.back();
    std::vector<std::vector<PartialResult>> partials(totalQueries);
    std::vector<std::atomic<std::size_t>> unitsLeft(totalQueries);
    for (std::size_t g = 0; g < views.size(); ++g) {
        if (unitCount[g] == 1)
            continue;
        for (std::size_t q = 0; q < views[g].queries->size(); ++q) {
            const std::size_t f = queryBase[g] + q;
            partials[f].resize(unitCount[g]);
            unitsLeft[f].store(unitCount[g],
                               std::memory_order_relaxed);
        }
    }

    // Per-group countdowns for the completion hook: the lane that
    // takes a group's counter to zero finished its last query and
    // owns the single report for that group.
    std::vector<std::atomic<std::size_t>> remaining(
        onGroupDone ? views.size() : 0);
    for (std::size_t g = 0; g < remaining.size(); ++g)
        remaining[g].store(views[g].queries->size(),
                           std::memory_order_relaxed);
    const auto passStart = std::chrono::steady_clock::now();

    pool.parallelFor(work.size(), [&](std::size_t i) {
        const WorkUnit &item = work[i];
        const GroupView &view = views[item.group];
        const Vector &query = (*view.queries)[item.query];
        AttentionResult &slot = (*view.results)[item.query];
        // Size this lane's arena for the whole task before the unit
        // runs, so a lane allocates on its first unit of a task and
        // never again, whatever candidate sets later units meet.
        Scratch::forThread().reserveTask(view.backend->rows(),
                                         view.backend->dims());
        if (unitCount[item.group] == 1) {
            // The backend's exact sequential path — required for the
            // single-unit bit-identity guarantee.
            view.backend->runInto(query, slot);
        } else {
            const std::size_t f = queryBase[item.group] + item.query;
            view.backend->runUnitPartialInto(item.unit, query,
                                             partials[f][item.unit]);
            if (unitsLeft[f].fetch_sub(
                    1, std::memory_order_acq_rel) != 1)
                return;
            view.backend->mergeUnitsInto(partials[f], slot);
        }
        if (onGroupDone &&
            remaining[item.group].fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - passStart;
            onGroupDone(item.group, elapsed.count());
        }
    });
}

}  // namespace

AttentionEngine::AttentionEngine(std::size_t threads) : pool_(threads)
{
}

AttentionEngine &
AttentionEngine::shared()
{
    static AttentionEngine engine;
    return engine;
}

std::vector<AttentionResult>
AttentionEngine::run(const AttentionBackend &backend,
                     const std::vector<Vector> &queries) const
{
    std::vector<AttentionResult> results;
    runInto(backend, queries, results);
    return results;
}

void
AttentionEngine::runInto(const AttentionBackend &backend,
                         const std::vector<Vector> &queries,
                         std::vector<AttentionResult> &results) const
{
    results.resize(queries.size());
    if (backend.workUnitCount() == 1) {
        // Single-unit fast path: one query per pool job, no work
        // list. One-pointer capture so the closure fits
        // std::function's small-object buffer; each lane writes only
        // its own slot through its own thread-local Scratch arena.
        // With a reused `results` vector the whole batch is
        // allocation-free in steady state.
        struct Ctx
        {
            const AttentionBackend *backend;
            const std::vector<Vector> *queries;
            std::vector<AttentionResult> *results;
        } ctx{&backend, &queries, &results};
        pool_.parallelFor(queries.size(), [&ctx](std::size_t i) {
            Scratch::forThread().reserveTask(ctx.backend->rows(),
                                             ctx.backend->dims());
            ctx.backend->runInto((*ctx.queries)[i], (*ctx.results)[i]);
        });
        return;
    }
    // Multi-unit backend (a sharded session): flatten every (query,
    // shard) unit of the batch into one work list so shard partials
    // from all the queries share the pool lanes.
    const std::vector<GroupView> views{{&backend, &queries, &results}};
    runFlattened(pool_, views, GroupCompletionHook());
}

std::vector<std::vector<AttentionResult>>
AttentionEngine::runGroups(
    const std::vector<AttentionRequestGroup> &groups) const
{
    std::vector<std::vector<AttentionResult>> results;
    runGroupsInto(groups, results);
    return results;
}

void
AttentionEngine::runGroupsInto(
    const std::vector<AttentionRequestGroup> &groups,
    std::vector<std::vector<AttentionResult>> &results) const
{
    runGroupsInto(groups, results, GroupCompletionHook());
}

void
AttentionEngine::runGroupsInto(
    const std::vector<AttentionRequestGroup> &groups,
    std::vector<std::vector<AttentionResult>> &results,
    const GroupCompletionHook &onGroupDone) const
{
    results.resize(groups.size());
    std::vector<GroupView> views(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g)
        views[g] = {groups[g].backend, &groups[g].queries,
                    &results[g]};
    runFlattened(pool_, views, onGroupDone);
}

SelfAttentionResult
AttentionEngine::selfAttention(const Matrix &key, const Matrix &value,
                               const Matrix &queries,
                               const ApproxConfig &config) const
{
    a3Assert(queries.cols() == key.cols(),
             "query width must match the key dimension");
    // One preprocessing pass (the column sort of Section IV-A) shared
    // by every token query.
    const ApproxAttention backend(key, value, config);

    const std::size_t tokens = queries.rows();
    std::vector<Vector> perToken(tokens);
    for (std::size_t t = 0; t < tokens; ++t)
        perToken[t].assign(queries.row(t).begin(),
                           queries.row(t).end());
    std::vector<AttentionResult> batched = run(backend, perToken);

    SelfAttentionResult result;
    result.outputs = Matrix(tokens, key.cols());
    result.perToken.reserve(tokens);
    double candSum = 0.0;
    double keptSum = 0.0;
    for (std::size_t t = 0; t < tokens; ++t) {
        AttentionResult &r = batched[t];
        for (std::size_t j = 0; j < key.cols(); ++j)
            result.outputs(t, j) = r.output[j];
        candSum += static_cast<double>(r.candidates.size());
        keptSum += static_cast<double>(r.kept.size());
        result.perToken.push_back(std::move(r));
    }
    if (tokens > 0) {
        result.avgCandidates = candSum / static_cast<double>(tokens);
        result.avgKept = keptSum / static_cast<double>(tokens);
    }
    return result;
}

std::vector<MultiHopResult>
AttentionEngine::runMultiHop(const MultiHopAttention &attention,
                             const std::vector<Vector> &queries) const
{
    std::vector<MultiHopResult> results(queries.size());
    pool_.parallelFor(queries.size(), [&](std::size_t i) {
        results[i] = attention.run(queries[i]);
    });
    return results;
}

}  // namespace a3
