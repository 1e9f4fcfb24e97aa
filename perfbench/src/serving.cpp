#include <filesystem>
#include <unordered_map>

#include "checks.hpp"
#include "families.hpp"
#include "serving/batch_scheduler.hpp"
#include "serving/session_cache.hpp"
#include "serving/shard_store.hpp"
#include "trace/replay.hpp"

namespace pb {

namespace {

/** What one replay measured. */
struct ReplayStats
{
    double wall = 0.0;
    double bindWall = 0.0;
    std::size_t bindRows = 0;
    /** Wall ns per row of each append that landed. */
    std::vector<double> appendNsPerRow;
    std::size_t chargedBytes = 0;
    std::uint64_t queries = 0;
    std::uint64_t served = 0;
    std::uint64_t failed = 0;
    std::uint64_t expectedAcquires = 0;
    a3::SessionCacheStats cache;
    a3::BatchSchedulerStats scheduler;
    a3::ShardStoreStats store;
    std::size_t cacheBytesInUse = 0;
    std::size_t spillBytes = 0;
};

/** One served query of the latest replay, kept for checking. */
struct Served
{
    std::uint32_t session = 0;
    std::uint64_t contentSeed = 0;
    std::size_t rows = 0;
    std::size_t query = 0;
    AttentionResult result;
};

/** Queries submitted between drains, and the scheduler's batch cap. */
constexpr std::size_t kDrainEvery = 16;
constexpr std::size_t kMaxBatch = 32;

std::uint64_t
splitMix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

}  // namespace

struct ServingFamily::Impl
{
    const WorkloadParams &params;
    SpanLog &spans;
    std::string spillDir;
    std::string probeDir;
    a3::Trace trace;
    double generateSeconds = 0.0;
    a3::AttentionEngine engine{2};
    a3::EngineConfig engineConfig;

    struct Content
    {
        Matrix key;
        Matrix value;
    };
    std::unordered_map<std::uint64_t, Content> content;
    std::vector<std::string> sessionIds;
    std::vector<Vector> queries;
    std::vector<std::size_t> queryOfEvent;

    std::vector<Served> served;
    std::vector<std::string> invariantFailures;
    std::uint64_t failed = 0;
    std::uint64_t replays = 0;
    /** Self-test: lose one completion of the next drain. */
    bool dropCompletion = false;

    /** Sums over traced replays, for the layer metrics. */
    std::uint64_t tracedReplays = 0;
    ReplayStats tracedTotals;

    Impl(const WorkloadParams &p, std::uint64_t seed,
         const std::string &workDir, SpanLog &s)
        : params(p), spans(s), spillDir(workDir + "/spill"),
          probeDir(workDir + "/spill-probe")
    {
        engineConfig.kind = a3::EngineKind::ExactFloat;
        // The trace's shape (sessions, sizes, arrivals) is fixed per
        // workload so every seed serves the same mix; the seed draws
        // the content and query tensors. Sessions sharing a document
        // keep sharing its content.
        const double t0 = now();
        trace = a3::generateTrace(params.trace);
        generateSeconds = now() - t0;
        const std::uint64_t salt = splitMix(seed);
        for (a3::TraceEvent &ev : trace.events)
            ev.payloadSeed = splitMix(ev.payloadSeed ^ salt);

        // Content per content seed at the largest size any session
        // grows it to; sessions present row prefixes of it, as
        // clients sending their context would.
        std::vector<std::uint64_t> seedOf(trace.sessionCount, 0);
        std::vector<std::size_t> rowsOf(trace.sessionCount, 0);
        std::unordered_map<std::uint64_t, std::size_t> maxRows;
        queryOfEvent.assign(trace.events.size(), 0);
        for (std::size_t i = 0; i < trace.events.size(); ++i) {
            const a3::TraceEvent &ev = trace.events[i];
            switch (ev.kind) {
            case a3::TraceEventKind::Bind:
                seedOf[ev.session] = ev.payloadSeed;
                rowsOf[ev.session] = ev.rows;
                break;
            case a3::TraceEventKind::Append:
                rowsOf[ev.session] += ev.rows;
                break;
            case a3::TraceEventKind::Query:
                queryOfEvent[i] = queries.size();
                queries.push_back(
                    a3::traceQueryVector(ev.payloadSeed, params.dims));
                break;
            }
            if (ev.kind != a3::TraceEventKind::Query) {
                std::size_t &m = maxRows[seedOf[ev.session]];
                m = std::max(m, rowsOf[ev.session]);
            }
        }
        for (const auto &[contentSeed, rows] : maxRows)
            content[contentSeed] = {
                a3::traceContentMatrix(contentSeed, rows, params.dims),
                a3::traceValueMatrix(contentSeed, rows, params.dims)};
        for (std::uint32_t s = 0; s < trace.sessionCount; ++s)
            sessionIds.push_back(std::string("s").append(std::to_string(s)));
    }

    ReplayStats replay()
    {
        std::filesystem::remove_all(spillDir);
        std::filesystem::create_directories(spillDir);
        served.clear();
        const bool traced = spans.enabled();
        const std::uint64_t request = ++replays;

        ReplayStats st;
        a3::ShardStoreConfig storeConfig;
        storeConfig.spillDir = spillDir;
        a3::ShardStore store(storeConfig);
        a3::SessionCacheConfig cacheConfig;
        cacheConfig.byteBudget = params.cacheBudgetBytes;
        cacheConfig.engine = engineConfig;
        cacheConfig.shardRows = params.shardRows;
        cacheConfig.store = &store;
        a3::SessionCache cache(cacheConfig);
        a3::BatchScheduler scheduler(engine, cache, kMaxBatch,
                                     a3::AdmissionPolicy{});

        struct Runtime
        {
            a3::SessionHandle handle;
            std::uint64_t seed = 0;
            std::size_t rows = 0;
        };
        std::vector<Runtime> rt(trace.sessionCount);
        struct Inflight
        {
            std::uint32_t session = 0;
            std::size_t query = 0;
        };
        std::unordered_map<std::uint64_t, Inflight> inflight;

        SpanLog::Scope replaySpan(spans, "serving.replay", request);
        const double t0 = now();

        auto bind = [&](std::uint32_t s) {
            const Content &c = content.at(rt[s].seed);
            Matrix key = c.key.rowSlice(0, rt[s].rows);
            Matrix value = c.value.rowSlice(0, rt[s].rows);
            const double b0 = now();
            a3::BindOutcome outcome;
            {
                SpanLog::Scope span(spans, "serving.session_cache.bind",
                                    request);
                outcome = cache.bindSession(sessionIds[s], std::move(key),
                                            std::move(value));
            }
            st.bindWall += now() - b0;
            if (outcome.status != a3::BindStatus::AlreadyBound) {
                st.bindRows += rt[s].rows;
                st.chargedBytes += outcome.chargedBytes;
                st.expectedAcquires += rt[s].rows / params.shardRows;
            }
            rt[s].handle = outcome.handle;
        };
        auto ensureBound = [&](std::uint32_t s) {
            if (rt[s].handle.backend() != nullptr)
                return;
            {
                SpanLog::Scope span(
                    spans, "serving.session_cache.lookup", request);
                rt[s].handle = cache.lookupSession(sessionIds[s]);
            }
            if (rt[s].handle.backend() == nullptr)
                bind(s);
        };
        auto drainOnce = [&] {
            std::vector<a3::ServingResult> done;
            {
                SpanLog::Scope span(
                    spans, "serving.batch_scheduler.drain", request);
                done = scheduler.drain();
            }
            if (dropCompletion && !done.empty()) {
                done.pop_back();
                dropCompletion = false;
            }
            for (a3::ServingResult &r : done) {
                const auto it = inflight.find(r.ticket);
                if (it == inflight.end()) {
                    invariantFailures.push_back(
                        "completion for an unknown or already served "
                        "ticket");
                    continue;
                }
                const Inflight info = it->second;
                inflight.erase(it);
                if (!r.ok()) {
                    if (r.error != a3::ServingError::SessionUnbound) {
                        ++st.failed;
                        continue;
                    }
                    // Evicted while queued: re-bind and answer
                    // directly against the fresh backend.
                    ensureBound(info.session);
                    rt[info.session].handle.backend()->runInto(
                        queries[info.query], r.result);
                }
                ++st.served;
                served.push_back({info.session, rt[info.session].seed,
                                  rt[info.session].rows, info.query,
                                  std::move(r.result)});
            }
        };

        std::size_t sinceDrain = 0;
        for (std::size_t i = 0; i < trace.events.size(); ++i) {
            const a3::TraceEvent &ev = trace.events[i];
            Runtime &session = rt[ev.session];
            switch (ev.kind) {
            case a3::TraceEventKind::Bind:
                session.seed = ev.payloadSeed;
                session.rows = ev.rows;
                session.handle = {};
                bind(ev.session);
                break;
            case a3::TraceEventKind::Append: {
                ensureBound(ev.session);
                const Content &c = content.at(session.seed);
                const Matrix keyRows =
                    c.key.rowSlice(session.rows, ev.rows);
                const Matrix valueRows =
                    c.value.rowSlice(session.rows, ev.rows);
                const double a0 = now();
                a3::AppendOutcome outcome;
                {
                    SpanLog::Scope span(
                        spans, "serving.session_cache.append", request);
                    outcome = cache.appendSession(session.handle,
                                                  keyRows, valueRows);
                }
                session.rows += ev.rows;
                if (outcome.ok()) {
                    st.appendNsPerRow.push_back((now() - a0) * 1e9 /
                                                ev.rows);
                } else {
                    // Evicted before the append: re-bind at the grown
                    // size.
                    session.handle = {};
                    bind(ev.session);
                }
                break;
            }
            case a3::TraceEventKind::Query: {
                ++st.queries;
                ensureBound(ev.session);
                const std::size_t q = queryOfEvent[i];
                a3::AdmissionOutcome outcome;
                {
                    SpanLog::Scope span(
                        spans, "serving.batch_scheduler.submit",
                        request);
                    outcome =
                        scheduler.submit(session.handle, queries[q]);
                }
                if (!outcome.admitted()) {
                    ++st.failed;
                    break;
                }
                inflight.emplace(outcome.ticket,
                                 Inflight{ev.session, q});
                if (++sinceDrain >= kDrainEvery) {
                    drainOnce();
                    sinceDrain = 0;
                }
                break;
            }
            }
        }
        while (scheduler.pending() > 0)
            drainOnce();
        st.wall = now() - t0;

        if (!inflight.empty())
            invariantFailures.push_back(
                std::to_string(inflight.size()) +
                " admitted queries never completed");
        if (st.served + st.failed != st.queries)
            invariantFailures.push_back(
                "served + failed != queries in the trace");
        st.cache = cache.stats();
        st.scheduler = scheduler.stats();
        st.store = store.stats();
        st.cacheBytesInUse = cache.bytesInUse();
        st.spillBytes = store.spillBytesInUse();
        const std::uint64_t acquires = st.store.liveHits +
                                       st.store.spillRestores +
                                       st.store.coldBinds;
        if (acquires != st.expectedAcquires)
            invariantFailures.push_back(
                "store acquisitions " + std::to_string(acquires) +
                " != full shards bound " +
                std::to_string(st.expectedAcquires));
        failed += st.failed;
        if (traced) {
            ++tracedReplays;
            ReplayStats &t = tracedTotals;
            t.cache.hits += st.cache.hits;
            t.cache.misses += st.cache.misses;
            t.cache.evictions += st.cache.evictions;
            t.scheduler.answered += st.scheduler.answered;
            t.scheduler.drains += st.scheduler.drains;
            t.scheduler.groups += st.scheduler.groups;
            t.scheduler.workUnits += st.scheduler.workUnits;
            t.store.liveHits += st.store.liveHits;
            t.store.spillRestores += st.store.spillRestores;
            t.store.coldBinds += st.store.coldBinds;
            t.cacheBytesInUse += st.cacheBytesInUse;
            t.spillBytes += st.spillBytes;
        }
        return st;
    }
};

ServingFamily::ServingFamily(const WorkloadParams &params,
                             std::uint64_t seed,
                             const std::string &workDir, SpanLog &spans)
    : impl_(std::make_unique<Impl>(params, seed, workDir, spans))
{
    // Warm-up replay: both engine lanes, the allocator, and the spill
    // directory's page cache. Its operations are not attempted ones.
    impl_->replay();
    if (impl_->failed > 0)
        impl_->invariantFailures.push_back(
            "the warm-up replay lost " + std::to_string(impl_->failed) +
            " queries");
    impl_->failed = 0;
}

ServingFamily::~ServingFamily()
{
    std::error_code ignored;
    std::filesystem::remove_all(impl_->spillDir, ignored);
    std::filesystem::remove_all(impl_->probeDir, ignored);
}

void
ServingFamily::addOps(Sampler &sampler)
{
    const std::size_t perQuery = sampler.series("serve_us_per_query");
    const std::size_t bind = sampler.series("bind_ns_per_row");
    const std::size_t append = sampler.series("append_ns_per_row");
    const std::size_t bytes = sampler.series("cache_bytes_per_row");
    // One call is one whole replay, so the slice is a single call.
    sampler.addOp("serve", 0.0, [=, this, &sampler] {
        const ReplayStats st = impl_->replay();
        if (st.served > 0)
            sampler.add(perQuery, st.wall * 1e6 /
                                      static_cast<double>(st.served));
        if (st.bindRows > 0) {
            sampler.add(bind, st.bindWall * 1e9 /
                                  static_cast<double>(st.bindRows));
            sampler.add(bytes,
                        static_cast<double>(st.chargedBytes) /
                            static_cast<double>(st.bindRows));
        }
        // The median append of a replay: the few appends that freeze a
        // full tail (compaction and a spill write) would otherwise set
        // the window on their own.
        for (const double ns : st.appendNsPerRow)
            sampler.add(append, ns);
        return st.queries;
    });
}

void
ServingFamily::replayLosingOneCompletion()
{
    impl_->dropCompletion = true;
    impl_->replay();
}

std::uint64_t
ServingFamily::failed() const
{
    return impl_->failed;
}

void
ServingFamily::check(CheckLog &log) const
{
    for (const std::string &failure : impl_->invariantFailures)
        log.fail("serving: " + failure);
    for (const Served &s : impl_->served) {
        ++log.checked;
        const Impl::Content &c = impl_->content.at(s.contentSeed);
        std::string why;
        if (s.result.weights.size() != s.rows) {
            log.fail("serving: query served over " +
                     std::to_string(s.result.weights.size()) +
                     " rows, session holds " + std::to_string(s.rows));
            continue;
        }
        if (!checkExact(c.key, c.value, s.rows,
                        impl_->queries[s.query], s.result, why))
            log.fail("serving: session " + std::to_string(s.session) +
                     ": " + why);
    }
}

void
ServingFamily::metrics(const Sampler &sampler,
                       const std::function<bool(std::size_t)> &rounds,
                       Metrics &out) const
{
    out["serve_qps"] = {
        1e6 / sampler.best("serve_us_per_query", rounds),
        "1/s"};
    out["bind_ns_per_row"] = {
        sampler.best("bind_ns_per_row", rounds), "ns"};
    out["append_ns_per_row"] = {
        sampler.best("append_ns_per_row", rounds), "ns"};
    out["cache_bytes_per_row"] = {
        sampler.best("cache_bytes_per_row", rounds), "B"};
}

void
ServingFamily::layerMetrics(Metrics &out) const
{
    const Impl &im = *impl_;
    const SpanLog &spans = im.spans;
    const double replays =
        static_cast<double>(std::max<std::uint64_t>(im.tracedReplays, 1));
    const ReplayStats &t = im.tracedTotals;
    auto perReplay = [&](double total) { return total / replays; };
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

    out["serving.session_cache.bind_us"] = {
        spans.meanUs("serving.session_cache.bind"), "us"};
    out["serving.session_cache.append_us"] = {
        spans.meanUs("serving.session_cache.append"), "us"};
    out["serving.session_cache.lookup_us"] = {
        spans.meanUs("serving.session_cache.lookup"), "us"};
    out["serving.session_cache.hits"] = {
        perReplay(static_cast<double>(t.cache.hits)), "count"};
    out["serving.session_cache.misses"] = {
        perReplay(static_cast<double>(t.cache.misses)), "count"};
    out["serving.session_cache.evictions"] = {
        perReplay(static_cast<double>(t.cache.evictions)), "count"};
    out["serving.session_cache.bytes_in_use"] = {
        perReplay(static_cast<double>(t.cacheBytesInUse)), "B"};

    out["serving.batch_scheduler.submit_us"] = {
        spans.meanUs("serving.batch_scheduler.submit"), "us"};
    out["serving.batch_scheduler.drain_us"] = {
        spans.meanUs("serving.batch_scheduler.drain"), "us"};
    const auto drains = static_cast<double>(t.scheduler.drains);
    out["serving.batch_scheduler.requests_per_drain"] = {
        ratio(static_cast<double>(t.scheduler.answered), drains),
        "count"};
    out["serving.batch_scheduler.groups_per_drain"] = {
        ratio(static_cast<double>(t.scheduler.groups), drains), "count"};
    out["engine.work_units_per_query"] = {
        ratio(static_cast<double>(t.scheduler.workUnits),
              static_cast<double>(t.scheduler.answered)),
        "count"};

    out["serving.shard_store.live_hits"] = {
        perReplay(static_cast<double>(t.store.liveHits)), "count"};
    out["serving.shard_store.spill_restores"] = {
        perReplay(static_cast<double>(t.store.spillRestores)), "count"};
    out["serving.shard_store.cold_binds"] = {
        perReplay(static_cast<double>(t.store.coldBinds)), "count"};
    out["serving.shard_store.spill_bytes_written"] = {
        perReplay(static_cast<double>(t.spillBytes)), "B"};

    // Acquire paths called directly: a cold bind of each full shard
    // of the largest content (written through to the spill tier), a
    // live hit while it is held, and a spill restore once released.
    std::filesystem::remove_all(im.probeDir);
    a3::ShardStoreConfig storeConfig;
    storeConfig.spillDir = im.probeDir;
    a3::ShardStore store(storeConfig);
    const Impl::Content *largest = nullptr;
    for (const auto &entry : im.content)
        if (largest == nullptr ||
            entry.second.key.rows() > largest->key.rows())
            largest = &entry.second;
    const std::size_t shardRows = im.params.shardRows;
    std::vector<double> cold, restore;
    for (std::size_t first = 0;
         largest != nullptr && first + shardRows <= largest->key.rows();
         first += shardRows) {
        a3::ShardSource source = a3::ShardSource::ColdBound;
        double t0 = now();
        auto handle = store.acquire(im.engineConfig, largest->key,
                                    largest->value, first, shardRows,
                                    &source);
        if (source == a3::ShardSource::ColdBound)
            cold.push_back(now() - t0);
        handle.reset();
        t0 = now();
        handle = store.acquire(im.engineConfig, largest->key,
                               largest->value, first, shardRows,
                               &source);
        if (source == a3::ShardSource::SpillRestored)
            restore.push_back(now() - t0);
    }
    out["serving.shard_store.cold_bind_us"] = {median(cold) * 1e6, "us"};
    out["serving.shard_store.spill_restore_us"] = {
        median(restore) * 1e6, "us"};
    out["trace.generate_s"] = {im.generateSeconds, "s"};
}

}  // namespace pb
