#include "serving/remote_coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "serving/partial_merge.hpp"
#include "util/logging.hpp"

namespace a3 {

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now()
                   .time_since_epoch())
        .count();
}

void
sleepSeconds(double seconds)
{
    if (seconds > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds));
}

/**
 * Request id a client-bound reply frame answers: the leading u64
 * of PartialReply, ResultReply, and ErrorReply payloads alike (0
 * for connection-level errors and short payloads).
 */
std::uint64_t
replyRequestId(const Frame &frame)
{
    if (frame.payload.size() < 8)
        return 0;
    std::uint64_t id = 0;
    for (int b = 7; b >= 0; --b)
        id = (id << 8) |
             frame.payload[static_cast<std::size_t>(b)];
    return id;
}

bool
isReplyFrame(const Frame &frame)
{
    return frame.type == FrameType::PartialReply ||
           frame.type == FrameType::ResultReply ||
           frame.type == FrameType::ErrorReply;
}

/** Transient failures worth retrying on the same worker. */
bool
retryable(NetError error)
{
    return error == NetError::Timeout ||
           error == NetError::BadChecksum;
}

std::chrono::steady_clock::time_point
steadyTimePoint(double seconds)
{
    return std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds)));
}

/** Receive one frame before the absolute steady-clock `deadline`. */
NetStatus
recvBefore(Transport &transport, double deadline, Frame &out)
{
    const double remaining = deadline - nowSeconds();
    if (remaining <= 0.0)
        return NetStatus::failure(NetError::Timeout,
                                  "deadline expired");
    return transport.recv(out, remaining);
}

/** Decode shard `shardId`'s reply into `result` when the query
 *  asked for the full result, else into `partial`. */
NetStatus
decodeShardReply(const Frame &frame, std::uint32_t shardId,
                 PartialResult *partial, AttentionResult *result)
{
    const bool wantFull = result != nullptr;
    if (frame.type == FrameType::ErrorReply) {
        ErrorReplyPayload error;
        const NetStatus status = decodeErrorReply(frame, error);
        if (!status.ok())
            return status;
        return NetStatus::failure(error.code, error.message);
    }
    const FrameType expected =
        wantFull ? FrameType::ResultReply : FrameType::PartialReply;
    if (frame.type != expected)
        return NetStatus::failure(NetError::Malformed,
                                  "unexpected reply type");
    // Decode into the caller's buffers: swap them into the payload
    // and back, so buffers the caller reuses are decoded into
    // without allocating.
    std::uint32_t replyShard = 0;
    NetStatus status = NetStatus::success();
    if (wantFull) {
        ResultReplyPayload reply;
        std::swap(reply.result, *result);
        status = decodeResultReply(frame, reply);
        std::swap(reply.result, *result);
        replyShard = reply.shardId;
    } else {
        PartialReplyPayload reply;
        std::swap(reply.partial, *partial);
        status = decodePartialReply(frame, reply);
        std::swap(reply.partial, *partial);
        replyShard = reply.shardId;
    }
    if (status.ok() && replyShard != shardId)
        return NetStatus::failure(NetError::Malformed,
                                  "reply for wrong shard");
    return status;
}

}  // namespace

RemoteWorkerSpec
unixWorkerSpec(std::string name, std::string socketPath,
               double connectTimeoutSeconds)
{
    RemoteWorkerSpec spec;
    spec.name = std::move(name);
    spec.connect = [path = std::move(socketPath),
                    connectTimeoutSeconds](NetStatus &status) {
        return connectUnix(path, connectTimeoutSeconds, status);
    };
    return spec;
}

const char *
workerHealthName(WorkerHealth health)
{
    switch (health) {
    case WorkerHealth::Healthy: return "healthy";
    case WorkerHealth::Suspect: return "suspect";
    case WorkerHealth::Dead: return "dead";
    }
    return "unknown";
}

RemoteShardCoordinator::RemoteShardCoordinator(
    const EngineConfig &inner, Matrix key, Matrix value,
    std::vector<RemoteWorkerSpec> specs, RemoteShardConfig config)
    : inner_(inner), config_(config), key_(std::move(key)),
      value_(std::move(value))
{
    a3Assert(config_.shardRows > 0, "shardRows must be positive");
    a3Assert(key_.rows() == value_.rows() &&
                 key_.cols() == value_.cols(),
             "key/value shape mismatch");
    a3Assert(!key_.empty(), "attention task must be non-empty");
    dims_ = key_.cols();
    config_.replication = std::max<std::size_t>(
        1, std::min(config_.replication,
                    std::max<std::size_t>(1, specs.size())));

    workers_.reserve(specs.size());
    for (RemoteWorkerSpec &spec : specs) {
        workers_.push_back(std::make_unique<Worker>());
        workers_.back()->spec = std::move(spec);
        connectWorker(*workers_.back());
    }
    growLayout(key_.rows());

    // The background heartbeat starts only after the shards are
    // fully bound, so the thread never observes a half-constructed
    // coordinator.
    if (config_.heartbeatPeriodSeconds > 0.0) {
        const std::chrono::duration<double> period(
            config_.heartbeatPeriodSeconds);
        heartbeatThread_ = std::thread([this, period] {
            std::unique_lock<std::mutex> lock(hbMu_);
            while (true) {
                hbCv_.wait_for(lock, period,
                               [this] { return hbStop_; });
                if (hbStop_)
                    return;
                // Probe outside hbMu_ so a destructor's stop request
                // never waits behind a full heartbeat sweep.
                lock.unlock();
                heartbeat();
                lock.lock();
            }
        });
    }
}

RemoteShardCoordinator::~RemoteShardCoordinator()
{
    // Stop the background heartbeat before tearing the transports
    // down: the thread must never probe a worker mid-shutdown.
    if (heartbeatThread_.joinable()) {
        {
            const std::lock_guard<std::mutex> lock(hbMu_);
            hbStop_ = true;
        }
        hbCv_.notify_all();
        heartbeatThread_.join();
    }
    for (const std::unique_ptr<Worker> &worker : workers_) {
        const std::lock_guard<std::mutex> lock(worker->mu);
        if (worker->transport == nullptr)
            continue;
        if (worker->health != WorkerHealth::Dead)
            worker->transport->send(encodeShutdown());
        worker->transport->close();
    }
}

std::string
RemoteShardCoordinator::name() const
{
    return std::string("remote-sharded(") +
           engineKindName(inner_.kind) + ")";
}

std::size_t
RemoteShardCoordinator::memoryBytes() const
{
    // The retained task copy (the re-replication source) plus any
    // local fallback engines.
    std::size_t total =
        (key_.data().size() + value_.data().size()) *
        sizeof(float);
    for (const std::unique_ptr<Shard> &shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard->mu);
        if (shard->local != nullptr)
            total += shard->local->memoryBytes();
    }
    return total;
}

WorkerHealth
RemoteShardCoordinator::workerHealth(std::size_t worker) const
{
    a3Assert(worker < workers_.size(), "worker index ", worker,
             " out of ", workers_.size());
    const std::lock_guard<std::mutex> lock(workers_[worker]->mu);
    return workers_[worker]->health;
}

RemoteCoordinatorStats
RemoteShardCoordinator::stats() const
{
    const std::lock_guard<std::mutex> lock(statsMu_);
    return stats_;
}

void
RemoteShardCoordinator::count(
    std::size_t RemoteCoordinatorStats::*counter) const
{
    const std::lock_guard<std::mutex> lock(statsMu_);
    ++(stats_.*counter);
}

bool
RemoteShardCoordinator::workerAlive(std::size_t w) const
{
    Worker &worker = *workers_[w];
    const std::lock_guard<std::mutex> lock(worker.mu);
    return worker.alive();
}

void
RemoteShardCoordinator::Worker::forget(std::uint64_t id)
{
    outstanding.erase(
        std::remove(outstanding.begin(), outstanding.end(), id),
        outstanding.end());
    inbox.erase(std::remove_if(inbox.begin(), inbox.end(),
                               [id](const Frame &frame) {
                                   return isReplyFrame(frame) &&
                                          replyRequestId(frame) == id;
                               }),
                inbox.end());
}

void
RemoteShardCoordinator::fileFrame(Worker &worker, Frame &&frame) const
{
    // The reader received another waiter's frame (pipelining,
    // concurrent lanes, recovery interleave): keep it for its owner.
    // Replies nobody awaits any more are stale; acks nobody awaits
    // are dropped.
    if (isReplyFrame(frame)) {
        const std::uint64_t id = replyRequestId(frame);
        if (std::find(worker.outstanding.begin(),
                      worker.outstanding.end(),
                      id) == worker.outstanding.end()) {
            count(&RemoteCoordinatorStats::staleReplies);
            return;
        }
    } else if (worker.ackWaiters == 0 ||
               (frame.type != FrameType::BindAck &&
                frame.type != FrameType::HeartbeatAck)) {
        return;
    }
    worker.inbox.push_back(std::move(frame));
    ++worker.filings;
}

template <typename Mine>
NetStatus
RemoteShardCoordinator::awaitFrame(Worker &worker,
                                   std::unique_lock<std::mutex> &lock,
                                   double deadline, const Mine &mine,
                                   Frame &out) const
{
    const auto until = steadyTimePoint(deadline);
    while (true) {
        const auto filed = std::find_if(worker.inbox.begin(),
                                        worker.inbox.end(), mine);
        if (filed != worker.inbox.end()) {
            out = std::move(*filed);
            worker.inbox.erase(filed);
            return NetStatus::success();
        }
        if (worker.reading) {
            // Wait for the reader to file a frame or hand over.
            const std::uint64_t seen = worker.filings;
            const auto ready = [&worker, seen] {
                return !worker.reading || worker.filings != seen;
            };
            if (!worker.filed.wait_until(lock, until, ready))
                return NetStatus::failure(NetError::Timeout,
                                          "deadline expired");
            continue;
        }
        // Receive with the lock released, so other lanes keep
        // sending to this worker meanwhile.
        worker.reading = true;
        lock.unlock();
        const NetStatus status =
            recvBefore(*worker.transport, deadline, out);
        lock.lock();
        worker.reading = false;
        const bool done = !status.ok() || mine(out);
        if (!done)
            fileFrame(worker, std::move(out));
        worker.filed.notify_all();
        if (done)
            return status;
    }
}

void
RemoteShardCoordinator::noteRecvFailure(Worker &worker, NetError error,
                                        double waitStart) const
{
    if (error == NetError::Timeout) {
        count(&RemoteCoordinatorStats::timeouts);
        worker.markTimedOut(waitStart, nowSeconds());
    } else if (error == NetError::BadChecksum) {
        count(&RemoteCoordinatorStats::checksumRejects);
    } else {
        worker.markDead();
    }
}

template <typename Mine>
NetStatus
RemoteShardCoordinator::exchange(Worker &worker, const Frame &request,
                                 double timeoutSeconds,
                                 const Mine &mine) const
{
    std::unique_lock<std::mutex> lock(worker.mu);
    if (!worker.send(request))
        return NetStatus::failure(NetError::Closed, "send failed");
    const double start = nowSeconds();
    ++worker.ackWaiters;
    Frame ack;
    NetStatus status =
        awaitFrame(worker, lock, start + timeoutSeconds, mine, ack);
    // The last ack wait drops the acks nobody claimed.
    if (--worker.ackWaiters == 0)
        worker.inbox.erase(
            std::remove_if(worker.inbox.begin(), worker.inbox.end(),
                           [](const Frame &frame) {
                               return !isReplyFrame(frame);
                           }),
            worker.inbox.end());
    if (!status.ok())
        noteRecvFailure(worker, status.error, start);
    else if (ack.type == FrameType::ErrorReply)
        status = connectionError(worker, ack);
    else
        worker.markAnswered(nowSeconds());
    return status;
}

NetStatus
RemoteShardCoordinator::connectionError(Worker &worker,
                                        const Frame &frame) const
{
    ErrorReplyPayload error;
    if (decodeErrorReply(frame, error).ok())
        return NetStatus::failure(error.code, error.message);
    worker.markDead();
    return NetStatus::failure(NetError::Malformed,
                              "undecodable error reply");
}

void
RemoteShardCoordinator::connectWorker(Worker &worker)
{
    // A worker whose connect or handshake fails starts out dead.
    NetStatus status = NetStatus::success();
    std::shared_ptr<Transport> transport =
        worker.spec.connect ? worker.spec.connect(status)
                            : nullptr;
    if (transport == nullptr)
        return;
    if (config_.decorateTransport)
        transport = config_.decorateTransport(std::move(transport));

    {
        const std::lock_guard<std::mutex> lock(worker.mu);
        worker.transport = std::move(transport);
        worker.health = WorkerHealth::Healthy;
    }
    HelloPayload hello;
    hello.peer = "coordinator";
    const auto mine = [](const Frame &frame) {
        HelloPayload ack;
        return frame.type == FrameType::HelloAck &&
               decodeHello(frame, ack).ok();
    };
    if (!exchange(worker, encodeHello(hello, /*ack=*/false),
                  config_.queryDeadlineSeconds, mine)
             .ok()) {
        const std::lock_guard<std::mutex> lock(worker.mu);
        worker.markDead();
    }
}

void
RemoteShardCoordinator::growLayout(std::size_t addedRows)
{
    const std::vector<std::size_t> before = sizes_;
    sizes_ = growShardLayout(sizes_, addedRows, config_.shardRows);
    offsets_.assign(sizes_.size(), 0);
    for (std::size_t s = 1; s < sizes_.size(); ++s)
        offsets_[s] = offsets_[s - 1] + sizes_[s - 1];
    // Changed shards get a fresh generation and a full rebind —
    // workers hold whole slices, so an incremental append frame
    // would buy little and cost a protocol message.
    for (std::size_t s = before.empty() ? 0 : before.size() - 1;
         s < sizes_.size(); ++s) {
        if (s == shards_.size()) {
            shards_.push_back(std::make_unique<Shard>());
            shards_.back()->id = static_cast<std::uint32_t>(s);
        }
        if (s < before.size() && before[s] == sizes_[s])
            continue;
        Shard &shard = *shards_[s];
        const std::lock_guard<std::mutex> lock(shard.mu);
        ++shard.generation;
        shard.replicas.clear();
        shard.local.reset();
        ensureReplication(shard, /*countRebinds=*/false);
    }
}

NetStatus
RemoteShardCoordinator::bindShardTo(std::size_t w,
                                    const Shard &shard) const
{
    BindShardPayload bind;
    bind.shardId = shard.id;
    bind.generation = shard.generation;
    bind.config = inner_;
    bind.key = key_.rowSlice(offsets_[shard.id], sizes_[shard.id]);
    bind.value =
        value_.rowSlice(offsets_[shard.id], sizes_[shard.id]);
    const Frame request = encodeBindShard(bind);
    // This bind's ack; acks of earlier binds do not match. A
    // connection-level error reply may be the worker rejecting it.
    const auto mine = [&shard](const Frame &frame) {
        if (frame.type == FrameType::ErrorReply)
            return replyRequestId(frame) == 0;
        BindAckPayload ack;
        return frame.type == FrameType::BindAck &&
               decodeBindAck(frame, ack).ok() &&
               ack.shardId == shard.id &&
               ack.generation == shard.generation;
    };
    return exchange(*workers_[w], request,
                    config_.queryDeadlineSeconds, mine);
}

void
RemoteShardCoordinator::ensureReplication(Shard &shard,
                                          bool countRebinds) const
{
    // Drop replicas that died.
    shard.replicas.erase(
        std::remove_if(shard.replicas.begin(),
                       shard.replicas.end(),
                       [this](std::size_t w) {
                           return !workerAlive(w);
                       }),
        shard.replicas.end());
    if (workers_.empty())
        return;
    // Top back up to R, scanning from the shard's home worker so
    // placement stays balanced.
    const std::size_t start = shard.id % workers_.size();
    for (std::size_t i = 0;
         i < workers_.size() &&
         shard.replicas.size() < config_.replication;
         ++i) {
        const std::size_t w = (start + i) % workers_.size();
        if (std::find(shard.replicas.begin(),
                      shard.replicas.end(),
                      w) != shard.replicas.end())
            continue;
        if (bindShardTo(w, shard).ok()) {
            shard.replicas.push_back(w);
            if (countRebinds)
                count(&RemoteCoordinatorStats::rebinds);
        }
    }
}

std::uint64_t
RemoteShardCoordinator::sendQueryTo(std::size_t w,
                                    const Shard &shard,
                                    const Vector &query,
                                    bool wantFull) const
{
    QueryPayload payload;
    payload.requestId =
        nextRequestId_.fetch_add(1, std::memory_order_relaxed);
    payload.shardId = shard.id;
    payload.generation = shard.generation;
    payload.wantFull = wantFull;
    payload.query = query;
    const Frame frame = encodeQuery(payload);

    Worker &worker = *workers_[w];
    const std::lock_guard<std::mutex> lock(worker.mu);
    if (!worker.send(frame))
        return 0;
    worker.outstanding.push_back(payload.requestId);
    return payload.requestId;
}

RemoteShardCoordinator::Pending
RemoteShardCoordinator::sendShard(Shard &shard, const Vector &query,
                                  bool wantFull) const
{
    a3Assert(query.size() == dims_, "query dimension ",
             query.size(), " does not match the task dimension ",
             dims_);
    const std::lock_guard<std::mutex> lock(shard.mu);
    for (std::size_t r = 0; r < shard.replicas.size(); ++r) {
        const std::size_t w = shard.replicas[r];
        const std::uint64_t id =
            sendQueryTo(w, shard, query, wantFull);
        if (id == 0)
            continue;
        if (r != 0) {
            // The primary was gone before we even sent: promote the
            // answering replica.
            count(&RemoteCoordinatorStats::failovers);
            std::swap(shard.replicas[0], shard.replicas[r]);
        }
        return {w, id};
    }
    return {};
}

NetStatus
RemoteShardCoordinator::awaitShard(const Pending &pending,
                                   std::uint32_t shardId,
                                   double waitStart, double until,
                                   PartialResult *partial,
                                   AttentionResult *result) const
{
    Worker &worker = *workers_[pending.worker];
    const double full = waitStart + config_.queryDeadlineSeconds;
    const bool cut = until < full;
    // This query's reply, or a connection-level error reply (the
    // worker rejected a corrupted or malformed frame, possibly ours).
    const auto mine = [id = pending.requestId](const Frame &frame) {
        if (!isReplyFrame(frame))
            return false;
        const std::uint64_t replyId = replyRequestId(frame);
        return replyId == id ||
               (replyId == 0 && frame.type == FrameType::ErrorReply);
    };
    std::unique_lock<std::mutex> lock(worker.mu);
    Frame reply;
    NetStatus status =
        awaitFrame(worker, lock, cut ? until : full, mine, reply);
    if (cut && !status.ok() && status.error == NetError::Timeout)
        return status;
    worker.forget(pending.requestId);
    if (!status.ok()) {
        noteRecvFailure(worker, status.error, waitStart);
        return status;
    }
    if (replyRequestId(reply) == 0)
        return connectionError(worker, reply);
    lock.unlock();
    status = decodeShardReply(reply, shardId, partial, result);
    if (status.ok()) {
        lock.lock();
        worker.markAnswered(nowSeconds());
    }
    return status;
}

void
RemoteShardCoordinator::awaitOrRecover(Shard &shard,
                                       const Pending &pending,
                                       const Vector &query,
                                       const QueryContext &context,
                                       PartialResult *partial,
                                       AttentionResult *result) const
{
    const double start = nowSeconds();
    const double full = start + config_.queryDeadlineSeconds;
    const double cut = context.deadlineSeconds > 0.0
                           ? context.deadlineSeconds
                           : full;
    NetStatus status = NetStatus::failure(NetError::Closed, "unsent");
    if (pending.requestId != 0)
        status = awaitShard(pending, shard.id, start, cut, partial,
                            result);
    if (cut < full && status.error == NetError::Timeout) {
        // Late whichever rung answers: an existing local engine
        // answers now, else the wait runs on (no cold local bind).
        std::unique_lock<std::mutex> lock(shard.mu);
        if (shard.local != nullptr) {
            Worker &worker = *workers_[pending.worker];
            std::unique_lock<std::mutex> hold(worker.mu);
            worker.forget(pending.requestId);
            hold.unlock();
            runLocal(shard, query, partial, result);
            return;
        }
        lock.unlock();
        status = awaitShard(pending, shard.id, start, full, partial,
                            result);
    }
    if (status.ok())
        return;
    const std::lock_guard<std::mutex> lock(shard.mu);
    recoverLocked(shard, query, partial, result);
}

void
RemoteShardCoordinator::recoverLocked(Shard &shard,
                                      const Vector &query,
                                      PartialResult *partial,
                                      AttentionResult *result) const
{
    const auto queryOnce = [&](std::size_t w) {
        const Pending pending{
            w, sendQueryTo(w, shard, query, result != nullptr)};
        if (pending.requestId == 0)
            return NetStatus::failure(NetError::Closed,
                                      "query send failed");
        const double start = nowSeconds();
        return awaitShard(pending, shard.id, start,
                          start + config_.queryDeadlineSeconds,
                          partial, result);
    };

    // 2. Bounded exponential-backoff retries on the primary.
    if (!shard.replicas.empty()) {
        const std::size_t primary = shard.replicas.front();
        double backoff = config_.retryBackoffSeconds;
        for (std::size_t attempt = 0;
             attempt < config_.maxRetries && workerAlive(primary);
             ++attempt) {
            sleepSeconds(backoff);
            backoff = std::min(backoff * 2.0,
                               config_.retryBackoffMaxSeconds);
            count(&RemoteCoordinatorStats::retries);
            const NetStatus status = queryOnce(primary);
            if (status.ok())
                return;
            if (!retryable(status.error))
                break;
        }
    }
    // 3. Failover to the remaining replicas.
    for (std::size_t r = 1; r < shard.replicas.size(); ++r) {
        const std::size_t w = shard.replicas[r];
        if (!workerAlive(w))
            continue;
        count(&RemoteCoordinatorStats::failovers);
        if (queryOnce(w).ok()) {
            // Promote the answering replica.
            std::swap(shard.replicas[0], shard.replicas[r]);
            return;
        }
    }
    // 4. Re-replicate onto a survivor under a fresh generation
    //    (late replies from the old binding become stale).
    ++shard.generation;
    shard.replicas.clear();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        const std::size_t w = (shard.id + i) % workers_.size();
        if (!bindShardTo(w, shard).ok())
            continue;
        count(&RemoteCoordinatorStats::rebinds);
        shard.replicas.assign(1, w);
        count(&RemoteCoordinatorStats::failovers);
        if (queryOnce(w).ok())
            return;
    }
    shard.replicas.clear();
    // 5. Local execution — the ladder never fails the query.
    runLocal(shard, query, partial, result);
}

void
RemoteShardCoordinator::runLocal(Shard &shard, const Vector &query,
                                 PartialResult *partial,
                                 AttentionResult *result) const
{
    if (shard.local == nullptr) {
        count(&RemoteCoordinatorStats::rebinds);
        shard.local = makeBackend(
            inner_, key_.rowSlice(offsets_[shard.id], sizes_[shard.id]),
            value_.rowSlice(offsets_[shard.id], sizes_[shard.id]));
    }
    count(&RemoteCoordinatorStats::localFallbacks);
    if (result != nullptr)
        shard.local->runInto(query, *result);
    else
        shard.local->runPartialInto(query, *partial);
}

void
RemoteShardCoordinator::queryAllShards(const Vector &query,
                                       const QueryContext &context,
                                       PartialResult &merged) const
{
    // Send every shard's query before awaiting any reply, so the
    // workers compute in parallel; then collect in shard order.
    std::vector<Pending> pending(shards_.size());
    std::vector<PartialResult> partials(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s)
        pending[s] = sendShard(*shards_[s], query, /*wantFull=*/false);
    for (std::size_t s = 0; s < shards_.size(); ++s)
        awaitOrRecover(*shards_[s], pending[s], query, context,
                       &partials[s], nullptr);
    mergeShardPartials(partials, offsets_, key_.rows(), dims_,
                       merged);
}

void
RemoteShardCoordinator::runInto(const Vector &query,
                                AttentionResult &out,
                                const QueryContext &context) const
{
    // Single shard: ask for the full normalized result, mirroring
    // ShardedBackend's S = 1 delegation — bit-identical for every
    // kind, including the quantized ones whose partial roundtrip
    // is not bit-tight.
    if (shards_.size() == 1) {
        Shard &shard = *shards_.front();
        awaitOrRecover(shard, sendShard(shard, query, true), query,
                       context, nullptr, &out);
        return;
    }
    PartialResult merged;
    queryAllShards(query, context, merged);
    finalizePartialInto(merged, out);
}

void
RemoteShardCoordinator::runPartialInto(const Vector &query,
                                       PartialResult &out) const
{
    queryAllShards(query, QueryContext(), out);
}

void
RemoteShardCoordinator::append(const Matrix &keyRows,
                               const Matrix &valueRows)
{
    a3Assert(keyRows.rows() == valueRows.rows() &&
                 keyRows.cols() == valueRows.cols(),
             "appended key/value shape mismatch");
    a3Assert(keyRows.cols() == dims_,
             "appended rows must match the task dimension");
    const std::lock_guard<std::mutex> layout(layoutMu_);
    key_.appendRows(keyRows);
    value_.appendRows(valueRows);
    growLayout(keyRows.rows());
}

void
RemoteShardCoordinator::heartbeat()
{
    const std::lock_guard<std::mutex> layout(layoutMu_);
    for (const std::unique_ptr<Worker> &worker : workers_) {
        HeartbeatPayload beat;
        beat.sequence = ++worker->heartbeatSeq;
        // Anything but this probe's ack is an earlier one's.
        const auto mine = [&beat](const Frame &frame) {
            HeartbeatPayload ack;
            return frame.type == FrameType::HeartbeatAck &&
                   decodeHeartbeat(frame, ack).ok() &&
                   ack.sequence == beat.sequence;
        };
        exchange(*worker, encodeHeartbeat(beat, false),
                 config_.heartbeatTimeoutSeconds, mine);
    }
    // Re-replicate the shards the dead workers were holding.
    for (const std::unique_ptr<Shard> &shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard->mu);
        ensureReplication(*shard, /*countRebinds=*/true);
    }
}

}  // namespace a3
