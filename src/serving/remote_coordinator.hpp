/**
 * @file
 * Fault-tolerant coordinator of the distributed serving tier.
 *
 * RemoteShardCoordinator implements AttentionBackend by slicing the
 * bound task into the same balanced row shards ShardedBackend would
 * build (partial_merge.hpp), shipping each shard to worker
 * processes as BindShard frames, fanning every query out over the
 * workers, and merging the returned softmax partials through the
 * shared mergeShardPartials() — which is what makes its results
 * bit-identical to the in-process ShardedBackend, and hence to an
 * unsharded backend, for every engine kind.
 *
 * Robustness model, in escalation order per shard query:
 *   1. deadline   — every remote wait is bounded;
 *   2. retry      — bounded exponential backoff on the same worker
 *                   (timeouts and checksum rejects are transient);
 *   3. failover   — the next bound replica answers (replication R
 *                   binds each shard onto R workers up front);
 *   4. rebind     — the shard is re-replicated onto a surviving
 *                   worker under a bumped generation (workers
 *                   reject stale-generation queries, so a delayed
 *                   reply from the old binding can never be
 *                   mistaken for a current one);
 *   5. local      — the coordinator binds the shard itself with the
 *                   same makeBackend() call, so runInto() degrades
 *                   to in-process execution rather than failing.
 * Because every fallback computes the identical partial on the
 * identical rows and the merge is fixed-order, recovery changes
 * *where* a partial came from, never *what* it is.
 *
 * Worker health is tracked as Healthy -> Suspect -> Dead: a first
 * missed deadline makes a worker suspect, a second consecutive miss
 * (or any unrecoverable transport failure) makes it dead, and
 * heartbeat() re-replicates a dead worker's shards onto survivors.
 * Waits that overlap one stall count one miss between them: a
 * timed-out wait counts a miss only if the worker has neither
 * answered nor missed since the wait began.
 * With heartbeatPeriodSeconds set, an internal background thread
 * drives heartbeat() at that period (stopped and joined by the
 * destructor before any shutdown frame is sent); at the default 0
 * no thread is spawned and callers drive heartbeats explicitly —
 * the deterministic mode the health-machine tests rely on.
 *
 * A query is one engine work unit: runInto() sends every shard's
 * query before it awaits the replies in shard order, so one lane
 * keeps all S shards in flight.
 *
 * Deadlines: each reply wait runs queryDeadlineSeconds. When the
 * call's QueryContext deadline passes first, the request is late
 * whichever rung answers: a shard that already has a local engine
 * answers from it, and otherwise the wait runs on (a cold local
 * bind would take longer than the reply in flight). Such a cut is
 * neither a timeout nor a miss. Lock waits are not bounded by the
 * context: a lane may wait on a shard's lock while another lane
 * walks that shard's ladder.
 *
 * Thread safety: queries, heartbeat() and the accessors may run
 * concurrently; append() must not overlap queries (the backend
 * contract). Each worker has a lock over its transport, inbox,
 * health and outstanding request ids. One waiter at a time (query,
 * bind or heartbeat) receives with that lock released and files
 * other waiters' frames in the inbox. Each shard has a lock over
 * its replicas, generation and local fallback; a layout lock
 * serializes heartbeat() with itself and append(). Lock order:
 * layout, shard, worker; the stats lock is a leaf. No lock is held
 * across a receive or across more than one shard of a query.
 */

#ifndef A3_SERVING_REMOTE_COORDINATOR_HPP
#define A3_SERVING_REMOTE_COORDINATOR_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "attention/backend.hpp"
#include "net/transport.hpp"
#include "serving/remote_protocol.hpp"

namespace a3 {

/** How the coordinator reaches one worker. */
struct RemoteWorkerSpec
{
    std::string name;

    /**
     * Produce a connected transport to the worker, or nullptr with
     * a typed status. Called once at construction; a worker whose
     * connect fails starts out dead.
     */
    std::function<std::shared_ptr<Transport>(NetStatus &)> connect;
};

/** Spec for a worker process listening on an AF_UNIX socket. */
RemoteWorkerSpec unixWorkerSpec(std::string name,
                                std::string socketPath,
                                double connectTimeoutSeconds);

/**
 * Wrap a freshly connected worker transport — the fault-injection
 * seam (tests install FaultyTransport here to exercise every
 * recovery path deterministically).
 */
using TransportDecorator = std::function<std::shared_ptr<Transport>(
    std::shared_ptr<Transport>)>;

/** Knobs of the coordinator's sharding and robustness machinery. */
struct RemoteShardConfig
{
    /** Shard capacity in rows (the ShardedConfig::shardRows twin). */
    std::size_t shardRows = 64;

    /** Workers each shard is bound onto up front (clamped to the
     *  live worker count; failover consults them in order). */
    std::size_t replication = 1;

    /** Deadline for one remote wait (query reply, bind ack). */
    double queryDeadlineSeconds = 1.0;

    /** Same-worker resends after a transient failure. */
    std::size_t maxRetries = 2;

    /** Initial retry backoff; doubles per retry up to the cap. */
    double retryBackoffSeconds = 0.002;
    double retryBackoffMaxSeconds = 0.05;

    /** Deadline for one heartbeat ack. */
    double heartbeatTimeoutSeconds = 0.25;

    /**
     * Period of the internal background heartbeat thread; 0 (the
     * default) spawns no thread and leaves heartbeats caller-driven.
     * The thread starts after construction fully binds the shards
     * and is stopped and joined first thing in the destructor.
     */
    double heartbeatPeriodSeconds = 0.0;

    /** Optional wrapper around every worker transport. */
    TransportDecorator decorateTransport;
};

/** Liveness state the coordinator tracks per worker. */
enum class WorkerHealth { Healthy, Suspect, Dead };

/** Stable lowercase name ("healthy", "suspect", "dead"). */
const char *workerHealthName(WorkerHealth health);

/** Counters of the robustness machinery (all monotonic). */
struct RemoteCoordinatorStats
{
    std::size_t timeouts = 0;        ///< remote waits that expired
    std::size_t checksumRejects = 0; ///< corrupted frames rejected
    std::size_t retries = 0;         ///< same-worker resends
    std::size_t failovers = 0;       ///< replica switches
    std::size_t rebinds = 0;         ///< shards rebound to survivors
    std::size_t localFallbacks = 0;  ///< shards computed locally
    std::size_t staleReplies = 0;    ///< late replies discarded
};

/**
 * AttentionBackend over a fleet of shard workers. Construction
 * connects, handshakes, and binds every shard onto its replicas;
 * workers that fail at any step start out dead and their shards
 * fall back per the escalation ladder. With no live worker at all
 * the coordinator still serves every query locally.
 */
class RemoteShardCoordinator final : public AttentionBackend
{
  public:
    RemoteShardCoordinator(const EngineConfig &inner, Matrix key,
                           Matrix value,
                           std::vector<RemoteWorkerSpec> specs,
                           RemoteShardConfig config);
    ~RemoteShardCoordinator() override;

    std::string name() const override;
    void runInto(const Vector &query,
                 AttentionResult &out) const override
    {
        runInto(query, out, QueryContext());
    }
    void runInto(const Vector &query, AttentionResult &out,
                 const QueryContext &context) const override;
    void runPartialInto(const Vector &query,
                        PartialResult &out) const override;
    void append(const Matrix &keyRows,
                const Matrix &valueRows) override;
    std::size_t memoryBytes() const override;
    std::size_t rows() const override { return key_.rows(); }
    std::size_t dims() const override { return dims_; }

    /**
     * Probe every non-dead worker and apply the health transitions,
     * then re-replicate any under-replicated shard onto survivors.
     * Driven by the background thread when heartbeatPeriodSeconds is
     * set; always safe to call directly as well.
     */
    void heartbeat();

    std::size_t workerCount() const { return workers_.size(); }
    WorkerHealth workerHealth(std::size_t worker) const;
    std::size_t shardCount() const { return shards_.size(); }
    RemoteCoordinatorStats stats() const;

  private:
    struct Worker
    {
        RemoteWorkerSpec spec;

        std::mutex mu;
        /** One waiter at a time receives, outside `mu`, and files
         *  what it receives for the others in `inbox`; they wait on
         *  `filed` for a filing or for the reader to hand over. */
        bool reading = false;
        std::uint64_t filings = 0;
        std::condition_variable filed;
        std::shared_ptr<Transport> transport;
        WorkerHealth health = WorkerHealth::Dead;
        std::size_t consecutiveMisses = 0;
        /** Steady-clock time of the last answer or miss. */
        double lastVerdictSeconds = 0.0;
        /** Probe counter; heartbeat() runs under the layout lock. */
        std::uint64_t heartbeatSeq = 0;
        /** Query ids sent to this worker and still awaited; a reply
         *  with any other id is stale. */
        std::vector<std::uint64_t> outstanding;
        /** Bind and heartbeat waits in progress; acks are filed
         *  only while there is one. */
        std::size_t ackWaiters = 0;
        /** Frames one waiter received for another. */
        std::vector<Frame> inbox;

        // Health transitions; each needs `mu`.
        void markDead()
        {
            health = WorkerHealth::Dead;
            if (transport != nullptr)
                transport->close();
            outstanding.clear();
            inbox.clear();
        }
        /** A wait begun at `waitStart` timed out (one stall, one
         *  miss: see the health notes above). */
        void markTimedOut(double waitStart, double now)
        {
            if (lastVerdictSeconds >= waitStart)
                return;
            lastVerdictSeconds = now;
            if (++consecutiveMisses >= 2)
                markDead();
            else if (health == WorkerHealth::Healthy)
                health = WorkerHealth::Suspect;
        }
        /** An answer clears misses; it cannot revive a Dead worker
         *  (another lane may have closed it meanwhile). */
        void markAnswered(double now)
        {
            if (health == WorkerHealth::Dead)
                return;
            lastVerdictSeconds = now;
            consecutiveMisses = 0;
            health = WorkerHealth::Healthy;
        }
        /** Live, folding a transport that died under us (a
         *  SIGKILLed worker, a closed socket) into Dead first. */
        bool alive()
        {
            if (health != WorkerHealth::Dead &&
                (transport == nullptr || !transport->isOpen()))
                markDead();
            return health != WorkerHealth::Dead;
        }
        /** Send to a live worker; a failed send marks it Dead. */
        bool send(const Frame &frame)
        {
            if (alive() && !transport->send(frame).ok())
                markDead();
            return alive();
        }
        /** Stop awaiting request `id`: its reply becomes stale. */
        void forget(std::uint64_t id);
    };

    struct Shard
    {
        std::uint32_t id = 0;

        std::mutex mu;
        std::uint64_t generation = 0;
        /** Worker indices holding this shard, primary first. */
        std::vector<std::size_t> replicas;
        /** Last-resort local engine (built on first local
         *  fallback, dropped when the shard's rows change). */
        std::unique_ptr<AttentionBackend> local;
    };

    /** One sent shard query; requestId 0 = nothing was sent. */
    struct Pending
    {
        std::size_t worker = 0;
        std::uint64_t requestId = 0;
    };

    void count(std::size_t RemoteCoordinatorStats::*counter) const;

    // Worker state; each takes or needs the worker's lock.
    bool workerAlive(std::size_t w) const;
    void fileFrame(Worker &worker, Frame &&frame) const;
    /** Wait, holding `lock` on worker.mu, until a frame `mine`
     *  accepts arrives or the absolute `deadline` passes. */
    template <typename Mine>
    NetStatus awaitFrame(Worker &worker,
                         std::unique_lock<std::mutex> &lock,
                         double deadline, const Mine &mine,
                         Frame &out) const;
    void noteRecvFailure(Worker &worker, NetError error,
                         double waitStart) const;
    /** Send `request` (hello, bind or heartbeat) and await the ack
     *  `mine` accepts, applying the outcome to the worker's health. */
    template <typename Mine>
    NetStatus exchange(Worker &worker, const Frame &request,
                       double timeoutSeconds, const Mine &mine) const;
    NetStatus connectionError(Worker &worker,
                              const Frame &frame) const;
    void connectWorker(Worker &worker);

    /** Extend the layout by `addedRows`, rebinding changed shards. */
    void growLayout(std::size_t addedRows);

    // Shard state; each needs the shard's lock.
    NetStatus bindShardTo(std::size_t w, const Shard &shard) const;
    void ensureReplication(Shard &shard, bool countRebinds) const;
    std::uint64_t sendQueryTo(std::size_t w, const Shard &shard,
                              const Vector &query,
                              bool wantFull) const;
    void recoverLocked(Shard &shard, const Vector &query,
                       PartialResult *partial,
                       AttentionResult *result) const;
    void runLocal(Shard &shard, const Vector &query,
                  PartialResult *partial,
                  AttentionResult *result) const;

    // One shard of one query: send to the first live replica, then
    // await the reply or walk the ladder (never fails). Replies go
    // to `result` for a full-result query, else to `partial`.
    Pending sendShard(Shard &shard, const Vector &query,
                      bool wantFull) const;
    /** Await the reply to a query whose wait began at `waitStart`.
     *  An `until` before waitStart + queryDeadlineSeconds cuts the
     *  wait short; a cut wait that times out leaves the request
     *  outstanding, so a later call can resume it. */
    NetStatus awaitShard(const Pending &pending, std::uint32_t shardId,
                         double waitStart, double until,
                         PartialResult *partial,
                         AttentionResult *result) const;
    void awaitOrRecover(Shard &shard, const Pending &pending,
                        const Vector &query,
                        const QueryContext &context,
                        PartialResult *partial,
                        AttentionResult *result) const;
    void queryAllShards(const Vector &query,
                        const QueryContext &context,
                        PartialResult &merged) const;

    EngineConfig inner_;
    RemoteShardConfig config_;
    Matrix key_;
    Matrix value_;
    std::size_t dims_ = 0;
    /** Shard row counts and first global row ids (growShardLayout). */
    std::vector<std::size_t> sizes_;
    std::vector<std::size_t> offsets_;

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::mutex layoutMu_;
    mutable std::atomic<std::uint64_t> nextRequestId_{1};
    mutable std::mutex statsMu_;
    mutable RemoteCoordinatorStats stats_;

    /** Background heartbeat machinery (heartbeatPeriodSeconds > 0):
     *  the thread waits on hbCv_ so the destructor can interrupt a
     *  sleep immediately instead of waiting a full period out. */
    std::mutex hbMu_;
    std::condition_variable hbCv_;
    bool hbStop_ = false;
    std::thread heartbeatThread_;
};

}  // namespace a3

#endif  // A3_SERVING_REMOTE_COORDINATOR_HPP
