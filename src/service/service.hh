/**
 * @file
 * Multi-tenant tracking daemon (DESIGN.md §14).
 *
 * The paper's deployment story is a kernel module watching every
 * process on a phone; TrackingService is that module's software
 * analogue scaled to thousands of concurrently tracked PIDs. Events
 * enter through N striped-lock ingestion shards (pid % shards), each
 * a *bounded* queue: hardware-assisted DIFT designs decouple tracking
 * from the traced CPU through exactly such a queue, and a bounded one
 * forces the overflow question that real decoupling hardware faces.
 *
 * The backpressure contract — never a silent drop: when a shard
 * queue is full, submit() refuses the event and marks the PID lost
 * through PiftTracker::noteStreamLoss, so every later negative sink
 * check for the PID answers MaybeTainted with a StreamLoss
 * provenance record behind it (FP=0, no silent FN — the repo-wide
 * invariant). The mark is ordered: an overflow postdates everything
 * queued at that moment, so a Clear accepted *earlier* cannot erase
 * it when it drains (the shard remembers the loss tick and restores
 * the mark), while a Clear accepted *after* the overflow legitimately
 * clears it — the dropped event could only have touched state the
 * clear wiped anyway.
 *
 * Admission/eviction: when aggregate TaintStorage bytes cross the
 * configured ceiling, maintain() sheds least-recently-active
 * sessions. An evicted PID is tombstoned; if it shows up again, the
 * fresh session declares state loss first (MaybeTainted at sinks),
 * because its taint history is gone.
 *
 * Lifecycle (per PID):
 *
 *     Unknown --attach/submit--> Active --detach--> Detached
 *        ^                        |  ^
 *        |                 evict/ |  | re-admission
 *        |                 expire v  | (state lost)
 *        +---- (tombstone) ---- Shed +
 *
 * Determinism: pump(jobs) drains shards in parallel, but each PID is
 * confined to one shard and sessions are independent, so verdicts
 * are byte-identical at any jobs width. Eviction order is a total
 * order on (last_active tick, pid) — the logical ingest clock, not
 * wall time.
 */

#ifndef PIFT_SERVICE_SERVICE_HH
#define PIFT_SERVICE_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "provenance/explain.hh"
#include "service/session.hh"
#include "sim/trace.hh"

namespace pift::exec
{
class ThreadPool;
}

namespace pift::service
{

/** Service-wide configuration. */
struct ServiceConfig
{
    unsigned shards = 8; //!< striped-lock ingestion shards

    /**
     * Events buffered per shard. The queue is a flat buffer, drained
     * whole under the shard lock; it keeps its capacity, up to
     * queue_capacity × 40 B per shard, so no event allocates or frees
     * heap memory between the producer and the draining thread.
     */
    size_t queue_capacity = 4096;

    /**
     * Aggregate TaintStorage byte ceiling across all sessions;
     * maintain() evicts least-recently-active sessions above it.
     * 0 = unlimited.
     */
    uint64_t memory_ceiling = 0;

    /**
     * Sessions idle for more than this many logical clock ticks are
     * expired by maintain(): removed cleanly when they hold no taint
     * and are not degraded, tombstoned (state-loss on re-admission)
     * otherwise. 0 = never expire.
     */
    uint64_t expire_idle_ticks = 0;

    SessionConfig session;
};

/** Where a PID is in the lifecycle state machine. */
enum class PidState : uint8_t
{
    Unknown = 0, //!< never seen (or cleanly expired/detached)
    Active,      //!< session live in a shard
    Shed         //!< tombstoned by eviction or lossy expiry
};

/** Aggregated service counters (telemetry mirrors per-shard detail). */
struct ServiceStats
{
    uint64_t submitted = 0;  //!< events offered to submit()
    uint64_t accepted = 0;   //!< events that entered a queue
    uint64_t overflowed = 0; //!< events refused by a full queue
    uint64_t drained = 0;    //!< events applied to sessions
    uint64_t loss_marks = 0; //!< noteStreamLoss calls delivered
    uint64_t attached = 0;   //!< sessions created (incl. re-admits)
    uint64_t detached = 0;   //!< sessions removed via detach()
    uint64_t expired = 0;    //!< sessions removed by idle expiry
    uint64_t evicted = 0;    //!< sessions shed by the byte ceiling
    size_t active_sessions = 0;
    uint64_t storage_bytes = 0; //!< aggregate across live sessions
};

/** Snapshot of one live session (deterministic: ascending pid). */
struct SessionInfo
{
    ProcId pid = 0;
    uint64_t storage_bytes = 0;
    uint64_t last_active = 0;
    uint64_t events = 0;
    bool degraded = false;
    bool durable_healthy = true; //!< false after a durable I/O failure
};

/**
 * The daemon. Two drive modes share all semantics:
 *
 *  - pump mode (deterministic, benches/tests): producers submit(),
 *    then pump(jobs) drains every shard via exec::parallelFor;
 *  - threaded mode (live daemon, TSan-stressed): runWorkers(pool)
 *    parks one worker per shard on its condvar; submit() wakes the
 *    shard's worker; stop() quiesces.
 */
class TrackingService
{
  public:
    explicit TrackingService(const ServiceConfig &cfg = {});
    ~TrackingService();

    TrackingService(const TrackingService &) = delete;
    TrackingService &operator=(const TrackingService &) = delete;

    /**
     * Create @p pid's session now (submit() also creates lazily).
     * @return false when the pid is already active.
     */
    bool attach(ProcId pid);

    /**
     * Tear down @p pid's session (process exit — its taint state is
     * moot, so this is a clean removal, not a loss).
     * @return false when no session exists.
     */
    bool detach(ProcId pid);

    /**
     * Offer one event. @return true when queued; false when the
     * shard's queue is full — the event is NOT tracked, and the pid
     * is marked lost so its next drain degrades it to MaybeTainted.
     */
    bool submit(const ServiceEvent &ev);

    /**
     * Bulk submit; groups consecutive same-shard events under one
     * lock acquisition. @return events accepted (refusals mark the
     * pid lost exactly like submit()).
     */
    size_t submitMany(const ServiceEvent *evs, size_t n);

    /** Drain every shard queue (exec::parallelFor over shards). */
    void pump(unsigned jobs = 0);

    /**
     * Run idle expiry and byte-ceiling eviction. Call from a single
     * control thread (or between pumps); never concurrently with
     * itself.
     */
    void maintain();

    /**
     * Synchronous sink check: drain the pid's shard inline, then run
     * the check through its session (creating one — state-lost if
     * tombstoned — when absent). This is the latency-critical
     * operation the bench measures at p99.
     */
    core::SinkVerdict checkSinkNow(ProcId pid, Addr start, Addr end,
                                   uint32_t id);

    /**
     * Threaded mode: park one worker per shard on @p pool (the call
     * blocks inside pool.forEach until stop()). Producers call
     * submit()/submitMany() concurrently from other threads. A pool
     * narrower than the shard count is served too (with a warning):
     * each worker multiplexes shards [i, i+n, i+2n, ...] using timed
     * waits, trading some wakeup latency for full coverage.
     */
    void runWorkers(exec::ThreadPool &pool);

    /**
     * Quiesce threaded mode: drain what is queued, release workers.
     * Ends the current run of runWorkers(), or the next one when
     * none has started yet (that run then drains once and returns).
     */
    void stop();

    PidState pidState(ProcId pid) const;

    /** Sink results recorded so far for @p pid (empty when unknown). */
    std::vector<core::SinkResult> sinkResultsFor(ProcId pid) const;

    /**
     * The pid's flight recorder, for provenance::explainPid. Null
     * when the session is absent or provenance is off. Only valid
     * while the service is quiescent (no concurrent drains) and
     * until the session is evicted/expired/detached.
     */
    const provenance::Recorder *recorderFor(ProcId pid) const;

    /** Aggregate counters (sums the per-shard tallies). */
    ServiceStats stats() const;

    /** Live sessions, ascending pid. */
    std::vector<SessionInfo> sessions() const;

    const ServiceConfig &config() const { return cfg_; }

    /**
     * Logical ingest clock (ticks = accepted events, sink checks and
     * overflow loss marks).
     */
    uint64_t clock() const
    {
        return clock_.load(std::memory_order_relaxed);
    }

  private:
    struct Shard;

    Shard &shardFor(ProcId pid);
    const Shard &shardFor(ProcId pid) const;

    /** Apply queued events + loss marks; caller holds the lock. */
    void drainLocked(Shard &sh);

    /** Find-or-create the session; caller holds the lock. */
    Session &sessionLocked(Shard &sh, ProcId pid);

    /** Serve shards first, first+stride, ... until stop(). */
    void workerLoop(size_t first, size_t stride);

    ServiceConfig cfg_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<uint64_t> clock_{0};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> threaded_{false};
    std::atomic<size_t> nworkers_{0}; //!< threaded mode: worker count
};

/**
 * Flatten a captured trace into the event stream a capture front-end
 * would ship: memory records (their pid replaced by @p pid) and the
 * interleaved control events, in replay() order. Non-memory records
 * are dropped — the tracker keys on the per-process counter each
 * memory record already carries. Registry traces are single-process,
 * so the pid override preserves verdict semantics exactly.
 */
std::vector<ServiceEvent> eventsFromTrace(const sim::Trace &trace,
                                          ProcId pid);

} // namespace pift::service

#endif // PIFT_SERVICE_SERVICE_HH
